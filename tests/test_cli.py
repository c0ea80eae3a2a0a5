"""CLI driver: config handling, report files, determinism, exit codes."""

import csv
import json
import math

import pytest

from eigenineq import specfun
from eigenineq.cli import ConfigError, load_config, main, parse_shape
from eigenineq.grid import solve as solve_module
from eigenineq.grid.domain import Disk, LShape, Rectangle
from eigenineq.grid.solve import SolverError
from eigenineq.spectra import ProblemKind, Provenance, Spectrum


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "domains": [
            {"shape": {"type": "rectangle", "width": 1.0, "height": 1.0}, "label": "unit_square"},
        ],
        "problems": ["dirichlet"],
        "mesh": {"h": 1.0 / 16.0, "levels": 2},
        "m_max": 3,
        "k_max": 3,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestShapeParsing:
    def test_round_trip_each_type(self):
        assert parse_shape({"type": "disk", "radius": 2.0}) == Disk(2.0)
        assert parse_shape({"type": "rectangle", "width": 1.0, "height": 2.0}) == Rectangle(1.0, 2.0)
        assert parse_shape({"type": "l_shape", "w1": 0.5, "w2": 0.25}) == LShape(0.5, 0.25)
        poly = parse_shape({"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]})
        assert abs(poly.area - 0.5) < 1e-15

    def test_bad_descriptors(self):
        with pytest.raises(ConfigError):
            parse_shape({"radius": 1.0})
        with pytest.raises(ConfigError):
            parse_shape({"type": "heptagon"})
        with pytest.raises(ConfigError):
            parse_shape({"type": "disk", "diameter": 1.0})


class TestConfig:
    def test_parse_error_carries_line_context(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "schema_version": 1,\n  "domains": [\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.json:\d+:\d+"):
            load_config(str(bad))

    def test_empty_domain_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", domains=[])
        with pytest.raises(ConfigError, match="domains"):
            load_config(str(cfg))

    def test_single_level_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", mesh={"h": 0.125, "levels": 1})
        with pytest.raises(ConfigError, match="levels"):
            load_config(str(cfg))

    def test_unknown_inequality_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", inequalities=["no_such_bound"])
        with pytest.raises(ConfigError, match="no_such_bound"):
            load_config(str(cfg))

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", concurrency=64, kmax=3)
        with pytest.raises(ConfigError, match=r"\['concurrency', 'kmax'\]"):
            load_config(str(cfg))
        assert main(["verify", str(cfg)]) == 2
        assert "concurrency" in capsys.readouterr().err

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(cfg))
        assert main(["verify", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(("override", "field"), [
        ({"m_max": "abc"}, "m_max"),
        ({"k_max": "x"}, "k_max"),
        ({"k_max": -3}, "k_max"),
        ({"mesh": {"h": 1.0 / 16.0, "levels": "two"}}, "mesh.levels"),
        ({"mesh": [1]}, "mesh"),
        ({"domains": ["disk"]}, "domains"),
        ({"inequalities": "faber_krahn"}, "inequalities"),
        ({"inequalities": [["faber_krahn"]]}, "inequalities"),
        ({"problems": [["dirichlet"]]}, "problems"),
        ({"problems": "dirichlet"}, "problems"),
        ({"domains": [{"shape": {"type": "disk", "radius": 1.0}, "label": ["x"]}]}, "label"),
        ({"mesh": {"h": True, "levels": 2}}, "mesh.h"),
        ({"mesh": {"h": math.inf, "levels": 2}}, "mesh.h"),
        ({"output_dir": 5}, "output_dir"),
        ({"mesh": {"h": 1.0 / 16.0, "levels": 2, "lvls": 3}}, "mesh"),
        ({"domains": [{"shape": {"type": "disk", "radius": 1.0}, "lable": "x"}]}, "domains"),
        ({"schema_version": True}, "config schema_version"),
        ({"schema_version": 1.0}, "config schema_version"),
    ], ids=["m_max_text", "k_max_text", "k_max_negative", "levels_text", "mesh_list", "domain_text", "inequalities_text",
            "inequalities_nested", "problems_nested", "problems_text", "label_list", "h_bool", "h_infinite",
            "output_dir_int", "mesh_typo", "domain_typo", "schema_bool", "schema_float"])
    def test_malformed_value_is_a_usage_error(self, tmp_path, capsys, override, field):
        cfg = write_config(tmp_path / "c.json", **override)
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} ")
        assert not out.exists()

    def test_non_string_output_dir_without_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EIGENINEQ_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", output_dir=5)
        assert main(["verify", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: output_dir must be a string, got 5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_usage_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", domains=[])
        assert main(["verify", str(cfg)]) == 2
        assert "domains" in capsys.readouterr().err


class TestVerify:
    def test_square_report_contents(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg)]) == 0
        rows = read_csv(out / "inequalities.csv")
        ppw = [r for r in rows if r["id"] == "ppw_gap"]
        assert [r["m"] for r in ppw] == ["1", "2", "3"]
        assert all(r["holds"] == "true" for r in ppw)
        assert all(r["citation"] for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["counts"]["proven_failed"] == 0
        assert summary["exit_code"] == 0
        spectra = read_csv(out / "spectra.csv")
        assert {r["provenance"] for r in spectra} == {"discrete", "discrete_extrapolated"}

    def test_byte_reproducible(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--output-dir", str(out1), "verify", str(cfg)])
        main(["--output-dir", str(out2), "verify", str(cfg)])
        for name in ("inequalities.csv", "spectra.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json")
        monkeypatch.setenv("EIGENINEQ_OUT", str(tmp_path / "env_out"))
        assert main(["verify", str(cfg)]) == 0
        assert (tmp_path / "env_out" / "summary.json").exists()

    def test_solver_error_recorded_and_nonzero_exit(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            domains=[
                {"shape": {"type": "rectangle", "width": 1.0, "height": 1.0}, "label": "ok"},
                {"shape": {"type": "rectangle", "width": 0.01, "height": 0.01}, "label": "degenerate"},
            ],
        )
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solver_errors"] and summary["solver_errors"][0]["domain"] == "degenerate"
        # the healthy domain still produced reports
        assert any(r["domain"] == "ok" for r in read_csv(out / "inequalities.csv"))

    def test_failed_problem_leaves_the_others_solved(self, tmp_path, monkeypatch):
        real = solve_module.smallest_eigs

        def no_buckling(op, m, factors=None):
            if op.kind is ProblemKind.BUCKLING:
                raise SolverError("injected buckling failure")
            return real(op, m, factors)

        monkeypatch.setattr(solve_module, "smallest_eigs", no_buckling)
        cfg = write_config(tmp_path / "c.json", problems=["dirichlet", "neumann", "clamped", "buckling"])
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solver_errors"] == [
            {"domain": "unit_square", "problem": "buckling", "error": "injected buckling failure"}
        ]
        assert {r["problem"] for r in read_csv(out / "spectra.csv")} == {"dirichlet", "neumann", "clamped"}

    @pytest.mark.parametrize("workers", ["-1", "0"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        square = {"shape": {"type": "rectangle", "width": 1.0, "height": 1.0}, "label": "twin"}
        cfg = write_config(tmp_path / "c.json", domains=[square, square])
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg)]) == 2
        assert "unique" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["-10", "nan", "inf"])
    def test_bad_tolerance_scale_rejected(self, tmp_path, capsys, scale):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg), "--tolerance-scale", scale]) == 2
        assert "tolerance scale" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tolerance_scale_means_no_allowance(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "verify", str(cfg), "--tolerance-scale", "0"]) == 0
        spectra = read_csv(out / "spectra.csv")
        assert {r["allowance"] for r in spectra if r["provenance"] == "discrete_extrapolated"} != {"0"}
        rows = read_csv(out / "inequalities.csv")
        # only the 1e-9 round-off floor is left of each tolerance
        assert all(float(r["tolerance"]) <= 1e-9 * max(abs(float(r["lhs"])), abs(float(r["rhs"])), 1.0)
                   for r in rows)

    def test_tolerance_scale_widens(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        main(["--output-dir", str(out1), "verify", str(cfg)])
        main(["--output-dir", str(out2), "verify", str(cfg), "--tolerance-scale", "10"])
        t1 = {(r["id"], r["m"]): float(r["tolerance"]) for r in read_csv(out1 / "inequalities.csv")}
        t2 = {(r["id"], r["m"]): float(r["tolerance"]) for r in read_csv(out2 / "inequalities.csv")}
        assert any(t2[k] > 5.0 * t1[k] for k in t1)

    def test_inequality_filter(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", inequalities=["faber_krahn"])
        out = tmp_path / "out"
        main(["--output-dir", str(out), "verify", str(cfg)])
        rows = read_csv(out / "inequalities.csv")
        assert {r["id"] for r in rows} == {"faber_krahn"}

    def test_slack_prints_no_round_off(self, tmp_path, monkeypatch):
        # fixed_lambda1 with lambda_2 a hair below its bound: slack ~3e-6 against lhs ~50
        lam1 = 2.0 * math.pi**2
        bound = (specfun.bessel_zero(1.0, 1) * math.sqrt(lam1) / specfun.bessel_zero(0.0, 1)) ** 2
        cells = []
        for lam2 in (bound - 3e-6, math.nextafter(bound - 3e-6, 0.0)):  # one ulp apart

            def fixed(op, m, factors=None, lam2=lam2):
                values = (lam1, lam2, *(lam2 + k for k in range(1, m - 1)))
                return Spectrum(op.kind, 2, values, op.domain.label, Provenance.DISCRETE, op.h)

            monkeypatch.setattr(solve_module, "smallest_eigs", fixed)
            cfg = write_config(tmp_path / "c.json", inequalities=["fixed_lambda1"])
            out = tmp_path / f"out{len(cells)}"
            assert main(["--output-dir", str(out), "verify", str(cfg)]) == 0
            (row,) = read_csv(out / "inequalities.csv")
            cells.append((row["lhs"], row["slack"], row["holds"]))
        assert cells[0] == cells[1] == (cells[0][0], "3e-06", "true")


class TestConstantsAndCurve:
    def test_constants_table(self, tmp_path):
        assert main(["--output-dir", str(tmp_path), "constants", "--n", "2..4"]) == 0
        rows = read_csv(tmp_path / "constants.csv")
        assert [r["n"] for r in rows] == ["2", "3", "4"]
        r2 = rows[0]
        assert abs(float(r2["c_n"]) - 0.7877) < 5e-4
        assert float(r2["d_n"]) == 1.0
        assert float(r2["minimizer_t"]) in (0.0, 1.0)
        assert float(r2["d_prime_ref"]) == 0.9777
        r4 = rows[2]
        assert abs(float(r4["d_n"]) - 0.9537) < 2e-3
        assert abs(float(r4["minimizer_t"]) - 0.5) < 0.02

    def test_curve_endpoints_and_symmetry(self, tmp_path):
        assert main(["--output-dir", str(tmp_path), "curve", "--n", "2", "--points", "9"]) == 0
        rows = read_csv(tmp_path / "curve_n2.csv")
        assert float(rows[0]["J_ratio"]) == 1.0 and float(rows[-1]["J_ratio"]) == 1.0
        vals = [float(r["J_ratio"]) for r in rows]
        for a, b in zip(vals, reversed(vals)):
            assert abs(a - b) < 1e-7 * a
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("argv", [
        ["constants", "--n", "2..x"],
        ["constants", "--n", "abc"],
        ["constants", "--n", ""],
        ["curve", "--n", "1"],
    ], ids=["bad_range", "not_a_number", "no_dimension", "curve_n_below_2"])
    def test_usage_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestSpectrumCommand:
    def test_writes_levels_and_extrapolation(self, tmp_path):
        code = main([
            "--output-dir", str(tmp_path), "spectrum",
            "--shape", '{"type": "rectangle", "width": 1.0, "height": 1.0}',
            "--problem", "dirichlet", "--h", "0.0625", "--levels", "2", "--m", "2",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 6  # 2 levels + extrapolation, 2 values each
        ext = [r for r in rows if r["provenance"] == "discrete_extrapolated"]
        assert abs(float(ext[0]["value"]) - 2.0 * math.pi**2) < 0.01

    def test_bad_shape_json(self, tmp_path, capsys):
        assert main(["--output-dir", str(tmp_path), "spectrum", "--shape", "{oops",
                     "--problem", "dirichlet", "--h", "0.25"]) == 2
        assert "shape" in capsys.readouterr().err

    @pytest.mark.parametrize("shape,problem,m", [
        ('{"type": "rectangle", "width": 0.01, "height": 0.01}', "dirichlet", "6"),  # does not rasterize
        ('{"type": "rectangle", "width": 1.0, "height": 1.0}', "dirichlet", "20"),  # more values than the mesh has
        ('{"type": "disk", "radius": 1.0}', "neumann", "1"),  # only the constant mode
    ], ids=["unrasterizable", "m_too_large", "neumann_m1"])
    def test_unsolvable_request_is_usage_error(self, tmp_path, capsys, shape, problem, m):
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "spectrum", "--shape", shape,
                     "--problem", problem, "--h", "0.25", "--levels", "2", "--m", m]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_usage_error_leaves_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "spectrum", "--shape", '{"type": "rectangle", "width": 1.0, "height": 1.0}',
                     "--problem", "dirichlet", "--h", "0.25", "--m", "20"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


@pytest.mark.parametrize("shape", [
    '{"type": "disk", "radius": "1"}',
    '{"type": "disk", "radius": Infinity}',
    '{"type": "disk", "radius": true}',
    '{"type": "ellipse", "a": 1.0, "b": NaN}',
    '{"type": "rectangle", "width": 1.0, "height": "1"}',
    '{"type": "annulus", "r_inner": 0.5, "r_outer": Infinity}',
    '{"type": "polygon", "vertices": [[0, 0], [1, 0], [0, Infinity]]}',
    '{"type": "polygon", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}',
    '{"type": "disk", "radius": -1.0}',
    '{"type": "ellipse", "a": 1.0, "b": 0}',
    '{"type": "rectangle", "width": 0.0, "height": 1.0}',
    '{"type": "polygon", "vertices": [[0, 0], [1, 1], [2, 2]]}',
    '{"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "vertex": [[9, 9]]}',
], ids=["disk_string", "disk_inf", "disk_bool", "ellipse_nan", "rectangle_string", "annulus_inf", "polygon_inf",
        "polygon_string", "disk_negative", "ellipse_zero", "rectangle_zero", "polygon_collinear", "polygon_stray_key"])
@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_non_finite_shape_parameter_is_usage_error(tmp_path, capsys, shape, command):
    out = tmp_path / "out"
    if command == "spectrum":
        argv = ["spectrum", "--shape", shape, "--problem", "dirichlet", "--h", "0.25"]
    else:
        cfg = write_config(tmp_path / "cfg.json")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace('{"type": "rectangle", "width": 1.0, "height": 1.0}', shape), encoding="utf-8")
        argv = ["verify", str(cfg)]
    assert main(["--output-dir", str(out), *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
