"""Command-line driver: batch solves, inequality reports, constant tables.

Subcommands:
  verify <config.json>   rasterize, solve, extrapolate, evaluate the catalog
  constants --n 2..8     c_n / d_n table
  curve --n 4 --points 65   two-ball J(t) curve samples
  spectrum --shape ... --problem ... --h ... --levels ... --m ...

Reports are CSV (12 significant digits) plus one JSON summary; reruns of
an identical config reproduce identical bytes. The environment variable
EIGENINEQ_OUT overrides the output directory; --tolerance-scale
multiplies every discretization allowance.
"""

import argparse
import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import sources
from .catalog import CATALOG, CONJECTURE, PROVEN, evaluate_all
from .grid.domain import Annulus, Disk, Ellipse, LShape, Polygon, Rectangle, Shape, _finite_real
from .grid.solve import SolverError, solve_shape
from .spectra import ProblemKind
from .specfun import ConvergenceError
from .twoball import TALENTI_D_PRIME, c_constants, curve_table, d_constants

_SCHEMA_VERSION = 1
_SUMMARY_VERSION = 1
_CONFIG_KEYS = {"schema_version", "domains", "problems", "mesh", "m_max", "k_max", "inequalities", "output_dir"}
_MESH_KEYS = {"h", "levels"}
_DOMAIN_KEYS = {"shape", "label"}
_K_MAX = 10  # the k_max a config without one runs


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def _slack_cell(report):
    """Slack rounded at the 12th significant digit of max(|lhs|, |rhs|).

    That is the resolution of the lhs and rhs cells; below it, a
    near-cancelling difference holds only round-off. Zero and infinite
    slack are left as they are.
    """
    if report.slack == 0.0 or not math.isfinite(report.slack):
        return report.slack
    scale = max(abs(report.lhs), abs(report.rhs))
    return round(report.slack, 11 - math.floor(math.log10(scale))) + 0.0  # + 0.0: no "-0"


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_spectra(path: Path, solved):
    """One row per eigenvalue of each (bundle, per-level spectra) pair's spectra.

    Domains go by label and problems by name; each problem's levels come
    before its extrapolation (a Ritz spectrum has no levels and no mesh
    width, so its rows have an empty h), and every row carries the
    bundle's label.
    """
    _write_csv(path, ["domain", "problem", "provenance", "h", "index", "value", "allowance"],
               [(bundle.label, s.kind.value, s.provenance.value, s.mesh_h, i + 1, v, s.allowance)
                for bundle, per_level in sorted(solved, key=lambda d: d[0].label)
                for kind in sorted(per_level, key=lambda k: k.value)
                for s in [*per_level[kind], getattr(bundle, kind.value)]
                for i, v in enumerate(s.values)])


def parse_shape(desc: dict) -> Shape:
    if not isinstance(desc, dict) or "type" not in desc:
        raise ConfigError(f"shape descriptor must be an object with a 'type', got {desc!r}")
    kind = desc["type"]
    args = {k: v for k, v in desc.items() if k != "type"}
    makers = {
        "disk": Disk,
        "ellipse": Ellipse,
        "rectangle": Rectangle,
        "l_shape": LShape,
        "annulus": Annulus,
        "polygon": Polygon,
    }
    if kind not in makers:
        raise ConfigError(f"unknown shape type {kind!r}")
    try:
        shape = makers[kind](**args)
        if not math.isfinite(shape.area):
            raise ValueError(f"area {shape.area} is not finite")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {kind} descriptor {args}: {exc}") from exc
    return shape


def _integer(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _strings(value, name: str) -> list:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{name} must be a list of strings, got {value!r}")
    return value


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at {path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    if type(cfg.get("schema_version")) is not int or cfg["schema_version"] != _SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be the integer {_SCHEMA_VERSION}")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, got {cfg['output_dir']!r}")
    domains = cfg.get("domains")
    if not domains:
        raise ConfigError("config needs a nonempty 'domains' list")
    problems = cfg.get("problems")
    if not problems:
        raise ConfigError("config needs a nonempty 'problems' list")
    for p in _strings(problems, "problems"):
        if p not in {k.value for k in ProblemKind}:
            raise ConfigError(f"unknown problem kind {p!r}")
    mesh = cfg.get("mesh", {})
    if not isinstance(mesh, dict):
        raise ConfigError(f"mesh must be an object, got {mesh!r}")
    if unknown := set(mesh) - _MESH_KEYS:
        raise ConfigError(f"mesh has unknown keys {sorted(unknown)}")
    if not (_finite_real(mesh.get("h")) and mesh["h"] > 0):
        raise ConfigError("mesh.h must be a finite real number > 0")
    if _integer(mesh.get("levels", 0), "mesh.levels") < 2:
        raise ConfigError("mesh.levels must be >= 2 (extrapolation needs two levels)")
    if _integer(cfg.get("m_max", 0), "m_max") < 1:
        raise ConfigError("m_max must be >= 1")
    if _integer(cfg.get("k_max", _K_MAX), "k_max") < 0:
        raise ConfigError("k_max must be >= 0")
    for d in domains:
        if not isinstance(d, dict):
            raise ConfigError(f"domains must hold objects, got {d!r}")
        if unknown := set(d) - _DOMAIN_KEYS:
            raise ConfigError(f"domains entry has unknown keys {sorted(unknown)}")
        parse_shape(d.get("shape"))
        label = d.get("label")
        if label is not None and not isinstance(label, str):
            raise ConfigError(f"label must be a string, got {label!r}")
    ids = cfg.get("inequalities")
    if ids is not None:
        unknown = set(_strings(ids, "inequalities")) - set(CATALOG)
        if unknown:
            raise ConfigError(f"unknown inequality ids {sorted(unknown)}")
    return cfg


def run_verify(config: dict, output_dir: str, tolerance_scale: float = 1.0, workers: int | None = None) -> int:
    """Solve every problem on every domain, evaluate the catalog, write reports.

    Domains are solved ``workers`` at a time (default: one per CPU), the
    largest first. Returns the process exit code: 0 iff every
    proven-status inequality holds and no solve failed.
    """
    if not (math.isfinite(tolerance_scale) and tolerance_scale >= 0.0):
        raise ConfigError(f"tolerance scale must be finite and >= 0, got {tolerance_scale}")
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    h = float(config["mesh"]["h"])
    levels = int(config["mesh"]["levels"])
    m_max = int(config["m_max"])
    k_max = int(config.get("k_max", _K_MAX))
    ids = config.get("inequalities")
    problems = [ProblemKind(p) for p in config["problems"]]
    shapes = [parse_shape(d["shape"]) for d in config["domains"]]
    domains = [(d.get("label") or shape.label, shape) for d, shape in zip(config["domains"], shapes)]
    if len({label for label, _ in domains}) != len(domains):
        raise ConfigError("domain labels must be unique")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def m_for(problem):
        if problem in (ProblemKind.DIRICHLET, ProblemKind.NEUMANN):
            return max(m_max, k_max) + 1
        return m_max + 1

    wanted = {problem: m_for(problem) for problem in problems}
    by_area = sorted(domains, key=lambda d: d[1].area, reverse=True)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers or os.cpu_count() or 1) as pool:
        solved = list(pool.map(lambda d: sources.solve_shape(*d, wanted, h, levels), by_area))
    errors = [{"domain": bundle.label, "problem": problem.value, "error": str(exc)}
              for bundle, _, failed in solved for problem, exc in failed.items()]
    _write_spectra(out / "spectra.csv", [(bundle, per_level) for bundle, per_level, _ in solved])

    reports = []
    for bundle, per_level, _ in solved:
        scaled = {s.kind.value: dataclasses.replace(s, allowance=s.allowance * tolerance_scale)
                  for s in (getattr(bundle, kind.value) for kind in per_level)}
        reports.extend(evaluate_all(dataclasses.replace(bundle, **scaled), m_max=m_max, k_max=k_max, ids=ids))
    reports.sort(key=lambda r: (r.domain, r.id, -1 if r.m is None else r.m))
    _write_csv(
        out / "inequalities.csv",
        ["id", "domain", "m", "lhs", "rhs", "slack", "holds", "tolerance", "citation", "status", "note"],
        [(r.id, r.domain, r.m, r.lhs, r.rhs, _slack_cell(r), r.holds, r.tolerance_used, r.citation, r.status, r.note)
         for r in reports],
    )

    counts = {
        "proven_held": sum(1 for r in reports if r.status == PROVEN and r.holds),
        "proven_failed": sum(1 for r in reports if r.status == PROVEN and not r.holds),
        "conjecture_held": sum(1 for r in reports if r.status == CONJECTURE and r.holds),
        "conjecture_failed": sum(1 for r in reports if r.status == CONJECTURE and not r.holds),
    }
    exit_code = 0 if counts["proven_failed"] == 0 and not errors else 1
    summary = {
        "summary_version": _SUMMARY_VERSION,
        "counts": counts,
        "solver_errors": sorted(errors, key=lambda e: (e["domain"], e["problem"])),
        "n_reports": len(reports),
        "exit_code": exit_code,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return exit_code


def _parse_n_list(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--n must be a range like 2..8 or a list like 2,4,6, got {text!r}") from exc
    if not ns:
        raise ConfigError(f"--n names no dimension: {text!r}")
    return ns


def run_constants(n_list, output_dir: str) -> int:
    """CSV table of c_n, d_n, the minimizing t and the endpoint value.

    Every n is checked before any is solved, and the constants of all n
    are solved in one batch each, before the output directory is created.
    """
    ns = sorted(set(n_list))
    for n in ns:
        if n < 2:
            raise ConfigError(f"dimensions must be >= 2, got {n}")
    ds = d_constants(ns)
    cs = c_constants(ns)
    rows = [(n, cs[n], d.d_n, d.minimizer_t, d.ball_value, TALENTI_D_PRIME.get(n)) for n, d in ds.items()]
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "constants.csv", ["n", "c_n", "d_n", "minimizer_t", "J_endpoint", "d_prime_ref"], rows)
    return 0


def run_curve(n: int, points: int, output_dir: str) -> int:
    """CSV of the normalized two-ball curve J(t)/Gamma_1(B_1) on a uniform grid."""
    if n < 2:
        raise ConfigError(f"dimension must be >= 2, got {n}")
    if points < 2:
        raise ConfigError(f"need at least 2 curve points, got {points}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = [i / (points - 1) for i in range(points)]
    rows = []
    failed = 0
    for t, ratio in curve_table(n, grid):
        if ratio is None:
            failed += 1
        rows.append((t, ratio, "ok" if ratio is not None else "failed"))
    _write_csv(out / f"curve_n{n}.csv", ["t", "J_ratio", "status"], rows)
    return 0 if failed == 0 else 1


def run_spectrum(shape_desc: str, problem: str, h: float, levels: int, m: int, output_dir: str) -> int:
    """Solve one shape/problem at every level and write the spectra CSV."""
    try:
        desc = json.loads(shape_desc)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad shape JSON: {exc}") from exc
    shape = parse_shape(desc)
    kind = ProblemKind(problem)
    try:
        bundle, per_level, errors = solve_shape(shape.label, shape, {kind: m}, h, levels)
        if kind in errors:
            raise errors[kind]
    except ValueError as exc:  # a shape that does not rasterize, or levels or m the mesh cannot give
        raise ConfigError(str(exc)) from exc
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_spectra(out / "spectrum.csv", [(bundle, per_level)])
    return 0


def _output_dir(args, default="."):
    return args.output_dir or os.environ.get("EIGENINEQ_OUT") or default


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="eigenineq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output-dir", help="report directory (or env EIGENINEQ_OUT)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a config and evaluate the inequality catalog")
    p_verify.add_argument("config")
    p_verify.add_argument("--tolerance-scale", type=float, default=1.0,
                          help="multiply every discretization allowance (finite, >= 0)")
    p_verify.add_argument("--workers", type=int, default=None,
                          help="domains solved at once (default: one per CPU); must be >= 1")

    p_const = sub.add_parser("constants", help="write the c_n / d_n table")
    p_const.add_argument("--n", default="2..8", help="range like 2..8 or list like 2,4,6")

    p_curve = sub.add_parser("curve", help="write the two-ball J(t) curve")
    p_curve.add_argument("--n", type=int, required=True)
    p_curve.add_argument("--points", type=int, default=65)

    p_spec = sub.add_parser("spectrum", help="solve one shape/problem pair")
    p_spec.add_argument("--shape", required=True, help='JSON, e.g. {"type":"disk","radius":1.0}')
    p_spec.add_argument("--problem", required=True, choices=[k.value for k in ProblemKind])
    p_spec.add_argument("--h", type=float, required=True)
    p_spec.add_argument("--levels", type=int, default=2)
    p_spec.add_argument("--m", type=int, default=6)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            config = load_config(args.config)
            out = _output_dir(args, config.get("output_dir") or ".")
            return run_verify(config, out, args.tolerance_scale, args.workers)
        if args.command == "constants":
            return run_constants(_parse_n_list(args.n), _output_dir(args))
        if args.command == "curve":
            return run_curve(args.n, args.points, _output_dir(args))
        if args.command == "spectrum":
            return run_spectrum(args.shape, args.problem, args.h, args.levels, args.m, _output_dir(args))
    except (ConfigError, SolverError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
