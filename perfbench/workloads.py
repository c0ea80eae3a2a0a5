"""The benchmark's workloads: CLI arguments from a seed, and correctness gates.

Each workload is one `eigenineq` command, run once per iteration. Its
gate reads the reports the command wrote and compares them with closed
forms (`eigenineq.balls`) or published constants. Reference values are
computed when the workload is built, before any timing or tracing.
"""

import csv
import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

from eigenineq.balls import (
    BallSpec,
    buckling_ball,
    clamped_ball,
    dirichlet_ball,
    neumann_ball_mu1,
    rectangle_spectrum,
)
from eigenineq.spectra import ProblemKind

# The tests/conftest.py verification corpus.
CORPUS = (
    ("unit_square", {"type": "rectangle", "width": 1.0, "height": 1.0}),
    ("rect_2to1", {"type": "rectangle", "width": math.sqrt(2.0), "height": math.sqrt(2.0) / 2.0}),
    ("rect_sqrt8_sqrt3", {"type": "rectangle", "width": math.sqrt(8.0), "height": math.sqrt(3.0)}),
    ("disk", {"type": "disk", "radius": 1.0}),
    ("ellipse_2to1", {"type": "ellipse", "a": 1.0, "b": 0.5}),
    ("l_shape", {"type": "l_shape", "w1": 0.5, "w2": 0.5}),
)
PROBLEMS = ("dirichlet", "neumann", "clamped", "buckling")
VERIFY_H = 1.0 / 32.0
M_MAX = 8
K_MAX = 10
VERIFY_WORKERS = 2

# Published constants and the tolerance of tests/test_acceptance.py.
PUBLISHED_C = {2: 0.7877, 3: 0.7759, 4: 0.7872, 5: 0.8020, 6: 0.8163}
PUBLISHED_D = {4: 0.9537, 5: 0.9218, 6: 0.9077, 8: 0.8998}
CONSTANTS_TOL = 2e-3
CONSTANTS_N = tuple(range(2, 9))

SPECTRUM_H = 0.020833333333333332  # 1/48; the levels are 1/48, 1/96 and 1/192
SPECTRUM_M = 11


@dataclasses.dataclass
class Check:
    """Outcome of one run's correctness gate and oracle comparison."""

    ok: bool
    detail: str
    oracle_max_rel_err: float
    covered: int  # oracle-comparable values within twice their allowance
    compared: int
    digest: str  # hash of the report bytes


def _digest(out_dir, names):
    h = hashlib.sha256()
    for name in names:
        path = Path(out_dir) / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _extrapolated(path):
    """{(domain, problem): {index: (value, allowance)}} of extrapolated rows."""
    table = {}
    for row in _read_csv(path):
        if row["provenance"] == "discrete_extrapolated":
            table.setdefault((row["domain"], row["problem"]), {})[int(row["index"])] = (
                float(row["value"]),
                float(row["allowance"]),
            )
    return table


def _compare(table, refs):
    """(max relative error, covered count, compared count, missing keys)."""
    worst, covered, compared, missing = 0.0, 0, 0, []
    for key, pairs in refs.items():
        got = table.get(key, {})
        for index, ref in pairs:
            if index not in got:
                missing.append((*key, index))
                continue
            value, allowance = got[index]
            err = abs(value - ref) / ref
            worst = max(worst, err)
            covered += err <= 2.0 * allowance
            compared += 1
    return worst, covered, compared, missing


class VerifyCorpus:
    name = "verify_corpus"
    reports = ("spectra.csv", "inequalities.csv", "summary.json")
    ops = len(CORPUS) * len(PROBLEMS)
    workers = VERIFY_WORKERS

    def __init__(self, seed, work_dir):
        self._rng = random.Random(seed)
        self._inputs = Path(work_dir) / "inputs"
        self._inputs.mkdir(parents=True, exist_ok=True)
        disk = BallSpec(2)
        n_membrane = max(M_MAX, K_MAX) + 1
        refs = {
            ("disk", "dirichlet"): list(enumerate(dirichlet_ball(disk, n_membrane).values, 1)),
            ("disk", "neumann"): [(2, neumann_ball_mu1(disk))],
            ("disk", "clamped"): list(enumerate(clamped_ball(disk, 2).values, 1)),
            ("disk", "buckling"): list(enumerate(buckling_ball(disk, 2).values, 1)),
        }
        for label, shape in CORPUS:
            if shape["type"] == "rectangle":
                for kind in (ProblemKind.DIRICHLET, ProblemKind.NEUMANN):
                    spec = rectangle_spectrum(shape["width"], shape["height"], kind, n_membrane)
                    # the Neumann zero mode has no relative error
                    refs[(label, kind.value)] = [(i, v) for i, v in enumerate(spec.values, 1) if v > 0.0]
        self._refs = refs

    def argv(self, iteration, out_dir):
        """A config with the corpus' domain and problem order shuffled."""
        domains = list(CORPUS)
        problems = list(PROBLEMS)
        self._rng.shuffle(domains)
        self._rng.shuffle(problems)
        config = {
            "schema_version": 1,
            "domains": [{"shape": shape, "label": label} for label, shape in domains],
            "problems": problems,
            "mesh": {"h": VERIFY_H, "levels": 2},
            "m_max": M_MAX,
            "k_max": K_MAX,
            "inequalities": None,
        }
        path = self._inputs / f"config_{iteration}.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return ["--output-dir", str(out_dir), "verify", str(path), "--workers", str(VERIFY_WORKERS)]

    def check(self, rc, out_dir):
        out = Path(out_dir)
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            proven_failed = summary["counts"]["proven_failed"]
            solver_errors = summary["solver_errors"]
            table = _extrapolated(out / "spectra.csv")
        except (OSError, ValueError, KeyError) as exc:
            return Check(False, f"unreadable reports: {exc}", math.inf, 0, 0, "")
        if proven_failed != 0:
            problems.append(f"proven_failed={proven_failed}")
        if solver_errors:
            problems.append(f"solver_errors={solver_errors}")
        worst, covered, compared, missing = _compare(table, self._refs)
        if missing:
            problems.append(f"missing spectra {missing}")
        return Check(not problems, "; ".join(problems) or "ok", worst, covered, compared,
                     _digest(out, self.reports))


class Constants2to8:
    name = "constants_2to8"
    reports = ("constants.csv",)
    ops = len(CONSTANTS_N)
    workers = None

    def __init__(self, seed, work_dir):
        self._rng = random.Random(seed)

    def argv(self, iteration, out_dir):
        """`--n` as a shuffled list of 2..8; the table is sorted by n."""
        ns = list(CONSTANTS_N)
        self._rng.shuffle(ns)
        return ["--output-dir", str(out_dir), "constants", "--n", ",".join(map(str, ns))]

    def check(self, rc, out_dir):
        out = Path(out_dir)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            rows = {int(r["n"]): r for r in _read_csv(out / "constants.csv")}
        except (OSError, ValueError, KeyError) as exc:
            return Check(False, f"unreadable constants.csv: {exc}", math.inf, 0, 0, "")
        if sorted(rows) != list(CONSTANTS_N):
            problems.append(f"rows for n={sorted(rows)}")
        worst, covered, compared = 0.0, 0, 0
        for column, published in (("c_n", PUBLISHED_C), ("d_n", PUBLISHED_D)):
            for n, ref in published.items():
                if n not in rows:
                    continue
                err = abs(float(rows[n][column]) - ref)
                if err >= CONSTANTS_TOL:
                    problems.append(f"{column}(n={n}) off by {err:.2e}")
                worst = max(worst, err / ref)
                covered += err <= 2.0 * CONSTANTS_TOL
                compared += 1
        return Check(not problems, "; ".join(problems) or "ok", worst, covered, compared,
                     _digest(out, self.reports))


class SpectrumDiskFine:
    name = "spectrum_disk_fine"
    reports = ("spectrum.csv",)
    ops = 1
    workers = None

    def __init__(self, seed, work_dir):
        # one fixed problem: the seed has nothing to vary
        self._refs = {("disk(r=1)", "dirichlet"): list(enumerate(dirichlet_ball(BallSpec(2), SPECTRUM_M).values, 1))}

    def argv(self, iteration, out_dir):
        return ["--output-dir", str(out_dir), "spectrum", "--shape", '{"type":"disk","radius":1.0}',
                "--problem", "dirichlet", "--h", repr(SPECTRUM_H), "--levels", "3", "--m", str(SPECTRUM_M)]

    def check(self, rc, out_dir):
        out = Path(out_dir)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            table = _extrapolated(out / "spectrum.csv")
        except (OSError, ValueError, KeyError) as exc:
            return Check(False, f"unreadable spectrum.csv: {exc}", math.inf, 0, 0, "")
        worst, covered, compared, missing = _compare(table, self._refs)
        if missing:
            problems.append(f"missing values {missing}")
        if covered != compared:
            problems.append(f"{compared - covered} of {compared} values outside twice their allowance")
        return Check(not problems, "; ".join(problems) or "ok", worst, covered, compared,
                     _digest(out, self.reports))


WORKLOADS = {w.name: w for w in (VerifyCorpus, Constants2to8, SpectrumDiskFine)}
