"""Benchmark of the eigenineq command line, end to end and per layer.

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and uses the package in ``src/``
as it is; nothing is built. One process drives ``eigenineq.cli.main`` the
way a user types the command, one command at a time (a closed loop with
one client), for about ``--seconds`` seconds after set-up.

``--trace 0`` prints the end-to-end metrics: median run time, set-up
time (a fresh interpreter until ``eigenineq.cli`` is imported), CPU time,
peak memory and the error against closed forms. ``--trace 1`` alternates
untraced and traced runs and prints per-layer metrics from spans
recorded around the calls into each layer, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP are pinned to one thread, so the process never runs
more threads than the verify task pool's two workers.
"""

import os

_PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(_PINNED_THREADS)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Span, Tracer, is_exact, layer_metrics, program_modules  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_RUNS = 2  # report digests are compared between runs, so at least two


@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    traced: bool
    check: object  # workloads.Check


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _measure_setup():
    """Seconds from starting an interpreter until eigenineq.cli is imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import time, eigenineq.cli; print(repr(time.monotonic()))"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first start fills the OS file cache; users rarely pay that
            times.append(float(done.stdout.split()[-1]) - t0)
    return times


def _clear_program_caches():
    """Empty the program's functools caches, as a fresh CLI process has them."""
    for mod in program_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _run_once(cli, workload, work_dir, iteration, tracer=None):
    out = work_dir / f"run{iteration}"
    shutil.rmtree(out, ignore_errors=True)
    argv = workload.argv(iteration, out)
    _clear_program_caches()
    with tracer if tracer is not None else contextlib.nullcontext():
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed run, not the end of the benchmark
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
    check = workload.check(rc, out)
    shutil.rmtree(out, ignore_errors=True)
    sample = Sample(wall, cpu, tracer is not None, check)
    print(f"run {iteration}{' traced' if sample.traced else ''}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
          f"gate {'ok' if check.ok else 'FAILED: ' + check.detail}", flush=True)
    return sample


def _host(workload):
    import numpy
    import scipy

    from eigenineq import specfun

    backend = getattr(specfun, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "specfun_backend": backend() if backend else "unreported",
        "workers": workload.workers,
        "threads": {k: os.environ.get(k) for k in _PINNED_THREADS},
    }


def _walls(passed, samples, traced):
    """Run times of passing runs of one kind; of all runs if none passed."""
    return ([s.wall_s for s in passed if s.traced == traced]
            or [s.wall_s for s in samples if s.traced == traced])


def _print_timing(name, values, unit):
    q1, med, q3 = _quartiles(values)
    print(f"  {name:<32} {med:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")


def _measure(cli, workload, work_dir, seconds, trace):
    """Run the workload until the next run would end past the deadline.

    With tracing, each step is an untraced run followed by a traced one.
    """
    samples, tracers = [], []
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        plain = [s.wall_s for s in samples if not s.traced]
        traced = [s.wall_s for s in samples if s.traced]
        if len(plain) >= MIN_RUNS:
            step = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
            if time.perf_counter() + step > deadline:
                return samples, tracers
        samples.append(_run_once(cli, workload, work_dir, iteration))
        iteration += 1
        if trace:
            tracers.append(Tracer())
            samples.append(_run_once(cli, workload, work_dir, iteration, tracers[-1]))
            iteration += 1


def _end_to_end(passed, setup):
    """Metrics of the untraced runs; failed runs are not timings."""
    walls = [s.wall_s for s in passed]
    cpus = [s.cpu_s for s in passed]
    covered, compared = passed[-1].check.covered, passed[-1].check.compared
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "oracle_max_rel_err": (statistics.median(s.check.oracle_max_rel_err for s in passed), "ratio"),
        "allowance_covered_frac": (covered / compared if compared else 0.0, "fraction"),
    }
    _print_timing("wall_s", walls, "s")
    _print_timing("setup_s", setup, "s")
    _print_timing("cpu_s", cpus, "s")
    print(f"  {'peak_rss_mb':<32} {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"  {'oracle_max_rel_err':<32} {metrics['oracle_max_rel_err'][0]:.6g}")
    print(f"  {'allowance_covered_frac':<32} {metrics['allowance_covered_frac'][0]:.6g}  "
          f"({covered} of {compared} values)")
    return metrics


def _per_layer(tracers, passed, samples, problems):
    """Layer metrics of the traced runs: exact counts, median times, overhead."""
    per_run = [layer_metrics(t.spans) for t in tracers]
    metrics = {}
    for name, (value, unit) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        if is_exact(name, unit):
            if any(v != value for v in values):
                problems.append(f"count {name} differs between traced runs: {values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    plain = statistics.median(_walls(passed, samples, False))
    traced = statistics.median(_walls(passed, samples, True))
    metrics["trace.overhead_s"] = (traced - plain, "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(f"  (overhead = traced median {traced:.4f} s - untraced median {plain:.4f} s)")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eigenineq" / "cli.py").is_file():
        print(f"error: no eigenineq sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import eigenineq.cli as cli
    except ImportError as exc:
        print(f"error: cannot import eigenineq.cli: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.pop("EIGENINEQ_OUT", None)
    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    host = _host(workload)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"host {json.dumps(host, sort_keys=True)}", flush=True)

    setup = _measure_setup()
    samples, tracers = _measure(cli, workload, work_dir, args.seconds, args.trace)

    problems = [f"run {i}: {s.check.detail}" for i, s in enumerate(samples) if not s.check.ok]
    digests = {s.check.digest for s in samples if s.check.ok}
    if len(digests) > 1:
        problems.append(f"report bytes differ between runs: {len(digests)} distinct digests")
        passed = []
    else:
        passed = [s for s in samples if s.check.ok]
    attempted = workload.ops * len(samples)
    failed = workload.ops * sum(not s.check.ok for s in samples)

    print(f"results ({len(samples)} runs, {sum(s.traced for s in samples)} traced):")
    print(f"  {'failed_frac':<32} {failed / attempted:.4g}  ({failed} of {attempted} operations)")
    if args.trace:
        metrics = _per_layer(tracers, passed, samples, problems)
        with open(work_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["run", *(f.name for f in dataclasses.fields(Span))]) + "\n")
            for run, tracer in enumerate(tracers):
                for span in tracer.spans:
                    fh.write(json.dumps([run, *dataclasses.astuple(span)]) + "\n")
    else:
        metrics = _end_to_end(passed or samples, setup)
    for line in problems:
        print(f"  problem: {line}")
    correct = not problems
    print(f"  correct {str(correct).lower()}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work_dir / f"result_trace{args.trace}.json").write_text(
        json.dumps({"host": host, "seed": args.seed, "setup_s": setup,
                    "runs": [{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "traced": s.traced, "ok": s.check.ok,
                              "detail": s.check.detail} for s in samples],
                    **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
