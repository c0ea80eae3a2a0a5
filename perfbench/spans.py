"""Span recording around eigenineq's layer boundaries, and per-layer metrics.

The program has no spans of its own yet, so the tracer rebinds module
attributes that the program calls through module globals (for example
``eigenineq.grid.solve.assemble``) to timing wrappers, and restores them
afterwards. A function object is replaced under every name that binds it
in any ``eigenineq`` module, so ``from x import f`` call sites are covered
too. Spans stay in memory; the caller writes them out once at the end.

Kernels that the program reaches through ``specfun._impl`` skip the public
``specfun`` functions, so that time shows under the calling span (mostly
``twoball.secular_det``).
"""

import dataclasses
import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time

# (span name, defining module, function name). Every binding of the
# function in an eigenineq module is rebound.
_NAMED_SPANS = (
    ("cli.run_verify", "eigenineq.cli", "run_verify"),
    ("catalog.evaluate_all", "eigenineq.catalog", "evaluate_all"),
    ("twoball.d_constant", "eigenineq.twoball", "d_constant"),
    ("twoball.J_of_a", "eigenineq.twoball", "J_of_a"),
    ("twoball.secular_det", "eigenineq.twoball", "secular_det"),
    ("grid.solve_shape", "eigenineq.grid.solve", "solve_shape"),
    ("grid.rasterize", "eigenineq.grid.solve", "rasterize"),
    ("grid.assemble", "eigenineq.grid.solve", "assemble"),
    ("grid.smallest_eigs", "eigenineq.grid.solve", "smallest_eigs"),
    ("grid.eigsh", "eigenineq.grid.solve", "eigsh"),
    ("grid.extrapolate", "eigenineq.grid.solve", "extrapolate"),
)

# Layers whose every public function gets a span named "<layer>.<function>".
# rearrange is on no CLI path, so it gets none.
_LAYER_MODULES = (("specfun", "eigenineq.specfun"), ("balls", "eigenineq.balls"))


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    failed: bool
    extra: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


def _matrix_digest(matrix):
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(matrix.shape).encode())
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        h.update(arr.tobytes())
    return h.hexdigest()


def _observe_rasterize(domain):
    return {"nodes": domain.node_count, "key": f"{domain.label}@{domain.h!r}"}


def _observe_assemble(op):
    matrices = [op.matrix] + ([op.mass] if op.mass is not None else [])
    return {
        "nnz": sum(int(m.nnz) for m in matrices),
        "bytes": sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in matrices),
        "digests": [_matrix_digest(m) for m in matrices],
    }


def _observe_evaluate_all(reports):
    return {"reports": len(reports)}


_OBSERVERS = {
    "grid.rasterize": _observe_rasterize,
    "grid.assemble": _observe_assemble,
    "catalog.evaluate_all": _observe_evaluate_all,
}


def program_modules():
    """The imported modules of the eigenineq package."""
    return [m for n, m in list(sys.modules.items()) if n == "eigenineq" or n.startswith("eigenineq.")]


class _Stack(threading.local):
    def __init__(self):
        self.ids = []


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stack = _Stack()
        self._main_stack = None
        self._patched = []

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack.ids
            # pool worker threads start with an empty stack; their parent is
            # whatever span the submitting (main) thread is inside
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = None if failed or observe is None else observe(result)
                tracer.spans.append(Span(sid, name, t0, t1, parent, threading.get_ident(), failed, extra))

        return traced

    def _targets(self):
        for name, module, attr in _NAMED_SPANS:
            yield name, getattr(sys.modules[module], attr)
        for layer, module in _LAYER_MODULES:
            for attr, fn in vars(sys.modules[module]).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module:
                    yield f"{layer}.{attr}", fn

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack.ids
        modules = program_modules()
        for name, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans):
    """Per-layer metrics of one CLI run, from the spans it recorded.

    Returns {name: (value, unit)}. Counts are exact; busy time of a layer
    sums its outermost spans only (a nested call of the same layer is
    already inside its caller's span); self time subtracts the union of
    the span's children, which on a thread pool overlap.
    """
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def outermost(s, prefix):
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name.startswith(prefix):
                return False
            p = by_id[p].parent
        return True

    def group(prefix, exact):
        chosen = [s for s in spans if (s.name == prefix if exact else s.name.startswith(prefix + "."))]
        key = prefix if exact else prefix + "."
        busy = sum(s.duration for s in chosen if outermost(s, key))
        return chosen, busy

    def self_time(chosen):
        total = 0.0
        for s in chosen:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, [])]
            total += s.duration - _union_length([k for k in kids if k[1] > k[0]])
        return total

    out = {}
    for layer, _ in _LAYER_MODULES:
        chosen, busy = group(layer, exact=False)
        out[f"{layer}.calls"] = (len(chosen), "count")
        out[f"{layer}.busy_s"] = (busy, "s")
    named = {}
    for name, _, _ in _NAMED_SPANS:
        chosen, busy = group(name, exact=True)
        named[name] = chosen
        if name == "cli.run_verify":
            continue
        out[f"{name}.calls"] = (len(chosen), "count")
        out[f"{name}.busy_s"] = (busy, "s")

    n_j = len(named["twoball.J_of_a"])
    out["twoball.dets_per_J"] = (len(named["twoball.secular_det"]) / n_j if n_j else 0.0, "ratio")

    ras = [s for s in named["grid.rasterize"] if not s.failed]
    out["grid.rasterize.nodes"] = (sum(s.extra["nodes"] for s in ras), "count")
    out["grid.rasterize.unique_ratio"] = (len({s.extra["key"] for s in ras}) / len(ras) if ras else 0.0, "ratio")

    asm = [s for s in named["grid.assemble"] if not s.failed]
    digests = [d for s in asm for d in s.extra["digests"]]
    out["grid.assemble.nnz"] = (sum(s.extra["nnz"] for s in asm), "count")
    out["grid.assemble.unique_ratio"] = (len(set(digests)) / len(digests) if digests else 0.0, "ratio")
    out["grid.operator_bytes"] = (sum(s.extra["bytes"] for s in asm), "bytes_computed")
    out["grid.smallest_eigs.failed"] = (sum(s.failed for s in named["grid.smallest_eigs"]), "count")

    evals = named["catalog.evaluate_all"]
    out["catalog.evaluate_all.self_s"] = (self_time(evals), "s")
    out["catalog.evaluate_all.reports"] = (sum(s.extra["reports"] for s in evals if not s.failed), "count")

    out["cli.run_verify.self_s"] = (self_time(named["cli.run_verify"]), "s")
    tasks = named["grid.solve_shape"]
    if tasks:
        first = min(s.start for s in tasks)
        pool_wall = max(s.end for s in tasks) - first
        out["cli.pool.parallelism"] = (sum(s.duration for s in tasks) / pool_wall, "ratio")
        out["cli.queue_wait_s"] = (sum(s.start - first for s in tasks), "s")
    else:
        out["cli.pool.parallelism"] = (0.0, "ratio")
        out["cli.queue_wait_s"] = (0.0, "s")
    return out


def is_exact(name, unit):
    """Metrics that must repeat exactly between runs of the same inputs."""
    return unit != "s" and name != "cli.pool.parallelism"
