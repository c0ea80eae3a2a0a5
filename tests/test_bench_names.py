"""The program names that the benchmark tracer rebinds still exist.

`perfbench/spans.py` wraps module attributes by name, so a rename in the
program would otherwise show only as an AttributeError in a traced
benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from eigenineq.grid import Disk, rasterize

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_named_span_resolves_to_a_function(spans):
    assert spans._NAMED_SPANS
    for name, module, attr in spans._NAMED_SPANS:
        assert inspect.isfunction(getattr(importlib.import_module(module), attr, None)), name


def test_rasterize_observer_reads_the_grid_domain(spans):
    domain = rasterize(Disk(1.0), 0.25)
    assert spans._observe_rasterize(domain) == {"nodes": domain.node_count, "key": "disk(r=1)@0.25"}
