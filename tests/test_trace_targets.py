"""The benchmark's tracer (perfbench/spans.py) patches hardylab functions by
name from outside the package.  A rename that breaks it would otherwise only
show when the benchmark runs with tracing on; these checks keep it in the
test suite.  They read perfbench/ and change nothing there."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from hardylab import measure

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for name, _group, module, attr, _count in spans.TARGETS:
        importlib.import_module(module)
        owner, leaf = spans._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), name


def test_the_panel_counter_resolves():
    assert callable(measure._panel)


def test_chunked_mean_keeps_the_parameters_the_tracer_binds():
    params = inspect.signature(measure.chunked_mean).parameters
    assert {"draw", "samples", "chunk_size"} <= set(params)
