"""Smoke tests of the benchmark itself: `python3 -m pytest perfbench -q`.

They run every workload at its smoke size, so they take seconds, not the
minutes of an acceptance-size run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Invocation, Workload  # noqa: E402

sys.path.insert(0, str(run.SRC))
from hardylab import cli  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_run_is_correct_and_repeatable(name):
    # at least one untraced and two traced passes: identical report bytes,
    # identical counts, every verdict PASS or INFO
    result, record = run.run_workload(cli, WORKLOADS[name], "smoke", 3, 0.1, trace=True)
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert record["traced_passes"] >= 2
    names = {m for m, _, _ in spans.LAYER_METRICS} | {"trace.overhead_ratio"}
    assert set(result["metrics"]) == names
    assert result["metrics"]["trace.overhead_ratio"] > 0


def test_untraced_run_prints_the_result_line():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "duality-pairing", "--seed", "4", "--seconds", "0.1",
                       "--trace", "0", "--size", "smoke"])
    assert rc == 0
    last = json.loads(buf.getvalue().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == {name for name, _ in run.END_TO_END}
    for m in last["metrics"].values():
        assert m["value"] > 0 and m["unit"]


def test_gate_counts_fail_verdicts_and_errors():
    # the radial route misses its 1e-6 gate at p = 1.5; --p 0.5 is a usage error
    w = Workload("gate", "", 1, 1, 1, (), (), (), (
        Invocation(("sharpness", "--method", "radial", "--p", "1.5", "--eps", "0.2,0.1"),
                   r"^quotient eps=\S+$"),
        Invocation(("sharpness", "--p", "0.5"), r"^quotient eps="),
    ))
    result, record = run.run_workload(cli, w, "smoke", 1, 0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 2  # the FAIL row plus the invocation without a report
    assert any("no report" in p for p in record["problems"])


def test_tracer_restores_every_binding():
    originals = {(mod.__name__, attr): val for mod in spans._hardylab_modules()
                 for attr, val in vars(mod).items() if callable(val)}
    call = sys.modules["hardylab.funcs"].BumpMixture.__call__
    tracer = spans.Tracer()
    tracer.install()
    funcs = sys.modules["hardylab.funcs"]
    assert getattr(funcs.koranyi_norm, spans._MARK, False)  # bound by name in funcs
    assert getattr(sys.modules["hardylab.operators"].chunked_mean, spans._MARK, False)
    tracer.uninstall()
    after = {(mod.__name__, attr): val for mod in spans._hardylab_modules()
             for attr, val in vars(mod).items() if callable(val)}
    assert after == originals
    assert funcs.BumpMixture.__call__ is call


def test_covered_is_the_union_inside_the_span():
    assert spans._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)], 0.0, 10.0) == 7.0
    assert spans._covered([], 0.0, 1.0) == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharpness-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
