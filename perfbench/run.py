#!/usr/bin/env python3
"""hardylab benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|smoke]

Run from the root of a checkout; the benchmark imports hardylab from the
checkout's `src/` and writes reports and traces to `.perfbench_out/`.

With `--trace 0` it runs the workload's fixed number of passes, pass j on
input j modulo the run's inputs (input seeds `1000 * seed + k` for k below
the workload's `seeds`, then its fixed reference panel), and reports the
end-to-end metrics: the median over passes of the wall and of the CPU time
of one pass's CLI invocations; that wall time times the geometric mean, over
the estimate rows of every input, of the squared relative error (standard
error for Monte Carlo rows, deviation from the closed form for quadrature rows);
the median time to a CLI ready to dispatch in a fresh interpreter, sampled
at the start and after every pass; and peak resident memory.

With `--trace 1` it runs the first input set alternately untraced and under the layer
tracer of `spans.py` (at least one untraced and two traced passes) and
reports the per-layer metrics: medians over the traced passes, and the
traced over the untraced median wall time as `trace.overhead_ratio`.

Every pass checks its reports: exit code 0, no FAIL verdict and at least one
PASS in each summary.  Traced and untraced reports must be byte-identical,
and traced passes must repeat every count exactly.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics; `attempted`
counts verdicts (rows and summary entries), `failed` FAIL verdicts plus
invocations that raised or exited non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SPAWNS = 2  # at the start; one more follows every timed pass
EPS = 2.0**-52  # relative errors are floored at float rounding
SETUP_CODE = "import sys; sys.path.insert(0, {src!r}); import hardylab.cli as c; c.build_parser()"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("time_x_relvar_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Pass:
    """One pass over a workload's invocations: timings, report digests and
    the verdict tally."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.relerr2: list[float] = []


def run_pass(cli, workload: Workload, size: str, seed: int, tag: str) -> Pass:
    result = Pass()
    for i, inv in enumerate(workload.invocations(size)):
        out = OUT / f"{workload.name}-{tag}-{i}.json"
        argv = list(inv.argv) + ["--seed", str(seed), "--output", str(out)]
        log = io.StringIO()
        out.unlink(missing_ok=True)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(log):
                rc = cli.run(argv)
        except Exception as err:  # a traceback is a failed verdict, not a crash of the benchmark
            rc = f"raised {type(err).__name__}: {err}"
        result.wall += time.perf_counter() - w0
        result.cpu += time.process_time() - c0
        if not out.exists():
            result.attempted += 1
            result.failed += 1
            result.problems.append(f"{' '.join(argv)}: no report, exit {rc}: {log.getvalue().strip()}")
            continue
        data = out.read_bytes()
        result.digests.append(hashlib.sha256(data).hexdigest())
        report = json.loads(data)
        verdicts = [r["verdict"] for r in report["rows"]] + list(report["summary"].values())
        fails = verdicts.count("FAIL")
        result.attempted += len(verdicts)
        result.failed += fails
        if rc != 0:
            if not fails:
                result.failed += 1
            result.problems.append(f"{' '.join(argv)}: exit {rc}: {log.getvalue().strip()}")
        if "PASS" not in report["summary"].values():
            result.problems.append(f"{' '.join(argv)}: no PASS in summary {report['summary']}")
        pattern = re.compile(inv.rows)
        rows = [r for r in report["rows"] if pattern.search(r["input"])]
        if not rows:
            result.problems.append(f"{' '.join(argv)}: no rows match {inv.rows!r}")
        for r in rows:
            err = r["std_error"] if r["std_error"] > 0 else abs(r["deviation"])
            result.relerr2.append(max(err / abs(r["estimate"]), EPS) ** 2)
    return result


def setup_time() -> float:
    """Wall time of a fresh interpreter importing hardylab and building the
    CLI parser."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def fits(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether a pass as slow as the slowest so far still ends within `seconds`."""
    return time.perf_counter() - start + max(durations, default=0.0) <= seconds


def timed_pass(cli, workload: Workload, size: str, seed: int, tag: str,
               durations: list[float]) -> Pass:
    gc.collect()
    t0 = time.perf_counter()
    result = run_pass(cli, workload, size, seed, tag)
    durations.append(time.perf_counter() - t0)
    return result


def run_workload(cli, workload: Workload, size: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    start = time.perf_counter()
    record: dict = {"workload": workload.name, "seed": seed, "size": size, "trace": int(trace),
                    "workers": workload.workers,
                    "argv": [list(inv.argv) for inv in workload.invocations(size)],
                    "machine": machine()}
    setup: list[float] = []
    if not trace:
        setup_time()  # warm-up: compiles bytecode, fills the file cache
        setup += [setup_time() for _ in range(SETUP_SPAWNS)]
    run_pass(cli, workload, "smoke", seed, "warmup")  # lazy imports and first-touch memory

    passes: list[Pass] = []
    traced: list[Pass] = []
    durations: list[float] = []
    problems: list[str] = []
    if not trace:
        # A fixed number of passes; the time limit only cuts passes on a
        # machine far slower than this one.  Workloads whose checks are
        # statistical draw few input sets from the seed, because each new
        # set is another chance of a chance FAIL.
        inputs = workload.inputs(seed)
        for j in range(workload.passes):
            if passes and not fits(start, seconds, durations):
                break
            passes.append(timed_pass(cli, workload, size, inputs[j % len(inputs)],
                                     f"p{j}", durations))
            setup.append(setup_time())  # set-up samples spread over the run, as the passes are
        for j, ps in enumerate(passes[len(inputs):], len(inputs)):
            if ps.digests != passes[j % len(inputs)].digests:
                problems.append(f"pass {j} repeats the inputs of pass {j % len(inputs)} "
                                "but its report bytes differ")
        record["input_seeds"] = list(inputs)
    else:
        # One seed, passes alternating u t t u u t t ... (u untraced, t
        # traced), so drift in machine speed cancels out of the overhead
        # ratio; at least one untraced and two traced passes.
        from spans import Tracer

        layer: dict[str, list[float]] = {}
        seed0 = workload.inputs(seed)[0]
        while len(durations) < 3 or fits(start, seconds, durations):
            if len(durations) % 4 in (1, 2):
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(timed_pass(cli, workload, size, seed0, f"t{len(traced)}",
                                             durations))
                finally:
                    tracer.uninstall()
                for k, v in tracer.layer_metrics().items():
                    layer.setdefault(k, []).append(v)
            else:
                passes.append(timed_pass(cli, workload, size, seed0, f"u{len(passes)}",
                                         durations))
        tracer.dump(OUT / f"trace-{workload.name}-s{seed}.jsonl")

    every = passes + traced
    problems += [p for ps in every for p in ps.problems]
    wall = statistics.median(ps.wall for ps in passes)
    record.update(passes=len(passes), wall_s=[ps.wall for ps in passes],
                  cpu_s=[ps.cpu for ps in passes],
                  report_sha256=[ps.digests for ps in passes])
    if trace:
        if any(ps.digests != passes[0].digests for ps in every):
            problems.append("report bytes differ between traced and untraced passes")
        counts = {k: v for k, v in layer.items()
                  if not k.endswith((".s", "_per_s")) and len(set(v)) != 1}
        if counts:
            problems.append(f"counts differ between traced passes: {counts}")
        metrics = {k: statistics.median(v) if k.endswith((".s", "_per_s")) else v[0]
                   for k, v in layer.items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(ps.wall for ps in traced) / statistics.median(ps.wall for ps in passes))
        record.update(traced_passes=len(traced), traced_wall_s=[ps.wall for ps in traced])
    else:
        # each distinct input once: repeated passes have identical reports
        relerr2 = [x for ps in passes[:len(inputs)] for x in ps.relerr2]
        relvar = math.exp(statistics.fmean(math.log(x) for x in relerr2)) if relerr2 else 0.0
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(ps.cpu for ps in passes),
            "time_x_relvar_s": wall * relvar,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(setup_s=setup, relvar=relvar)
    record["problems"] = problems
    record["elapsed_s"] = time.perf_counter() - start
    result = {
        "correct": not problems and all(ps.failed == 0 for ps in every),
        "attempted": sum(ps.attempted for ps in every),
        "failed": sum(ps.failed for ps in every),
        "metrics": metrics,
    }
    return result, record


def _units() -> dict[str, str]:
    from spans import LAYER_METRICS

    units = {name: unit for name, unit, _ in LAYER_METRICS}
    units.update(END_TO_END)
    units["trace.overhead_ratio"] = "ratio"
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "hardylab" / "__init__.py").is_file():
        print(f"perfbench: no hardylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hardylab import cli

    if Path(cli.__file__).resolve().parent != SRC / "hardylab":
        print(f"perfbench: imported hardylab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    result, record = run_workload(cli, workload, args.size, args.seed, args.seconds,
                                  bool(args.trace))
    units = _units()
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    record["result"] = result
    (OUT / f"run-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, as a single run would be; prints
    every metric with its unit and exits non-zero unless all are correct."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        for k, m in result["metrics"].items():
            print(f"{name:18s} {k:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:18s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
