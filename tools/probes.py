#!/usr/bin/env python3
"""Write the byte-guard probe reports and print their sha256 values.

    python3 tools/probes.py --out DIR

Runs 49 hardylab CLI invocations in-process, importing hardylab from this
checkout's `src/`, and writes one report per probe into DIR:

* 19 configurations at `--seed 5`, each as CSV and as JSON (38 reports);
* the full-size `fuzz --factors 1`, `fuzz --factors 1,1` and
  `cesaro-duality --factors 1` invocations at `--seed 1001`, `1` and `3`
  (JSON; 9 reports);
* the `fuzz --factors 1,1` probe again at `--workers 1` and `--workers 3`
  (JSON; 2 reports).

It prints one `sha256  name` line per report, in the order above.  The
two-bump function file and the table weights (m = 1 and m = 2) are written
into DIR and named by a relative path with DIR as the working directory, so
the reports that record those paths hash the same in every checkout.
Comparing the output of two checkouts shows which reports a change moved.

    python3 tools/probes.py --out DIR --against OLD

then says how far each report that differs from its namesake in OLD (the
`--out` of another checkout) moved: the largest relative change of
`estimate`, `std_error` and `oracle` (a pairing row's oracle is the other
pairing's estimate) over its rows, matched by their `input` label, the
largest move of `estimate` in the old row's `std_error`, over the rows whose
old `std_error` is positive (a move on a row whose oracle is 0 reads in
sigmas, not as a huge relative change), and whether any row verdict or
summary value changed.  It exits 1, and prints
those reports' lines again on stderr, when a verdict or a summary value
changed or the rows differ: a byte guard that moves numbers may pass, one
that moves an answer may not.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BUMPS_FILE = "probe-bumps.json"
TABLE_FILE = "probe-table.json"
TABLE2_FILE = "probe-table2.json"
BUMPS = [
    {"centers": [[0.1, -0.2, 0.05]], "radii": [0.7], "coefficient": 1.0},
    {"centers": [[-0.3, 0.2, 0.1]], "radii": [0.5], "coefficient": -0.6},
]
TABLE = {"factors": [{"t": [0, 0.25, 0.5, 1], "values": [0, 0, 0.2, 1]}]}
TABLE2 = {"factors": TABLE["factors"] + [{"t": [0, 0.3, 0.6, 1], "values": [0, 0, 0.5, 1]}]}

# name -> argv, each run at --seed 5 as CSV and as JSON
SMALL = {
    "sharp-closed-m1": "sharpness --method closed --factors 1 --p 2",
    "sharp-closed-m2p3": "sharpness --method closed --factors 1,1 --p 3",
    "sharp-mc-m1": "sharpness --method mc --factors 1 --p 2 --samples 20000 --inner-samples 64",
    "sharp-mc-m2": "sharpness --method mc --factors 1,1 --p 2 --samples 20000 --inner-samples 64",
    "sharp-radial-p3": "sharpness --method radial --factors 1 --p 3",
    "sharp-radial-m2": "sharpness --method radial --factors 1,1 --p 2 --eps 0.2,0.1",
    "fuzz-m1": "fuzz --factors 1 --p 2 --trials 5 --samples 20000",
    "fuzz-m2-w2": "fuzz --factors 1,1 --p 2 --trials 3 --samples 20000 --workers 2",
    "fuzz-function": f"fuzz --factors 1 --p 2 --trials 2 --samples 20000 --function bumps:{BUMPS_FILE}",
    "radialize": "radialize-check --factors 1 --p 2 --trials 3 --samples 16000",
    "radialize-m2": "radialize-check --factors 1,1 --p 2 --trials 2 --samples 8000",
    "weighted-bounded": "weighted --weight monomial:3 --p 2",
    "weighted-unbounded": "weighted --weight one --p 2",
    "duality-m1": "cesaro-duality --weight monomial:4 --p 2 --factors 1 --pairs 3 --samples 5000",
    "duality-m2": "cesaro-duality --weight monomial:4,4 --p 2 --factors 1,1 --pairs 2 --samples 4000",
    "duality-table": f"cesaro-duality --weight table:{TABLE_FILE} --p 2 --factors 1 --pairs 3 "
                     "--samples 5000",
    "duality-table-m2": f"cesaro-duality --weight table:{TABLE2_FILE} --p 2 --factors 1,1 "
                        "--pairs 2 --samples 4000",
    "geometry": "geometry-check --samples 100000",
    "volume": "volume --n 2 --samples 200000",
}
# the benchmark's gated invocations at full size, JSON only
FULL = {
    "full-fuzz1": "fuzz --p 2 --factors 1 --trials 34 --samples 50000 --workers 2",
    "full-fuzz2": "fuzz --p 2 --factors 1,1 --trials 34 --samples 50000 --workers 2",
    "full-dual": "cesaro-duality --weight monomial:4 --p 2 --factors 1 --pairs 20 --samples 20000 "
                 "--workers 2",
}
FULL_SEEDS = {"": 1001, "-s1": 1, "-s3": 3}
# fuzz-m2-w2 at other worker counts: every count must give one report
WORKERS = {f"fuzz-m2-w{w}": SMALL["fuzz-m2-w2"].replace("--workers 2", f"--workers {w}")
           for w in (1, 3)}


def probes() -> list[tuple[str, list[str]]]:
    """(report file name, argv) for every probe, in print order."""
    out = []
    for name, cmd in SMALL.items():
        for fmt in ("csv", "json"):
            out.append((f"{name}.{fmt}", cmd.split() + ["--seed", "5", "--format", fmt]))
    for suffix, seed in FULL_SEEDS.items():
        for name, cmd in FULL.items():
            out.append((f"{name}{suffix}.json", cmd.split() + ["--seed", str(seed)]))
    for name, cmd in WORKERS.items():
        out.append((f"{name}.json", cmd.split() + ["--seed", "5"]))
    return out


def _rows_and_summary(path: Path) -> tuple[dict, dict]:
    """A report's rows by (input label, occurrence), and its summary (CSV has none)."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as fh:
            rows, summary = list(csv.DictReader(fh)), {}
    else:
        report = json.loads(path.read_text(encoding="utf-8"))
        rows, summary = report["rows"], report["summary"]
    keyed, seen = {}, collections.Counter()
    for row in rows:
        keyed[(row["input"], seen[row["input"]])] = row
        seen[row["input"]] += 1
    return keyed, summary


def _relative_change(old, new) -> float:
    """|new - old| / |old|; a value that appears or vanishes (JSON null, an
    empty CSV cell) is an infinite change."""
    if old in (None, "") or new in (None, ""):
        return 0.0 if old == new else math.inf
    old, new = float(old), float(new)
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 else math.inf


def _sigma_change(old: dict, new: dict) -> float | None:
    """|new - old| estimate in the old row's std_error; None when that is
    not positive."""
    se = float(old["std_error"]) if old["std_error"] not in (None, "") else math.nan
    if not se > 0.0:
        return None
    a, b = old["estimate"], new["estimate"]
    if a in (None, "") or b in (None, ""):
        return 0.0 if a == b else math.inf
    return 0.0 if float(a) == float(b) else abs(float(b) - float(a)) / se


def compare(old: Path, new: Path) -> str:
    """One line on how far the report `new` moved from `old`."""
    (old_rows, old_summary), (new_rows, new_summary) = map(_rows_and_summary, (old, new))
    if old_rows.keys() != new_rows.keys():
        return f"{new.name}: rows differ ({len(old_rows)} -> {len(new_rows)}, by input label)"
    moved = {field: max((_relative_change(old_rows[k][field], new_rows[k][field]) for k in old_rows),
                        default=0.0) for field in ("estimate", "std_error", "oracle")}
    sigmas = [s for s in (_sigma_change(old_rows[k], new_rows[k]) for k in old_rows) if s is not None]
    verdicts = any(old_rows[k]["verdict"] != new_rows[k]["verdict"] for k in old_rows)
    return (f"{new.name}: estimate {moved['estimate']:.2g}, std_error {moved['std_error']:.2g}, "
            f"oracle {moved['oracle']:.2g} relative; "
            f"estimate {f'{max(sigmas):.2g}' if sigmas else 'n/a'} sigma; "
            f"verdicts {'CHANGED' if verdicts else 'same'}; "
            f"summary {'CHANGED' if old_summary != new_summary else 'same'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for the reports (created if missing)")
    ap.add_argument("--against", type=Path,
                    help="the --out directory of another checkout, to compare each moved report with")
    args = ap.parse_args(argv)
    against = args.against.resolve() if args.against else None

    sys.path.insert(0, str(ROOT / "src"))
    from hardylab import cli

    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    (out / BUMPS_FILE).write_text(json.dumps(BUMPS) + "\n", encoding="utf-8")
    (out / TABLE_FILE).write_text(json.dumps(TABLE) + "\n", encoding="utf-8")
    (out / TABLE2_FILE).write_text(json.dumps(TABLE2) + "\n", encoding="utf-8")
    os.chdir(out)
    failed, moved = 0, []
    for name, probe_argv in probes():
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            rc = cli.run(probe_argv + ["--output", name])
        if rc != 0:
            failed += 1
            print(f"{name}: exit {rc}: {log.getvalue().strip()}", file=sys.stderr)
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else "-"
        print(f"{digest}  {name}", flush=True)
        if against and digest != "-":
            if not (against / name).exists():
                moved.append(f"{name}: rows differ (not in the comparison directory)")
            elif (against / name).read_bytes() != (out / name).read_bytes():
                moved.append(compare(against / name, out / name))
    broken = [line for line in moved if "rows differ" in line or "CHANGED" in line]
    if against:
        print(f"{len(moved)} of {len(probes())} reports differ from {against}:", *moved, sep="\n")
    if broken:
        print(f"{len(broken)} reports changed their rows, a verdict or the summary:", *broken,
              sep="\n", file=sys.stderr)
    return 1 if failed or broken else 0


if __name__ == "__main__":
    sys.exit(main())
