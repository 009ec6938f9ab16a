#!/usr/bin/env python3
"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are record files or directories of them (as
``perfbench/run.py`` writes to ``.perfbench/results/``).  For every
workload and end-to-end metric it prints each side's median and
quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``      the change's median is worse than the base's by more
                 than the bound;
* ``unresolved`` the base's own quartile spread exceeds the bound, and
                 not every change run beats every base run;
* ``ok``         otherwise.

Results from different hosts are not compared: the two sets must agree
on the fingerprint (nproc, CPU model, Python and NumPy versions) and on
run length and input size; otherwise the script exits 2.  Load average
is recorded in each record but not compared.  Exit 1 means at least one
metric got worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
IDENTITY = ("nproc", "cpu_model", "python", "numpy")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if not r.get("trace") and r["end_to_end"]]


def fingerprint(rec: dict) -> tuple:
    host = rec["host"]
    return tuple(host[k] for k in IDENTITY) + (
        rec["seconds"], rec["smoke"]
    )


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def compare(base: list[dict], change: list[dict], spec: dict) -> int:
    prints = {fingerprint(r) for r in base + change}
    if len(prints) != 1:
        print("refusing to compare results from different fingerprints:",
              file=sys.stderr)
        for p in sorted(prints, key=repr):
            print(f"  {p}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = False
    workloads = sorted({r["workload"] for r in base + change})
    print(f"{'workload':<16}{'metric':<18}{'base q1/med/q3':>30}"
          f"{'change q1/med/q3':>30}  verdict")
    for wl in workloads:
        b_runs = [r for r in base if r["workload"] == wl]
        c_runs = [r for r in change if r["workload"] == wl]
        if not b_runs or not c_runs:
            print(f"{wl:<16}(missing on one side)")
            continue
        for name, m in bounds.items():
            b = [r["end_to_end"][name] for r in b_runs]
            c = [r["end_to_end"][name] for r in c_runs]
            bq, cq = _quartiles(b), _quartiles(c)
            lower = m["better"] == "lower"
            rel = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            if lower:
                rel_worse = rel
                beats = max(c) < min(b)
            else:
                rel_worse = -rel
                beats = min(c) > max(b)
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            if rel_worse > m["bound"]:
                verdict = "worse"
                worse = True
            elif spread > m["bound"] and not beats:
                verdict = "unresolved"
            else:
                verdict = "ok"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{wl:<16}{name:<18}{fmt.format(*bq):>30}"
                  f"{fmt.format(*cq):>30}  {verdict} ({rel:+.1%})")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    base, change = (load(Path(a)) for a in argv)
    if not base or not change:
        print("no untraced records found", file=sys.stderr)
        return 2
    return compare(base, change, spec)


if __name__ == "__main__":
    sys.exit(main())
