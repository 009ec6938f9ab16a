#!/usr/bin/env python3
"""Layered paper-scale benchmark of the P2G reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload mjpeg-cif --seed 1 --seconds 30 --trace 0

Workloads: ``mjpeg-cif``, ``kmeans-paper``, ``mjpeg-cif-live`` and
``transcode-cif`` (see ``perfbench/README.md``).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` spends half the time untraced and
half with the layer wrappers installed, and reports the per-layer table
and the tracing overhead.  ``--smoke`` shrinks the inputs so every
workload finishes in a few seconds (the benchmark's own tests use it).

Every program run's output is compared with the sequential reference on
the same seeded inputs.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when an output check failed and 2 when the sources are missing.
A fuller record (host fingerprint, raw samples) goes to
``.perfbench/results/`` and the traced run's Chrome trace to
``.perfbench/traces/``; ``perfbench/compare.py`` compares records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("mjpeg-cif", "kmeans-paper", "mjpeg-cif-live",
                  "transcode-cif")


def _use_sources() -> None:
    """Put the checkout's ``src/`` on the path, or exit 2 without a
    result when it is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources at {src}; run the benchmark "
            f"from a full checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(src))


def _timed_reference(wl, inputs):
    """The reference output and its rate in items per second (median
    of up to three timed repeats)."""
    times = []
    expected = None
    while len(times) < 3 and sum(times) < 0.5:
        t0 = time.perf_counter()
        expected = wl.reference(inputs)
        times.append(time.perf_counter() - t0)
    return expected, wl.items(inputs) / statistics.median(times)


def _print_rows(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<36}{value:>16.6g}  {unit}")


def _stop_resource_tracker() -> None:
    """Stop and wait for the shared-memory resource tracker process the
    processes backend starts, so no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for testing the benchmark itself")
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                    help="directory for result records and traces")
    args = ap.parse_args(argv)
    _use_sources()

    from harness import (
        cpu_ticks,
        end_to_end,
        host_fingerprint,
        per_layer,
        run_phase,
        run_quality,
    )
    from tracing import Tracer
    from workloads import BATCH, WORKERS, WORKLOADS

    wl = WORKLOADS[args.workload](smoke=args.smoke)
    host = host_fingerprint()
    print(
        f"== {wl.name}  seed {args.seed}  {args.seconds:g} s  "
        f"trace {args.trace}  backend {wl.backend}  workers {WORKERS}  "
        f"batch {BATCH}{'  smoke' if args.smoke else ''}"
    )
    print("host  " + "  ".join(f"{k}={v}" for k, v in host.items()))

    inputs = wl.make_inputs(args.seed)
    expected, ref_per_s = _timed_reference(wl, inputs)
    steal0, total0 = cpu_ticks()
    if args.trace:
        half = args.seconds / 2.0
        untraced = run_phase(wl, inputs, expected, half)
        tracer = Tracer()
        traced = run_phase(wl, inputs, expected, half, tracer)
        phases = [untraced, traced]
    else:
        untraced = run_phase(wl, inputs, expected, args.seconds)
        phases = [untraced]

    steal1, total1 = cpu_ticks()
    steal = (steal1 - steal0) / max(total1 - total0, 1)
    errors = [p.error for p in phases if p.error]
    for err in errors:
        print(f"perfbench: program run failed: {err}", file=sys.stderr)
    mismatch = any(p.mismatch for p in phases)
    if mismatch:
        print("perfbench: output differs from the sequential reference",
              file=sys.stderr)
    correct = not mismatch and not errors and bool(untraced.rates)
    # One mismatch fails every item of the run.
    attempted = max(sum(p.attempted for p in phases), 1)
    failed = attempted if mismatch else sum(p.failed for p in phases)

    e2e = end_to_end(wl, untraced) if untraced.rates else {}
    quality = run_quality(untraced, ref_per_s, failed / attempted)
    print(f"host  CPU stolen by the hypervisor during the run: {steal:.1%}")
    _print_rows("end-to-end (untraced)", e2e)
    _print_rows("ungated", quality)
    if wl.live and untraced.live:
        lv = untraced.live
        state = "OVER CAPACITY" if lv["over_capacity"] else "open loop held"
        print(
            f"stream  {state}: offered {lv['offered']} at {wl.fps:g} fps, "
            f"completed {lv['completed']}, source blocked "
            f"{lv['blocked_s']:.3f} s, slip max {lv['slip_ms_max']:.1f} ms"
        )

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host,
        "steal_frac": steal,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "ungated": {k: v[0] for k, v in quality.items()},
        "samples": {
            "rates": untraced.rates,
            "setups": untraced.setups,
            "latencies_ms": untraced.latencies_ms,
        },
    }
    metrics = e2e
    if args.trace:
        layers = per_layer(wl, traced, untraced, tracer)
        _print_rows("per-layer (traced phase)", layers)
        layers.update(quality)
        trace_path = args.out / "traces" / f"{wl.name}-seed{args.seed}.json"
        tracer.write_chrome(trace_path)
        print(f"chrome trace: {trace_path}")
        record["per_layer"] = {k: v[0] for k, v in layers.items()}
        metrics = layers

    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1))
    _stop_resource_tracker()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
