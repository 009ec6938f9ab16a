"""Measurement phases and metric derivation.

A *phase* runs one workload for a fixed number of seconds, with or
without the layer wrappers of :mod:`tracing`:

* batch workloads run the program again and again on the same seeded
  inputs (one *chunk* per program run, each with its own build and
  set-up), checking every chunk's output against the reference;
* the live workload runs one open-loop stream for the whole phase,
  after two one-frame streams that only feed ``setup_s``.

End-to-end metrics come from untraced phases only; a traced run adds a
second, traced phase of the same length and derives the per-layer table
from it.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.core.runtime import ExecutionNode
from repro.stream import StreamDriver

from tracing import Tracer, install_layer_wrappers, wrap_bodies
from workloads import BATCH, LATE_LIMIT_MS, WORKERS, Workload

#: Watchdog for a wedged program run (no progress for this long).
STALL_S = 60.0
#: Extra live set-ups per phase (the measured stream adds one more).
LIVE_EXTRA_SETUPS = 2
#: A live source blocked longer than this in total was over capacity.
OVER_CAPACITY_BLOCKED_S = 0.05

_perf = time.perf_counter


def cpu_tree() -> float:
    """User + system CPU seconds of this process and its waited-for
    children (forked workers are waited for when a run shuts down)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb(workers_forked: bool) -> float:
    """Peak resident memory of the process tree: this process's peak
    plus, when the workload forks workers, the largest child's peak
    counted once per worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers_forked:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        kib += WORKERS * child
    return kib / 1024.0


def host_fingerprint() -> dict:
    """What makes two results comparable (``loadavg`` is recorded, not
    compared)."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": round(os.getloadavg()[0], 2),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, from
    ``/proc/stat``; steal is time the hypervisor gave this machine's
    CPUs to someone else.  ``(0, 0)`` where unavailable."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0 for no samples)."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


@dataclass
class Phase:
    """Raw figures of one phase."""

    attempted: int = 0
    failed: int = 0
    mismatch: bool = False
    error: str | None = None
    setups: list[float] = dc_field(default_factory=list)
    rates: list[float] = dc_field(default_factory=list)
    cpu_per_item: list[float] = dc_field(default_factory=list)
    latencies_ms: list[float] = dc_field(default_factory=list)
    #: Seconds between first dispatch and the end of each program run.
    window_s: float = 0.0
    cpu_s: float = 0.0
    completed: int = 0
    #: Per program run: (per-kernel stats, ready-queue high water).  The
    #: RunResult itself is dropped, since it holds every field's data.
    runs: list = dc_field(default_factory=list)
    live: dict = dc_field(default_factory=dict)


def _stamp_outputs(program, key: str, clock) -> dict:
    """Wrap the program's output handler so every delivery of ``key``
    records ``clock()`` for its age (the moment the benchmark sees the
    item's output)."""
    inner = program.output_handler
    seen: dict[int, float] = {}

    def handler(kernel, age, index, k, value) -> None:
        inner(kernel, age, index, k, value)
        if k == key and age is not None:
            seen.setdefault(age, clock())

    program.set_output_handler(handler)
    return seen


def _first_dispatch(node) -> list:
    """Record ``(perf_counter, cpu_tree)`` when the node's ready queue
    receives its first instance — the first kernel dispatch, which ends
    set-up.  The hook is an instance attribute that removes itself, so
    every later push goes straight to ``ReadyQueue.push``."""
    ready = node.ready
    push = ready.push
    mark: list = []

    def first(inst) -> None:
        if not mark:
            mark.append((_perf(), cpu_tree()))
        ready.__dict__.pop("push", None)
        push(inst)

    ready.push = first
    return mark


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def _run_chunk(wl: Workload, inputs, expected, phase: Phase,
               tracer: Tracer | None) -> float:
    """One program run; returns its wall seconds, set-up included."""
    n = wl.items(inputs)
    phase.attempted += n
    gc.collect()  # start every run from a clean heap, outside the clocks
    t0 = _perf()
    built = wl.build(inputs)
    if tracer is not None:
        wrap_bodies(tracer, built.program)
    seen = _stamp_outputs(built.program, built.item_key, _perf)
    node = ExecutionNode(
        built.program, WORKERS, batch=BATCH, backend=wl.backend
    )
    mark = _first_dispatch(node)
    node.start()
    try:
        result = node.join(stall_timeout=STALL_S)
    except Exception as exc:  # noqa: BLE001 - counted as failed items
        phase.failed += n
        phase.error = f"{type(exc).__name__}: {exc}"
        return _perf() - t0
    t2 = _perf()
    c2 = cpu_tree()
    t1, c1 = mark[0]
    phase.setups.append(t1 - t0)
    phase.runs.append((result.stats, result.ready_high_water))
    if not wl.matches(built.outputs(), expected):
        phase.mismatch = True
    phase.rates.append(n / (t2 - t1))
    phase.cpu_per_item.append((c2 - c1) / n)
    phase.window_s += t2 - t1
    phase.cpu_s += c2 - c1
    phase.completed += n
    phase.latencies_ms.extend(
        (t - t1) * 1e3 for age, t in seen.items()
        if age >= wl.first_item_age
    )
    return t2 - t0


def run_batch_phase(wl: Workload, inputs, expected, seconds: float,
                    tracer: Tracer | None = None) -> Phase:
    """Program runs back to back until ``seconds`` are used; a run is
    not started when less than three quarters of a typical run's time
    is left."""
    phase = Phase()
    deadline = _perf() + seconds
    durations: list[float] = []
    while True:
        durations.append(_run_chunk(wl, inputs, expected, phase, tracer))
        if phase.error is not None:
            break
        if deadline - _perf() < 0.75 * statistics.median(durations):
            break
    return phase


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------
def _start_live(wl: Workload, inputs, seconds: float,
                tracer: Tracer | None):
    """Build a live program for ``seconds`` of stream and start it with
    its stream driver; returns the pieces and the set-up clocks."""
    gc.collect()  # start from a clean heap, outside the clocks
    t0 = _perf()
    built = wl.build(inputs, seconds)
    if tracer is not None:
        wrap_bodies(tracer, built.program)
    node = ExecutionNode(
        built.program, WORKERS, batch=BATCH, backend=wl.backend
    )
    driver = StreamDriver(built.binding, node=node)
    node.add_teardown_hook(driver.stop)
    mark = _first_dispatch(node)
    return built, node, driver, t0, mark


def _live_setup_only(wl: Workload, inputs) -> float:
    """Set up a one-frame stream (build, fork the workers, offer frame
    0) and run it out; returns the seconds to its first dispatch."""
    _built, node, driver, t0, mark = _start_live(wl, inputs, 1e-3, None)
    node.start()
    driver.start()
    node.join(stall_timeout=STALL_S)
    return mark[0][0] - t0


def run_live_phase(wl: Workload, inputs, expected, seconds: float,
                   tracer: Tracer | None = None) -> Phase:
    """One open-loop stream of ``seconds`` at the workload's rate."""
    phase = Phase()
    if tracer is None:
        phase.setups.extend(
            _live_setup_only(wl, inputs) for _ in range(LIVE_EXTRA_SETUPS)
        )
    period_ms = 1000.0 / wl.fps
    built, node, driver, t0, mark = _start_live(
        wl, inputs, seconds, tracer
    )
    done_ms = _stamp_outputs(
        built.program, built.item_key, driver.timer.elapsed_ms
    )
    glue = {"slip_ms_max": 0.0, "lag_max": 0, "admitted": 0}
    store = built.binding.store_frame

    def store_frame(fields, age, frame):
        # Called right after the credit gate admits ``age``: how late
        # the generator is against the frame's due time, and how many
        # admitted frames are still in flight.
        slip = driver.timer.elapsed_ms() - age * period_ms
        glue["slip_ms_max"] = max(glue["slip_ms_max"], slip)
        glue["admitted"] += 1
        glue["lag_max"] = max(
            glue["lag_max"], glue["admitted"] - len(done_ms)
        )
        return store(fields, age, frame)

    built.binding.store_frame = store_frame
    c1 = cpu_tree()
    node.start()
    driver.start()
    t1 = _perf()
    try:
        result = node.join(stall_timeout=STALL_S)
    except Exception as exc:  # noqa: BLE001 - counted as failed items
        phase.attempted += max(driver.offered, 1)
        phase.failed += max(driver.offered, 1)
        phase.error = f"{type(exc).__name__}: {exc}"
        return phase
    t2 = _perf()
    c2 = cpu_tree()
    report = driver.report()
    phase.setups.append(mark[0][0] - t0)
    phase.runs.append((result.stats, result.ready_high_water))
    outputs = built.outputs()
    ok = [a for a in sorted(done_ms) if wl.frame_ok(outputs, expected, a)]
    if len(ok) != len(done_ms) or len(outputs) != len(done_ms):
        phase.mismatch = True
    phase.attempted += report.offered
    phase.failed += report.offered - len(ok)
    phase.completed += len(ok)
    lat = [done_ms[a] - a * period_ms for a in ok]
    phase.latencies_ms.extend(lat)
    span_s = max(done_ms.values(), default=0.0) / 1e3
    if ok and span_s > 0:
        phase.rates.append(len(ok) / span_s)
        phase.cpu_per_item.append((c2 - c1) / len(ok))
    phase.window_s += t2 - t1
    phase.cpu_s += c2 - c1
    late = sum(1 for x in lat if x > LATE_LIMIT_MS)
    phase.live = {
        "offered": report.offered,
        "completed": len(ok),
        "late": late + (report.offered - len(ok)),
        "blocked_s": report.blocked_s,
        "slip_ms_max": glue["slip_ms_max"],
        "lag_max": glue["lag_max"],
        "freed_mb": report.freed_bytes / 2**20,
        "peak_live_mb": report.peak_live_bytes / 2**20,
        "over_capacity": report.blocked_s > OVER_CAPACITY_BLOCKED_S,
    }
    return phase


def run_phase(wl: Workload, inputs, expected, seconds: float,
              tracer: Tracer | None = None) -> Phase:
    runner = run_live_phase if wl.live else run_batch_phase
    if tracer is None:
        return runner(wl, inputs, expected, seconds)
    install_layer_wrappers(tracer)
    try:
        return runner(wl, inputs, expected, seconds, tracer)
    finally:
        tracer.restore()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(wl: Workload, phase: Phase) -> dict[str, tuple[float, str]]:
    """The gated metrics of an untraced phase."""
    return {
        "throughput_per_s": (statistics.median(phase.rates), "1/s"),
        "cpu_s_per_item": (statistics.median(phase.cpu_per_item), "s"),
        "peak_rss_mb": (peak_rss_mb(wl.backend == "processes"), "MB"),
        "latency_p50_ms": (quantile(phase.latencies_ms, 0.5), "ms"),
        "latency_p90_ms": (quantile(phase.latencies_ms, 0.9), "ms"),
        "setup_s": (statistics.median(phase.setups), "s"),
    }


def run_quality(main: Phase, ref_per_s: float, error_rate: float
                ) -> dict[str, tuple[float, str]]:
    """Ungated rows printed beside the end-to-end metrics of the
    untraced phase ``main``."""
    out = {
        "reference_per_s": (ref_per_s, "1/s"),
        "error_rate": (error_rate, "ratio"),
        "latency_samples": (float(len(main.latencies_ms)), "count"),
    }
    lv = main.live  # empty on batch workloads: the stream rows read 0
    out["late_frac"] = (
        lv.get("late", 0) / max(lv.get("offered", 0), 1), "ratio"
    )
    out["stream.offer_slip_ms_max"] = (lv.get("slip_ms_max", 0.0), "ms")
    out["stream.gate_blocked_s"] = (lv.get("blocked_s", 0.0), "s")
    out["stream.over_capacity"] = (
        float(lv.get("over_capacity", False)), "flag"
    )
    return out


def _stats_totals(runs) -> dict[str, list[float]]:
    """kernel -> [instances, kernel s, ipc s] over runs."""
    out: dict[str, list[float]] = {}
    for stats, _high_water in runs:
        for k, s in stats.items():
            cur = out.setdefault(k, [0, 0.0, 0.0])
            cur[0] += s.instances
            cur[1] += s.kernel_time
            cur[2] += s.ipc_time
    return out


#: Kernels whose bodies the per-layer table reports.
BODY_KERNELS = (
    "ydct", "udct", "vdct", "vlc", "assign", "refine", "vld", "yidct",
    "yscale",
)
#: Layers whose self time the per-layer table reports.
SELF_LAYERS = (
    "analyzer", "fields", "runtime", "backends", "body", "media", "ops",
    "program", "stream",
)


def per_layer(wl: Workload, traced: Phase, untraced: Phase,
              tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer table of a traced phase (see README.md)."""
    T = tracer.totals()
    E = tracer.extra()
    zero = [0, 0.0, 0.0, 0.0, 0.0]
    items = max(traced.completed, 1)
    window = max(traced.window_s, 1e-9)
    builds = max(len(traced.setups), 1)

    def t(name):
        return T.get(name, zero)

    def per_call_us(name, col=1):
        a = t(name)
        return a[col] / a[0] * 1e6 if a[0] else 0.0

    procs = wl.backend == "processes"
    S = _stats_totals(traced.runs)
    out: dict[str, tuple[float, str]] = {}

    store_ev = t("analyzer.on_store")[0]
    out["analyzer.store_events"] = (store_ev / items, "count/item")
    out["analyzer.on_store_us"] = (per_call_us("analyzer.on_store"), "us")
    out["analyzer.on_store_cpu_us"] = (
        per_call_us("analyzer.on_store", 2), "us"
    )
    out["analyzer.on_done_us"] = (per_call_us("analyzer.on_done"), "us")
    calls = E.get("analyzer.calls", 0.0)
    out["analyzer.ready_per_event"] = (
        E.get("analyzer.ready", 0.0) / calls if calls else 0.0, "count"
    )
    out["analyzer.busy_frac"] = (
        (t("analyzer.on_store")[1] + t("analyzer.on_done")[1]) / window,
        "ratio",
    )

    out["fields.is_complete_per_store"] = (
        t("fields.is_complete")[0] / store_ev if store_ev else 0.0,
        "count",
    )
    out["fields.store_us"] = (per_call_us("fields.store"), "us")
    out["fields.fetch_us"] = (per_call_us("fields.fetch"), "us")
    out["fields.fetch_calls"] = (t("fields.fetch")[0] / items, "count/item")

    out["queue.wait_us_p50"] = (
        quantile(tracer.samples("queue.wait_us"), 0.5), "us"
    )
    out["queue.depth_max"] = (
        float(max((hw for _stats, hw in traced.runs), default=0)),
        "count",
    )
    exec_name = (
        "backends.execute_batch" if procs else "runtime.execute_batch"
    )
    ex = t(exec_name)
    inst = E.get(exec_name + ".instances", 0.0)
    out["dispatch.instances_per_call"] = (
        inst / ex[0] if ex[0] else 0.0, "count"
    )
    if procs:
        body_wall = sum(v[1] for v in S.values())
    else:
        body_wall = sum(
            a[1] for n, a in T.items() if n.startswith("body.")
        )
    out["dispatch.overhead_us_per_instance"] = (
        (ex[1] - body_wall) / inst * 1e6 if inst else 0.0, "us"
    )
    out["backend.execute_batch_us"] = (
        per_call_us("backends.execute_batch"), "us"
    )
    n_inst = sum(v[0] for v in S.values())
    out["ipc.us_per_instance"] = (
        sum(v[2] for v in S.values()) / n_inst * 1e6 if n_inst else 0.0,
        "us",
    )

    for k in BODY_KERNELS:
        if procs:
            s = S.get(k, [0, 0.0, 0.0])
            us = s[1] / s[0] * 1e6 if s[0] else 0.0
            cpu_us = 0.0  # worker-process thread CPU is not visible
        else:
            a = t(f"body.{k}")
            n = E.get(f"body.{k}.instances", 0.0)
            us = a[1] / n * 1e6 if n else 0.0
            cpu_us = a[2] / n * 1e6 if n else 0.0
        out[f"body.{k}.us"] = (us, "us")
        out[f"body.{k}.cpu_us"] = (cpu_us, "us")

    if procs:
        s = S.get("vlc", [0, 0.0, 0.0])
        vlc_ms = s[1] / s[0] * 1e3 if s[0] else 0.0
    else:
        vlc_ms = per_call_us("media.vlc") / 1e3
    out["media.vlc_ms_per_frame"] = (vlc_ms, "ms")
    out["media.encode_block_calls"] = (
        t("media.encode_block")[0] / items, "count/item"
    )
    out["media.decode_ms_per_frame"] = (per_call_us("media.decode") / 1e3,
                                        "ms")

    out["ops.compile_s"] = (t("ops.compile")[1] / builds, "s")
    out["program.build_s"] = (t("program.build")[1] / builds, "s")

    lv = traced.live
    out["stream.lag_frames_max"] = (float(lv.get("lag_max", 0)), "count")
    out["stream.retire_us"] = (per_call_us("stream.retire"), "us")
    out["stream.freed_mb"] = (lv.get("freed_mb", 0.0), "MB")
    out["stream.peak_live_mb"] = (lv.get("peak_live_mb", 0.0), "MB")

    nproc = len(os.sched_getaffinity(0))
    out["process.cpu_util"] = (traced.cpu_s / window / nproc, "ratio")

    for layer in SELF_LAYERS:
        self_wall = sum(
            a[3] for n, a in T.items() if n.split(".", 1)[0] == layer
        )
        out[f"self.{layer}.ms_per_item"] = (self_wall / items * 1e3, "ms")

    if wl.live:
        # Open loop: throughput is the offered rate, so tracing cost
        # shows as latency instead.
        base = quantile(untraced.latencies_ms, 0.5)
        cur = quantile(traced.latencies_ms, 0.5)
        overhead = cur / base - 1.0 if base else 0.0
    else:
        base = statistics.median(untraced.rates)
        cur = statistics.median(traced.rates) if traced.rates else 0.0
        overhead = 1.0 - cur / base if base else 0.0
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.spans"] = (
        float(len(tracer.spans) + tracer.dropped()), "count"
    )
    return out
