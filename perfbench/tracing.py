"""Span recording around the public entry points of the program's layers.

The benchmark never edits ``src/``: for a traced run it replaces class
attributes and module-level functions with timing wrappers, and puts the
originals back afterwards.  Each wrapped call yields one span (name,
start, end, parent span, item id = the age) and updates per-thread
aggregates:

* count, wall seconds, thread CPU seconds (``time.thread_time``), and
  self wall/CPU seconds (the span minus the spans it encloses on the
  same thread), accumulated online so no span list is needed to get
  them;
* free-form counters and samples the call's ``observe`` hook adds
  (instances per batch, ready instances per analyzer event, queue wait).

Spans are kept in memory up to ``SPAN_CAP`` and written as a Chrome
trace (``chrome://tracing`` / Perfetto) by :meth:`Tracer.write_chrome`;
spans past the cap are only counted as dropped, while the aggregates
include every span.  Work done inside forked worker processes is
invisible here: the parent reads it from ``RunResult.stats``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

_perf = time.perf_counter
_cpu = time.thread_time
#: Spans kept for the Chrome trace; aggregates count every span.
SPAN_CAP = 50_000


class _ThreadState:
    """One thread's span stack and aggregates (no locks on the hot
    path: only the owning thread writes them)."""

    __slots__ = ("tid", "stack", "aggs", "extra", "samples", "dropped")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: Open spans: [child wall, child cpu, name] per level.
        self.stack: list[list] = []
        #: name -> [count, wall, cpu, self wall, self cpu]
        self.aggs: dict[str, list] = {}
        self.extra: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.dropped = 0


class Tracer:
    """Wraps callables with span timers; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._tls.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(
        self,
        name: str,
        fn: Callable,
        item: Callable | None = None,
        observe: Callable | None = None,
    ) -> Callable:
        """A wrapper timing every call of ``fn`` as span ``name``.

        ``item(args)`` names the span's item (the age); ``observe(st,
        args, result)`` may add counters to the calling thread's state.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame = [0.0, 0.0, name]
            st.stack.append(frame)
            c0 = _cpu()
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._finish(st, frame, t0, c0, None, None, None)
                raise
            tracer._finish(st, frame, t0, c0, args, out, item, observe)
            return out

        return wrapper

    def _finish(self, st, frame, t0, c0, args, out, item, observe) -> None:
        t1 = _perf()
        c1 = _cpu()
        stack = st.stack
        stack.pop()
        dt = t1 - t0
        dc = c1 - c0
        parent = None
        if stack:
            up = stack[-1]
            up[0] += dt
            up[1] += dc
            parent = up[2]
        name = frame[2]
        agg = st.aggs.get(name)
        if agg is None:
            agg = st.aggs[name] = [0, 0.0, 0.0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dc
        agg[3] += dt - frame[0]
        agg[4] += dc - frame[1]
        if observe is not None and args is not None:
            observe(st, args, out)
        if len(self.spans) < SPAN_CAP:
            key = item(args) if item is not None and args is not None else None
            self.spans.append((name, t0, t1, st.tid, parent, key))
        else:
            st.dropped += 1

    # ------------------------------------------------------------------
    # Installing and restoring wrappers
    # ------------------------------------------------------------------
    def patch_method(self, owner: type, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (a plain function or a classmethod
        defined on ``owner`` itself) with a timing wrapper."""
        orig = owner.__dict__[attr]
        if isinstance(orig, classmethod):
            new: Any = classmethod(self.wrap(name, orig.__func__, **kw))
        else:
            new = self.wrap(name, orig, **kw)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def patch_function(self, fn: Callable, name: str, **kw) -> None:
        """Replace ``fn`` wherever a loaded ``repro`` module holds it
        (``from x import fn`` copies the reference into the importer)."""
        wrapper = self.wrap(name, fn, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # Reading the results
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """name -> [count, wall, cpu, self wall, self cpu], summed over
        threads."""
        out: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, agg in list(st.aggs.items()):
                cur = out.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
                for i, v in enumerate(agg):
                    cur[i] += v
        return out

    def extra(self) -> dict[str, float]:
        """Observer counters summed over threads."""
        out: dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for k, v in list(st.extra.items()):
                out[k] = out.get(k, 0.0) + v
        return out

    def samples(self, key: str) -> list[float]:
        """Observer samples under ``key``, all threads."""
        with self._lock:
            threads = list(self._threads)
        out: list[float] = []
        for st in threads:
            out.extend(st.samples.get(key, ()))
        return out

    def dropped(self) -> int:
        """Spans not kept because the buffer was full."""
        with self._lock:
            return sum(st.dropped for st in self._threads)

    def write_chrome(self, path: Path) -> None:
        """Write the kept spans as a Chrome trace (complete events)."""
        spans = list(self.spans)
        base = min((s[1] for s in spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((t0 - base) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"age": age, "parent": parent},
            }
            for name, t0, t1, tid, parent, age in spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "otherData": {
                        "spans_kept": len(events),
                        "spans_dropped": self.dropped(),
                    },
                },
                fh,
            )


def bump(st: _ThreadState, key: str, n: float = 1.0) -> None:
    """Observer helper: add ``n`` to the thread's counter ``key``."""
    st.extra[key] = st.extra.get(key, 0.0) + n


def _age(args) -> Any:
    """Item id of a call whose second positional argument is an age."""
    return args[1] if len(args) > 1 else None


def _batch_age(args) -> Any:
    return args[1][0].age if len(args) > 1 and args[1] else None


def _event_age(args) -> Any:
    return getattr(args[1], "age", None) if len(args) > 1 else None


def _ready(key: str):
    def observe(st, args, out) -> None:
        bump(st, key + ".calls")
        bump(st, key + ".ready", len(out))

    return observe


def _dispatched(key: str):
    def observe(st, args, out) -> None:
        bump(st, key + ".instances", len(args[1]))

    return observe


def _popped(st, args, out) -> None:
    batch, wait = out
    if batch:
        st.samples.setdefault("queue.wait_us", []).append(
            wait / len(batch) * 1e6
        )


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points the per-layer table reads.

    Span names are ``<layer>.<call>``; the layer part groups self time.
    ``idle.pop_batch`` is the ready-queue pop, whose wall time is
    mostly a worker waiting for work.
    """
    from repro import ops
    from repro.core.analyzer import DependencyAnalyzer
    from repro.core.backends import ProcessBackend, ThreadBackend
    from repro.core.fields import Field
    from repro.core.program import Program
    from repro.core.runtime import ReadyQueue
    from repro.media import huffman, jpeg
    from repro.stream.gate import CreditGate
    from repro.stream.retire import Retirer

    tracer.patch_method(
        DependencyAnalyzer, "on_store", "analyzer.on_store",
        item=_event_age, observe=_ready("analyzer"),
    )
    tracer.patch_method(
        DependencyAnalyzer, "on_done", "analyzer.on_done",
        item=lambda a: a[1].instance.age, observe=_ready("analyzer"),
    )
    tracer.patch_method(Field, "store", "fields.store", item=_age)
    tracer.patch_method(Field, "fetch", "fields.fetch", item=_age)
    tracer.patch_method(Field, "is_complete", "fields.is_complete",
                        item=_age)
    tracer.patch_method(ReadyQueue, "push", "runtime.push",
                        item=lambda a: a[1].age)
    tracer.patch_method(ReadyQueue, "pop_batch", "idle.pop_batch",
                        observe=_popped)
    tracer.patch_method(
        ThreadBackend, "execute_batch", "runtime.execute_batch",
        item=_batch_age, observe=_dispatched("runtime.execute_batch"),
    )
    tracer.patch_method(
        ProcessBackend, "execute_batch", "backends.execute_batch",
        item=_batch_age, observe=_dispatched("backends.execute_batch"),
    )
    tracer.patch_function(jpeg.encode_from_quantized, "media.vlc")
    tracer.patch_function(huffman.encode_block, "media.encode_block")
    tracer.patch_function(jpeg.decode_to_coefficients, "media.decode")
    tracer.patch_function(ops.compile_ops, "ops.compile")
    tracer.patch_method(Program, "build", "program.build")
    tracer.patch_method(CreditGate, "admit", "stream.admit", item=_age)
    tracer.patch_method(Retirer, "sweep", "stream.retire")


def wrap_bodies(tracer: Tracer, program) -> None:
    """Time every kernel body of a built program (scalar and vectorized
    batch bodies alike) as span ``body.<kernel>``, counting the
    instances each call covers."""
    for kernel in program.kernels.values():
        name = f"body.{kernel.name}"

        def one(st, args, out, _k=name) -> None:
            bump(st, _k + ".instances")

        def many(st, args, out, _k=name) -> None:
            bump(st, _k + ".instances", len(args[0]))

        age = lambda a: getattr(a[0], "age", None)  # noqa: E731
        kernel.body = tracer.wrap(name, kernel.body, item=age, observe=one)
        if kernel.batch_body is not None:
            kernel.batch_body = tracer.wrap(
                name, kernel.batch_body, item=age, observe=many
            )
