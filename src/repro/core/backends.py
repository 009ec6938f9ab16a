"""Execution backends: how kernel instances actually run.

The scheduler half of the runtime (ready queue, dependency analyzer,
quiescence counter) is backend-agnostic; a *backend* decides where a
popped kernel instance's body executes:

* :class:`ThreadBackend` — the paper-faithful default.  Bodies run on
  the node's worker threads.  Deterministic and zero-setup, but
  CPU-bound kernels serialize on the GIL, so scaling curves are flat.
* :class:`ProcessBackend` — true-parallel execution.  Each worker
  thread becomes a *proxy* that forwards ``(kernel, age, index)``
  tuples over a dedicated pipe to a long-lived worker process and
  blocks on the reply (releasing the GIL).  Field payloads live in
  ``multiprocessing.shared_memory`` segments
  (:class:`~repro.core.fields.SharedFieldStore`), so fetches and stores
  are zero-copy views of the same physical pages — only the tiny
  instance descriptor and store report cross the pipe.

The division of labour in the process backend keeps the P2G semantics
exactly where they were:

* the **parent** owns segment lifecycle (creates each age's segment at
  dispatch time, before any worker could touch it; unlinks at GC and
  teardown) and all write-once bookkeeping — a worker's store report is
  applied via the metadata-only :meth:`~repro.core.fields.Field.store_many`
  commit, so violations raise in the parent just like on the threads
  backend;
* **workers** only read and write payload bytes through views attached
  by the deterministic :func:`~repro.core.fields.segment_name`, and
  ship out-of-band ``ctx.output`` values back for parent-side delivery.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .errors import (
    ExtentError,
    KernelBodyError,
    RuntimeStateError,
    WorkerProcessError,
)
from .events import InstanceDoneEvent, StoreEvent
from .fields import (
    FieldStore,
    SharedFieldStore,
    block_index,
    block_regions,
    segment_name,
)
from .kernels import KernelContext, KernelInstance, coerce_store_value
from .program import Program
from .scheduler import apply_decisions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ExecutionNode


class ExecutionBackend:
    """Interface a backend implements; the node drives the lifecycle."""

    name = "abstract"

    def create_fields(self, program: Program) -> FieldStore:
        """Build the field store flavour this backend needs."""
        raise NotImplementedError

    def start(self, node: "ExecutionNode") -> None:
        """Bind to the node and allocate execution resources.  Called
        from :meth:`ExecutionNode.start` *before* any thread spawns (the
        process backend must fork from a single-threaded parent)."""
        raise NotImplementedError

    def execute(self, inst: KernelInstance, worker_id: int) -> None:
        """Run one instance on behalf of worker ``worker_id`` and post
        its store/done events.  Called from the node's worker threads."""
        raise NotImplementedError

    def execute_batch(
        self, batch: list[KernelInstance], worker_id: int
    ) -> None:
        """Run a batch of instances of the *same* kernel definition and
        age (see :meth:`~repro.core.runtime.ReadyQueue.pop_batch`) on
        behalf of one worker.  Backends override this to amortize
        per-instance dispatch cost — one IPC round-trip, one trace
        span, one metrics update per batch; the default preserves
        semantics by degenerating to per-instance :meth:`execute`."""
        for inst in batch:
            self.execute(inst, worker_id)

    def on_replan(self, decisions, epoch: int) -> None:
        """The node re-bound to a rewritten program at ``epoch`` (online
        LLS adaptation).  Called on the analyzer thread *before* any
        instance of the new version is dispatched.  Backends executing in
        the parent process need nothing — the instance carries its own
        kernel definition — so the default is a no-op; the process
        backend forwards the decisions to its workers."""

    def on_retire(self, min_age: int, fields=None) -> None:
        """Every field age below ``min_age`` has been retired (streaming
        age retirement — see :mod:`repro.stream`).  The parent has
        already freed the backing storage; backends holding per-age
        resources elsewhere release them here.  In-parent backends need
        nothing (default no-op); the process backend tells its workers
        to drop their cached shared-memory views so the unlinked
        segments' pages actually return to the kernel.  ``fields`` (an
        iterable of field names, or ``None`` for all) scopes the drop —
        a multi-tenant retirer frees one session's ages while other
        sessions' same-numbered ages stay mapped."""

    def shutdown(self) -> None:
        """Release execution resources (idempotent)."""


class ThreadBackend(ExecutionBackend):
    """Run kernel bodies directly on the node's worker threads."""

    name = "threads"

    def create_fields(self, program: Program) -> FieldStore:
        return FieldStore(program.fields.values())

    def start(self, node: "ExecutionNode") -> None:
        self._node = node

    def execute(self, inst: KernelInstance, worker_id: int) -> None:
        self._node._execute(inst, worker_id)

    def execute_batch(
        self, batch: list[KernelInstance], worker_id: int
    ) -> None:
        self._node._execute_batch(batch, worker_id)

    def shutdown(self) -> None:
        pass


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
class _SegmentCache:
    """Per-worker cache of attached shared-memory views, keyed by
    ``(field, age)``.

    Ages retire monotonically, so eviction drops the lowest ages first.
    A view the kernel body still references cannot be unmapped
    (``close`` raises ``BufferError``); such entries are simply kept.
    """

    def __init__(
        self, run_id: str, shared_tracker: bool, limit: int = 128
    ) -> None:
        self.run_id = run_id
        self.shared_tracker = shared_tracker
        self.limit = limit
        self._entries: dict[tuple[str, int], tuple[Any, np.ndarray]] = {}

    def view(
        self,
        field: str,
        age: int,
        extent: tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        entry = self._entries.get((field, age))
        if entry is not None:
            return entry[1]
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(
            name=segment_name(self.run_id, field, age)
        )
        # The parent owns the segment's lifetime.  With a fork-shared
        # resource tracker the attach's register is a set-level no-op
        # and the parent's unlink balances it; a worker with its *own*
        # tracker (spawn/forkserver) must undo the register, or its
        # tracker would unlink segments the parent still uses.
        if not self.shared_tracker:
            try:  # pragma: no cover - tracker internals
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        arr = np.ndarray(extent, dtype=dtype, buffer=shm.buf)
        self._entries[(field, age)] = (shm, arr)
        if len(self._entries) > self.limit:
            self._evict()
        return arr

    def _evict(self) -> None:
        for key in sorted(self._entries, key=lambda k: k[1]):
            if len(self._entries) <= self.limit:
                return
            shm, _arr = self._entries[key]
            try:
                shm.close()
            except BufferError:  # view still referenced; keep it
                continue
            del self._entries[key]

    def retire(self, min_age: int, fields=None) -> None:
        """Drop every cached view below ``min_age`` (the parent retired
        those ages and unlinked their segments; closing the worker-side
        mapping releases the last reference to the pages).  ``fields``
        scopes the drop to one session's field names (``None`` = all) —
        sessions share the numeric age space, so an unscoped drop would
        unmap co-resident tenants' live views."""
        names = None if fields is None else set(fields)
        for key in [
            k
            for k in self._entries
            if k[1] < min_age and (names is None or k[0] in names)
        ]:
            shm, _arr = self._entries[key]
            try:
                shm.close()
            except BufferError:  # pragma: no cover - body still holds it
                continue
            del self._entries[key]

    def close(self) -> None:
        for shm, _arr in self._entries.values():
            try:
                shm.close()
            except BufferError:
                pass
        self._entries.clear()


class _WorkerBodyError(Exception):
    """Worker-internal wrapper marking an exception as raised *inside*
    a kernel body (vs. the fetch/store machinery), so the reply can
    carry the ``in_body`` flag the parent uses to pick between
    :class:`KernelBodyError` and :class:`WorkerProcessError`."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


def _worker_run_instance(
    program, kernel, age, index, cache: _SegmentCache, ctx=None
):
    """Fetch, run and store one instance worker-side; returns
    ``(stores, outputs, dispatch_time, kernel_time)``.  ``ctx`` pools a
    :class:`KernelContext` across a batch (reset per instance) instead
    of allocating one per call."""
    t0 = time.perf_counter()
    imap = dict(zip(kernel.index_vars, index))
    fetched: dict[str, Any] = {}
    for f in kernel.fetches:
        fdef = program.fields[f.field]
        extent = fdef.shape
        assert extent is not None  # backend.start validated
        f_age = f.age.resolve(age)
        if f.whole_field():
            region = tuple(slice(0, n) for n in extent)
        else:
            region = f.region(imap, extent)
        if any(s.stop <= s.start for s in region):
            shape = tuple(max(0, s.stop - s.start) for s in region)
            value: Any = np.zeros(shape, dtype=fdef.np_dtype)
        else:
            view = cache.view(f.field, f_age, extent, fdef.np_dtype)
            value = view[region]
            value.flags.writeable = False
            if not f.whole_field() and f.scalar and value.size == 1:
                value = value.reshape(()).item()
        fetched[f.param] = value
    if ctx is None:
        ctx = KernelContext(age=age, index=imap, fetched=fetched)
    else:
        ctx.reset(age, imap, fetched)
    t1 = time.perf_counter()
    try:
        kernel.body(ctx)
    except Exception as exc:  # noqa: BLE001 - flagged for the parent
        raise _WorkerBodyError(exc) from exc
    t2 = time.perf_counter()
    stores: list[tuple] = []
    for s in kernel.stores:
        if s.emit_key not in ctx.emitted:
            continue
        fdef = program.fields[s.field]
        s_age = s.age.resolve(age)
        arr, spec = coerce_store_value(
            ctx.emitted[s.emit_key], fdef.np_dtype, fdef.ndim, s
        )
        region = spec.region(imap, arr.shape)
        assert fdef.shape is not None
        view = cache.view(s.field, s_age, fdef.shape, fdef.np_dtype)
        view[region] = arr
        stores.append(
            (s.field, s_age,
             tuple((sl.start, sl.stop) for sl in region))
        )
    t3 = time.perf_counter()
    return stores, ctx.outputs, (t1 - t0) + (t3 - t2), t2 - t1


def _worker_run_batch_vectorized(
    program, kernel, age, indices, cache: _SegmentCache
):
    """One stacked ``batch_body`` call worker-side: one gather per
    region fetch and one scatter per store, straight on the
    shared-memory views.  Returns ``(block_stores, dispatch_time,
    kernel_time)`` — ``block_stores`` is ``[(field, age, starts,
    shape)]``, one block of regions per store spec that the batch
    emitted — or ``None`` when this batch must take the scalar path (no
    uniform fetch plan, or the body raised
    :class:`~repro.core.vectorize.VectorizeFallback`)."""
    from .vectorize import (
        BatchKernelContext,
        VectorizeFallback,
        batch_fetch_plan,
        batch_indices,
        batch_store_starts,
    )

    t0 = time.perf_counter()
    idx = batch_indices(kernel, indices)
    plan = batch_fetch_plan(
        kernel, age, idx, lambda name: program.fields[name].shape
    )
    if plan is None:
        return None
    n = len(indices)
    fetched: dict[str, Any] = {}
    shared: set[str] = set()
    for f, f_age, block in plan:
        fdef = program.fields[f.field]
        assert fdef.shape is not None
        view = cache.view(f.field, f_age, fdef.shape, fdef.np_dtype)
        if block is None:
            whole = view[tuple(slice(0, m) for m in fdef.shape)]
            whole.flags.writeable = False
            fetched[f.param] = whole
            shared.add(f.param)
            continue
        starts, shape = block
        fetched[f.param] = np.take(
            view, block_index(starts, shape, fdef.shape)
        )
    imaps = [dict(zip(kernel.index_vars, index)) for index in indices]
    bctx = BatchKernelContext(age, imaps, fetched, frozenset(shared))
    t1 = time.perf_counter()
    try:
        kernel.batch_body(bctx)
    except VectorizeFallback:
        return None
    except Exception as exc:  # noqa: BLE001 - flagged for the parent
        raise _WorkerBodyError(exc) from exc
    t2 = time.perf_counter()
    block_stores: list[tuple] = []
    for s in kernel.stores:
        if s.emit_key not in bctx.emitted:
            continue
        values = bctx.emitted[s.emit_key]
        fdef = program.fields[s.field]
        s_age = s.age.resolve(age)
        assert fdef.shape is not None
        view = cache.view(s.field, s_age, fdef.shape, fdef.np_dtype)
        # The batch contract (BatchKernelContext.emit) guarantees a
        # uniform leading batch axis, so dtype coercion and spec
        # resolution happen once for the stack, not per instance.
        first, spec = coerce_store_value(
            values[0], fdef.np_dtype, fdef.ndim, s
        )
        shape = first.shape
        starts = batch_store_starts(kernel, spec, idx)
        if (starts + shape > np.asarray(fdef.shape)).any():
            raise ExtentError(
                f"field {s.field!r}: a store region of shape {shape} "
                f"exceeds the declared shape {fdef.shape}"
            )
        stack = np.asarray(values, dtype=fdef.np_dtype)
        np.put(view, block_index(starts, shape, fdef.shape),
               stack.reshape((n,) + shape))
        block_stores.append((s.field, s_age, starts, shape))
    t3 = time.perf_counter()
    return block_stores, (t1 - t0) + (t3 - t2), t2 - t1


def _worker_program_for(versions, age):
    """The program version owning ``age`` in a worker's version list
    (mirror of the parent's ProgramHandle resolution)."""
    if age is None:
        return versions[0][1]
    for epoch, prog in reversed(versions):
        if epoch <= age:
            return prog
    return versions[0][1]


def _worker_main(
    conn, program_source, run_id: str, shared_tracker: bool
) -> None:
    """Entry point of a worker process.

    Protocol: receive ``(kernel_name, age, index)`` tuples; reply
    ``("ok", stores, outputs, t_dispatch, t_kernel)`` where *stores* is
    ``[(field, age, ((start, stop), ...)), ...]``, or
    ``("err", in_body, type_name, message, traceback_text)``.  ``None``
    (or EOF) means shut down.

    A ``("__batch__", kernel_name, age, [index, ...])`` message carries
    a whole run of same-kernel/same-age instances in ONE round-trip
    (batched dispatch).  The worker runs the kernel's vectorized
    ``batch_body`` when it has one (falling back to a scalar loop with
    a pooled context otherwise) and replies
    ``("bok", [(stores_i, outputs_i), ...], t_dispatch, t_kernel)``
    with one entry per instance in batch order, or
    ``("berr", idx, in_body, type_name, message, traceback_text)``
    naming the first failing instance.  A vectorized batch replies
    ``("vok", [(field, age, starts, shape), ...], t_dispatch,
    t_kernel)`` instead: one block of same-shape regions per store spec
    (``starts`` is the ``(N, ndim)`` array of first elements, batch
    order), every instance having stored to each, and no outputs.

    A ``("__replan__", epoch, decisions)`` message (no reply) announces a
    live LLS swap: kernel bodies are closures and cannot cross the pipe,
    so the parent ships the *decisions* and the worker re-applies them to
    derive the identical rewritten program, versioned by epoch exactly
    like the parent's :class:`~repro.core.runtime.ProgramHandle`.  A
    failing re-apply kills the worker — the parent surfaces that as
    :class:`~repro.core.errors.WorkerProcessError` rather than let the
    pool silently diverge from the analyzer's program.

    A ``("__retire__", min_age)`` message (no reply, streaming age
    retirement) closes the worker's cached shared-memory views below
    ``min_age``; the retirement invariant guarantees no later instance
    will fetch those ages again.
    """
    program = (
        program_source() if callable(program_source) else program_source
    )
    versions: list[tuple] = [(0, program)]
    cache = _SegmentCache(run_id, shared_tracker)
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            if msg is None:
                return
            if msg[0] == "__replan__":
                _tag, epoch, decisions = msg
                versions.append(
                    (epoch, apply_decisions(versions[-1][1], decisions))
                )
                continue
            if msg[0] == "__retire__":
                cache.retire(msg[1], msg[2] if len(msg) > 2 else None)
                continue
            if msg[0] == "__batch__":
                _tag, kernel_name, age, indices = msg
                idx = 0
                try:
                    program = _worker_program_for(versions, age)
                    kernel = program.kernels[kernel_name]
                    batched = None
                    if kernel.batch_body is not None and len(indices) > 1:
                        batched = _worker_run_batch_vectorized(
                            program, kernel, age, indices, cache
                        )
                    if batched is not None:
                        conn.send(("vok",) + batched)
                        continue
                    results = []
                    t_disp = t_kern = 0.0
                    ctx = KernelContext()
                    for idx, index in enumerate(indices):
                        stores, outputs, d, k = _worker_run_instance(
                            program, kernel, age, index, cache, ctx
                        )
                        results.append((stores, outputs))
                        t_disp += d
                        t_kern += k
                    conn.send(("bok", results, t_disp, t_kern))
                except _WorkerBodyError as exc:
                    conn.send(
                        ("berr", idx, True, type(exc.cause).__name__,
                         str(exc.cause), traceback.format_exc())
                    )
                except Exception as exc:  # noqa: BLE001 - to parent
                    conn.send(
                        ("berr", idx, False, type(exc).__name__,
                         str(exc), traceback.format_exc())
                    )
                continue
            kernel_name, age, index = msg
            try:
                program = _worker_program_for(versions, age)
                kernel = program.kernels[kernel_name]
                stores, outputs, t_disp, t_kern = _worker_run_instance(
                    program, kernel, age, index, cache
                )
                conn.send(("ok", stores, outputs, t_disp, t_kern))
            except _WorkerBodyError as exc:
                conn.send(
                    ("err", True, type(exc.cause).__name__,
                     str(exc.cause), traceback.format_exc())
                )
            except Exception as exc:  # noqa: BLE001 - shipped to parent
                conn.send(
                    ("err", False, type(exc).__name__, str(exc),
                     traceback.format_exc())
                )
    finally:
        cache.close()
        conn.close()


class RemoteKernelError(Exception):
    """Re-raised parent-side stand-in for a worker-side exception; the
    message carries the remote type and traceback."""


class ProcessBackend(ExecutionBackend):
    """Run kernel bodies in a pool of long-lived worker processes.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (kernel bodies are usually closures, which only fork
        can ship); ``"spawn"``/``"forkserver"`` require
        ``program_factory``.
    program_factory:
        Picklable zero-argument callable rebuilding the program in the
        worker (needed for non-fork start methods, where the program —
        including kernel body closures — cannot be pickled).  The
        factory must reproduce the same kernel names and field shapes.
    """

    name = "processes"

    def __init__(
        self,
        start_method: str | None = None,
        program_factory: Callable[[], Program] | None = None,
    ) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.program_factory = program_factory
        self._procs: list[multiprocessing.Process] = []
        self._conns: list[Any] = []
        self._node: "ExecutionNode | None" = None
        # Control-message forwarding: an append-only list of ready-to-send
        # tuples — ("__replan__", epoch, decisions) from the analyzer
        # thread, ("__retire__", min_age) from the stream retirer — plus
        # a per-worker count of messages already sent down its pipe.
        # Each proxy thread forwards the unsent suffix on its *own* pipe
        # right before its next instance send, so control messages never
        # interleave with another thread's traffic (pipes are not
        # thread-safe) and always precede the first instance that needs
        # them.
        self._control: list[tuple] = []
        self._sent: list[int] = []

    def create_fields(self, program: Program) -> FieldStore:
        return SharedFieldStore(program.fields.values())

    # ------------------------------------------------------------------
    def start(self, node: "ExecutionNode") -> None:
        if not isinstance(node.fields, SharedFieldStore):
            raise RuntimeStateError(
                "the processes backend needs a SharedFieldStore; do not "
                "pass a plain FieldStore to ExecutionNode"
            )
        if node.program.timers:
            raise RuntimeStateError(
                "the processes backend does not support program timers "
                "(deadline clocks cannot cross process boundaries); use "
                "the threads backend"
            )
        self._node = node
        ctx = multiprocessing.get_context(self.start_method)
        if self.start_method != "fork" and self.program_factory is None:
            raise RuntimeStateError(
                f"start method {self.start_method!r} pickles worker "
                f"arguments; kernel bodies are closures, so a picklable "
                f"program_factory is required"
            )
        source: Any = (
            self.program_factory
            if self.program_factory is not None
            else node.program
        )
        run_id = node.fields.run_id
        shared_tracker = self.start_method == "fork"
        if shared_tracker:
            # Start the resource tracker *before* forking, so every
            # worker shares it and attach-side registers dedup against
            # the parent's create-side register.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        for i in range(node.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, source, run_id, shared_tracker),
                daemon=True,
                name=f"{node.name}-proc{i}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._sent.append(0)

    def on_replan(self, decisions, epoch: int) -> None:
        """Record a swap batch for lazy per-worker forwarding (the
        proxies drain it before their next instance send)."""
        self._control.append(("__replan__", epoch, tuple(decisions)))

    def on_retire(self, min_age: int, fields=None) -> None:
        """Record a retirement floor for lazy per-worker forwarding;
        workers close their cached segment views below it (scoped to
        ``fields`` when a multi-tenant retirer frees one session).  A
        worker that never executes again simply closes everything at
        shutdown instead."""
        self._control.append(
            ("__retire__", min_age,
             None if fields is None else tuple(sorted(fields)))
        )

    # ------------------------------------------------------------------
    def _forward_control(self, worker_id: int, conn) -> None:
        """Forward any control messages this worker has not seen yet.

        The list is append-only and CPython appends are atomic, so
        reading a suffix snapshot without a lock is safe; a message
        appended after the snapshot can only matter to instances
        dispatched after it, which a later execute() will precede."""
        sent = self._sent[worker_id]
        pending = self._control[sent:]
        if pending:
            for msg in pending:
                conn.send(msg)
            self._sent[worker_id] = sent + len(pending)

    def _recv_reply(self, worker_id: int, conn, proc, describe: str):
        """Block for a worker reply, surfacing worker death as
        :class:`WorkerProcessError` instead of hanging forever."""
        while not conn.poll(0.05):
            if not proc.is_alive() and not conn.poll(0):
                raise WorkerProcessError(
                    worker_id,
                    f"exited with code {proc.exitcode} while running "
                    f"{describe}",
                )
        try:
            return conn.recv()
        except EOFError:
            raise WorkerProcessError(
                worker_id,
                f"connection lost while running {describe}",
            ) from None

    def execute(self, inst: KernelInstance, worker_id: int) -> None:
        node = self._node
        assert node is not None
        kernel = inst.kernel
        conn = self._conns[worker_id]
        proc = self._procs[worker_id]
        self._forward_control(worker_id, conn)
        t0 = time.perf_counter()
        # Create every store target's segment now, so the worker's
        # attach can never race segment creation.
        for s in kernel.stores:
            node.fields[s.field].ensure_age(s.age.resolve(inst.age))
        t_send = time.perf_counter()
        conn.send((kernel.name, inst.age, inst.index))
        reply = self._recv_reply(
            worker_id, conn, proc,
            f"{kernel.name}(age={inst.age}, index={inst.index})",
        )
        t_recv = time.perf_counter()
        if reply[0] == "err":
            _tag, in_body, type_name, message, tb = reply
            cause = RemoteKernelError(f"{type_name}: {message}\n{tb}")
            if in_body:
                raise KernelBodyError(
                    kernel.name, inst.age, inst.index, cause
                )
            raise WorkerProcessError(worker_id, f"{type_name}: {message}")
        _tag, stores, outputs, t_dispatch, t_kernel = reply
        events: list = []
        for fname, s_age, bounds in stores:
            region = tuple(slice(a, b) for a, b in bounds)
            # Payload bytes are already in the segment; apply write-once
            # enforcement + completeness metadata parent-side.
            node.fields[fname].store_many(s_age, (region,))
            events.append(StoreEvent(fname, s_age, region))
        for key, value in outputs:
            node._deliver_output(
                kernel.name, inst.age, inst.index, key, value
            )
        t_done = time.perf_counter()
        dispatch = t_dispatch + (t_send - t0) + (t_done - t_recv)
        ipc = max(0.0, (t_recv - t_send) - t_dispatch - t_kernel)
        node.instrumentation.record(kernel.name, dispatch, t_kernel, ipc)
        node._account_instance(len(kernel.fetches), len(stores))
        tl = node._timeline
        if tl is not None and inst.age is not None:
            sess = node.session_of(inst) if node.session_of else ""
            # Worker-side clocks are not comparable across processes:
            # the ipc span is the parent-observed round trip, with the
            # remote kernel time carved out at its tail (the reply is
            # sent right after the body finishes) and the parent-side
            # store commit after it.
            tl.span(sess, inst.age, "ipc", t_send, t_recv)
            tl.span(sess, inst.age, "compute",
                    max(t_send, t_recv - t_kernel), t_recv)
            tl.span(sess, inst.age, "store", t_recv, t_done)
        tr = node.tracer
        if tr.enabled:
            # The fetch/native/store phases ran in the worker process on
            # its own clock, so the parent emits the enclosing kernel
            # span with the remote durations as arguments, plus the IPC
            # round-trip it *can* time (send -> reply, minus the remote
            # work) as a child span.
            thread = f"worker{worker_id}"
            wait = node._queue_wait_by_worker.get(worker_id, 0.0)
            tr.complete(
                kernel.name, "kernel", node.name, thread, t0, t_done,
                {
                    "age": inst.age,
                    "index": list(inst.index),
                    "queue_wait_us": round(wait * 1e6, 1),
                    "remote_dispatch_us": round(t_dispatch * 1e6, 1),
                    "remote_kernel_us": round(t_kernel * 1e6, 1),
                    "ipc_us": round(ipc * 1e6, 1),
                },
            )
            tr.complete("ipc", "phase", node.name, thread, t_send, t_recv,
                        {"ipc_us": round(ipc * 1e6, 1)})
        events.append(
            InstanceDoneEvent(
                inst,
                bool(stores),
                kernel_time=t_kernel,
                dispatch_time=dispatch,
            )
        )
        node._post_many(events)

    def execute_batch(
        self, batch: list[KernelInstance], worker_id: int
    ) -> None:
        """Ship a same-kernel/same-age run as ONE pipe message and one
        reply — the per-batch (not per-instance) IPC round-trip is the
        whole point of batched dispatch on this backend.  The parent
        commits the batch's write-once metadata with one
        :meth:`~repro.core.fields.Field.store_block` per store spec of a
        vectorized batch (one :meth:`~repro.core.fields.Field.store_many`
        per (field, age) of a scalar-loop batch) and posts every store
        and done event in one
        :meth:`~repro.core.runtime.ExecutionNode._post_many`; each
        instance still gets its own events, so analyzer semantics
        (stream credits, age retirement, quiescence) are unchanged."""
        if len(batch) == 1:
            self.execute(batch[0], worker_id)
            return
        node = self._node
        assert node is not None
        kernel = batch[0].kernel
        age = batch[0].age
        n = len(batch)
        conn = self._conns[worker_id]
        proc = self._procs[worker_id]
        self._forward_control(worker_id, conn)
        t0 = time.perf_counter()
        for s in kernel.stores:
            node.fields[s.field].ensure_age(s.age.resolve(age))
        t_send = time.perf_counter()
        conn.send(
            ("__batch__", kernel.name, age,
             [inst.index for inst in batch])
        )
        reply = self._recv_reply(
            worker_id, conn, proc,
            f"{kernel.name}[x{n}](age={age})",
        )
        t_recv = time.perf_counter()
        if reply[0] == "berr":
            _tag, idx, in_body, type_name, message, tb = reply
            inst = batch[idx]
            cause = RemoteKernelError(f"{type_name}: {message}\n{tb}")
            if in_body:
                raise KernelBodyError(
                    kernel.name, inst.age, inst.index, cause
                )
            raise WorkerProcessError(
                worker_id, f"{type_name}: {message}"
            )
        # Commit write-once metadata in bulk — one commit per (field,
        # age) — *before* posting any StoreEvent, so the analyzer only
        # ever observes completeness that is at least as advanced as the
        # event it is handling.  Events go out grouped the same way, so
        # each group reaches the analyzer as one coalesced store run.
        events: list = []
        if reply[0] == "vok":
            _tag, blocks, t_dispatch, t_kernel = reply
            for fname, s_age, starts, shape in blocks:
                node.fields[fname].store_block(s_age, starts, shape)
                events.extend(
                    StoreEvent(fname, s_age, r)
                    for r in block_regions(starts, shape)
                )
            n_stores = n * len(blocks)
            stored = [bool(blocks)] * n
        else:
            _tag, results, t_dispatch, t_kernel = reply
            grouped: dict[tuple[str, int], list[tuple]] = {}
            for stores, _outputs in results:
                for fname, s_age, bounds in stores:
                    region = tuple(slice(a, b) for a, b in bounds)
                    grouped.setdefault((fname, s_age), []).append(region)
            for (fname, s_age), regions in grouped.items():
                node.fields[fname].store_many(s_age, regions)
                events.extend(StoreEvent(fname, s_age, r) for r in regions)
            for inst, (_stores, outputs) in zip(batch, results):
                for key, value in outputs:
                    node._deliver_output(
                        kernel.name, inst.age, inst.index, key, value
                    )
            n_stores = sum(len(stores) for stores, _outputs in results)
            stored = [bool(stores) for stores, _outputs in results]
        t_done = time.perf_counter()
        dispatch = t_dispatch + (t_send - t0) + (t_done - t_recv)
        ipc = max(0.0, (t_recv - t_send) - t_dispatch - t_kernel)
        node.instrumentation.record_batch(
            kernel.name, n, dispatch, t_kernel, ipc
        )
        node._account_batch(n, n * len(kernel.fetches), n_stores)
        tl = node._timeline
        if tl is not None and age is not None:
            sess = node.session_of(batch[0]) if node.session_of else ""
            tl.span(sess, age, "ipc", t_send, t_recv)
            tl.span(sess, age, "compute",
                    max(t_send, t_recv - t_kernel), t_recv)
            tl.span(sess, age, "store", t_recv, t_done)
        if node._trace_on:
            thread = f"worker{worker_id}"
            wait = node._queue_wait_by_worker.get(worker_id, 0.0)
            node.tracer.complete(
                f"{kernel.name}[x{n}]", "kernel", node.name, thread,
                t0, t_done,
                {
                    "age": age,
                    "batch": n,
                    "queue_wait_us": round(wait * 1e6, 1),
                    "remote_dispatch_us": round(t_dispatch * 1e6, 1),
                    "remote_kernel_us": round(t_kernel * 1e6, 1),
                    "ipc_us": round(ipc * 1e6, 1),
                },
            )
            node.tracer.complete(
                "ipc", "phase", node.name, thread, t_send, t_recv,
                {"ipc_us": round(ipc * 1e6, 1)},
            )
        events.extend(
            InstanceDoneEvent(
                inst,
                stored_any,
                kernel_time=t_kernel / n,
                dispatch_time=dispatch / n,
            )
            for inst, stored_any in zip(batch, stored)
        )
        node._post_many(events)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._procs.clear()
        self._conns.clear()


#: Name -> backend factory, the ``--backend`` knob's domain.
BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {
    "threads": ThreadBackend,
    "processes": ProcessBackend,
}


def resolve_backend(spec: "str | ExecutionBackend") -> ExecutionBackend:
    """Turn a backend name or instance into a backend instance."""
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        return BACKENDS[spec]()
    except KeyError:
        raise RuntimeStateError(
            f"unknown execution backend {spec!r}; "
            f"expected one of {sorted(BACKENDS)}"
        ) from None
