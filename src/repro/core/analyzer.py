"""The dependency analyzer.

Implements section VI-B of the paper: "When receiving such a storage
event, the runtime finds all *new* valid combinations of age and index
variables that can be processed as a result of the store statement, and
puts these in a per-kernel ready queue."

The analyzer is deliberately single-threaded (the prototype runs it in a
dedicated thread); all of its mutable state — the per-(kernel, age)
dispatch records, per-kernel pending ages — is touched only from that
thread, so it needs no locks of its own.  Field completeness checks go
through the fields' own locks.

Algorithm sketch
----------------
For every store event on field ``F`` at age ``α`` covering region ``R``:

1. For each (kernel ``K``, fetch ``f``) with ``f.field == F``, derive the
   candidate *kernel ages*: solving ``f``'s age expression for ``α`` when
   it references the age variable, or rechecking every *pending* age when
   it is a literal match (a literal-age fetch alone cannot bound the age
   domain; program validation guarantees a variable-age fetch exists).
2. For each candidate age, bound the candidate index combinations —
   variables bound by ``f`` are restricted to the block range overlapping
   ``R`` (:meth:`Dim.candidate_ranges`); other variables range over the
   full instance count implied by current field extents.  A fetch with
   no variables (whole field) makes the whole domain a candidate.
3. A combination is dispatched when it has never been dispatched before
   (write-once ⇒ dispatch-once, kept as a boolean array over the index
   domain per (kernel, age)) and *every* fetch of ``K`` is complete for
   the resolved age/region.

The runtime hands a run of consecutive store events on one (field, age)
to :meth:`DependencyAnalyzer.on_store` as one call, and each step is
array work over the whole run: step 1 once per run, steps 2–3 once per
(kernel, age) the run can affect, over the union of the boxes every
stored region implies through every fetch of ``K`` on ``F``.  Step 3
resolves the region fetches of all candidates with :meth:`Dim.regions`
and checks them with one :meth:`Field.is_complete_block` gather per
fetch and distinct region shape; only the ready rows become
:class:`KernelInstance` objects.  Stores are announced only after they
commit, so the gather sees every region the run announces.  A fully
dispatched (kernel, age) drops its array, keeps only its domain shape,
and returns before any mask read.

Pending ages are pruned once every combination at current extents has
been dispatched; any event that could make new combinations runnable
(a store, or a resize that widens an age's index domain) re-adds the
age, so pruning never loses instances.

Online re-binding (epochs)
--------------------------
The LLS may rewrite the program *mid-run* (coarsen / fuse — see
:mod:`.scheduler` and :mod:`.adaptation`).  The analyzer then holds a
list of **program versions**, each owning a half-open age interval
``[epoch, next_epoch)``: every candidate kernel age is matched against
the version that owns it, so instances at ages below a swap epoch keep
the old decomposition while ages at or above it use the rewritten one.
The swap epoch for a rewritten kernel is always past its highest
dispatched age (dispatch happens only on this thread, so that bound is
race-free), which preserves dispatch-once: no age ever mixes two
decompositions of the same kernel.  Because both rewrites are
byte-identical on field contents, the write-once fields — and therefore
the run's observable output — are unchanged by a swap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import SchedulerError
from .events import InstanceDoneEvent, ResizeEvent, StoreEvent
from .fields import FieldStore, block_index
from .kernels import FetchSpec, KernelDef, KernelInstance, StoreSpec
from .program import Program
from .scheduler import FusionDecision, decision_kernels


@dataclass(frozen=True)
class ReplanRecord:
    """One applied mid-run re-binding: the swap epoch, the decisions that
    took effect, and the ones the analyzer refused (unknown/ageless
    kernels, invalid factors).  ``remote`` marks a producers-only update
    for kernels owned by another node."""

    epoch: int
    decisions: tuple
    skipped: tuple = ()
    remote: bool = False


class _VersionView:
    """One program version plus the derived lookup maps the analyzer
    needs per version: field → consuming (kernel, fetch) pairs and
    field → producing (kernel, store) pairs."""

    __slots__ = ("epoch", "program", "fetchers", "producers")

    def __init__(
        self,
        epoch: int,
        program: Program,
        producer_kernels: Iterable[KernelDef] | None = None,
    ) -> None:
        self.epoch = epoch
        self.program = program
        self.fetchers: dict[str, list[tuple[KernelDef, FetchSpec]]] = {}
        for k in program.kernels.values():
            for f in k.fetches:
                self.fetchers.setdefault(f.field, []).append((k, f))
        self.producers: dict[str, list[tuple[KernelDef, StoreSpec]]] = {}
        src = (
            producer_kernels
            if producer_kernels is not None
            else program.kernels.values()
        )
        for k in src:
            for s in k.stores:
                self.producers.setdefault(s.field, []).append((k, s))


class _Dispatched:
    """Dispatch-once record of one (kernel, age): a boolean array over
    the kernel's index domain marking the combinations dispatched.

    Once every combination of ``shape`` has been dispatched the array is
    dropped and only the shape kept, so a fully dispatched age costs a
    tuple, not a bit per instance.  If a growable field later widens the
    domain, :meth:`fit` rebuilds the array with the cells inside the old
    shape marked.
    """

    __slots__ = ("shape", "mask", "count")

    def __init__(self, shape: tuple[int, ...], flat: np.ndarray) -> None:
        self.shape = shape
        self.mask: np.ndarray | None = np.zeros(shape, dtype=bool)
        self.count = 0
        self.mark(flat)

    @property
    def done(self) -> bool:
        """Whether every combination of :attr:`shape` is dispatched."""
        return self.mask is None

    def fit(self, shape: tuple[int, ...]) -> np.ndarray:
        """The flat dispatched array over ``shape`` (domains only grow)."""
        if shape != self.shape:
            grown = np.zeros(shape, dtype=bool)
            grown[tuple(slice(0, n) for n in self.shape)] = (
                True if self.mask is None else self.mask
            )
            self.shape, self.mask = shape, grown
        assert self.mask is not None
        return self.mask.reshape(-1)

    def mark(self, flat: np.ndarray) -> None:
        """Record the combinations at flat indices ``flat`` dispatched."""
        assert self.mask is not None
        self.count += len(flat)
        if self.count == self.mask.size:
            self.mask = None
        else:
            self.mask.reshape(-1)[flat] = True


def _by_width(widths: np.ndarray) -> list[tuple[Any, tuple[int, ...]]]:
    """Group the rows of an ``(N, k)`` width array by value: a list of
    ``(selector, width)`` pairs, one per distinct row."""
    if (widths == widths[0]).all():
        return [(slice(None), tuple(widths[0].tolist()))]
    kinds, which = np.unique(widths, axis=0, return_inverse=True)
    which = which.reshape(-1)
    return [(which == g, tuple(w.tolist())) for g, w in enumerate(kinds)]


def _expand(
    lo: np.ndarray, hi: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Sorted, deduplicated flat indices of every combination inside
    one of the boxes ``[lo[t], hi[t])`` (``(T, n_vars)`` arrays), clipped
    to the domain ``shape``: the boxes are same-width blocks of an array
    of that shape, so each width's boxes expand with one
    :func:`block_index`."""
    dom = np.asarray(shape, dtype=np.int64)
    lo = np.minimum(lo, dom)
    width = np.minimum(hi, dom) - lo
    keep = (width > 0).all(axis=1)
    if not keep.all():
        lo, width = lo[keep], width[keep]
        if not len(lo):
            return np.zeros(0, dtype=np.int64)
    flat = np.concatenate([
        block_index(lo[sel], w, shape).reshape(-1)
        for sel, w in _by_width(width)
    ])
    return np.unique(flat) if len(lo) > 1 else flat


class DependencyAnalyzer:
    """Turns field store/resize events into newly runnable instances."""

    def __init__(
        self,
        program: Program,
        fields: FieldStore,
        max_age: int | None = None,
        producers: Iterable[KernelDef] | None = None,
        handle=None,
    ) -> None:
        self.program = program
        self.fields = fields
        self.max_age = max_age
        #: optional ProgramHandle mirror kept in sync on re-binding (the
        #: node's backends and recovery logic read the handle; the
        #: analyzer is duck-typed against it to avoid an import cycle).
        self._handle = handle
        #: (kernel, age) -> which of its combinations are dispatched
        self._disp: dict[tuple[str, int | None], _Dispatched] = {}
        #: kernel name -> candidate ages not yet fully dispatched
        self._pending: dict[str, set[int]] = {
            k: set() for k in program.kernels
        }
        #: kernel name -> highest age ever dispatched (swap-epoch floor)
        self._max_disp: dict[str, int] = {}
        #: Full-program mirror for distributed runs: ``producers`` names
        #: kernels that may live on other nodes; replan decisions are
        #: replayed onto it so the premature-completeness guard sees the
        #: rewritten producer shapes for ages ≥ the swap epoch.
        self._dep_program: Program | None = None
        producer_kernels = None
        if producers is not None:
            producer_kernels = list(producers)
            try:
                self._dep_program = Program.build(
                    program.fields.values(),
                    producer_kernels,
                    program.timers,
                    name=f"{program.name}#producers",
                )
                producer_kernels = list(self._dep_program.kernels.values())
            except Exception:
                # Unusual producer sets (tests) may not form a valid
                # program; the static map still works, remote re-binding
                # just keeps the original defs (conservative).
                self._dep_program = None
        self._views: list[_VersionView] = [
            _VersionView(0, program, producer_kernels)
        ]
        #: instrumentation: store and resize events processed
        self.events_processed = 0

    # ------------------------------------------------------------------
    def _extent_of(self, field: str) -> tuple[int, ...]:
        return self.fields[field].extent

    def _age_ok(self, age: int | None, kernel: KernelDef | None = None) -> bool:
        if age is None:
            return True
        if self.max_age is not None and age > self.max_age:
            return False
        if (
            kernel is not None
            and kernel.age_limit is not None
            and age > kernel.age_limit
        ):
            return False
        return True

    def _domain(self, kernel: KernelDef) -> tuple[int, ...]:
        """The kernel's index domain at current field extents."""
        counts = kernel.index_counts(self._extent_of)
        return tuple(counts.get(v, 0) for v in kernel.index_vars)

    # ------------------------------------------------------------------
    # Program versions
    # ------------------------------------------------------------------
    @property
    def current_program(self) -> Program:
        """The newest program version (owns all ages ≥ its epoch)."""
        return self._views[-1].program

    @property
    def current_epoch(self) -> int:
        """Epoch of the newest program version (0 before any swap)."""
        return self._views[-1].epoch

    def _version_for_age(self, age: int | None) -> _VersionView:
        """The version owning ``age`` (ageless work stays on the base)."""
        if age is None:
            return self._views[0]
        for v in reversed(self._views):
            if v.epoch <= age:
                return v
        return self._views[0]

    def kernel_for_age(self, name: str, age: int | None) -> KernelDef | None:
        """The definition of ``name`` in the version owning ``age``."""
        return self._version_for_age(age).program.kernels.get(name)

    def apply_replan(self, decisions: Sequence) -> ReplanRecord | None:
        """Re-bind to a rewritten program at a safe age boundary.

        Applies every valid decision to the current version, picks the
        swap epoch as one past the highest age any rewritten kernel has
        been dispatched at (so no already-dispatched age changes its
        decomposition), and registers the new version.  Runs on the
        analyzer thread, where all dispatch bookkeeping lives, so the
        epoch computation cannot race a dispatch.

        Decisions naming unknown or ageless kernels, source kernels
        (their self-advance and domain decomposition are tied to the
        definition that started the stream), or failing their own
        validation are skipped and reported on the record.
        """
        cur = self._views[-1]
        prog = cur.program
        applied: list = []
        skipped: list = []
        affected: list[str] = []
        for d in decisions:
            names = decision_kernels(d)
            ks = [prog.kernels.get(n) for n in names]
            if any(k is None for k in ks):
                skipped.append(d)
                continue
            if any(not k.has_age or k.is_source for k in ks):
                skipped.append(d)
                continue
            try:
                prog = d.apply(prog)
            except SchedulerError:
                skipped.append(d)
                continue
            applied.append(d)
            affected.extend(names)
        if not applied:
            return None
        epoch = cur.epoch
        for name in affected:
            epoch = max(epoch, self._max_disp.get(name, -1) + 1)
        self._register(epoch, prog, applied)
        return ReplanRecord(
            epoch=epoch, decisions=tuple(applied), skipped=tuple(skipped)
        )

    def apply_remote(
        self, decisions: Sequence, epoch: int | None
    ) -> ReplanRecord | None:
        """Adopt another node's rewrite for producer bookkeeping only.

        The local program is unchanged — this node does not own the
        rewritten kernels — but the premature-completeness guard's
        producer map is advanced to the rewritten definitions for ages ≥
        the owner's committed epoch (clamped to local monotonicity)."""
        if self._dep_program is None:
            return None
        prog = self._views[-1].program
        remote = [
            d for d in decisions
            if not any(n in prog.kernels for n in decision_kernels(d))
        ]
        if not remote:
            return None
        eff = max(epoch if epoch is not None else 0, self._views[-1].epoch)
        self._register(eff, prog, remote)
        return ReplanRecord(epoch=eff, decisions=tuple(remote), remote=True)

    def _register(self, epoch: int, program: Program, applied) -> None:
        prev = self._views[-1]
        producer_kernels = None
        if self._dep_program is not None:
            dep = self._dep_program
            for d in applied:
                try:
                    dep = d.apply(dep)
                except SchedulerError:
                    pass  # unknown in the full set: keep old defs
            self._dep_program = dep
            producer_kernels = list(dep.kernels.values())
        self._views.append(_VersionView(epoch, program, producer_kernels))
        # Fusion renames kernels: give the new names pending slots and
        # migrate pending ages the new version now owns; ages below the
        # epoch stay pending under the old names (old-version dispatch).
        removed = [n for n in prev.program.kernels if n not in program.kernels]
        added = [n for n in program.kernels if n not in prev.program.kernels]
        moved: set[int] = set()
        for n in removed:
            ages = self._pending.get(n, set())
            self._pending[n] = {a for a in ages if a < epoch}
            moved |= {a for a in ages if a >= epoch}
        for n in added:
            self._pending.setdefault(n, set()).update(moved)
        if self._handle is not None:
            self._handle.register(epoch, program)

    # ------------------------------------------------------------------
    def initial_instances(self) -> list[KernelInstance]:
        """Instances runnable before any store: run-once kernels and the
        age-0 instances of aged source kernels."""
        out: list[KernelInstance] = []
        for k in self._views[0].program.kernels.values():
            if not k.is_source:
                continue
            age = 0 if k.has_age else None
            k = self.kernel_for_age(k.name, age) or k
            if not k.is_source or not self._age_ok(age, k):
                continue
            out.extend(self._collect(k, age))
        return out

    # ------------------------------------------------------------------
    def on_store(self, *run: StoreEvent) -> list[KernelInstance]:
        """React to store events: dispatch every newly satisfiable
        instance.

        ``run`` is one store event or a run of store events on the same
        (field, age) — the runtime coalesces consecutive ones.  Age
        solving and the candidate ranges of every stored region are
        computed once per run, and each (kernel, age) the run can affect
        gets one :meth:`_collect` over the union of its candidates.  A
        one-event run is exactly the per-event analysis, and any split
        of a store sequence into runs dispatches the same instance set.
        """
        ev = run[0]
        self.events_processed += len(run)
        base = self._views[0]
        #: (kernel name, age) -> [kernel, restricting fetches or None]
        wanted: dict[tuple[str, int | None], list] = {}
        for v in self._views:
            for kernel, fetch in v.fetchers.get(ev.field, ()):
                ages: list[int | None]
                if kernel.has_age:
                    if fetch.age.literal is None:
                        a = fetch.age.solve(ev.age)
                        if a is None or not self._age_ok(a, kernel):
                            continue
                        if self._version_for_age(a) is not v:
                            continue
                        self._pending[kernel.name].add(a)
                        ages = [a]
                    elif fetch.age.matches_literal(ev.age):
                        ages = [
                            a for a in sorted(self._pending[kernel.name])
                            if self._version_for_age(a) is v
                        ]
                    else:
                        continue
                else:
                    # Ageless kernels never change across versions; the
                    # base view processes them once.
                    if v is not base or not fetch.age.matches_literal(ev.age):
                        continue
                    ages = [None]
                for age in ages:
                    entry = wanted.setdefault((kernel.name, age), [kernel, []])
                    if not fetch.vars():
                        entry[1] = None
                    elif entry[1] is not None:
                        entry[1].append(fetch)
        bounds = None
        if any(fetches for _kernel, fetches in wanted.values()):
            bounds = np.array(
                [[(s.start, s.stop) for s in e.region] for e in run],
                dtype=np.int64,
            )
        extent = self._extent_of(ev.field)
        out: list[KernelInstance] = []
        for (_name, age), (kernel, fetches) in wanted.items():
            boxes = None
            if fetches is not None:
                boxes = functools.partial(
                    self._candidate_boxes, kernel, fetches, bounds, extent
                )
            out.extend(self._collect(kernel, age, boxes))
            self._maybe_prune(kernel, age)
        return out

    def on_resize(self, ev: ResizeEvent) -> list[KernelInstance]:
        """A resize may raise instance counts; recheck pending ages of
        every consumer of the field (and ageless consumers).

        An age pruned at a smaller index domain is pending again: its
        new combinations may need no store at that age at all (their
        new regions were stored earlier, lie outside a shrink
        boundary, or come from a literal-age fetch).
        """
        self.events_processed += 1
        out: list[KernelInstance] = []
        base = self._views[0]
        for v in self._views:
            for kernel, _fetch in v.fetchers.get(ev.field, ()):
                if kernel.has_age:
                    pending = self._pending[kernel.name]
                    shape = self._domain(kernel)
                    pending.update(
                        a for (name, a), rec in self._disp.items()
                        if name == kernel.name and rec.shape != shape
                    )
                    for age in sorted(pending):
                        if self._version_for_age(age) is not v:
                            continue
                        out.extend(self._collect(kernel, age))
                        self._maybe_prune(kernel, age)
                elif v is base:
                    out.extend(self._collect(kernel, None))
        return out

    def on_done(self, ev: InstanceDoneEvent) -> list[KernelInstance]:
        """Self-advance aged source kernels: instance ``a`` finishing with
        at least one store schedules instance ``a + 1`` (section VII-B:
        "the read loop ends when the kernel stops storing")."""
        inst = ev.instance
        k = inst.kernel
        if not (k.is_source and k.has_age and ev.stored_any):
            return []
        assert inst.age is not None
        nxt_age = inst.age + 1
        cur = self.kernel_for_age(k.name, nxt_age)
        if cur is None or not self._age_ok(nxt_age, cur):
            return []
        if cur is k:
            at = np.array([inst.index], dtype=np.int64).reshape(1, -1)
            return self._collect(k, nxt_age, lambda: (at, at + 1))
        # The source's definition changed at an epoch ≤ nxt_age; the old
        # instance's index no longer maps onto the new decomposition, so
        # advance the new definition's whole domain (dispatch-once makes
        # this idempotent across the old instances finishing).
        if not (cur.is_source and cur.has_age):
            return []
        return self._collect(cur, nxt_age)

    # ------------------------------------------------------------------
    def _candidate_boxes(
        self,
        kernel: KernelDef,
        fetches: Sequence[FetchSpec],
        bounds: np.ndarray,
        extent: tuple[int, ...],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate index boxes implied by stored regions.

        ``bounds`` holds the ``(start, stop)`` of every dimension of
        ``T`` stored regions as a ``(T, ndim, 2)`` array.  Returns
        ``(lo, hi)``, two ``(len(fetches) * T, n_vars)`` arrays: through
        fetch ``f``, region ``t`` can only have made combinations inside
        one box ``[lo, hi)`` runnable.  Variables a fetch does not bind
        are unbounded; dimensions sharing a variable intersect.
        """
        n = len(bounds) * len(fetches)
        nv = len(kernel.index_vars)
        lo = np.zeros((n, nv), dtype=np.int64)
        hi = np.full((n, nv), np.iinfo(np.int64).max, dtype=np.int64)
        for i, fetch in enumerate(fetches):
            rows = slice(i * len(bounds), (i + 1) * len(bounds))
            for d, (dim, width) in enumerate(zip(fetch.dims, extent)):
                if dim.is_all:
                    continue
                v = kernel.index_vars.index(dim.var)
                a, b = dim.candidate_ranges(
                    bounds[:, d, 0], bounds[:, d, 1], width
                )
                np.maximum(lo[rows, v], a, out=lo[rows, v])
                np.minimum(hi[rows, v], b, out=hi[rows, v])
        return lo, hi

    def _collect(
        self,
        kernel: KernelDef,
        age: int | None,
        boxes: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> list[KernelInstance]:
        """Dispatch every not-yet-dispatched, fully satisfied combination.

        ``boxes`` returns ``(lo, hi)``, two ``(T, n_vars)`` arrays
        bounding the candidates in ``T`` boxes (see
        :meth:`_candidate_boxes`); it is called only once the cheap
        checks pass.  ``None`` means the whole index domain.  Only the
        ready rows become :class:`KernelInstance` objects.
        """
        shape = self._domain(kernel)
        key = (kernel.name, age)
        rec = self._disp.get(key)
        if rec is not None and rec.done and rec.shape == shape:
            return []
        # Cheap global pre-check: every variable-free fetch (whole-field)
        # must be complete; shared across all index combinations.
        for f in kernel.fetches:
            if f.vars():
                continue
            f_age = f.age.resolve(age)
            if not self.fields[f.field].is_complete(f_age, None):
                return []
            if not self._covers_producers(f.field, f_age):
                return []
        if 0 in shape:
            return []
        flat = (
            np.arange(math.prod(shape)) if boxes is None
            else _expand(*boxes(), shape)
        )
        if rec is not None:
            dispatched = rec.fit(shape)
            flat = flat[~dispatched[flat]]
        if not len(flat):
            return []
        rows = np.empty((len(flat), len(shape)), dtype=np.int64)
        rest = flat
        for v in range(len(shape) - 1, 0, -1):
            rest, rows[:, v] = np.divmod(rest, shape[v])
        if shape:
            rows[:, 0] = rest
        if any(f.vars() for f in kernel.fetches):
            ready = self._satisfied(kernel, age, rows)
            if not ready.all():
                flat, rows = flat[ready], rows[ready]
                if not len(flat):
                    return []
        if rec is None:
            self._disp[key] = _Dispatched(shape, flat)
        else:
            rec.mark(flat)
        if age is not None and age > self._max_disp.get(kernel.name, -1):
            self._max_disp[kernel.name] = age
        return [
            KernelInstance(kernel, age, index)
            for index in map(tuple, rows.tolist())
        ]

    def _satisfied(
        self, kernel: KernelDef, age: int | None, rows: np.ndarray
    ) -> np.ndarray:
        """Which candidate rows (an ``(M, n_vars)`` index array) have
        every region fetch complete: per fetch, the regions of all rows
        come from :meth:`Dim.regions`, and one
        :meth:`Field.is_complete_block` per distinct region shape checks
        them.

        A candidate whose region is empty only along shrink-boundary
        dimensions fetches an absent neighbour: trivially satisfied.  Any
        other empty region makes the candidate invalid.
        """
        ok = np.ones(len(rows), dtype=bool)
        for f in kernel.fetches:
            if not f.vars():
                continue
            field = self.fields[f.field]
            starts = np.empty((len(rows), len(f.dims)), dtype=np.int64)
            widths = np.empty_like(starts)
            for d, (dim, n) in enumerate(zip(f.dims, field.extent)):
                if dim.is_all:
                    starts[:, d], widths[:, d] = 0, n
                    continue
                lo, hi = dim.regions(
                    rows[:, kernel.index_vars.index(dim.var)], n
                )
                starts[:, d], widths[:, d] = lo, hi - lo
            check = ok
            empty = widths <= 0
            if empty.any():
                shrink = np.array([
                    not d.is_all and d.boundary == "shrink" for d in f.dims
                ])
                ok &= ~(empty & ~shrink).any(axis=1)
                check = ok & ~empty.any(axis=1)
            todo = np.flatnonzero(check)
            if not len(todo):
                continue
            f_age = f.age.resolve(age)
            for sel, shape in _by_width(widths[todo]):
                group = todo[sel]
                complete = field.is_complete_block(
                    f_age, starts[group], shape
                )
                ok[group[~complete]] = False
        return ok

    def _covers_producers(self, field: str, f_age: int | None) -> bool:
        """Whether the field's current extent reaches every producer's
        index domain at ``f_age``.

        Guards whole-field fetches against *premature* completeness: a
        field grows store by store, so a producer that has committed only
        its first elements momentarily satisfies
        ``store_count == prod(extent)`` at the partial extent.  Normal
        runs win that race by timing; a node failure between producer
        instances freezes the extent small for the whole detection
        window and would fire the consumer on a fragment.

        Var dims constrain the extent: the producer's last instance along
        a dim of block ``b`` stores at ``(count - 1) * b``, so the field
        reaches at least one element past that (a coarsened producer's
        remainder block included).  Whole-array emits size the field by
        payload and constrain nothing, and a conditional var-dim store
        (none exist in the bundled workloads; the skip-the-emit idiom is
        how whole-array sources signal EOF) would be indistinguishable
        from one still outstanding.

        Versioned: each producer age is checked against the program
        version that owns it, so a producer coarsened at a swap epoch is
        judged by its rewritten (blocked) store dims from that epoch on.
        """
        extent = self._extent_of(field)
        base = self._views[0]
        for v in self._views:
            for kernel, spec in v.producers.get(field, ()):
                if kernel.has_age and not spec.age.is_literal:
                    if f_age is None:
                        continue
                    p_age = spec.age.solve(f_age)
                    if p_age is None or not self._age_ok(p_age, kernel):
                        continue
                    if self._version_for_age(p_age) is not v:
                        continue
                else:
                    concrete = spec.age.literal if spec.age.is_literal else 0
                    if concrete != (f_age if f_age is not None else 0):
                        continue
                    # Literal-age / ageless producers never change
                    # across versions; judge them once, on the base.
                    if v is not base:
                        continue
                counts: dict[str, int] | None = None
                for i, dim in enumerate(spec.dims):
                    if dim.is_all:
                        continue
                    if counts is None:
                        counts = kernel.index_counts(self._extent_of)
                    count = counts.get(dim.var, 0)
                    need = (count - 1) * dim.block + 1 if count else 0
                    if need and i < len(extent) and extent[i] < need:
                        return False
        return True

    def _maybe_prune(self, kernel: KernelDef, age: int | None) -> None:
        """Drop a pending age once every combination at current extents
        has been dispatched (safe: new combinations require new store or
        resize events, which re-add the age)."""
        if age is None or age not in self._pending[kernel.name]:
            return
        rec = self._disp.get((kernel.name, age))
        if rec is not None and rec.done and rec.shape == self._domain(kernel):
            self._pending[kernel.name].discard(age)

    # ------------------------------------------------------------------
    def dispatched_count(self, kernel: str | None = None) -> int:
        """Total instances dispatched (optionally for one kernel)."""
        return sum(
            rec.count
            for (name, _age), rec in self._disp.items()
            if kernel is None or name == kernel
        )

    def min_pending_age(self, kernels=None) -> int | None:
        """Lowest age any kernel still has pending (GC lower bound).

        ``kernels`` (an iterable of kernel names) scopes the probe to
        one subgraph — the per-session retirement path passes a tenant's
        namespaced kernel set so another session's frontier never pins
        (or frees past) this one's ages.
        """
        if kernels is None:
            ages = [a for s in self._pending.values() for a in s]
        else:
            names = set(kernels)
            ages = [
                a
                for k, s in self._pending.items()
                if k in names
                for a in s
            ]
        return min(ages) if ages else None
