"""The dependency analyzer.

Implements section VI-B of the paper: "When receiving such a storage
event, the runtime finds all *new* valid combinations of age and index
variables that can be processed as a result of the store statement, and
puts these in a per-kernel ready queue."

The analyzer is deliberately single-threaded (the prototype runs it in a
dedicated thread); all of its mutable state — the dispatched-instance
set, per-kernel pending ages, dispatch counters — is touched only from
that thread, so it needs no locks of its own.  Field completeness checks
go through the fields' own locks.

Algorithm sketch
----------------
For every store event on field ``F`` at age ``α`` covering region ``R``:

1. For each (kernel ``K``, fetch ``f``) with ``f.field == F``, derive the
   candidate *kernel ages*: solving ``f``'s age expression for ``α`` when
   it references the age variable, or rechecking every *pending* age when
   it is a literal match (a literal-age fetch alone cannot bound the age
   domain; program validation guarantees a variable-age fetch exists).
2. For each candidate age, enumerate candidate index combinations —
   variables bound by ``f`` are restricted to the block range overlapping
   ``R``; other variables range over the full instance count implied by
   current field extents.
3. A combination is dispatched when it has never been dispatched before
   (write-once ⇒ dispatch-once) and *every* fetch of ``K`` is complete
   for the resolved age/region.

The runtime hands a run of consecutive store events on one (field, age)
to :meth:`DependencyAnalyzer.on_store` as one call: step 1 and the
whole-field part of step 3 run once per run, step 2 once per stored
region.  Stores are announced only after they commit, so a fetch lying
inside the stored region that produced its candidate is answered by one
probe of that region rather than a probe of its own.

Pending ages are pruned once every combination at current extents has
been dispatched; any event that could make new combinations runnable
(a store or resize) re-adds the age, so pruning never loses instances.

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

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import SchedulerError
from .events import InstanceDoneEvent, ResizeEvent, StoreEvent
from .fields import Field, FieldStore
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


class _StoredRegion:
    """A region a store event committed, probed at most once.

    A :class:`StoreEvent` is posted only after its region has committed,
    and write-once makes a committed region immutable, so one
    completeness probe of the stored region answers every candidate
    fetch that lies inside it.  The probe is still made, not assumed
    true: the age may have been garbage-collected since the store.
    """

    __slots__ = ("field", "age", "region", "_complete")

    def __init__(self, field: Field, ev: StoreEvent) -> None:
        self.field = field
        self.age = ev.age
        self.region = ev.region
        self._complete: bool | None = None

    def covers(self, field: Field, age, region: tuple) -> bool:
        """Whether ``field[age][region]`` lies inside this region."""
        if field is not self.field or age != self.age:
            return False
        return all(
            s.start <= r.start and r.stop <= s.stop
            for r, s in zip(region, self.region)
        )

    def complete(self) -> bool:
        """Completeness of the stored region (probed once)."""
        if self._complete is None:
            self._complete = self.field.is_complete(self.age, self.region)
        return self._complete


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
        self._dispatched: set = set()
        #: kernel name -> candidate ages not yet fully dispatched
        self._pending: dict[str, set[int]] = {
            k: set() for k in program.kernels
        }
        #: (kernel, age) -> number of instances dispatched
        self._count: dict[tuple[str, int | None], int] = {}
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
        #: instrumentation: store events processed / candidates examined
        self.events_processed = 0
        self.candidates_examined = 0

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

    def _domain_combos(self, kernel: KernelDef) -> Iterable[tuple[int, ...]]:
        if not kernel.index_vars:
            return [()]
        counts = dict(kernel.domain or {})
        ranges = [range(counts.get(v, 1)) for v in kernel.index_vars]
        return itertools.product(*ranges)

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
            for combo in self._domain_combos(k):
                inst = KernelInstance(k, age, combo)
                if inst.key not in self._dispatched:
                    self._dispatched.add(inst.key)
                    self._bump(k.name, age)
                    out.append(inst)
        return out

    # ------------------------------------------------------------------
    def on_store(self, *run: StoreEvent) -> list[KernelInstance]:
        """React to store events: dispatch every newly satisfiable
        instance.

        ``run`` is one store event or a run of store events on the same
        (field, age) — the runtime coalesces consecutive ones.  Age
        solving, the whole-field pre-check and pruning happen once per
        run; candidates are enumerated per stored region.  A candidate
        fetch that lies inside the stored region that produced it is
        satisfied by that region's single probe (see
        :class:`_StoredRegion`) instead of a mask probe of its own.  A one-event run is exactly
        the per-event analysis, and any split of a store sequence into
        runs dispatches the same instance set.
        """
        ev = run[0]
        self.events_processed += len(run)
        out: list[KernelInstance] = []
        base = self._views[0]
        field = self.fields[ev.field]
        stored = [_StoredRegion(field, e) for e in run]
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
                if fetch.vars():
                    triggers = [
                        (self._restrict_from_region(fetch, e), r)
                        for e, r in zip(run, stored)
                    ]
                else:
                    triggers = [(None, None)]
                for age in ages:
                    out.extend(self._collect(kernel, age, triggers))
                    self._maybe_prune(kernel, age)
        return out

    def on_resize(self, ev: ResizeEvent) -> list[KernelInstance]:
        """A resize may raise instance counts; recheck pending ages of
        every consumer of the field (and ageless consumers)."""
        self.events_processed += 1
        out: list[KernelInstance] = []
        base = self._views[0]
        for v in self._views:
            for kernel, _fetch in v.fetchers.get(ev.field, ()):
                if kernel.has_age:
                    for age in sorted(self._pending[kernel.name]):
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
            nxt = KernelInstance(k, nxt_age, inst.index)
            if nxt.key in self._dispatched:
                return []
            self._dispatched.add(nxt.key)
            self._bump(k.name, nxt_age)
            return [nxt]
        # The source's definition changed at an epoch ≤ nxt_age; the old
        # instance's index no longer maps onto the new decomposition, so
        # advance the new definition's whole domain (dispatch-once makes
        # this idempotent across the old instances finishing).
        if not (cur.is_source and cur.has_age):
            return []
        out: list[KernelInstance] = []
        for combo in self._domain_combos(cur):
            nxt = KernelInstance(cur, nxt_age, combo)
            if nxt.key in self._dispatched:
                continue
            self._dispatched.add(nxt.key)
            self._bump(cur.name, nxt_age)
            out.append(nxt)
        return out

    # ------------------------------------------------------------------
    def _restrict_from_region(
        self, fetch: FetchSpec, ev: StoreEvent
    ) -> dict[str, range] | None:
        """Candidate index-variable ranges implied by the stored region."""
        if not fetch.vars():
            return None
        extent = self._extent_of(ev.field)
        restrict: dict[str, range] = {}
        for dim, region, n in zip(fetch.dims, ev.region, extent):
            if dim.is_all:
                continue
            cand = dim.candidates(region, n)
            if dim.var in restrict:
                prev = restrict[dim.var]
                lo = max(prev.start, cand.start)
                hi = min(prev.stop, cand.stop)
                cand = range(lo, max(lo, hi))
            restrict[dim.var] = cand
        return restrict

    def _collect(
        self,
        kernel: KernelDef,
        age: int | None,
        triggers: Sequence[
            tuple[Mapping[str, range] | None, _StoredRegion | None]
        ] = ((None, None),),
    ) -> list[KernelInstance]:
        """Find every not-yet-dispatched, fully satisfied combination.

        ``triggers`` holds ``(restrict, stored)`` pairs: candidate
        ranges for the restricted index variables (``None``: all
        combinations) and the stored region that implied them
        (``None``: every fetch is probed).
        """
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
        counts = kernel.index_counts(self._extent_of)
        full = [range(counts.get(v, 0)) for v in kernel.index_vars]
        if any(len(r) == 0 for r in full):
            return []
        var_fetches = [
            (f, f.age.resolve(age), self.fields[f.field])
            for f in kernel.fetches
            if f.vars()
        ]
        out: list[KernelInstance] = []
        for restrict, stored in triggers:
            ranges = full
            if restrict:
                ranges = [
                    range(max(0, restrict[v].start),
                          min(r.stop, restrict[v].stop))
                    if v in restrict else r
                    for v, r in zip(kernel.index_vars, full)
                ]
            for combo in itertools.product(*ranges):
                inst = KernelInstance(kernel, age, combo)
                if inst.key in self._dispatched:
                    continue
                self.candidates_examined += 1
                imap = dict(zip(kernel.index_vars, combo))
                ok = True
                for f, f_age, field in var_fetches:
                    region = f.region(imap, field.extent)
                    empty_dims = [
                        d for d, s in enumerate(region) if s.stop <= s.start
                    ]
                    if empty_dims:
                        # A shrink-boundary stencil outside the extent is
                        # an absent neighbour: trivially satisfied.  Any
                        # other empty dimension means the combination is
                        # invalid.
                        if all(
                            not f.dims[d].is_all
                            and f.dims[d].boundary == "shrink"
                            for d in empty_dims
                        ):
                            continue
                        ok = False
                        break
                    if stored is not None and stored.covers(field, f_age,
                                                            region):
                        ok = stored.complete()
                    else:
                        ok = field.is_complete(f_age, region)
                    if not ok:
                        break
                if ok:
                    self._dispatched.add(inst.key)
                    self._bump(kernel.name, age)
                    out.append(inst)
        return out

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

        Only plain unit-block, zero-offset var dims constrain the extent
        — blocked or stencil dims and whole-array emits size the field by
        payload, and a conditional var-dim store (none exist in the
        bundled workloads; the skip-the-emit idiom is how whole-array
        sources signal EOF) would be indistinguishable from one still
        outstanding.

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
                    if dim.is_all or dim.block != 1 or dim.offset != 0:
                        continue
                    if counts is None:
                        counts = kernel.index_counts(self._extent_of)
                    need = counts.get(dim.var, 0)
                    if need and i < len(extent) and extent[i] < need:
                        return False
        return True

    def _bump(self, kernel: str, age: int | None) -> None:
        self._count[(kernel, age)] = self._count.get((kernel, age), 0) + 1
        if age is not None and age > self._max_disp.get(kernel, -1):
            self._max_disp[kernel] = age

    def _maybe_prune(self, kernel: KernelDef, age: int | None) -> None:
        """Drop a pending age once every combination at current extents
        has been dispatched (safe: new combinations require new store or
        resize events, which re-add the age)."""
        if age is None or age not in self._pending[kernel.name]:
            return
        counts = kernel.index_counts(self._extent_of)
        total = 1
        for v in kernel.index_vars:
            total *= counts.get(v, 0)
        if total and self._count.get((kernel.name, age), 0) >= total:
            self._pending[kernel.name].discard(age)

    # ------------------------------------------------------------------
    def dispatched_count(self, kernel: str | None = None) -> int:
        """Total instances dispatched (optionally for one kernel)."""
        if kernel is None:
            return len(self._dispatched)
        return sum(c for (k, _a), c in self._count.items() if k == kernel)

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
