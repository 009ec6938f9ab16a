"""Property tests for the dependency analyzer.

The core claim: the *set* of dispatched instances is a pure function of
what has been stored — never of the order the store events arrived in
(permutation invariance), and each instance is dispatched exactly once
(dispatch-once under any interleaving).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    AgeExpr,
    DependencyAnalyzer,
    Dim,
    FetchSpec,
    FieldDef,
    FieldStore,
    KernelDef,
    Program,
    StoreSpec,
)
from repro.core.events import StoreEvent
from repro.core.fields import normalize_index


def nop(ctx):
    pass


def make_program(n: int):
    """Three consumers of one field: per-element, blocked, whole."""
    per = KernelDef(
        "per", nop, has_age=True, index_vars=("x",),
        fetches=(FetchSpec("v", "data", dims=(Dim.of("x"),),
                           scalar=True),),
    )
    blocked = KernelDef(
        "blocked", nop, has_age=True, index_vars=("b",),
        fetches=(FetchSpec("v", "data", dims=(Dim.of("b", 4),)),),
    )
    whole = KernelDef(
        "whole", nop, has_age=True, fetches=(FetchSpec("v", "data"),),
    )
    stencil = KernelDef(
        "stencil", nop, has_age=True, index_vars=("x",),
        fetches=(
            FetchSpec("l", "data", dims=(Dim.of("x", offset=-1),),
                      scalar=True),
            FetchSpec("r", "data", dims=(Dim.of("x", offset=1),),
                      scalar=True),
        ),
    )
    return Program.build(
        [FieldDef("data", "int64", 1, shape=(n,))],
        [per, blocked, whole, stencil],
    )


def dispatch_all(program, n, order, ages):
    """Apply single-element stores in the given order; return the
    dispatched instance keys."""
    fields = FieldStore(program.fields.values())
    an = DependencyAnalyzer(program, fields)
    dispatched = set()
    for age in range(ages):
        for i in order:
            idx = normalize_index(i, 1)
            fields["data"].store(age, idx, i)
            for inst in an.on_store(StoreEvent("data", age, idx)):
                assert inst.key not in dispatched, "double dispatch"
                dispatched.add(inst.key)
    return dispatched


class TestPermutationInvariance:
    @given(
        st.integers(3, 12),
        st.permutations(list(range(12))),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_dispatch_set_is_order_independent(self, n, perm, ages):
        program = make_program(n)
        order = [i for i in perm if i < n]
        baseline = dispatch_all(program, n, list(range(n)), ages)
        shuffled = dispatch_all(make_program(n), n, order, ages)
        assert baseline == shuffled

    @given(st.integers(3, 12), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_complete_field_dispatches_everything(self, n, ages):
        program = make_program(n)
        dispatched = dispatch_all(program, n, list(range(n)), ages)
        per = {k for k in dispatched if k[0] == "per"}
        blocked = {k for k in dispatched if k[0] == "blocked"}
        whole = {k for k in dispatched if k[0] == "whole"}
        stencil = {k for k in dispatched if k[0] == "stencil"}
        assert len(per) == n * ages
        assert len(blocked) == -(-n // 4) * ages
        assert len(whole) == ages
        assert len(stencil) == n * ages

    @given(
        st.integers(4, 10),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_partial_stores_dispatch_only_satisfied(self, n, data):
        """With a strict subset stored, whole-field must not fire and
        per-element fires exactly on the stored subset."""
        program = make_program(n)
        subset = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
        )
        fields = FieldStore(program.fields.values())
        an = DependencyAnalyzer(program, fields)
        dispatched = set()
        for i in sorted(subset):
            idx = normalize_index(i, 1)
            fields["data"].store(0, idx, i)
            for inst in an.on_store(StoreEvent("data", 0, idx)):
                dispatched.add(inst.key)
        per = {k[2][0] for k in dispatched if k[0] == "per"}
        assert per == subset
        assert not any(k[0] == "whole" for k in dispatched)
        # stencil instances need x-1, x and x+1 (clamped): exactly those
        # x whose clamped neighbourhood is inside the stored subset
        stencil = {k[2][0] for k in dispatched if k[0] == "stencil"}
        expected = {
            x for x in range(n)
            if max(0, x - 1) in subset and min(n - 1, x + 1) in subset
        }
        assert stencil == expected


def make_run_program(n: int):
    """Consumers of every fetch shape a store run can satisfy: blocks,
    clamped and shrinking stencils, and multi-fetch kernels across two
    fields and two ages."""
    block = KernelDef(
        "block", nop, has_age=True, index_vars=("b",),
        fetches=(FetchSpec("v", "data", dims=(Dim.of("b", 4),)),),
    )
    clamp = KernelDef(
        "clamp", nop, has_age=True, index_vars=("x",),
        fetches=(
            FetchSpec("l", "data", dims=(Dim.of("x", offset=-1),),
                      scalar=True),
            FetchSpec("r", "data", dims=(Dim.of("x", offset=1),),
                      scalar=True),
        ),
    )
    shrink = KernelDef(
        "shrink", nop, has_age=True, index_vars=("x",),
        fetches=(FetchSpec(
            "w", "data",
            dims=(Dim.of("x", 3, offset=-1, boundary="shrink"),),
        ),),
    )
    pair = KernelDef(
        "pair", nop, has_age=True, index_vars=("x",),
        fetches=(
            FetchSpec("d", "data", dims=(Dim.of("x", 2),)),
            FetchSpec("o", "other", dims=(Dim.of("x", 2),)),
        ),
    )
    prev = KernelDef(
        "prev", nop, has_age=True, index_vars=("x",),
        fetches=(
            FetchSpec("now", "data", dims=(Dim.of("x"),), scalar=True),
            FetchSpec("was", "data", age=AgeExpr.var(-1),
                      dims=(Dim.of("x"),), scalar=True),
        ),
    )
    return Program.build(
        [FieldDef("data", "int64", 1, shape=(n,)),
         FieldDef("other", "int64", 1, shape=(n,))],
        [block, clamp, shrink, pair, prev],
    )


def make_source_program():
    """Aged source kernels (self-advancing while they store), one with
    its own age limit, plus a non-source consumer whose done events
    advance nothing."""
    def source(name, width, **kw):
        return KernelDef(
            name, nop, has_age=True, index_vars=("x",),
            domain={"x": width},
            stores=(StoreSpec(name + "_out", dims=(Dim.of("x"),)),), **kw,
        )

    sink = KernelDef(
        "sink", nop, has_age=True, index_vars=("x",),
        fetches=(FetchSpec("v", "src_out", dims=(Dim.of("x"),)),),
        domain={"x": 3},
    )
    return Program.build(
        [FieldDef(name + "_out", "int64", 1, shape=(3,))
         for name in ("src", "wide", "limited")],
        [source("src", 3), source("wide", 2),
         source("limited", 3, age_limit=1), sink],
    )


def analyze_runs(program, runs):
    """Commit each run's stores, then hand the run to ``on_store`` as
    one call (the runtime's order: a store is announced only after it
    commits); returns the dispatched instance keys."""
    fields = FieldStore(program.fields.values())
    an = DependencyAnalyzer(program, fields)
    dispatched = set()
    for run in runs:
        for name, age, sl in run:
            fields[name].store(age, sl, np.arange(sl.start, sl.stop))
        events = [StoreEvent(name, age, (sl,)) for name, age, sl in run]
        for inst in an.on_store(*events):
            assert inst.key not in dispatched, "double dispatch"
            dispatched.add(inst.key)
    return dispatched


class TestStoreRuns:
    @given(st.integers(3, 12), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_runs_dispatch_what_single_events_dispatch(self, n, ages, data):
        stores = []
        for name in ("data", "other"):
            for age in range(ages):
                cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))))
                bounds = [0, *cuts, n]
                stores += [
                    (name, age, slice(lo, hi))
                    for lo, hi in zip(bounds, bounds[1:])
                ]
        order = data.draw(st.permutations(stores))
        merge = data.draw(
            st.lists(st.booleans(), min_size=len(order),
                     max_size=len(order))
        )
        runs = [[order[0]]]
        for op, joined in zip(order[1:], merge):
            if joined and op[:2] == runs[-1][-1][:2]:
                runs[-1].append(op)
            else:
                runs.append([op])
        single = analyze_runs(make_run_program(n), [[op] for op in order])
        coalesced = analyze_runs(make_run_program(n), runs)
        assert coalesced == single
        # Everything is stored, so every consumer's whole domain fired.
        blocks = -(-n // 4) * ages
        assert sum(k[0] == "block" for k in single) == blocks
        assert sum(k[0] == "prev" for k in single) == n * (ages - 1)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_done_runs_dispatch_what_single_done_events_dispatch(
        self, data
    ):
        """The node analyzes a run of consecutive ``InstanceDoneEvent``s
        as one unit (``on_done`` per event, one dispatch, one counter
        update each way).  Any split of a done-event sequence into runs
        advances the same sources, each once, and every event's work
        unit is retired."""
        from repro.core import ExecutionNode
        from repro.core.events import InstanceDoneEvent
        from repro.core.kernels import KernelInstance

        program = make_source_program()
        done = data.draw(st.lists(
            st.tuples(st.sampled_from(["src", "wide", "limited", "sink"]),
                      st.integers(0, 4), st.integers(0, 2), st.booleans()),
            min_size=1, max_size=30,
        ))
        merge = data.draw(
            st.lists(st.booleans(), min_size=len(done), max_size=len(done))
        )
        runs = [[done[0]]]
        for ev, joined in zip(done[1:], merge):
            if joined:
                runs[-1].append(ev)
            else:
                runs.append([ev])

        def analyze(runs):
            node = ExecutionNode(program, 1, max_age=3)
            pushed = []
            for run in runs:
                events = [
                    InstanceDoneEvent(
                        KernelInstance(program.kernels[name], age,
                                       (x % program.kernels[name]
                                        .domain["x"],)),
                        stored,
                    )
                    for name, age, x, stored in run
                ]
                node._counter.inc(len(events))  # as _post_many does
                assert node._analyze(events)
                pushed += [inst.key for inst in node.ready.drain()]
            # Every event retired its unit; each push holds one.
            assert node._counter.value() == len(pushed)
            return pushed

        single = sorted(analyze([[ev] for ev in done]))
        assert sorted(analyze(runs)) == single
        assert len(set(single)) == len(single)
        assert not any(key[0] == "sink" for key in single)

    def test_whole_plane_store_probes_once(self, monkeypatch):
        """A whole-plane store to MJPEG's ``y_input`` satisfies all
        1,584 CIF ``ydct`` candidates with one completeness probe."""
        from repro.core.fields import Field
        from repro.workloads import build_mjpeg

        program, _ = build_mjpeg(frames=[], vectorize=False)
        fields = FieldStore(program.fields.values())
        region = tuple(slice(0, n) for n in fields["y_input"].extent)
        fields["y_input"].store(0, region, 0)
        an = DependencyAnalyzer(program, fields)
        probes = []
        orig = Field.is_complete

        def counting(self, age, index=None):
            probes.append((self.name, age))
            return orig(self, age, index)

        monkeypatch.setattr(Field, "is_complete", counting)
        ready = an.on_store(StoreEvent("y_input", 0, region))
        assert len(ready) == (288 // 8) * (352 // 8) == 1584
        assert {k.kernel.name for k in ready} == {"ydct"}
        assert len(probes) <= 1
