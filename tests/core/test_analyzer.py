"""Unit tests for the dependency analyzer (event → instance logic)."""

import numpy as np
import pytest

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
from repro.core.events import InstanceDoneEvent, ResizeEvent, StoreEvent
from repro.core.fields import normalize_index
from repro.core.kernels import KernelInstance


def nop(ctx):
    pass


def store_ev(fields, name, age, index, value):
    """Perform a store and return the matching event (as a worker would)."""
    field = fields[name]
    idx = normalize_index(index, field.ndim)
    resize = field.store(age, idx, value)
    return StoreEvent(name, age, idx), resize


def simple_program():
    """init -> per-element consumer -> whole-field sink."""
    init = KernelDef("init", nop, stores=(StoreSpec("a", AgeExpr.const(0)),))
    per = KernelDef(
        "per", nop, has_age=True, index_vars=("x",),
        fetches=(FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),),
        stores=(StoreSpec("b", dims=(Dim.of("x"),)),),
    )
    sink = KernelDef(
        "sink", nop, has_age=True, fetches=(FetchSpec("all", "b"),),
    )
    return Program.build(
        [FieldDef("a"), FieldDef("b")], [init, per, sink]
    )


class TestInitialInstances:
    def test_run_once_and_aged_sources(self):
        src = KernelDef("src", nop, has_age=True,
                        stores=(StoreSpec("a"),))
        init = KernelDef("init", nop, stores=(StoreSpec("b", AgeExpr.const(0)),))
        prog = Program.build([FieldDef("a"), FieldDef("b")], [init, src])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        initial = an.initial_instances()
        got = {(i.kernel.name, i.age) for i in initial}
        assert got == {("init", None), ("src", 0)}

    def test_initial_respects_domain(self):
        src = KernelDef("src", nop, has_age=True, index_vars=("x",),
                        domain={"x": 3}, stores=(StoreSpec("a", dims=(Dim.of("x"),)),))
        prog = Program.build([FieldDef("a")], [src])
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        assert len(an.initial_instances()) == 3

    def test_initial_only_once(self):
        prog = simple_program()
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        first = an.initial_instances()
        assert len(first) == 1
        assert an.initial_instances() == []


class TestOnStore:
    def test_per_element_dispatch(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        an.initial_instances()
        ev, _ = store_ev(fields, "a", 0, slice(0, 3), [1, 2, 3])
        out = an.on_store(ev)
        names = sorted(str(i) for i in out)
        assert names == ["per(age=0, x=0)", "per(age=0, x=1)",
                         "per(age=0, x=2)"]

    def test_dispatch_once(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, 0, 5)
        assert len(an.on_store(ev)) == 1
        assert an.on_store(ev) == []  # same event again: nothing new

    def test_whole_field_fetch_waits_for_completion(self):
        """With a declared shape, a whole-field fetch is exact: it only
        dispatches when every element is written."""
        init = KernelDef("init", nop, stores=(StoreSpec("a", AgeExpr.const(0)),))
        sink = KernelDef(
            "sink", nop, has_age=True, fetches=(FetchSpec("all", "b"),),
        )
        prog = Program.build(
            [FieldDef("a"), FieldDef("b", shape=(2,))], [init, sink]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev1, _ = store_ev(fields, "b", 0, 0, 2)
        assert an.on_store(ev1) == []  # element 1 still missing
        ev2, _ = store_ev(fields, "b", 0, 1, 4)
        out = an.on_store(ev2)
        assert [i.kernel.name for i in out] == ["sink"]

    def test_whole_field_fetch_on_growing_field(self):
        """Without a declared shape, 'the whole field' is the extent at
        dispatch time — the documented implicit-resize semantics (the
        paper dispatches once per instance; resizes add *new* instances,
        they do not re-dispatch old ones)."""
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev1, _ = store_ev(fields, "b", 0, 0, 2)
        out = an.on_store(ev1)
        assert [i.kernel.name for i in out] == ["sink"]
        # later growth does not re-dispatch the sink for age 0
        ev2, _ = store_ev(fields, "b", 0, 1, 4)
        assert an.on_store(ev2) == []

    def test_age_offset_solve(self):
        loop = KernelDef(
            "loop", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", AgeExpr.var(0),
                               dims=(Dim.of("x"),), scalar=True),),
            stores=(StoreSpec("a", AgeExpr.var(1), dims=(Dim.of("x"),)),),
        )
        prog = Program.build([FieldDef("a")], [loop])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 3, 0, 1)
        out = an.on_store(ev)
        assert [(i.kernel.name, i.age) for i in out] == [("loop", 3)]

    def test_literal_age_fetch_rechecks_pending(self):
        """A kernel fetching config(0) + stream(a): config arriving last
        must release the pending ages."""
        k = KernelDef(
            "k", nop, has_age=True, index_vars=("x",),
            fetches=(
                FetchSpec("s", "stream", dims=(Dim.of("x"),), scalar=True),
                FetchSpec("c", "config", AgeExpr.const(0)),
            ),
        )
        prog = Program.build(
            [FieldDef("stream"), FieldDef("config")], [k]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "stream", 2, 0, 1)
        assert an.on_store(ev) == []  # config missing
        ev2, _ = store_ev(fields, "config", 0, 0, 9)
        out = an.on_store(ev2)
        assert [(i.kernel.name, i.age, i.index) for i in out] == [("k", 2, (0,))]

    def test_max_age_bound(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields, max_age=1)
        ev, _ = store_ev(fields, "a", 5, 0, 1)
        assert an.on_store(ev) == []

    def test_per_kernel_age_limit(self):
        per = KernelDef(
            "per", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", dims=(Dim.of("x"),), scalar=True),),
            age_limit=2,
        )
        prog = Program.build([FieldDef("a")], [per])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 2, 0, 1)
        assert len(an.on_store(ev)) == 1
        ev2, _ = store_ev(fields, "a", 3, 0, 1)
        assert an.on_store(ev2) == []

    def test_multi_var_combinations(self):
        pair = KernelDef(
            "pair", nop, has_age=True, index_vars=("x", "y"),
            fetches=(
                FetchSpec("a", "fa", dims=(Dim.of("x"),), scalar=True),
                FetchSpec("b", "fb", dims=(Dim.of("y"),), scalar=True),
            ),
        )
        prog = Program.build([FieldDef("fa"), FieldDef("fb")], [pair])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "fa", 0, slice(0, 2), [1, 2])
        assert an.on_store(ev) == []  # fb empty
        ev2, _ = store_ev(fields, "fb", 0, slice(0, 3), [1, 2, 3])
        out = an.on_store(ev2)
        assert len(out) == 6  # 2 x 3 combinations

    def test_block_fetch_candidates(self):
        blocky = KernelDef(
            "blocky", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", dims=(Dim.of("x", 4),)),),
        )
        prog = Program.build([FieldDef("a")], [blocky])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, slice(0, 8), np.arange(8))
        out = an.on_store(ev)
        assert sorted(i.index for i in out) == [(0,), (1,)]


class TestSourceAdvance:
    def test_source_chain_advances_until_silent(self):
        src = KernelDef("src", nop, has_age=True, stores=(StoreSpec("a"),))
        prog = Program.build([FieldDef("a")], [src])
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        (first,) = an.initial_instances()
        nxt = an.on_done(InstanceDoneEvent(first, stored_any=True))
        assert [(i.kernel.name, i.age) for i in nxt] == [("src", 1)]
        done = an.on_done(InstanceDoneEvent(nxt[0], stored_any=False))
        assert done == []

    def test_non_source_done_is_ignored(self):
        prog = simple_program()
        an = DependencyAnalyzer(prog, FieldStore(prog.fields.values()))
        per = prog.kernels["per"]
        ev = InstanceDoneEvent(KernelInstance(per, 0, (0,)), stored_any=True)
        assert an.on_done(ev) == []


class TestResize:
    def test_resize_dispatches_new_combos(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, slice(0, 2), [1, 2])
        assert len(an.on_store(ev)) == 2
        # growth: element 5 written later (extent 0..5); elements 2..4
        # missing, so only x=5 becomes dispatchable
        ev2, resize = store_ev(fields, "a", 0, 5, 9)
        assert resize is not None
        out = an.on_store(ev2)
        assert sorted(i.index for i in out) == [(5,)]
        out2 = an.on_resize(
            ResizeEvent("a", resize.old_extent, resize.new_extent)
        )
        assert out2 == []  # nothing new; gap still unwritten

    def test_growth_reopens_a_pruned_age(self):
        """A fully dispatched age is pruned from the pending set.  When
        a resize later widens the index domain, the age's new
        combinations may need no store at that age: here ``x = 1`` of
        age 1 reads ``b(1)[1]``, stored long ago, and a shrink-boundary
        neighbour that lies outside the extent.  The resize itself must
        dispatch it."""
        k = KernelDef(
            "k", nop, has_age=True, index_vars=("x",),
            fetches=(
                FetchSpec("v", "b", dims=(Dim.of("x"),)),
                FetchSpec("n", "b", dims=(
                    Dim.of("x", 2, offset=1, boundary="shrink"),)),
            ),
        )
        prog = Program.build([FieldDef("b")], [k])
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "b", 1, slice(0, 2), [1, 2])
        assert [i.key for i in an.on_store(ev)] == [("k", 1, (0,))]
        assert 1 not in an._pending["k"]
        ev, resize = store_ev(fields, "b", 2, slice(0, 3), [1, 2, 3])
        out = an.on_resize(
            ResizeEvent("b", resize.old_extent, resize.new_extent)
        )
        assert [i.key for i in out] == [("k", 1, (1,))]

    def test_literal_fetch_growth_reaches_a_pruned_age(self):
        """The domain of ``x`` grows through a literal-age fetch of a
        growable field.  The store that grows it fills only ``c[3]``;
        ``x = 2`` becomes runnable with the later store of ``c[2]``,
        which names no age, so the pruned age must be pending again."""
        k = KernelDef(
            "k", nop, has_age=True, index_vars=("x",),
            fetches=(
                FetchSpec("a", "a", dims=(Dim.of("x"),)),
                FetchSpec("c", "c", age=AgeExpr.const(0),
                          dims=(Dim.of("x"),)),
            ),
        )
        prog = Program.build(
            [FieldDef("a", shape=(4,)), FieldDef("c", aging=False)], [k]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        ev, _ = store_ev(fields, "a", 0, slice(0, 4), [0, 1, 2, 3])
        assert an.on_store(ev) == []
        ev, resize = store_ev(fields, "c", 0, slice(0, 2), [0, 1])
        out = an.on_resize(
            ResizeEvent("c", resize.old_extent, resize.new_extent)
        )
        assert len(out + an.on_store(ev)) == 2
        assert 0 not in an._pending["k"]
        ev, resize = store_ev(fields, "c", 0, 3, 3)
        out = an.on_resize(
            ResizeEvent("c", resize.old_extent, resize.new_extent)
        )
        out += an.on_store(ev)
        assert [i.key for i in out] == [("k", 0, (3,))]
        ev, _ = store_ev(fields, "c", 0, 2, 2)
        assert [i.key for i in an.on_store(ev)] == [("k", 0, (2,))]
        assert an.dispatched_count("k") == 4

    def test_counters(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        an.initial_instances()
        ev, _ = store_ev(fields, "a", 0, slice(0, 4), [1, 2, 3, 4])
        an.on_store(ev)
        assert an.dispatched_count("per") == 4
        assert an.dispatched_count() == 5  # + init
        assert an.events_processed == 1


class TestProducerCoverage:
    """Whole-field fetches must wait out the producer's full index
    domain, not fire at a momentarily-consistent partial extent."""

    def events_for(self, an, fields, name, age, index, value):
        ev, resize = store_ev(fields, name, age, index, value)
        out = []
        if resize is not None:
            out += an.on_resize(
                ResizeEvent(name, resize.old_extent, resize.new_extent)
            )
        out += an.on_store(ev)
        return out

    def test_whole_field_fetch_waits_for_producer_domain(self):
        prog = simple_program()
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        # init commits a(0) atomically: per x=0..4 become runnable.
        assert len(self.events_for(an, fields, "a", 0, slice(0, 5),
                                   [1, 2, 3, 4, 5])) == 5
        # First per instance stores b[0] only: extent (1,), store_count 1
        # — "complete" at the partial extent, but per's domain (from a's
        # extent) promises five elements, so sink must not fire yet.
        out = self.events_for(an, fields, "b", 0, 0, 10)
        assert all(i.kernel.name != "sink" for i in out)
        # The remaining stores complete the true domain: sink(0) fires
        # exactly once.
        for x in range(1, 5):
            out += self.events_for(an, fields, "b", 0, x, 10 + x)
        assert [(i.kernel.name, i.age) for i in out].count(("sink", 0)) == 1

    def test_blocked_producer_domain_is_waited_out(self):
        """The same guard for a blocked (e.g. coarsened) producer: two
        ``per4`` instances cover ``b`` in blocks of 4, so the first
        block alone (extent 4) is not yet the whole of a 5-element
        ``b``, even though every element of that extent is written."""
        init = KernelDef(
            "init", nop, stores=(StoreSpec("a", AgeExpr.const(0)),)
        )
        per4 = KernelDef(
            "per4", nop, has_age=True, index_vars=("x",),
            fetches=(FetchSpec("v", "a", dims=(Dim.of("x", 4),)),),
            stores=(StoreSpec("b", dims=(Dim.of("x", 4),)),),
        )
        sink = KernelDef(
            "sink", nop, has_age=True, fetches=(FetchSpec("all", "b"),),
        )
        prog = Program.build(
            [FieldDef("a"), FieldDef("b")], [init, per4, sink]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(prog, fields)
        out = self.events_for(an, fields, "a", 0, slice(0, 5),
                              [1, 2, 3, 4, 5])
        assert [i.key for i in out] == [("per4", 0, (0,)), ("per4", 0, (1,))]
        assert self.events_for(an, fields, "b", 0, slice(0, 4),
                               [1, 2, 3, 4]) == []
        out = self.events_for(an, fields, "b", 0, 4, 5)
        assert [i.key for i in out] == [("sink", 0, ())]

    def test_partitioned_analyzer_knows_remote_producers(self):
        """A node hosting only the consumer is told the full program's
        kernels (the cluster layer's ``dependency_kernels``) and applies
        the same guard to a field written remotely."""
        prog = simple_program()
        sink_only = Program.build(
            prog.fields.values(), [prog.kernels["sink"]]
        )
        fields = FieldStore(prog.fields.values())
        an = DependencyAnalyzer(
            sink_only, fields, producers=prog.kernels.values()
        )
        store_ev(fields, "a", 0, slice(0, 5), [1, 2, 3, 4, 5])
        out = self.events_for(an, fields, "b", 0, 0, 10)
        assert out == []
        for x in range(1, 5):
            out += self.events_for(an, fields, "b", 0, x, 10 + x)
        assert [(i.kernel.name, i.age) for i in out] == [("sink", 0)]
