"""Property tests for the dependency analyzer.

The core claim: the *set* of dispatched instances is a pure function of
what has been stored — never of the order the store events arrived in
(permutation invariance), and each instance is dispatched exactly once
(dispatch-once under any interleaving).
"""

import itertools

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
from repro.core.events import ResizeEvent, StoreEvent
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
        1,584 CIF ``ydct`` candidates with one gathered mask read: one
        ``is_complete_block`` call over every candidate region and no
        ``is_complete`` probe."""
        from repro.core.fields import Field
        from repro.workloads import build_mjpeg

        program, _ = build_mjpeg(frames=[], vectorize=False)
        fields = FieldStore(program.fields.values())
        region = tuple(slice(0, n) for n in fields["y_input"].extent)
        fields["y_input"].store(0, region, 0)
        an = DependencyAnalyzer(program, fields)
        probes, gathers = count_mask_reads(monkeypatch)
        ready = an.on_store(StoreEvent("y_input", 0, region))
        assert len(ready) == (288 // 8) * (352 // 8) == 1584
        assert {k.kernel.name for k in ready} == {"ydct"}
        assert probes == []
        assert gathers == [("y_input", 0, 1584)]

    def test_fully_dispatched_age_costs_nothing(self, monkeypatch):
        """K-means' shape: ``assign(x)`` fetches one datapoint (literal
        age 0) and the whole centroid field.  Once every ``assign`` of
        an age is dispatched, its dispatch record keeps no array, and
        more store events on its inputs (a recovery replay delivers
        them twice) read no mask and build no ``KernelInstance``."""
        import repro.core.analyzer as analyzer_mod

        n, k = 50, 4
        assign = KernelDef(
            "assign", nop, has_age=True, index_vars=("x",),
            fetches=(
                FetchSpec("point", "datapoints", age=AgeExpr.const(0),
                          dims=(Dim.of("x"), Dim.all())),
                FetchSpec("centroids", "centroids"),
            ),
        )
        program = Program.build(
            [FieldDef("datapoints", "float64", 2, aging=False,
                      shape=(n, 2)),
             FieldDef("centroids", "float64", 2, shape=(k, 2))],
            [assign],
        )
        fields = FieldStore(program.fields.values())
        an = DependencyAnalyzer(program, fields)
        points = (slice(0, n), slice(0, 2))
        fields["datapoints"].store(0, points, np.zeros((n, 2)))
        assert an.on_store(StoreEvent("datapoints", 0, points)) == []
        events = []
        for c in range(k):
            row = (slice(c, c + 1), slice(0, 2))
            fields["centroids"].store(0, row, np.zeros((1, 2)))
            events.append(StoreEvent("centroids", 0, row))
            assert len(an.on_store(events[-1])) == (n if c == k - 1 else 0)
        assert an._disp[("assign", 0)].mask is None
        assert an.dispatched_count() == n

        probes, gathers = count_mask_reads(monkeypatch)
        built = []

        class CountingInstance(analyzer_mod.KernelInstance):
            def __init__(self, *args, **kw):
                built.append(args)
                super().__init__(*args, **kw)

        monkeypatch.setattr(analyzer_mod, "KernelInstance", CountingInstance)
        assert an.on_store(*events) == []
        assert an.on_store(events[-1]) == []
        assert an.on_store(StoreEvent("datapoints", 0, points)) == []
        assert (probes, gathers, built) == ([], [], [])
        assert an.dispatched_count() == n


def count_mask_reads(monkeypatch):
    """Patch ``Field.is_complete`` and ``Field.is_complete_block`` to
    record each call: ``(field, age)`` and ``(field, age, regions)``."""
    from repro.core.fields import Field

    probes, gathers = [], []
    probe, gather = Field.is_complete, Field.is_complete_block

    def counting_probe(self, age, index=None):
        probes.append((self.name, age))
        return probe(self, age, index)

    def counting_gather(self, age, starts, shape):
        gathers.append((self.name, age, len(starts)))
        return gather(self, age, starts, shape)

    monkeypatch.setattr(Field, "is_complete", counting_probe)
    monkeypatch.setattr(Field, "is_complete_block", counting_gather)
    return probes, gathers


# ----------------------------------------------------------------------
# Oracle: the analyzer against a brute-force reference
# ----------------------------------------------------------------------
def reference_ready(program, fields, max_age, top_age):
    """Every (kernel, age, index) whose fetches are all satisfied now,
    found the slow way: ``itertools.product`` over each kernel's index
    domain at current extents and one ``Field.is_complete`` per fetch
    region.  A region empty only along shrink-boundary dimensions is an
    absent neighbour (satisfied); any other empty region is invalid."""

    def fetch_ok(f, age, imap):
        field = fields[f.field]
        f_age = f.age.resolve(age)
        if f.whole_field():
            return field.is_complete(f_age, None)
        region = f.region(imap, field.extent)
        empty = [d for d, s in zip(f.dims, region) if s.stop <= s.start]
        if empty:
            return all(not d.is_all and d.boundary == "shrink"
                       for d in empty)
        return field.is_complete(f_age, region)

    ready = set()
    for k in program.kernels.values():
        counts = k.index_counts(lambda name: fields[name].extent)
        ranges = [range(counts.get(v, 0)) for v in k.index_vars]
        for age in (range(top_age + 1) if k.has_age else [None]):
            if age is not None and (
                (max_age is not None and age > max_age)
                or (k.age_limit is not None and age > k.age_limit)
            ):
                continue
            for combo in itertools.product(*ranges):
                imap = dict(zip(k.index_vars, combo))
                if all(fetch_ok(f, age, imap) for f in k.fetches):
                    ready.add((k.name, age, combo))
    return ready


@st.composite
def oracle_kernels(draw):
    """One to three aged kernels plus an optional ageless one over three
    fields: ``a`` (aging, 2-D, declared shape), ``b`` (aging, 1-D,
    growable) and ``c`` (non-aging, 1-D, growable, fetched at literal
    age 0).

    Each aged kernel's first fetch is a plain one-element fetch at a
    variable age that binds every index variable, so every instance is
    reached by a store of its own.  The others are drawn freely:
    blocked, clamped and shrinking stencils on one or two variables, a
    second age (``a-1``), literal-age and whole-field fetches.
    """

    def dim(kvars):
        return Dim.of(
            draw(st.sampled_from(kvars)),
            block=draw(st.integers(1, 3)),
            offset=draw(st.integers(-2, 2)),
            boundary=draw(st.sampled_from(["clamp", "shrink"])),
        )

    def var_age():
        return AgeExpr.var(draw(st.sampled_from([0, -1])))

    kernels = []
    for i in range(draw(st.integers(1, 3))):
        kvars = ("x", "y")[:draw(st.integers(1, 2))]
        if len(kvars) == 2:
            dims = tuple(draw(st.permutations([Dim.of("x"), Dim.of("y")])))
            anchor = FetchSpec("p0", "a", age=var_age(), dims=dims)
        else:
            dims = draw(st.sampled_from([
                ("a", (Dim.of("x"), Dim.all())),
                ("a", (Dim.all(), Dim.of("x"))),
                ("b", (Dim.of("x"),)),
            ]))
            anchor = FetchSpec("p0", dims[0], age=var_age(), dims=dims[1])
        fetches = [anchor]
        for j in range(1, draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["a", "b", "c", "whole"]))
            if kind == "a":
                dims = tuple(
                    dim(kvars) if draw(st.booleans()) else Dim.all()
                    for _ in range(2)
                )
                fetches.append(FetchSpec(f"p{j}", "a", age=var_age(),
                                         dims=dims))
            elif kind == "b":
                fetches.append(FetchSpec(f"p{j}", "b", age=var_age(),
                                         dims=(dim(kvars),)))
            elif kind == "c":
                dims = (dim(kvars),) if draw(st.booleans()) else ()
                fetches.append(FetchSpec(f"p{j}", "c",
                                         age=AgeExpr.const(0), dims=dims))
            else:
                fetches.append(FetchSpec(
                    f"p{j}", draw(st.sampled_from(["a", "b"])),
                    age=var_age(),
                ))
        kernels.append(KernelDef(
            f"k{i}", nop, has_age=True, index_vars=kvars,
            fetches=tuple(fetches),
            age_limit=draw(st.none() | st.integers(0, 2)),
        ))
    if draw(st.booleans()):
        kernels.append(KernelDef(
            "ageless", nop, index_vars=("x",),
            fetches=(FetchSpec("p0", "c", age=AgeExpr.const(0),
                               dims=(dim(("x",)),)),),
        ))
    return kernels


@st.composite
def oracle_stores(draw, h, w):
    """Disjoint stores to ``a``, ``b`` and ``c`` (some pieces left out,
    so not everything becomes ready), shuffled and split into runs of
    consecutive same-(field, age) stores."""

    def pieces(n):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        bounds = [0, *cuts, n]
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    ops = []
    for age in range(draw(st.integers(1, 3))):
        ops += [("a", age, (r, c)) for r in pieces(h) for c in pieces(w)]
        ops += [("b", age, (s,)) for s in pieces(draw(st.integers(1, 6)))]
    ops += [("c", 0, (s,)) for s in pieces(draw(st.integers(1, 5)))]
    keep = draw(st.lists(st.integers(0, 5), min_size=len(ops),
                         max_size=len(ops)))
    ops = draw(st.permutations([op for op, k in zip(ops, keep) if k]))
    merge = draw(st.lists(st.booleans(), min_size=len(ops),
                          max_size=len(ops)))
    runs: list[list] = []
    for op, joined in zip(ops, merge):
        if runs and joined and op[:2] == runs[-1][-1][:2]:
            runs[-1].append(op)
        else:
            runs.append([op])
    return runs


class TestOracle:
    """The analyzer dispatches exactly what a brute-force reference
    finds ready, each instance once, after every store run."""

    @given(oracle_kernels(), st.integers(1, 4), st.integers(1, 4),
           st.none() | st.integers(0, 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_dispatches_what_the_reference_finds_ready(
        self, kernels, h, w, max_age, data
    ):
        program = Program.build(
            [FieldDef("a", "int64", 2, shape=(h, w)),
             FieldDef("b", "int64", 1),
             FieldDef("c", "int64", 1, aging=False)],
            kernels,
        )
        runs = data.draw(oracle_stores(h, w))
        fields = FieldStore(program.fields.values())
        an = DependencyAnalyzer(program, fields, max_age=max_age)
        assert an.initial_instances() == []
        dispatched: list = []
        expected: set = set()
        top_age = 0
        for run in runs:
            resizes = []
            for name, age, region in run:
                shape = tuple(s.stop - s.start for s in region)
                resize = fields[name].store(age, region, np.zeros(shape))
                if resize is not None:
                    resizes.append(ResizeEvent(
                        name, resize.old_extent, resize.new_extent
                    ))
                top_age = max(top_age, age + 1)
            for ev in resizes:
                dispatched += [i.key for i in an.on_resize(ev)]
            dispatched += [
                i.key for i in an.on_store(
                    *(StoreEvent(name, age, region)
                      for name, age, region in run)
                )
            ]
            expected |= reference_ready(program, fields, max_age, top_age)
            assert len(set(dispatched)) == len(dispatched), (
                "double dispatch"
            )
            assert set(dispatched) == expected
        assert an.dispatched_count() == len(dispatched)
