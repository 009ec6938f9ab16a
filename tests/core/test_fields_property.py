"""Property-based tests (hypothesis) for field invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import FieldDef, WriteOnceViolation
from repro.core.fields import Field, lattice_disjoint


def segments(draw, total: int):
    """Split [0, total) into random disjoint segments."""
    cuts = draw(
        st.lists(st.integers(0, total), max_size=6, unique=True)
    )
    points = sorted(set(cuts) | {0, total})
    return list(zip(points[:-1], points[1:]))


@st.composite
def partitioned_field(draw):
    total = draw(st.integers(1, 40))
    segs = segments(draw, total)
    order = draw(st.permutations(segs))
    return total, list(order)


class TestWriteOnceProperties:
    @given(partitioned_field())
    @settings(max_examples=60)
    def test_disjoint_segments_never_violate(self, case):
        """Storing any disjoint partition of the field, in any order,
        succeeds and ends complete."""
        total, segs = case
        f = Field(FieldDef("f", "int64", 1))
        for lo, hi in segs:
            if hi > lo:
                f.store(0, slice(lo, hi), np.arange(lo, hi))
        assert f.is_complete(0, slice(0, total)) or total == 0
        got = f.fetch(0, slice(0, total))
        assert got.tolist() == list(range(total))

    @given(
        st.integers(0, 30),
        st.integers(1, 10),
        st.integers(0, 30),
        st.integers(1, 10),
    )
    @settings(max_examples=80)
    def test_overlap_always_raises(self, a_lo, a_len, b_lo, b_len):
        """Any two overlapping stores to one age conflict; disjoint ones
        do not."""
        f = Field(FieldDef("f", "int64", 1))
        a = (a_lo, a_lo + a_len)
        b = (b_lo, b_lo + b_len)
        f.store(0, slice(*a), np.zeros(a_len))
        overlaps = a[0] < b[1] and b[0] < a[1]
        if overlaps:
            try:
                f.store(0, slice(*b), np.zeros(b_len))
                raised = False
            except WriteOnceViolation:
                raised = True
            assert raised
        else:
            f.store(0, slice(*b), np.zeros(b_len))

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_store_count_equals_unique_elements(self, indices):
        """store_count counts exactly the distinct elements written."""
        f = Field(FieldDef("f", "int64", 1))
        written = set()
        for i in indices:
            if i in written:
                continue
            f.store(0, i, i)
            written.add(i)
        assert f.written_count(0) == len(written)

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.data(),
    )
    @settings(max_examples=40)
    def test_2d_roundtrip(self, h, w, data):
        """A field stored in random rectangular tiles reads back exactly."""
        f = Field(FieldDef("f", "float64", 2))
        ref = np.arange(h * w, dtype=float).reshape(h, w)
        # store row by row with random column splits
        for r in range(h):
            cut = data.draw(st.integers(0, w))
            if cut:
                f.store(0, (r, slice(0, cut)), ref[r, :cut])
            if cut < w:
                f.store(0, (r, slice(cut, w)), ref[r, cut:])
        assert f.is_complete(0, (slice(0, h), slice(0, w)))
        assert np.array_equal(f.fetch(0, (slice(0, h), slice(0, w))), ref)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=40)
    def test_aging_isolation(self, age_a, age_b):
        """Writes to one age are never visible at another."""
        f = Field(FieldDef("f", "int64", 1))
        f.store(age_a, 0, 111)
        if age_b != age_a:
            assert not f.is_complete(age_b, slice(0, 1))
            f.store(age_b, 0, 222)
            assert f.fetch(age_b, 0).item() == 222
        assert f.fetch(age_a, 0).item() == 111


# ----------------------------------------------------------------------
# Block read / block commit against the per-region reference
# ----------------------------------------------------------------------
def _regions(starts, shape):
    return [
        tuple(slice(a, a + w) for a, w in zip(row, shape)) for row in starts
    ]


def _state(f: Field):
    """Everything a commit can change: extent, counters, and per age the
    payload bytes, the written mask and the store count."""
    return (
        f.extent,
        f.elements_written,
        f.max_stored_age,
        {
            age: (s.data.shape, s.data.tobytes(), s.written.tobytes(),
                  s.store_count, s.collected)
            for age, s in f._ages.items()
        },
    )


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return "raised", type(exc)


@st.composite
def block_cases(draw):
    """A field (fixed or growable, 1-d or 2-d), some earlier commits, and
    a batch of same-shape regions that is lattice-aligned, misaligned or
    overlapping — the three regimes of ``Field.store_block``."""
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(ndim))
    cells = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    extent = tuple(w * c for w, c in zip(shape, cells))
    fixed = draw(st.booleans())
    kind = draw(st.sampled_from(["lattice", "misaligned", "overlap"]))
    lattice = [
        tuple(c * w for c, w in zip(cell, shape))
        for cell in np.ndindex(*cells)
    ]
    if kind == "misaligned":
        # Anywhere up to one block past the extent: out-of-extent
        # regions must fail alike on fixed fields and grow growable ones.
        starts = draw(st.lists(
            st.tuples(*(st.integers(0, n) for n in extent)),
            min_size=1, max_size=6,
        ))
    else:
        starts = draw(st.lists(
            st.sampled_from(lattice), min_size=1, max_size=len(lattice),
            unique=True,
        ))
        if kind == "overlap":
            starts.insert(
                draw(st.integers(0, len(starts))),
                draw(st.sampled_from(starts)),
            )
    earlier = draw(st.lists(
        st.tuples(*(st.integers(0, n - 1) for n in extent)),
        max_size=2,
    ))
    return ndim, shape, extent, fixed, np.array(starts), earlier


def _block_field(ndim, extent, fixed, earlier):
    f = Field(FieldDef("f", "int64", ndim, shape=extent if fixed else None))
    if not fixed:
        f.store(1, tuple(slice(0, n) for n in extent),
                np.zeros(extent, dtype=np.int64))
    for point in earlier:
        try:
            f.store(0, point, -1)
        except WriteOnceViolation:
            pass
    return f


class TestBlockAccessProperties:
    @given(block_cases())
    @settings(max_examples=150, deadline=None)
    def test_block_commit_matches_store_many(self, case):
        """``store_block`` leaves the same bytes, masks and counts as the
        per-region ``store_many``, or raises the same error class — for
        in-batch overlaps, overlaps with an earlier commit (before any
        payload is written) and out-of-extent regions alike."""
        ndim, shape, extent, fixed, starts, earlier = case
        values = np.arange(len(starts) * int(np.prod(shape))).reshape(
            (len(starts),) + shape
        )
        block = _block_field(ndim, extent, fixed, earlier)
        ref = _block_field(ndim, extent, fixed, earlier)
        before = _state(block)
        got = _outcome(lambda: block.store_block(0, starts, shape, values))
        want = _outcome(
            lambda: ref.store_many(0, _regions(starts, shape), list(values))
        )
        assert got == want
        assert _state(block) == _state(ref)
        if got[0] == "raised" and earlier and got[1] is WriteOnceViolation:
            overlap_in_batch = len({tuple(r) for r in starts}) < len(starts)
            if not overlap_in_batch and fixed:
                # Raised by the pre-check: no payload byte changed.
                assert _state(block)[3][0][1] == before[3][0][1]

    @given(block_cases())
    @settings(max_examples=100, deadline=None)
    def test_metadata_commit_matches_store_many(self, case):
        """The metadata-only commit agrees with ``store_many`` too.  On a
        write-once failure ``store_many`` keeps the regions it committed
        before the offending one; a lattice block commits all or
        nothing."""
        ndim, shape, extent, fixed, starts, earlier = case
        block = _block_field(ndim, extent, fixed, earlier)
        ref = _block_field(ndim, extent, fixed, earlier)
        before = _state(block)
        got = _outcome(lambda: block.store_block(0, starts, shape))
        want = _outcome(lambda: ref.store_many(0, _regions(starts, shape)))
        assert got == want
        if got[0] == "raised" and lattice_disjoint(starts, shape):
            assert _state(block) == before
        else:
            assert _state(block) == _state(ref)

    @given(block_cases(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_block_read_matches_fetch(self, case, complete, collected):
        """``fetch_block`` returns the stacked per-region ``fetch`` copies,
        or raises the same error class: incomplete and out-of-extent
        reads raise ``ExtentError``, a collected age
        ``CollectedAgeError``."""
        ndim, shape, extent, fixed, starts, earlier = case
        f = _block_field(ndim, extent, fixed, earlier)
        if complete:
            cover = _outcome(lambda: f.store_many(
                0, [tuple(slice(0, n) for n in extent)],
                [np.arange(int(np.prod(extent))).reshape(extent)],
            ))
            if cover[0] == "raised":  # an earlier point is in the way
                f = _block_field(ndim, extent, fixed, [])
                f.store(0, tuple(slice(0, n) for n in extent),
                        np.arange(int(np.prod(extent))).reshape(extent))
        if collected:
            f.collect_age(0)
        got = _outcome(lambda: f.fetch_block(0, starts, shape))
        want = _outcome(lambda: np.stack(
            [f.fetch(0, r) for r in _regions(starts, shape)]
        ))
        if got[0] == "ok" and want[0] == "ok":
            assert got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes()
        else:
            assert got[0] == want[0] == "raised"
            assert got[1] is want[1]

    @given(block_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_completeness_matches_is_complete(self, case, data):
        """``is_complete_block`` answers per region as ``is_complete``
        does, on fixed and growable, aging and non-aging fields: partly
        written ages, regions past the extent or starting below 0,
        empty regions, and collected, negative and untouched ages."""
        ndim, shape, extent, fixed, starts, earlier = case
        aging = data.draw(st.booleans())
        if aging:
            f = _block_field(ndim, extent, fixed, earlier)
        else:
            f = Field(FieldDef("f", "int64", ndim, aging=False,
                               shape=extent))
        cells = data.draw(st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in extent)),
            max_size=12,
        ))
        for point in cells:
            try:
                f.store(0, point, 1)
            except WriteOnceViolation:
                pass
        if data.draw(st.booleans()):
            f.collect_age(0)
        starts = starts - data.draw(st.integers(0, 1))
        if data.draw(st.integers(0, 5)) == 0:
            shape = shape[:-1] + (0,)
        age = data.draw(st.sampled_from([0, 1, 2, -1]))
        before = _state(f)
        got = f.is_complete_block(age, starts, shape)
        assert _state(f) == before  # a query changes nothing
        want = [
            f.is_complete(age, tuple(
                slice(a, a + w) for a, w in zip(row, shape)
            ))
            for row in starts.tolist()
        ]
        assert got.dtype == bool
        assert got.tolist() == want
