"""Unit tests for write-once, aging, multi-dimensional fields."""

import numpy as np
import pytest

from repro.core import (
    AgeError,
    CollectedAgeError,
    DefinitionError,
    ExtentError,
    FieldDef,
    FieldStore,
    LocalField,
    WriteOnceViolation,
    normalize_index,
)
from repro.core.fields import Field, index_shape


def make(name="f", dtype="int32", ndim=1, aging=True, shape=None) -> Field:
    return Field(FieldDef(name, dtype, ndim, aging, shape))


class TestFieldDef:
    def test_rejects_unknown_dtype(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "complex128", 1)

    def test_rejects_zero_dims(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "int32", 0)

    def test_shape_must_match_ndim(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "int32", 2, shape=(3,))

    def test_shape_rejects_negative(self):
        with pytest.raises(DefinitionError):
            FieldDef("f", "int32", 1, shape=(-1,))

    def test_np_dtype(self):
        assert FieldDef("f", "float32", 1).np_dtype == np.float32


class TestNormalizeIndex:
    def test_scalar_becomes_unit_slice(self):
        assert normalize_index(3, 1) == (slice(3, 4),)

    def test_tuple_mixed(self):
        idx = normalize_index((2, slice(0, 4)), 2)
        assert idx == (slice(2, 3), slice(0, 4))

    def test_none_start_defaults_to_zero(self):
        assert normalize_index(slice(None, 5), 1) == (slice(0, 5),)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ExtentError):
            normalize_index((1, 2), 1)

    def test_rejects_negative(self):
        with pytest.raises(ExtentError):
            normalize_index(-1, 1)

    def test_rejects_open_ended(self):
        with pytest.raises(ExtentError):
            normalize_index(slice(2, None), 1)

    def test_rejects_step(self):
        with pytest.raises(ExtentError):
            normalize_index(slice(0, 4, 2), 1)

    def test_index_shape(self):
        assert index_shape((slice(2, 5), slice(0, 3))) == (3, 3)


class TestWriteOnce:
    def test_store_then_fetch(self):
        f = make()
        f.store(0, 2, 7)
        assert f.fetch(0, 2).item() == 7

    def test_double_store_same_element_raises(self):
        f = make()
        f.store(0, 1, 5)
        with pytest.raises(WriteOnceViolation) as e:
            f.store(0, 1, 6)
        assert e.value.field == "f"
        assert e.value.age == 0
        assert e.value.index == (1,)

    def test_overlapping_region_raises(self):
        f = make()
        f.store(0, slice(0, 4), [1, 2, 3, 4])
        with pytest.raises(WriteOnceViolation):
            f.store(0, slice(3, 6), [9, 9, 9])

    def test_same_position_different_age_is_fine(self):
        f = make()
        f.store(0, 0, 1)
        f.store(1, 0, 2)
        assert f.fetch(0, 0).item() == 1
        assert f.fetch(1, 0).item() == 2

    def test_non_aging_rejects_age(self):
        f = make(aging=False)
        f.store(0, 0, 1)
        with pytest.raises(AgeError):
            f.store(1, 0, 1)

    def test_negative_age_rejected(self):
        with pytest.raises(AgeError):
            make().store(-1, 0, 1)


class TestImplicitResize:
    def test_store_grows_extent(self):
        f = make()
        assert f.extent == (0,)
        info = f.store(0, 4, 1)
        assert f.extent == (5,)
        assert info is not None
        assert info.old_extent == (0,)
        assert info.new_extent == (5,)

    def test_no_resize_within_extent(self):
        f = make()
        f.store(0, 9, 1)
        assert f.store(0, 3, 1) is None

    def test_resize_preserves_other_ages(self):
        f = make()
        f.store(0, slice(0, 3), [1, 2, 3])
        f.store(1, 7, 9)  # grows to 8; age 0 data must survive
        assert f.fetch(0, slice(0, 3)).tolist() == [1, 2, 3]

    def test_2d_resize(self):
        f = make(ndim=2)
        f.store(0, (slice(0, 2), slice(0, 3)), np.ones((2, 3)))
        assert f.extent == (2, 3)
        f.store(0, (slice(2, 4), slice(0, 5)), np.ones((4, 5))[:2])
        assert f.extent == (4, 5)

    def test_declared_shape_fixes_extent(self):
        f = make(shape=(6,))
        assert f.extent == (6,)
        f.store(0, 5, 1)
        with pytest.raises(ExtentError):
            f.store(0, 6, 1)

    def test_value_shape_mismatch(self):
        f = make()
        with pytest.raises(ExtentError):
            f.store(0, slice(0, 3), [1, 2])

    def test_scalar_broadcast_into_region(self):
        f = make()
        f.store(0, slice(0, 3), 7)
        assert f.fetch(0, slice(0, 3)).tolist() == [7, 7, 7]


class TestCompleteness:
    def test_incomplete_whole_field(self):
        f = make()
        f.store(0, slice(0, 2), [1, 2])
        f.store(0, 3, 4)  # gap at index 2
        assert not f.is_complete(0)

    def test_complete_whole_field(self):
        f = make()
        f.store(0, slice(0, 4), [1, 2, 3, 4])
        assert f.is_complete(0)

    def test_untouched_field_never_complete(self):
        assert not make().is_complete(0)
        f = make(shape=(0,))
        assert not f.is_complete(0)

    def test_region_completeness(self):
        f = make()
        f.store(0, slice(2, 5), [1, 2, 3])
        assert f.is_complete(0, slice(2, 5))
        assert f.is_complete(0, slice(3, 4))
        assert not f.is_complete(0, slice(0, 3))

    def test_region_beyond_extent(self):
        f = make()
        f.store(0, slice(0, 2), [1, 2])
        assert not f.is_complete(0, slice(0, 5))

    def test_declared_shape_not_complete_until_all_written(self):
        f = make(shape=(4,))
        f.store(0, 0, 1)
        assert not f.is_complete(0)
        f.store(0, slice(1, 4), [2, 3, 4])
        assert f.is_complete(0)

    def test_fetch_incomplete_raises(self):
        f = make()
        f.store(0, 0, 1)
        with pytest.raises(ExtentError):
            f.fetch(0, slice(0, 3))

    def test_peek_returns_none_for_incomplete(self):
        f = make()
        assert f.peek(0) is None
        f.store(0, slice(0, 2), [1, 2])
        assert f.peek(0).tolist() == [1, 2]

    def test_written_count(self):
        f = make()
        f.store(0, slice(0, 3), [1, 2, 3])
        assert f.written_count(0) == 3
        assert f.written_count(1) == 0


class TestGarbageCollection:
    def test_collect_age_frees_and_blocks_fetch(self):
        f = make()
        f.store(0, slice(0, 128), np.arange(128))
        freed = f.collect_age(0)
        assert freed > 0
        with pytest.raises(CollectedAgeError):
            f.fetch(0, 0)
        assert not f.is_complete(0)

    def test_collect_is_idempotent(self):
        f = make()
        f.store(0, 0, 1)
        f.collect_age(0)
        assert f.collect_age(0) == 0

    def test_collect_below(self):
        f = make()
        for age in range(4):
            f.store(age, 0, age)
        f.collect_below(2)
        with pytest.raises(CollectedAgeError):
            f.fetch(1, 0)
        assert f.fetch(2, 0).item() == 2

    def test_store_to_collected_age_raises(self):
        f = make()
        f.store(0, 0, 1)
        f.collect_age(0)
        with pytest.raises(CollectedAgeError):
            f.store(0, 1, 2)

    def test_ages_excludes_collected(self):
        f = make()
        f.store(0, 0, 1)
        f.store(1, 0, 1)
        f.collect_age(0)
        assert f.ages() == [1]


def _check_concurrent_batches(f: Field, commit: str) -> None:
    """Four threads commit disjoint lattice-aligned batches of 2-element
    regions under a tiny switch interval; every element must land once."""
    import sys
    import threading

    errors = []

    def writer(t):
        try:
            for k in range(200):
                base = (k * 4 + t) * 8
                regions = [slice(base + j, base + j + 2)
                           for j in range(0, 8, 2)]
                values = [[r.start, r.start + 1] for r in regions]
                if commit == "store_block":
                    starts = np.array([[r.start] for r in regions])
                    f.store_block(0, starts, (2,), values)
                else:
                    f.store_many(0, regions, values)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert f.written_count(0) == 6400
    assert f.fetch(0).tolist() == list(range(6400))


class TestStoreMany:
    def test_commits_every_region(self):
        f = make(shape=(6,))
        assert f.store_many(0, [slice(0, 2), 2, slice(3, 6)],
                            [[1, 2], 3, [4, 5, 6]]) is None
        assert f.fetch(0).tolist() == [1, 2, 3, 4, 5, 6]
        assert f.written_count(0) == 6
        assert f.max_stored_age == 0

    def test_growable_field_grows_once(self):
        f = make()
        info = f.store_many(1, [slice(0, 2), slice(2, 5)],
                            [[1, 2], [3, 4, 5]])
        assert (info.old_extent, info.new_extent) == ((0,), (5,))
        assert f.fetch(1).tolist() == [1, 2, 3, 4, 5]

    def test_overlap_inside_batch_raises(self):
        f = make(shape=(8,))
        with pytest.raises(WriteOnceViolation) as e:
            f.store_many(0, [slice(0, 3), slice(2, 4)],
                         [[1, 1, 1], [2, 2]])
        assert e.value.index == (2,)

    def test_overlap_with_earlier_commit_raises_before_any_payload(self):
        f = make(shape=(8,))
        f.store(0, slice(4, 6), [7, 7])
        with pytest.raises(WriteOnceViolation) as e:
            f.store_many(0, [slice(0, 2), slice(5, 7)], [[1, 1], [2, 2]])
        assert e.value.index == (5,)
        # Neither region committed and no payload byte was copied.
        assert f.written_count(0) == 2
        assert f._ages[0].data.tolist() == [0, 0, 0, 0, 7, 7, 0, 0]

    def test_region_past_declared_shape_raises(self):
        f = make(shape=(4,))
        with pytest.raises(ExtentError, match="declared shape"):
            f.store_many(0, [slice(0, 2), slice(3, 5)], [[1, 1], [2, 2]])
        assert f.written_count(0) == 0

    def test_value_count_must_match_regions(self):
        with pytest.raises(ExtentError):
            make(shape=(4,)).store_many(0, [0, 1], [5])

    def test_collected_age_raises(self):
        f = make(shape=(4,))
        f.store_many(0, [0], [1])
        f.collect_age(0)
        with pytest.raises(CollectedAgeError):
            f.store_many(0, [1, 2], [1, 2])
        with pytest.raises(CollectedAgeError):
            f.store_many(0, [1, 2])

    def test_concurrent_batches_on_a_growable_field(self):
        """Threads committing disjoint batches while their stores keep
        growing the field lose no element and raise nothing."""
        _check_concurrent_batches(make(dtype="int64"), "store_many")

    def test_metadata_commit(self):
        """``values=None`` is the processes backend's parent-side commit
        (the role of the former ``mark_written_many``): masks, counters
        and write-once per region, payload untouched, no growth."""
        f = make(shape=(6,))
        f.store_many(2, [slice(0, 2), slice(4, 6)])
        assert f.is_complete(2, slice(0, 2))
        assert f.is_complete(2, slice(4, 6))
        assert not f.is_complete(2, slice(2, 4))
        assert f.written_count(2) == 4
        assert f.elements_written == 4
        assert f.max_stored_age == 2
        assert f._ages[2].data.tolist() == [0] * 6
        with pytest.raises(WriteOnceViolation):
            f.store_many(2, [slice(2, 4), slice(3, 5)])
        with pytest.raises(ExtentError):
            make().store_many(0, [slice(0, 1)])  # growable, extent 0

    def test_metadata_commit_matches_per_region_commits(self):
        regions = [slice(3, 5), 0, slice(6, 8), 1]
        batched, single = make(shape=(8,)), make(shape=(8,))
        batched.store_many(1, regions)
        for r in regions:
            single.store_many(1, [r])
        assert (batched._ages[1].written == single._ages[1].written).all()
        assert batched.written_count(1) == single.written_count(1) == 6
        assert batched.elements_written == single.elements_written


class TestBlockCommit:
    @pytest.mark.parametrize("shape", [None, (6400,)])
    def test_concurrent_block_commits(self, shape):
        """The lattice fast path under contention: on a growable field
        the scatter runs under the lock while resizes swap the backing
        array, on a fixed-shape field it runs outside the lock."""
        _check_concurrent_batches(
            make(dtype="int64", shape=shape), "store_block"
        )


class TestLocalField:
    def test_put_grows(self):
        lf = LocalField("int32", 1)
        for i in range(5):
            lf.put(i + 10, i)
        assert lf.data.tolist() == [10, 11, 12, 13, 14]
        assert lf.extent(0) == 5

    def test_put_is_rewritable(self):
        lf = LocalField()
        lf.put(1, 0)
        lf.put(2, 0)  # locals are not write-once
        assert lf.get(0) == 2

    def test_2d(self):
        lf = LocalField("float64", 2)
        lf.put(3.5, 1, 2)
        assert lf.extent(0) == 2 and lf.extent(1) == 3
        assert lf.get(1, 2) == 3.5

    def test_wrong_arity(self):
        with pytest.raises(ExtentError):
            LocalField(ndim=2).put(1, 0)

    def test_from_array(self):
        lf = LocalField().from_array([1, 2, 3])
        assert lf.data.tolist() == [1, 2, 3]


class TestFieldStore:
    def test_add_and_lookup(self):
        fs = FieldStore([FieldDef("a"), FieldDef("b")])
        assert "a" in fs and "b" in fs
        assert fs["a"].name == "a"
        assert fs.names() == ["a", "b"]

    def test_duplicate_rejected(self):
        fs = FieldStore([FieldDef("a")])
        with pytest.raises(DefinitionError):
            fs.add(FieldDef("a"))

    def test_unknown_lookup(self):
        with pytest.raises(DefinitionError):
            FieldStore()["missing"]

    def test_live_bytes_and_collect(self):
        fs = FieldStore([FieldDef("a")])
        fs["a"].store(0, slice(0, 64), np.zeros(64))
        before = fs.live_bytes()
        assert before > 0
        fs.collect_below(1)
        assert fs.live_bytes() < before
