"""Multi-dimensional, aging, write-once fields.

Fields are P2G's central data abstraction (paper, section III): globally
visible multi-dimensional arrays with *write-once* semantics per element
and per *age*.  Aging adds a virtual dimension that lets cyclic programs
(e.g. the ``mul2``/``plus5`` loop of figure 5 or K-means' assign/refine
loop) keep write-once semantics: storing to the same position is legal as
long as the age increases.

Fields support *implicit resizing* (section V-C): a store beyond the
current extent grows the field, and the new extent propagates to every
age.  The runtime turns resizes into events so the dependency analyzer
can dispatch the additional kernel instances the larger extent implies.

The backing arrays are NumPy (the reproduction's stand-in for blitz++),
with a parallel boolean *written* mask per age used both to enforce
write-once semantics and to answer the analyzer's completeness queries.

Two storage flavours exist:

* :class:`Field` / :class:`FieldStore` — process-private NumPy arrays,
  used by the default ``threads`` execution backend.
* :class:`SharedField` / :class:`SharedFieldStore` — the per-age payload
  lives in a POSIX ``multiprocessing.shared_memory`` segment, so worker
  *processes* (the ``processes`` execution backend) fetch and store
  zero-copy views of the same physical pages.  The parent process owns
  the segment lifecycle (creation at dispatch, unlink at GC/shutdown)
  and keeps the write-once masks and counters private; workers only
  read/write payload bytes.  Shared fields require a declared shape —
  implicit resizing would need cross-process reallocation.
"""

from __future__ import annotations

import functools
import math
import secrets
import threading
from dataclasses import dataclass, field as dc_field
from multiprocessing import shared_memory
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AgeError,
    CollectedAgeError,
    DefinitionError,
    ExtentError,
    WriteOnceViolation,
)

#: Kernel-language type name -> NumPy dtype.  Matches the scalar types the
#: paper's C-like kernel language exposes.
DTYPES: Mapping[str, np.dtype] = {
    "int8": np.dtype(np.int8),
    "uint8": np.dtype(np.uint8),
    "int16": np.dtype(np.int16),
    "uint16": np.dtype(np.uint16),
    "int32": np.dtype(np.int32),
    "uint32": np.dtype(np.uint32),
    "int64": np.dtype(np.int64),
    "uint64": np.dtype(np.uint64),
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

IndexExpr = tuple  # normalized tuple of slice objects, one per dimension


@dataclass(frozen=True)
class FieldDef:
    """Static definition of a field (name, element type, dimensionality).

    Corresponds to a field-definition line in the kernel language, e.g.
    ``int32[] m_data age;`` -> ``FieldDef("m_data", "int32", 1, aging=True)``.

    Parameters
    ----------
    name:
        Global field name; unique within a program.
    dtype:
        One of the kernel-language scalar type names in :data:`DTYPES`.
    ndim:
        Number of (non-age) dimensions.
    aging:
        Whether the field carries the age dimension.  Non-aging fields
        behave like aging fields restricted to age 0.
    shape:
        Optional declared extent.  An undeclared field grows by implicit
        resizing, which leaves "the whole field" momentarily ambiguous
        while element-wise writers are still extending it — harmless for
        fields established by a single whole-field store (figure 5's
        ``init``), but racy for a field grown one element at a time and
        fetched whole (K-means' ``distances``).  Declaring the shape
        fixes the extent up front, making whole-field completeness
        exact and deterministic.
    """

    name: str
    dtype: str = "int32"
    ndim: int = 1
    aging: bool = True
    shape: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise DefinitionError(
                f"field {self.name!r}: unknown dtype {self.dtype!r}; "
                f"expected one of {sorted(DTYPES)}"
            )
        if self.ndim < 1:
            raise DefinitionError(
                f"field {self.name!r}: ndim must be >= 1, got {self.ndim}"
            )
        if self.shape is not None:
            object.__setattr__(self, "shape", tuple(self.shape))
            if len(self.shape) != self.ndim:
                raise DefinitionError(
                    f"field {self.name!r}: shape {self.shape} does not "
                    f"match ndim {self.ndim}"
                )
            if any(n < 0 for n in self.shape):
                raise DefinitionError(
                    f"field {self.name!r}: negative extent in {self.shape}"
                )

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype backing this field's elements."""
        return DTYPES[self.dtype]


def normalize_index(index: Any, ndim: int) -> IndexExpr:
    """Normalize a user-facing index into a tuple of ``slice`` objects.

    Accepts a scalar int (1-d), a slice, or a tuple mixing ints and
    slices.  Integers become unit slices.  Slices must have explicit,
    non-negative ``start``/``stop`` and step 1 (``None`` start means 0).

    Raises :class:`ExtentError` for negative indices, wrong arity, or
    stepped slices — none of which the P2G model defines.
    """
    if not isinstance(index, tuple):
        index = (index,)
    if len(index) != ndim:
        raise ExtentError(
            f"index {index!r} has {len(index)} dimension(s); field has {ndim}"
        )
    out = []
    for dim, part in enumerate(index):
        if isinstance(part, (int, np.integer)):
            if part < 0:
                raise ExtentError(f"negative index {part} in dimension {dim}")
            out.append(slice(int(part), int(part) + 1))
        elif isinstance(part, slice):
            start = 0 if part.start is None else int(part.start)
            if part.stop is None:
                raise ExtentError(
                    f"open-ended slice in dimension {dim}; P2G slices must "
                    f"have explicit stops (use fetch-all for whole fields)"
                )
            stop = int(part.stop)
            step = 1 if part.step is None else int(part.step)
            if step != 1:
                raise ExtentError(f"stepped slice in dimension {dim}")
            if start < 0 or stop < start:
                raise ExtentError(
                    f"invalid slice [{start}:{stop}] in dimension {dim}"
                )
            out.append(slice(start, stop))
        else:
            raise ExtentError(
                f"unsupported index component {part!r} in dimension {dim}"
            )
    return tuple(out)


def index_shape(index: IndexExpr) -> tuple[int, ...]:
    """Shape of the region selected by a normalized index."""
    return tuple(s.stop - s.start for s in index)


@functools.lru_cache(maxsize=256)
def _block_offsets(
    shape: tuple[int, ...], extent: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Flat C-order offsets of a ``shape`` block's elements from its first
    element in an array of ``extent``, plus the array's element strides."""
    strides = [1] * len(extent)
    for k in range(len(extent) - 2, -1, -1):
        strides[k] = strides[k + 1] * extent[k + 1]
    offs = np.zeros(shape, dtype=np.int64)
    for k, (w, st) in enumerate(zip(shape, strides)):
        axis = [1] * len(shape)
        axis[k] = w
        offs += (np.arange(w, dtype=np.int64) * st).reshape(axis)
    offs.flags.writeable = False
    return offs, np.asarray(strides, dtype=np.int64)


def block_index(
    starts: np.ndarray, shape: tuple[int, ...], extent: tuple[int, ...]
) -> np.ndarray:
    """Flat element indices of N same-shape regions of a C-contiguous
    array of ``extent``: row ``i`` of ``starts`` (an ``(N, ndim)`` int
    array) is region ``i``'s first element.  The result has shape
    ``(N, *shape)``, so ``np.take(arr, block_index(...))`` gathers the
    regions into one stacked copy and ``np.put`` scatters a stack back.
    The caller guarantees every region lies inside ``extent``."""
    offs, strides = _block_offsets(tuple(shape), tuple(extent))
    base = starts @ strides
    return base.reshape((len(starts),) + (1,) * len(shape)) + offs


def block_regions(
    starts: np.ndarray, shape: tuple[int, ...]
) -> list[IndexExpr]:
    """The per-region index tuples of a block of same-shape regions."""
    cols = [
        [slice(a, a + w) for a in col]
        for col, w in zip(starts.T.tolist(), shape)
    ]
    return list(zip(*cols))


def lattice_disjoint(starts: np.ndarray, shape: tuple[int, ...]) -> bool:
    """Whether N same-shape regions are pairwise disjoint because they
    sit on distinct cells of the ``shape`` lattice: every start is a
    non-negative multiple of the block shape and no two starts are
    equal.  Regions of one shape aligned to its lattice either coincide
    or share no element, so distinct starts are disjoint by
    construction.  ``False`` is not a claim of overlap, only that the
    cheap rule does not apply."""
    n = len(starts)
    if n == 0 or any(w <= 0 for w in shape) or starts.min() < 0:
        return False
    if n == 1:
        return True
    if (starts % np.asarray(shape)).any():
        return False
    return len(set(map(tuple, starts.tolist()))) == n


@dataclass
class ResizeInfo:
    """Describes an implicit resize triggered by a store."""

    field: str
    old_extent: tuple[int, ...]
    new_extent: tuple[int, ...]


class _AgeSlot:
    """Backing storage for a single age of a field."""

    __slots__ = ("data", "written", "store_count", "collected")

    def __init__(self, extent: tuple[int, ...], dtype: np.dtype) -> None:
        self.data = np.zeros(extent, dtype=dtype)
        self.written = np.zeros(extent, dtype=bool)
        self.store_count = 0
        self.collected = False

    def grow(self, extent: tuple[int, ...]) -> None:
        """Reallocate to a larger extent, preserving data and masks."""
        if extent == self.data.shape:
            return
        data = np.zeros(extent, dtype=self.data.dtype)
        written = np.zeros(extent, dtype=bool)
        old = tuple(slice(0, n) for n in self.data.shape)
        data[old] = self.data
        written[old] = self.written
        self.data = data
        self.written = written

    def free(self) -> None:
        """Release the slot's storage (GC); arrays become empty."""
        self.data = np.zeros((0,) * self.data.ndim, dtype=self.data.dtype)
        self.written = np.zeros((0,) * self.written.ndim, dtype=bool)


def segment_name(run_id: str, field: str, age: int) -> str:
    """Deterministic shared-memory segment name for ``field`` at ``age``.

    Both sides of the process backend derive the same name independently:
    the parent when it creates the segment at dispatch time, the worker
    when it attaches for a fetch/store — no registry round-trip needed.
    """
    return f"p2g{run_id}_{field}_{age}"


class _SharedAgeSlot(_AgeSlot):
    """An age slot whose payload lives in a shared-memory segment.

    The ``written`` mask and counters stay process-private (only the
    owning runtime's analyzer consults them); only the payload bytes are
    shared with worker processes.
    """

    __slots__ = ("shm",)

    def __init__(
        self, name: str, extent: tuple[int, ...], dtype: np.dtype
    ) -> None:
        nbytes = max(1, int(np.prod(extent)) * dtype.itemsize)
        # POSIX shm is zero-filled on creation, matching np.zeros.
        self.shm = shared_memory.SharedMemory(
            name=name, create=True, size=nbytes
        )
        self.data = np.ndarray(extent, dtype=dtype, buffer=self.shm.buf)
        self.written = np.zeros(extent, dtype=bool)
        self.store_count = 0
        self.collected = False

    def grow(self, extent: tuple[int, ...]) -> None:
        if extent == self.data.shape:
            return
        raise ExtentError(
            "shared-memory fields cannot grow; declare the field shape"
        )

    def free(self) -> None:
        self.data = np.zeros((0,) * self.data.ndim, dtype=self.data.dtype)
        self.written = np.zeros((0,) * self.written.ndim, dtype=bool)
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def unlink(self) -> None:
        """Remove the segment name but keep the mapping readable (used at
        shutdown so ``RunResult.fields`` stays fetchable)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


class Field:
    """A live field instance: per-age NumPy storage plus write-once masks.

    Thread safety: metadata mutations (masks, counters, extent) take the
    field's lock; bulk payload copies happen *outside* the critical
    section wherever write-once semantics make that safe (a complete
    region is immutable, and stores to a fixed-shape field touch disjoint
    elements).  The lock is a plain ``Lock`` — no method re-enters.
    """

    def __init__(self, fdef: FieldDef) -> None:
        self.fdef = fdef
        self._lock = threading.Lock()
        self._extent: tuple[int, ...] = (
            fdef.shape if fdef.shape is not None else (0,) * fdef.ndim
        )
        self._ages: dict[int, _AgeSlot] = {}
        self._max_stored_age = -1
        #: total elements ever written (across ages); instrumentation.
        self.elements_written = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The field's global name."""
        return self.fdef.name

    @property
    def ndim(self) -> int:
        """Number of (non-age) dimensions."""
        return self.fdef.ndim

    @property
    def extent(self) -> tuple[int, ...]:
        """Current global extent (shared by all ages, grows monotonically)."""
        return self._extent

    @property
    def max_stored_age(self) -> int:
        """Highest age that has received at least one store (-1 if none)."""
        return self._max_stored_age

    def ages(self) -> list[int]:
        """Sorted list of ages holding (non-collected) data."""
        with self._lock:
            return sorted(a for a, s in self._ages.items() if not s.collected)

    def age_touched(self, age: int) -> bool:
        """Whether any store has hit this age."""
        with self._lock:
            slot = self._ages.get(age)
            return slot is not None and slot.store_count > 0

    def live_bytes(self) -> int:
        """Bytes held by non-collected ages (data + masks)."""
        with self._lock:
            return sum(
                s.data.nbytes + s.written.nbytes
                for s in self._ages.values()
                if not s.collected
            )

    # ------------------------------------------------------------------
    # Stores (write-once, implicit resize)
    # ------------------------------------------------------------------
    def _check_age(self, age: int) -> None:
        if age < 0:
            raise AgeError(f"field {self.name!r}: negative age {age}")
        if not self.fdef.aging and age != 0:
            raise AgeError(
                f"field {self.name!r} is not aging; only age 0 is valid "
                f"(got {age})"
            )

    def _new_slot(self, age: int) -> _AgeSlot:
        """Allocate backing storage for one age (hook for shared memory)."""
        return _AgeSlot(self._extent, self.fdef.np_dtype)

    def _slot(self, age: int, create: bool) -> _AgeSlot | None:
        slot = self._ages.get(age)
        if slot is None:
            if not create:
                return None
            slot = self._new_slot(age)
            self._ages[age] = slot
        elif slot.collected:
            raise CollectedAgeError(self.name, age)
        elif slot.data.shape != self._extent:
            slot.grow(self._extent)
        return slot

    def _raise_write_once(self, age: int, idx: IndexExpr, region) -> None:
        flat = np.argwhere(region)[0]
        offending = tuple(int(s.start + o) for s, o in zip(idx, flat))
        raise WriteOnceViolation(self.name, age, offending)

    def _commit_written(
        self, age: int, slot: _AgeSlot, idx: IndexExpr, count: int
    ) -> None:
        """Publish a completed write: mask + counters (lock held)."""
        if slot.collected:
            raise CollectedAgeError(self.name, age)
        region = slot.written[idx]
        if region.any():
            self._raise_write_once(age, idx, region)
        slot.written[idx] = True
        slot.store_count += count
        self.elements_written += count
        if age > self._max_stored_age:
            self._max_stored_age = age

    def store(self, age: int, index: Any, value: Any) -> ResizeInfo | None:
        """Store ``value`` into ``self[age][index]``.

        Enforces write-once semantics; grows the field (implicit resize)
        when the index reaches past the current extent.  Returns a
        :class:`ResizeInfo` when a resize occurred, else ``None``.  A
        one-region :meth:`store_many`.
        """
        return self.store_many(age, (index,), (value,))

    def _coerce(self, value: Any, shape: tuple[int, ...]) -> np.ndarray:
        """``value`` as this field's dtype, shaped to a store region.

        Allows scalar broadcast into a unit region; otherwise shapes
        must match exactly (trailing unit dims tolerated for 1-element
        stores).
        """
        arr = np.asarray(value, dtype=self.fdef.np_dtype)
        if arr.shape != shape:
            try:
                arr = np.broadcast_to(arr, shape)
            except ValueError:
                raise ExtentError(
                    f"field {self.name!r}: value shape {arr.shape} does not "
                    f"match store region {shape}"
                ) from None
        return arr

    def store_many(
        self,
        age: int,
        regions: Sequence[Any],
        values: Sequence[Any] | None = None,
    ) -> ResizeInfo | None:
        """Commit a batch of stores to one age: ``values[i]`` into
        ``self[age][regions[i]]``.

        One age check and two lock acquisitions per batch.  Write-once
        stays per region: every region is checked against earlier
        commits before any payload is copied, and re-checked as it
        commits, so two overlapping regions of one batch still raise
        :class:`WriteOnceViolation`.  A growable field grows once to
        cover every region; the :class:`ResizeInfo` is returned, else
        ``None``.

        For fixed-shape fields the payload copy happens outside the lock
        (legal stores touch disjoint elements); completeness only becomes
        visible once the mask commits, so a consumer can never observe a
        half-copied region.  Growable fields copy under the lock because
        a concurrent resize swaps the backing array.

        ``values=None`` is the metadata-only commit, the parent-process
        half of the ``processes`` backend's store protocol: the worker
        has already written the payload bytes into the shared-memory
        segment, so only write-once enforcement, the completeness mask
        and the counters are applied, and a region past the current
        extent raises instead of growing the field.
        """
        self._check_age(age)
        idxs = [normalize_index(r, self.ndim) for r in regions]
        shapes = [index_shape(idx) for idx in idxs]
        arrs = None
        if values is not None:
            if len(values) != len(idxs):
                raise ExtentError(
                    f"field {self.name!r}: {len(values)} values for "
                    f"{len(idxs)} store regions"
                )
            arrs = [self._coerce(v, sh) for v, sh in zip(values, shapes)]
        fixed = values is None or self.fdef.shape is not None
        with self._lock:
            old = self._extent
            needed = old
            for idx in idxs:
                needed = tuple(max(n, s.stop) for n, s in zip(needed, idx))
            resize = None
            if needed != old:
                if fixed:
                    bad = next(
                        idx for idx in idxs
                        if any(s.stop > n for s, n in zip(idx, old))
                    )
                    limit = (
                        f"extent {old}" if self.fdef.shape is None
                        else f"the declared shape {self.fdef.shape}"
                    )
                    raise ExtentError(
                        f"field {self.name!r}: store region {bad} "
                        f"exceeds {limit}"
                    )
                self._extent = needed
                resize = ResizeInfo(self.name, old, needed)
            slot = self._slot(age, create=True)
            assert slot is not None
            if arrs is not None:
                for idx in idxs:
                    region = slot.written[idx]
                    if region.any():
                        self._raise_write_once(age, idx, region)
                if not fixed:
                    # Growable: a concurrent resize may swap slot.data, so
                    # the copy must stay inside the critical section.
                    for idx, arr in zip(idxs, arrs):
                        slot.data[idx] = arr
        if arrs is not None and fixed:
            data = slot.data
            for idx, arr in zip(idxs, arrs):
                data[idx] = arr
        with self._lock:
            for idx, shape in zip(idxs, shapes):
                self._commit_written(age, slot, idx, math.prod(shape))
        return resize

    def _raise_block_write_once(
        self, age: int, starts: np.ndarray, shape: tuple[int, ...],
        hit: np.ndarray,
    ) -> None:
        i = int(np.flatnonzero(hit.reshape(len(hit), -1).any(axis=1))[0])
        idx = block_regions(starts[i:i + 1], shape)[0]
        self._raise_write_once(age, idx, hit[i])

    def store_block(
        self,
        age: int,
        starts: np.ndarray,
        shape: tuple[int, ...],
        values: Any | None = None,
    ) -> ResizeInfo | None:
        """Commit N same-shape regions to one age: region ``i`` starts at
        ``starts[i]`` (an ``(N, ndim)`` int array) and receives
        ``values[i]`` (``values`` is an ``(N, *shape)`` stack, or
        ``None`` for the metadata-only commit of :meth:`store_many`).

        The block form of :meth:`store_many`, with the same semantics
        and errors.  When the regions sit on distinct cells of the
        ``shape`` lattice (:func:`lattice_disjoint`) they cannot overlap
        each other, so write-once needs only one pre-check of the
        gathered mask against earlier commits (before any payload is
        written) and one re-check at commit; the payload lands in one
        NumPy scatter (outside the lock for fixed-shape fields, inside
        it for growable ones) and the counters move once.  Any other
        batch goes through :meth:`store_many`'s per-region loop, so
        in-batch overlaps still raise :class:`WriteOnceViolation`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        shape = tuple(int(w) for w in shape)
        if (
            starts.ndim != 2
            or starts.shape[1] != self.ndim
            or len(shape) != self.ndim
        ):
            raise ExtentError(
                f"field {self.name!r}: block of starts {starts.shape} and "
                f"shape {shape} does not match {self.ndim} dimension(s)"
            )
        if not lattice_disjoint(starts, shape):
            return self.store_many(age, block_regions(starts, shape), values)
        self._check_age(age)
        n = len(starts)
        arr = None
        if values is not None:
            arr = np.asarray(values, dtype=self.fdef.np_dtype)
            if arr.shape != (n,) + shape:
                try:
                    arr = np.broadcast_to(arr, (n,) + shape)
                except ValueError:
                    raise ExtentError(
                        f"field {self.name!r}: value shape {arr.shape} "
                        f"does not match a block of {n} regions {shape}"
                    ) from None
        fixed = values is None or self.fdef.shape is not None
        stops = starts.max(axis=0) + shape
        with self._lock:
            old = self._extent
            needed = tuple(max(m, int(s)) for m, s in zip(old, stops))
            resize = None
            if needed != old:
                if fixed:
                    bad = int(np.flatnonzero(
                        (starts + shape > np.asarray(old)).any(axis=1)
                    )[0])
                    limit = (
                        f"extent {old}" if self.fdef.shape is None
                        else f"the declared shape {self.fdef.shape}"
                    )
                    raise ExtentError(
                        f"field {self.name!r}: store region "
                        f"{block_regions(starts[bad:bad + 1], shape)[0]} "
                        f"exceeds {limit}"
                    )
                self._extent = needed
                resize = ResizeInfo(self.name, old, needed)
            slot = self._slot(age, create=True)
            assert slot is not None
            grid = slot.written.shape
            flat = block_index(starts, shape, grid)
            if arr is not None:
                hit = np.take(slot.written, flat)
                if hit.any():
                    self._raise_block_write_once(age, starts, shape, hit)
                if not fixed:
                    # Growable: a concurrent resize may swap slot.data, so
                    # the scatter must stay inside the critical section.
                    np.put(slot.data, flat, arr)
        if arr is not None and fixed:
            np.put(slot.data, flat, arr)
        with self._lock:
            if slot.collected:
                raise CollectedAgeError(self.name, age)
            if slot.written.shape != grid:  # grown since the pre-check
                flat = block_index(starts, shape, slot.written.shape)
            hit = np.take(slot.written, flat)
            if hit.any():
                self._raise_block_write_once(age, starts, shape, hit)
            np.put(slot.written, flat, True)
            count = n * math.prod(shape)
            slot.store_count += count
            self.elements_written += count
            if age > self._max_stored_age:
                self._max_stored_age = age
        return resize

    # ------------------------------------------------------------------
    # Fetches and completeness
    # ------------------------------------------------------------------
    def fetch(self, age: int, index: Any | None = None) -> np.ndarray:
        """Fetch a copy of ``self[age][index]`` (whole field if ``index``
        is ``None``).

        The caller is responsible for only fetching complete regions (the
        dependency analyzer guarantees this for dispatched instances); an
        incomplete fetch raises :class:`ExtentError` to surface scheduler
        bugs rather than silently returning zeros.
        """
        self._check_age(age)
        with self._lock:
            slot = self._ages.get(age)
            if slot is not None and slot.collected:
                raise CollectedAgeError(self.name, age)
            if index is None:
                idx = tuple(slice(0, n) for n in self._extent)
            else:
                idx = normalize_index(index, self.ndim)
                if any(s.stop > n for s, n in zip(idx, self._extent)):
                    raise ExtentError(
                        f"field {self.name!r}: fetch region {idx} exceeds "
                        f"extent {self._extent}"
                    )
            if slot is not None and slot.data.shape != self._extent:
                slot.grow(self._extent)
            if slot is None or not slot.written[idx].all():
                raise ExtentError(
                    f"field {self.name!r}: fetch of incomplete region "
                    f"age={age} index={idx}"
                )
            data = slot.data
        # The copy happens outside the lock: the region is complete, and
        # write-once semantics make complete regions immutable (concurrent
        # stores touch other elements; grow() swaps in a new array without
        # mutating the one referenced here).
        return data[idx].copy()

    def fetch_block(
        self, age: int, starts: np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Fetch N same-shape regions of ``self[age]`` as one stacked
        ``(N, *shape)`` copy; region ``i`` starts at ``starts[i]``.

        The block form of :meth:`fetch`, with its errors: one age check,
        one lock, one extent check and one completeness check of the
        gathered mask, then one NumPy gather outside the lock (complete
        regions are immutable under write-once).
        """
        self._check_age(age)
        starts = np.asarray(starts, dtype=np.int64)
        shape = tuple(int(w) for w in shape)
        with self._lock:
            slot = self._ages.get(age)
            if slot is not None and slot.collected:
                raise CollectedAgeError(self.name, age)
            extent = self._extent
            bad = (starts < 0).any(axis=1) | (
                starts + shape > np.asarray(extent)
            ).any(axis=1)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ExtentError(
                    f"field {self.name!r}: fetch region "
                    f"{block_regions(starts[i:i + 1], shape)[0]} exceeds "
                    f"extent {extent}"
                )
            flat = done = None
            if slot is not None:
                flat, done = self._gather_written(slot, starts, shape)
            if done is None or not done.all():
                i = 0 if done is None else int(np.flatnonzero(
                    ~done.reshape(len(done), -1).all(axis=1)
                )[0])
                raise ExtentError(
                    f"field {self.name!r}: fetch of incomplete region "
                    f"age={age} index="
                    f"{block_regions(starts[i:i + 1], shape)[0]}"
                )
            data = slot.data
        return np.take(data, flat)

    def _gather_written(
        self, slot: _AgeSlot, starts: np.ndarray, shape: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The flat element indices of N same-shape regions inside the
        current extent and their gathered ``(N, *shape)`` written mask
        (lock held)."""
        if slot.data.shape != self._extent:
            slot.grow(self._extent)
        flat = block_index(starts, shape, self._extent)
        return flat, np.take(slot.written, flat)

    def is_complete_block(
        self, age: int, starts: np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        """:meth:`is_complete` for N same-shape regions of ``self[age]``
        at once: element ``i`` of the returned boolean array says whether
        the region starting at ``starts[i]`` is completely written.

        Shares :meth:`fetch_block`'s gathered-mask check (one lock, one
        gather).  A region that is empty, starts below 0 or reaches past
        the extent is never complete, nor is any region of a collected
        or untouched age, a negative age, or a non-zero age of a
        non-aging field.
        """
        starts = np.asarray(starts, dtype=np.int64)
        shape = tuple(int(w) for w in shape)
        out = np.zeros(len(starts), dtype=bool)
        if (
            not len(starts)
            or age < 0
            or (not self.fdef.aging and age != 0)
            or any(w <= 0 for w in shape)
        ):
            return out
        with self._lock:
            slot = self._ages.get(age)
            if slot is None or slot.collected:
                return out
            inside = (starts >= 0).all(axis=1) & (
                starts + shape <= np.asarray(self._extent)
            ).all(axis=1)
            if not inside.all():
                starts = starts[inside]
                if not len(starts):
                    return out
            _flat, done = self._gather_written(slot, starts, shape)
        out[inside] = done.reshape(len(starts), -1).all(axis=1)
        return out

    def peek(self, age: int, index: Any | None = None) -> np.ndarray | None:
        """Like :meth:`fetch` but returns ``None`` for incomplete regions."""
        try:
            return self.fetch(age, index)
        except (ExtentError, CollectedAgeError):
            return None

    def is_complete(self, age: int, index: Any | None = None) -> bool:
        """Whether every element of the region is written at ``age``.

        ``index=None`` means the whole field at its *current* extent; the
        region must be non-empty (an untouched field is never complete).
        """
        if age < 0 or (not self.fdef.aging and age != 0):
            return False
        with self._lock:
            slot = self._ages.get(age)
            if slot is None or slot.collected:
                return False
            if index is None:
                if any(n == 0 for n in self._extent):
                    return False
                # Write-once makes store_count an exact element count, so
                # whole-field completeness is an O(1) comparison — vital
                # when millions of store events each probe a whole-field
                # fetch (K-means' refine).
                total = 1
                for n in self._extent:
                    total *= n
                return slot.store_count == total
            else:
                try:
                    idx = normalize_index(index, self.ndim)
                except ExtentError:
                    return False
                if any(s.stop > n for s, n in zip(idx, self._extent)):
                    return False
                if any(s.stop == s.start for s in idx):
                    return False
            if slot.data.shape != self._extent:
                slot.grow(self._extent)
            return bool(slot.written[idx].all())

    def written_count(self, age: int) -> int:
        """Number of elements written at ``age``."""
        with self._lock:
            slot = self._ages.get(age)
            return 0 if slot is None else slot.store_count

    # ------------------------------------------------------------------
    # Garbage collection (section IX: reuse buffers / collect old ages)
    # ------------------------------------------------------------------
    def _collect_age_locked(self, age: int) -> int:
        slot = self._ages.get(age)
        if slot is None or slot.collected:
            return 0
        freed = slot.data.nbytes + slot.written.nbytes
        slot.free()
        slot.collected = True
        return freed

    def collect_age(self, age: int) -> int:
        """Free the storage of ``age``; returns bytes reclaimed.

        Subsequent fetches of the age raise :class:`CollectedAgeError`.
        Idempotent; collecting an age with no storage is a no-op.
        """
        with self._lock:
            return self._collect_age_locked(age)

    def collect_below(self, min_live_age: int) -> int:
        """Collect every age strictly below ``min_live_age``."""
        with self._lock:
            return sum(
                self._collect_age_locked(a)
                for a in list(self._ages)
                if a < min_live_age
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Field({self.name!r}, dtype={self.fdef.dtype}, "
            f"extent={self._extent}, ages={self.ages()})"
        )


class LocalField:
    """A kernel-local growable array (``local int32[] values;``).

    Local fields live only for the duration of a kernel instance and have
    ordinary (not write-once) semantics; they exist so kernel bodies can
    build up a value of initially unknown extent before storing it to a
    global field, which is how implicit resizing enters the program
    (figure 5's ``init`` kernel).
    """

    def __init__(self, dtype: str = "int32", ndim: int = 1) -> None:
        if dtype not in DTYPES:
            raise DefinitionError(f"unknown dtype {dtype!r}")
        self._dtype = DTYPES[dtype]
        self._ndim = ndim
        self._data = np.zeros((0,) * ndim, dtype=self._dtype)

    @property
    def data(self) -> np.ndarray:
        """The local field's backing array (what a store of it writes)."""
        return self._data

    def put(self, value: Any, *index: int) -> None:
        """``put(values, v, i, ...)`` — store value at index, growing."""
        if len(index) != self._ndim:
            raise ExtentError(
                f"local field put: got {len(index)} indices, need {self._ndim}"
            )
        if any(i < 0 for i in index):
            raise ExtentError(f"negative index {index}")
        needed = tuple(
            max(cur, i + 1) for cur, i in zip(self._data.shape, index)
        )
        if needed != self._data.shape:
            data = np.zeros(needed, dtype=self._dtype)
            old = tuple(slice(0, n) for n in self._data.shape)
            data[old] = self._data
            self._data = data
        self._data[index] = value

    def get(self, *index: int) -> Any:
        """``get(values, i, ...)`` — read one element."""
        return self._data[tuple(index)]

    def extent(self, dim: int = 0) -> int:
        """``extent(values, dim)`` — size along a dimension."""
        return self._data.shape[dim]

    def from_array(self, arr: Any) -> "LocalField":
        """Replace contents wholesale (used when a fetch targets a local)."""
        self._data = np.asarray(arr, dtype=self._dtype)
        return self


class FieldStore:
    """All live fields of a running program, by name."""

    def __init__(self, defs: Iterable[FieldDef] = ()) -> None:
        self._fields: dict[str, Field] = {}
        for fdef in defs:
            self.add(fdef)

    def _make_field(self, fdef: FieldDef) -> Field:
        """Field construction hook (overridden by the shared-memory store)."""
        return Field(fdef)

    def add(self, fdef: FieldDef) -> Field:
        """Create and register a new field; rejects duplicates."""
        if fdef.name in self._fields:
            raise DefinitionError(f"duplicate field {fdef.name!r}")
        f = self._make_field(fdef)
        self._fields[fdef.name] = f
        return f

    def __getitem__(self, name: str) -> Field:
        try:
            return self._fields[name]
        except KeyError:
            raise DefinitionError(f"unknown field {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self):
        return iter(self._fields.values())

    def names(self) -> list[str]:
        """Sorted field names."""
        return sorted(self._fields)

    def live_bytes(self) -> int:
        """Bytes held by all fields' non-collected ages."""
        return sum(f.live_bytes() for f in self._fields.values())

    def collect_below(self, min_live_age: int, fields=None) -> int:
        """GC every aging field below the given age; returns bytes freed.

        ``fields`` (an iterable of field names) scopes the collection —
        the per-session retirement path frees only one tenant's fields,
        never a co-resident session's live ages.
        """
        names = None if fields is None else set(fields)
        return sum(
            f.collect_below(min_live_age)
            for f in self._fields.values()
            if f.fdef.aging and (names is None or f.name in names)
        )


class SharedField(Field):
    """A field whose per-age payload lives in shared-memory segments.

    Used by the ``processes`` execution backend.  The parent runtime
    creates every segment (at dispatch time, before a worker could touch
    it) and owns unlink; workers attach by the deterministic
    :func:`segment_name` and read/write zero-copy views.  Requires a
    declared shape — shared payloads cannot grow.
    """

    def __init__(self, fdef: FieldDef, run_id: str) -> None:
        if fdef.shape is None:
            raise DefinitionError(
                f"field {fdef.name!r}: shared-memory fields require a "
                f"declared shape (implicit resizing cannot cross process "
                f"boundaries); declare the extent or use the threads "
                f"backend"
            )
        super().__init__(fdef)
        self.run_id = run_id

    def _new_slot(self, age: int) -> _AgeSlot:
        return _SharedAgeSlot(
            segment_name(self.run_id, self.name, age),
            self._extent,
            self.fdef.np_dtype,
        )

    def ensure_age(self, age: int) -> None:
        """Create the segment for ``age`` if it does not exist yet (the
        parent calls this before dispatching a storing instance, so the
        worker's attach can never race segment creation)."""
        self._check_age(age)
        with self._lock:
            self._slot(age, create=True)

    def release_segments(self) -> None:
        """Unlink every live segment (names freed, mappings kept so the
        parent can still fetch results).  Idempotent; called at run
        teardown."""
        with self._lock:
            for slot in self._ages.values():
                if isinstance(slot, _SharedAgeSlot) and not slot.collected:
                    slot.unlink()


class SharedFieldStore(FieldStore):
    """A :class:`FieldStore` backed by shared memory (process backend).

    ``run_id`` namespaces the segment names so concurrent runs (or a
    crashed predecessor's leftovers) can never collide.
    """

    def __init__(
        self, defs: Iterable[FieldDef] = (), run_id: str | None = None
    ) -> None:
        self.run_id = run_id if run_id is not None else secrets.token_hex(4)
        super().__init__(defs)

    def _make_field(self, fdef: FieldDef) -> Field:
        return SharedField(fdef, self.run_id)

    def release(self) -> None:
        """Unlink all segments (teardown; mappings stay readable)."""
        for f in self:
            if isinstance(f, SharedField):
                f.release_segments()
