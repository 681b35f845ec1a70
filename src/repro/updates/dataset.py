"""A mutable dataset: appends, tombstoned deletes, periodic compaction.

:class:`~repro.core.dataset.Dataset` is deliberately immutable - every
index in this library assumes stable point ids.  Real tables churn, so
:class:`DynamicDataset` wraps the same canonical encoding in a mutable
shell built for *id stability under churn*:

* **append** validates and encodes only the new rows (the existing
  prefix is never re-walked) and hands out fresh, monotonically
  increasing ids;
* **delete** tombstones a row in place - the id keeps indexing the same
  (dead) slot, so every structure holding ids (skyline maintainers, the
  semantic cache, the IPO-tree) stays valid without translation;
* **compact** is the periodic cost that keeps tombstones from
  accumulating: it drops dead slots, reassigns ids ``0..live-1`` and
  returns the old-to-new remap so callers can translate or rebuild
  their id-bearing state.

Like :class:`~repro.core.dataset.Dataset`, the canonical row encoding
is the operational representation (nominal values as ids, universal
dimensions as smaller-is-better floats); the class also duck-types the
``schema`` / ``canonical_rows`` / ``ids`` / ``columns`` surface the
engine-facing helpers consume, with ``ids`` yielding *live* ids only.
Every mutation bumps :attr:`version`, which the serving layer uses to
stamp answers and fence stale cache stores.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.attributes import Schema
from repro.core.colstore import ColumnStore, growable_rows
from repro.core.dataset import (
    CanonicalRow,
    Dataset,
    Row,
    _build_encoders,
    _encode_rows,
)
from repro.exceptions import DatasetError


class DynamicDataset:
    """A growable, deletable collection of rows under a fixed schema.

    Examples
    --------
    >>> from repro.core.attributes import Schema, nominal, numeric_min
    >>> schema = Schema([numeric_min("Price"), nominal("G", ["T", "H"])])
    >>> data = DynamicDataset.from_dataset(
    ...     Dataset(schema, [(10, "T"), (8, "H")]))
    >>> data.append([(12, "T")])
    [2]
    >>> data.delete([0])
    >>> list(data.ids)
    [1, 2]
    >>> data.version
    2
    """

    def __init__(self, schema: Schema, rows: Iterable[Sequence[object]] = ()) -> None:
        self._schema = schema
        self._encoders = _build_encoders(schema)
        self._raw: Sequence[Row] = []
        self._canon: Sequence[CanonicalRow] = []
        self._alive: List[bool] = []
        self._dead = 0
        self._version = 0
        self._snapshot_cache: Optional[Tuple[int, Dataset, Tuple[int, ...]]] = None
        self._ids_cache: Optional[List[int]] = None
        self._columns_cache = None
        self._column_builder: Optional[_GrowableColumns] = None
        self._columns_lock = threading.Lock()
        self._compactions = 0
        #: The borrowed read-only store backing the immutable base of
        #: ``_raw``/``_canon`` (None when storage is owned).  Appends
        #: and tombstones never touch it; :meth:`compact` is the one
        #: operation that materializes and drops the reference (the
        #: file handle stays with whoever opened the store).
        self._base_store: Optional[ColumnStore] = None
        #: The dataset :meth:`from_dataset` wrapped: its columnar store
        #: serves every version until the first append (tombstones do
        #: not change the slot matrix); :meth:`compact` drops it.
        self._origin: Optional[Dataset] = None
        if rows:
            self.append(rows)
            self._version = 0  # seeding is not a mutation

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "DynamicDataset":
        """Wrap an immutable dataset; its encodings are reused, not redone.

        A store-backed dataset stays borrowed: this wrapper chains a
        private overlay tail over the same immutable base instead of
        materializing n rows (appends/deletes only ever touch the
        overlay and the liveness flags), and until the first append the
        columnar view is the dataset's own.
        """
        out = cls(dataset.schema)
        out._raw = growable_rows(dataset.raw_rows)
        out._canon = growable_rows(dataset.canonical_rows)
        out._alive = [True] * len(out._raw)
        out._base_store = dataset.store
        out._origin = dataset
        return out

    @classmethod
    def restore(
        cls,
        schema: Schema,
        raw: Sequence[Row],
        canon: Sequence[CanonicalRow],
        alive: Sequence[bool],
        *,
        version: int,
        compactions: int = 0,
        store: Optional[ColumnStore] = None,
    ) -> "DynamicDataset":
        """Reassemble a dataset from previously exported state.

        The inverse of the :attr:`raw_rows` / :attr:`canonical_rows` /
        :attr:`alive_flags` / :attr:`version` / :attr:`compactions`
        surface, used by the durability layer
        (:mod:`repro.storage.snapshot`) to rebuild the exact slot space
        of a snapshotted dataset - including tombstones, the mutation
        counter and the compaction epoch - **without re-validating or
        re-encoding any row**.  ``raw``, ``canon`` and ``alive`` must be
        position-aligned and previously produced by a dataset over an
        equal ``schema``; nothing is checked here.

        Lazy store-backed sequences (:mod:`repro.core.colstore`) are
        *borrowed*, not copied: they become the immutable base of a
        base-plus-overlay chain, and later mutations touch only the
        overlay.  Pass the backing ``store`` so the columnar view can
        be served zero-copy; the dataset never closes it.
        """
        if not (len(raw) == len(canon) == len(alive)):
            raise DatasetError(
                f"restore state is misaligned: {len(raw)} raw rows, "
                f"{len(canon)} canonical rows, {len(alive)} liveness flags"
            )
        out = cls(schema)
        if isinstance(raw, (list, tuple)):
            out._raw = [tuple(row) for row in raw]
        else:
            out._raw = growable_rows(raw)
        if isinstance(canon, (list, tuple)):
            out._canon = [tuple(row) for row in canon]
        else:
            out._canon = growable_rows(canon)
        out._alive = [bool(flag) for flag in alive]
        out._dead = sum(1 for flag in out._alive if not flag)
        out._version = int(version)
        out._compactions = int(compactions)
        out._base_store = store
        return out

    # -- protocol ----------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The schema shared by all rows."""
        return self._schema

    @property
    def version(self) -> int:
        """Monotone mutation counter (one bump per append/delete/compact)."""
        return self._version

    def __len__(self) -> int:
        return len(self._raw) - self._dead

    def __repr__(self) -> str:
        return (
            f"DynamicDataset({len(self)} live / {len(self._raw)} slots, "
            f"v{self._version}, {self._schema!r})"
        )

    @property
    def ids(self) -> List[int]:
        """Ids of the *live* points, ascending.

        Cached per version and shared between callers: read it, never
        mutate it (copy with ``list(...)`` to edit).
        """
        if self._ids_cache is None:
            self._ids_cache = (
                [i for i, alive in enumerate(self._alive) if alive]
                if self._dead
                else list(range(len(self._raw)))
            )
        return self._ids_cache

    @property
    def num_slots(self) -> int:
        """Total slots including tombstones (the id space's upper bound)."""
        return len(self._raw)

    @property
    def compactions(self) -> int:
        """How many times the id space was reassigned (see :meth:`compact`).

        Structures holding ids snapshot this to fail fast when they are
        used across a compaction they did not absorb.
        """
        return self._compactions

    @property
    def deleted_fraction(self) -> float:
        """Tombstoned slots over total slots (compaction trigger signal)."""
        return self._dead / len(self._raw) if self._raw else 0.0

    def is_live(self, point_id: int) -> bool:
        """True iff ``point_id`` names a non-deleted row."""
        return 0 <= point_id < len(self._alive) and self._alive[point_id]

    @property
    def raw_rows(self) -> List[Row]:
        """All raw rows indexed by id - **including dead slots**.

        Together with :attr:`canonical_rows` and :attr:`alive_flags`
        this is the full exportable slot state consumed by
        :meth:`restore`; dead slots keep their last value so ids stay
        stable.
        """
        return self._raw

    @property
    def alive_flags(self) -> List[bool]:
        """Per-slot liveness, indexed by id (False = tombstoned)."""
        return self._alive

    @property
    def canonical_rows(self) -> List[CanonicalRow]:
        """All canonical rows indexed by id - **including dead slots**.

        Kernels index this list by live ids only; a dead slot's row is
        kept so that ids stay stable until :meth:`compact`.
        """
        return self._canon

    def canonical(self, point_id: int) -> CanonicalRow:
        """Canonical encoding of one live point."""
        self._check_live(point_id)
        return self._canon[point_id]

    def row(self, point_id: int) -> Row:
        """Raw values of one live point."""
        self._check_live(point_id)
        return self._raw[point_id]

    @property
    def columns(self):
        """Columnar store over **all slots** (dead included), version-cached.

        Mirrors :attr:`repro.core.dataset.Dataset.columns` for the
        vectorized helpers; requires NumPy.  Dead slots carry their last
        value - callers select live ids, so the padding is never read.
        Built *incrementally*: appends write their rows into an amortised-
        doubling matrix (existing slots are immutable, so nothing is
        ever re-encoded; only compaction forces a rebuild), and each
        version's store is a cheap read-only view - O(appended), not
        O(n), per mutation batch.  Safe under concurrent readers: the
        lazy (re)build mutates the shared builder, so it is serialised
        by its own lock (the fast path - an already-cached version -
        stays lock-free).
        """
        key = (self._version, len(self._canon))
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        with self._columns_lock:
            cached = self._columns_cache
            if cached is not None and cached[0] == key:
                return cached[1]
            base = self._base_store
            origin = self._origin
            if origin is not None and len(self._canon) == len(origin):
                store = origin.columns
            elif (
                base is not None
                and base.matrix is not None
                and len(self._canon) == len(base)
            ):
                # No appends beyond the borrowed base yet (tombstones
                # don't change the slot matrix): serve the store's own
                # columnar view - zero copies, the mmap is the matrix.
                store = base.columnar()
            else:
                if self._column_builder is None:
                    self._column_builder = _GrowableColumns(self._schema)
                store = self._column_builder.store_for(self._canon)
            self._columns_cache = (key, store)
            return store

    # -- mutation ----------------------------------------------------------
    def encode_rows(
        self, rows: Iterable[Sequence[object]]
    ) -> Tuple[List[Row], List[CanonicalRow]]:
        """Validate and encode ``rows`` *without mutating anything*.

        The validation half of :meth:`append`, split out so callers
        that must order side effects around the mutation (the serving
        layer write-ahead-logs a batch *before* applying it) can fail
        on a bad row while the dataset - and their log - is still
        untouched.  The returned pair feeds :meth:`append_encoded`.
        """
        new_raw, new_canon = _encode_rows(
            self._schema, self._encoders, rows, offset=len(self._raw)
        )
        return new_raw, new_canon

    def append_encoded(
        self, new_raw: List[Row], new_canon: List[CanonicalRow]
    ) -> List[int]:
        """Append rows already validated by :meth:`encode_rows`; new ids.

        Cannot fail for input produced by :meth:`encode_rows` on this
        dataset - the invariant the log-before-apply ordering in
        :meth:`repro.serve.service.SkylineService.insert_rows` relies
        on.  An empty batch is a no-op (no version bump).
        """
        if not new_raw:
            return []
        offset = len(self._raw)
        self._raw.extend(new_raw)
        self._canon.extend(new_canon)
        self._alive.extend([True] * len(new_raw))
        self._bump()
        return list(range(offset, offset + len(new_raw)))

    def append(self, rows: Iterable[Sequence[object]]) -> List[int]:
        """Validate, encode and append ``rows``; returns their new ids.

        Validation is all-or-nothing: a bad row leaves the dataset
        untouched.  Only the new rows are encoded (O(appended)).
        """
        return self.append_encoded(*self.encode_rows(rows))

    def ensure_deletable(self, point_ids: Sequence[int]) -> None:
        """Raise unless ``point_ids`` form a valid delete batch; no mutation.

        The validation half of :meth:`delete` (live, int, duplicate-free
        ids), split out for the same log-before-apply ordering
        :meth:`encode_rows` serves.
        """
        for point_id in point_ids:
            self._check_live(point_id)
        if len(set(point_ids)) != len(point_ids):
            raise DatasetError(
                f"duplicate ids in delete batch: {list(point_ids)!r}"
            )

    def delete(self, point_ids: Iterable[int]) -> None:
        """Tombstone the given live points (ids stay allocated).

        All-or-nothing: an unknown or already-dead id raises before any
        tombstone is written.
        """
        ids = list(point_ids)
        self.ensure_deletable(ids)
        if not ids:
            return
        for point_id in ids:
            self._alive[point_id] = False
        self._dead += len(ids)
        self._bump()

    def compact(self) -> Dict[int, int]:
        """Drop tombstoned slots; returns the ``{old id: new id}`` remap.

        Ids are reassigned to ``0..live-1`` preserving order.  Callers
        holding ids (maintainers, caches, trees) must translate through
        the remap or rebuild - the serving layer rebuilds, which is why
        compaction is *periodic*, not per-delete.  When nothing is dead
        this is a no-op returning the identity remap.

        For a store-backed dataset this is the **one materialization
        point**: live rows are rewritten into owned lists and the
        borrowed base reference is dropped (the next checkpoint emits a
        fresh base; the old store's file handle still belongs to
        whoever opened it).
        """
        if not self._dead:
            return {i: i for i in range(len(self._raw))}
        remap: Dict[int, int] = {}
        raw: List[Row] = []
        canon: List[CanonicalRow] = []
        for old_id, alive in enumerate(self._alive):
            if not alive:
                continue
            remap[old_id] = len(raw)
            raw.append(self._raw[old_id])
            canon.append(self._canon[old_id])
        self._raw = raw
        self._canon = canon
        self._alive = [True] * len(raw)
        self._dead = 0
        self._compactions += 1
        self._base_store = None
        self._origin = None
        self._column_builder = None
        self._bump()
        return remap

    # -- derivation --------------------------------------------------------
    def snapshot(self) -> Dataset:
        """An immutable :class:`Dataset` of the live rows, version-cached.

        Row *positions* in the snapshot follow live-id order; use
        :meth:`snapshot_ids` to translate snapshot positions back to
        dynamic ids.  Existing encodings are reused (no re-validation).
        """
        cached = self._snapshot_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        live = self.ids
        dataset = Dataset.from_encoded(
            self._schema,
            [self._raw[i] for i in live],
            [self._canon[i] for i in live],
        )
        self._snapshot_cache = (self._version, dataset, tuple(live))
        return dataset

    def snapshot_ids(self) -> Tuple[int, ...]:
        """Dynamic ids position-aligned with :meth:`snapshot`'s rows."""
        self.snapshot()
        assert self._snapshot_cache is not None
        return self._snapshot_cache[2]

    @property
    def base_store(self) -> Optional[ColumnStore]:
        """The borrowed store backing the immutable base, if any."""
        return self._base_store

    def base_dataset(self) -> Dataset:
        """An immutable :class:`Dataset` over **all current slots**.

        Unlike :meth:`snapshot` (live rows only, materialized), this
        keeps the id space intact and *shares* the row storage: a
        store-backed base stays borrowed (zero copies - the serving
        layer builds its post-recovery dataset this way), owned lists
        are snapshotted into tuples.  Later mutations of this dynamic
        dataset do not leak into the returned dataset.
        """
        store = self._base_store
        if store is not None and len(self._canon) == len(store):
            return Dataset.from_store(self._schema, store)
        return Dataset.from_encoded(self._schema, self._raw, self._canon)

    # -- internals ---------------------------------------------------------
    def _bump(self) -> None:
        self._version += 1
        self._snapshot_cache = None
        self._ids_cache = None
        self._columns_cache = None

    def _check_live(self, point_id: int) -> None:
        if not isinstance(point_id, int):
            raise DatasetError(f"point id must be an int, got {point_id!r}")
        if not (0 <= point_id < len(self._raw)):
            raise DatasetError(f"no point with id {point_id}")
        if not self._alive[point_id]:
            raise DatasetError(f"point {point_id} was deleted")


class _GrowableColumns:
    """Amortised-doubling backing matrix for :attr:`DynamicDataset.columns`.

    Canonical rows are append-only (deletes tombstone, they never edit a
    slot), so each new version's columnar store differs from the last
    only by a suffix of fresh rows.  The builder keeps one growing
    ``(capacity, m)`` float64 matrix, writes only the new suffix per
    sync, and hands out read-only *views* - existing views stay valid
    because committed slots are never written again.  Compaction
    reassigns the id space, so :meth:`DynamicDataset.compact` drops the
    builder: the next one allocates fresh arrays instead of rewriting
    slots that earlier views still show.
    """

    def __init__(self, schema: Schema) -> None:
        from repro.engine.columnar import require_numpy

        self._np = require_numpy()
        self._nominal = tuple(schema.nominal_indices)
        self._size = 0
        self._matrix = self._np.empty((0, len(schema)), dtype=self._np.float64)

    def store_for(self, rows: Sequence[CanonicalRow]):
        """A ColumnarStore covering ``rows``, appending only the suffix."""
        from repro.engine.columnar import ColumnarStore

        np = self._np
        total = len(rows)
        capacity, width = self._matrix.shape
        if total > capacity:
            # Amortised doubling: reallocate, keep the committed prefix.
            grown = np.empty((max(total, 2 * capacity, 64), width))
            grown[: self._size] = self._matrix[: self._size]
            self._matrix = grown
        if total > self._size:
            block_of = getattr(rows, "matrix_block", None)
            block = (
                block_of(self._size, total) if block_of is not None else None
            )
            if block is None:
                block = np.asarray(rows[self._size:total], dtype=np.float64)
            if block.ndim != 2:  # pragma: no cover - canonical rows are flat
                raise DatasetError(
                    "canonical rows do not form a rectangular matrix"
                )
            self._matrix[self._size:total] = block
            self._size = total
        matrix = self._matrix[:total]
        matrix.setflags(write=False)
        return ColumnarStore(matrix, self._nominal)
