"""Dataset container with canonical encoding for fast dominance tests.

A :class:`Dataset` couples a :class:`~repro.core.attributes.Schema` with
a list of rows and maintains, besides the raw values, a *canonical*
encoding per row:

* universally ordered dimensions (numeric / ordinal) become floats where
  **smaller is better** (max-dimensions are negated, ordinal dimensions
  use their position in the declared order),
* nominal dimensions become small integer *value ids* - the position of
  the value inside the attribute's declared domain.

The canonical encoding is what every algorithm in this library operates
on; raw values are kept for presentation.  Value ids are stable across
datasets sharing a schema (they depend only on the domain declaration),
which lets rank tables be compiled from the schema alone.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import AttributeKind, Schema
from repro.core.colstore import ChainRows, ColumnStore
from repro.exceptions import DatasetError, SchemaError

Row = Tuple[object, ...]
CanonicalRow = Tuple[object, ...]


def _freeze_rows(rows: Sequence) -> Sequence:
    """Row storage for an immutable dataset, copying only what's owned.

    Plain iterables snapshot into tuples as always; a lazy store-backed
    sequence (:mod:`repro.core.colstore`) is kept as-is - it is
    immutable by contract, so the dataset borrows it instead of
    materializing n tuples.
    """
    if isinstance(rows, (tuple, list)):
        return tuple(rows)
    if isinstance(rows, ChainRows):
        # Freeze the mutable tail so later appends to the donor chain
        # cannot grow under this dataset; the base stays shared.
        return ChainRows(rows.base, list(rows._tail))
    if isinstance(rows, Sequence):
        return rows
    return tuple(rows)


class Dataset:
    """An immutable collection of rows under a fixed schema.

    Examples
    --------
    >>> from repro.core.attributes import Schema, numeric_min, numeric_max, nominal
    >>> schema = Schema([
    ...     numeric_min("Price"),
    ...     numeric_max("Hotel-class"),
    ...     nominal("Hotel-group", ["T", "H", "M"]),
    ... ])
    >>> data = Dataset(schema, [(1600, 4, "T"), (3000, 5, "H")])
    >>> len(data)
    2
    >>> data.canonical(0)
    (1600.0, -4.0, 0)
    """

    __slots__ = ("_schema", "_raw", "_canon", "_counts", "_columns", "_store")

    def __init__(self, schema: Schema, rows: Iterable[Sequence[object]]) -> None:
        self._schema = schema
        raw, canon = _encode_rows(schema, _build_encoders(schema), rows)
        self._raw: Sequence[Row] = tuple(raw)
        self._canon: Sequence[CanonicalRow] = tuple(canon)
        self._counts: Optional[Dict[str, Counter]] = None
        self._columns = None
        self._store: Optional[ColumnStore] = None

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dicts(
        cls, schema: Schema, records: Iterable[Mapping[str, object]]
    ) -> "Dataset":
        """Build from mappings keyed by attribute name."""
        names = schema.names
        rows = []
        for record in records:
            try:
                rows.append(tuple(record[name] for name in names))
            except KeyError as exc:
                raise DatasetError(
                    f"record is missing attribute {exc.args[0]!r}"
                ) from exc
        return cls(schema, rows)

    # -- container protocol -----------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The schema shared by all rows."""
        return self._schema

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._raw)

    def __getitem__(self, point_id: int) -> Row:
        return self.row(point_id)

    def __repr__(self) -> str:
        return f"Dataset({len(self._raw)} rows, {self._schema!r})"

    @property
    def ids(self) -> range:
        """All point ids (row positions)."""
        return range(len(self._raw))

    # -- row access -------------------------------------------------------------
    def row(self, point_id: int) -> Row:
        """The raw values of point ``point_id``."""
        try:
            return self._raw[point_id]
        except IndexError:
            raise DatasetError(f"no point with id {point_id}") from None

    def canonical(self, point_id: int) -> CanonicalRow:
        """The canonical encoding of point ``point_id``."""
        try:
            return self._canon[point_id]
        except IndexError:
            raise DatasetError(f"no point with id {point_id}") from None

    @property
    def raw_rows(self) -> Sequence[Row]:
        """All raw rows, indexed by point id (possibly lazy)."""
        return self._raw

    @property
    def canonical_rows(self) -> Sequence[CanonicalRow]:
        """All canonical rows, indexed by point id (possibly lazy)."""
        return self._canon

    @property
    def columns(self):
        """The column-major canonical encoding, built lazily and cached.

        Returns a :class:`~repro.engine.columnar.ColumnarStore`: one
        float64 column per universal dimension, one int32 value-id
        column per nominal dimension.  Vectorized backends operate on
        this store; the row tuples remain the reference encoding.
        Raises :class:`~repro.exceptions.EngineError` when NumPy is not
        installed (the pure-Python path never touches this property).
        """
        if self._columns is None:
            if self._store is not None:
                # Borrowed store: the matrix already exists (possibly as
                # an mmap) - share the store's cached columnar view.
                self._columns = self._store.columnar()
                return self._columns
            from repro.engine.columnar import ColumnarStore

            rows = self._canon
            block_of = getattr(rows, "matrix_block", None)
            block = (
                block_of(0, len(rows)) if block_of is not None else None
            )
            self._columns = ColumnarStore.from_rows(
                rows if block is None else block,
                self._schema.nominal_indices,
                num_dims=len(self._schema),
            )
        return self._columns

    def value(self, point_id: int, attribute: str) -> object:
        """Raw value of one attribute of one point."""
        return self.row(point_id)[self._schema.index_of(attribute)]

    # -- vocabulary helpers -----------------------------------------------------
    def value_id(self, attribute: str, value: object) -> int:
        """The canonical integer id of a nominal/ordinal value."""
        spec = self._schema.spec(attribute)
        if spec.domain is None:
            raise DatasetError(
                f"attribute {attribute!r} has no finite domain"
            )
        try:
            return spec.domain.index(value)
        except ValueError:
            raise DatasetError(
                f"value {value!r} not in domain of {attribute!r}"
            ) from None

    def value_of_id(self, attribute: str, value_id: int) -> object:
        """Inverse of :meth:`value_id`."""
        spec = self._schema.spec(attribute)
        if spec.domain is None:
            raise DatasetError(
                f"attribute {attribute!r} has no finite domain"
            )
        try:
            return spec.domain[value_id]
        except IndexError:
            raise DatasetError(
                f"no value id {value_id} in domain of {attribute!r}"
            ) from None

    def cardinality(self, attribute: str) -> int:
        """Domain size of a nominal/ordinal attribute."""
        return self._schema.spec(attribute).cardinality

    # -- statistics --------------------------------------------------------------
    def value_counts(self, attribute: str) -> Counter:
        """Occurrence counts of the raw values of one nominal attribute.

        Used to pick "popular" values for IPO-Tree-k and for the paper's
        default template (most frequent value preferred).
        """
        if self._counts is None:
            self._counts = {}
        if attribute not in self._counts:
            idx = self._schema.index_of(attribute)
            self._counts[attribute] = Counter(row[idx] for row in self._raw)
        return self._counts[attribute]

    def most_frequent(self, attribute: str, k: int = 1) -> List[object]:
        """The ``k`` most frequent values of one nominal attribute.

        Ties broken by domain order for determinism.  Domain values that
        never occur still participate (with count zero) so the result
        always has ``min(k, cardinality)`` entries.
        """
        spec = self._schema.spec(attribute)
        if spec.domain is None:
            raise DatasetError(
                f"attribute {attribute!r} has no finite domain"
            )
        counts = self.value_counts(attribute)
        ranked = sorted(
            spec.domain,
            key=lambda v: (-counts.get(v, 0), spec.domain.index(v)),
        )
        return list(ranked[: max(0, k)])

    # -- derivation ---------------------------------------------------------------
    @classmethod
    def from_encoded(
        cls,
        schema: Schema,
        raw: Sequence[Row],
        canon: Sequence[CanonicalRow],
    ) -> "Dataset":
        """Assemble a dataset from rows that are *already* canonicalised.

        The constructor re-validates and re-encodes every row; derivation
        paths (:meth:`subset`, :meth:`extended`, the dynamic-update
        wrapper) already hold both encodings for the rows they keep, so
        this bypass makes them O(rows copied) instead of O(rows
        re-encoded).  ``raw`` and ``canon`` must be position-aligned and
        previously produced by a :class:`Dataset` over the same
        ``schema``; nothing is checked here.

        Lazy store-backed sequences (:mod:`repro.core.colstore`) pass
        through *without* being materialized into tuples - the borrowed
        backing store keeps owning the bytes and rows page in on
        access, which is what makes snapshot recovery O(WAL tail).
        """
        out = cls.__new__(cls)
        out._schema = schema
        out._raw = _freeze_rows(raw)
        out._canon = _freeze_rows(canon)
        out._counts = None
        out._columns = None
        out._store = None
        return out

    @classmethod
    def from_store(cls, schema: Schema, store: ColumnStore) -> "Dataset":
        """A dataset *borrowing* a read-only column store.

        Both row encodings become lazy views over ``store`` (raw rows
        decode through ``schema`` on access) and :attr:`columns` is the
        store's own columnar view - nothing is copied at construction.
        The dataset never closes the store; whoever created it owns the
        file handle (see :mod:`repro.core.colstore`).
        """
        out = cls.__new__(cls)
        out._schema = schema
        out._raw = store.raw_rows(schema)
        out._canon = store.canonical_rows()
        out._counts = None
        out._columns = None
        out._store = store
        return out

    @property
    def store(self) -> Optional[ColumnStore]:
        """The borrowed backing store, when this dataset has one."""
        return self._store

    def subset(self, point_ids: Iterable[int]) -> "Dataset":
        """A new dataset holding only the given points (ids re-assigned).

        Reuses the existing encodings - selected rows are not re-walked.
        """
        ids = list(point_ids)
        return Dataset.from_encoded(
            self._schema,
            [self.row(i) for i in ids],
            [self.canonical(i) for i in ids],
        )

    def extended(self, rows: Iterable[Sequence[object]]) -> "Dataset":
        """A new dataset with extra rows appended (ids of old rows kept).

        Only the *new* rows are validated and encoded; the existing
        prefix reuses this dataset's canonical store untouched (appends
        cost O(new rows), not O(total rows)).  Error messages index the
        offending row by its id in the extended dataset.
        """
        new_raw, new_canon = _encode_rows(
            self._schema,
            _build_encoders(self._schema),
            rows,
            offset=len(self._raw),
        )
        return Dataset.from_encoded(
            self._schema,
            _concat_rows(self._raw, new_raw),
            _concat_rows(self._canon, new_canon),
        )


def _concat_rows(existing: Sequence, appended: Sequence) -> Sequence:
    """``existing`` followed by ``appended``, copying only owned storage.

    Tuple storage concatenates as before; lazy store-backed storage is
    extended by chaining an overlay tail over the (shared, immutable)
    base instead of materializing the prefix.
    """
    if isinstance(existing, tuple):
        return existing + tuple(appended)
    if isinstance(existing, ChainRows):
        return ChainRows(existing.base, list(existing._tail) + list(appended))
    return ChainRows(existing, list(appended))


def _encode_rows(
    schema: Schema,
    encoders,
    rows: Iterable[Sequence[object]],
    offset: int = 0,
) -> Tuple[List[Row], List[CanonicalRow]]:
    """Validate and canonicalise ``rows``; shared by every ingest path.

    ``offset`` is added to the reported row index so callers appending
    to existing storage (:meth:`Dataset.extended`, the dynamic-update
    wrapper) name the offending row by its id in the *combined* data.
    Raises :class:`DatasetError` with the offending attribute named
    (via :func:`_describe_bad_row`) on the first bad row.
    """
    raw: List[Row] = []
    canon: List[CanonicalRow] = []
    for index, row in enumerate(rows):
        row_t = tuple(row)
        if len(row_t) != len(schema):
            raise DatasetError(
                f"row {offset + index} {row_t!r} has {len(row_t)} values, "
                f"schema has {len(schema)}"
            )
        try:
            canon.append(
                tuple(enc(value) for enc, value in zip(encoders, row_t))
            )
        except (SchemaError, TypeError, ValueError) as exc:
            raise DatasetError(
                _describe_bad_row(schema, encoders, offset + index, row_t, exc)
            ) from exc
        raw.append(row_t)
    return raw, canon


def _describe_bad_row(
    schema: Schema,
    encoders,
    index: int,
    row: Row,
    exc: Exception,
) -> str:
    """Name the offending attribute of a row that failed to canonicalise.

    The hot path encodes a row with one generator expression; only on
    failure do we re-walk the attributes one by one to pinpoint the
    first bad value, so good rows pay nothing for the diagnostics.
    """
    for spec, enc, value in zip(schema, encoders, row):
        try:
            enc(value)
        except (SchemaError, TypeError, ValueError) as cause:
            return (
                f"row {index}: attribute {spec.name!r} rejects value "
                f"{value!r}: {cause}"
            )
    return f"row {index} {row!r}: {exc}"  # pragma: no cover - defensive


def _build_encoders(schema: Schema):
    """One canonicalising callable per dimension of ``schema``."""
    encoders = []
    for spec in schema:
        if spec.kind is AttributeKind.NOMINAL:
            domain_index = {v: i for i, v in enumerate(spec.domain)}  # type: ignore[arg-type]

            def encode_nominal(value, _index=domain_index, _spec=spec):
                try:
                    return _index[value]
                except KeyError:
                    raise SchemaError(
                        f"value {value!r} not in domain of {_spec.name!r}"
                    ) from None

            encoders.append(encode_nominal)
        else:
            encoders.append(spec.canonical_value)
    return encoders
