"""Columnar canonical store: the NumPy-backed twin of a row dataset.

:class:`~repro.core.dataset.Dataset` keeps its canonical encoding as a
tuple of row tuples - perfect for the pure-Python reference path, hostile
to vectorized execution.  :class:`ColumnarStore` is the column-major
mirror of that encoding:

* ``matrix`` - an ``(n, m)`` float64 array, the store's only copy of
  the rows.  Universally ordered dimensions hold their canonical floats
  (smaller is better); nominal dimensions hold the value id *as a
  float*.
* ``matrix_t`` - ``matrix`` transposed to ``(m, n)``, the layout the
  kernels broadcast over and compare values on.
* ``nominal_ids_t`` - the nominal rows of ``matrix_t`` as integer ids,
  the index arrays of the per-query rank gathers (one ``np.take``
  through a compiled :class:`~repro.core.dominance.RankTable`'s
  value-id -> rank table per nominal dimension).

Ranks alone cannot carry the paper's partial-order semantics: two
*distinct* unlisted nominal values share the default rank ``c`` but are
**incomparable** (Section 4.2).  Kernels therefore treat "equal rank but
different value" as blocking dominance in both directions, reading the
values from ``matrix_t``.

Stores are immutable once built and are cached per dataset
(:attr:`repro.core.dataset.Dataset.columns`); one store serves every
query because value ids are schema-derived.  Everything derived from a
store alone (the transposes above, a backend's :meth:`~ColumnarStore.derived`
arrays) is built lazily and lives exactly as long as the store.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import EngineError

try:  # soft dependency: the package must import without NumPy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None


def numpy_available() -> bool:
    """True when NumPy is importable in this environment."""
    return _np is not None


def require_numpy():
    """Return the :mod:`numpy` module or raise :class:`EngineError`."""
    if _np is None:
        raise EngineError(
            "NumPy is not installed; install the 'repro[fast]' extra or "
            "use the 'python' backend"
        )
    return _np


class ColumnarStore:
    """Column-major canonical encoding of a set of rows.

    Use :meth:`from_rows`; the constructor takes a pre-built matrix.
    """

    __slots__ = (
        "matrix", "nominal_dims", "_matrix_t", "_nominal_ids_t", "_derived",
    )

    def __init__(self, matrix, nominal_dims: Sequence[int]) -> None:
        self.matrix = matrix
        self.nominal_dims = tuple(nominal_dims)
        self._matrix_t = None
        self._nominal_ids_t = None
        self._derived = {}

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_dims(self) -> int:
        """Total number of dimensions (columns of the matrix)."""
        return self.matrix.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStore({len(self)} rows, {self.num_dims} dims, "
            f"nominal={self.nominal_dims})"
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple],
        nominal_dims: Iterable[int],
        num_dims: int = 0,
    ) -> "ColumnarStore":
        """Build a store from canonical row tuples.

        ``rows`` must be canonical encodings (floats on universal
        dimensions, integer value ids on nominal ones).  ``num_dims``
        is only consulted when ``rows`` is empty (the width cannot be
        inferred then).
        """
        np = require_numpy()
        if len(rows):
            matrix = np.asarray(rows, dtype=np.float64)
            if matrix.ndim != 2:  # ragged or non-numeric input
                raise EngineError(
                    "canonical rows do not form a rectangular numeric matrix"
                )
        else:
            matrix = np.empty((0, num_dims), dtype=np.float64)
        matrix.setflags(write=False)
        return cls(matrix, nominal_dims)

    @property
    def matrix_t(self):
        """``matrix`` transposed to ``(m, n)``, contiguous per dimension.

        Kernels broadcast dimension-rows against each other; the
        transposed copy makes every per-dimension slice contiguous
        (column slices of the row-major ``matrix`` are strided, which
        wrecks ufunc throughput).  Built lazily, cached for the store's
        lifetime.
        """
        if self._matrix_t is None:
            np = require_numpy()
            transposed = np.ascontiguousarray(self.matrix.T)
            transposed.setflags(write=False)
            self._matrix_t = transposed
        return self._matrix_t

    @property
    def nominal_ids_t(self):
        """``(len(nominal_dims), n)`` value ids of the nominal dimensions.

        Row ``k`` holds dimension ``nominal_dims[k]`` as ``intp`` - the
        index dtype ``np.take`` gathers with, so the per-query rank and
        bucket gathers convert nothing.  Built lazily, cached for the
        store's lifetime.
        """
        if self._nominal_ids_t is None:
            ids = self.matrix_t[list(self.nominal_dims)].astype(
                require_numpy().intp
            )
            ids.setflags(write=False)
            self._nominal_ids_t = ids
        return self._nominal_ids_t

    def derived(self, build):
        """``build(self)``, computed once per store and cached.

        For preference-independent arrays a backend derives from the
        store alone (the bitset backend's numeric bucket rows).  Keyed
        by ``build``; the result lives and dies with the store, so
        stores never evict each other's arrays.  Concurrent first calls
        may both build (identical content, harmless).
        """
        value = self._derived.get(build)
        if value is None:
            value = self._derived[build] = build(self)
        return value
