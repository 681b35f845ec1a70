"""Backend contract and registry for the execution engine.

Every skyline algorithm in this library bottoms out in a handful of
primitive operations over canonically encoded rows: scoring, score
sorting, pairwise dominance tests, batched dominance masks and the full
four-way comparison.  A :class:`Backend` bundles one implementation of
those primitives; the registry makes implementations swappable without
touching any algorithm.

Two backends ship with the library:

* ``"python"`` - the tuple-at-a-time reference implementation, a thin
  wrapper over :class:`~repro.core.dominance.RankTable`.  Always
  available; defines the semantics.
* ``"numpy"`` - columnar, block-at-a-time vectorized kernels
  (:mod:`repro.engine.numpy_backend`).  Available when NumPy is
  installed; must be observationally equivalent to ``"python"``
  (enforced by ``tests/test_engine_equivalence.py``).

Selection order for :func:`get_backend`:

1. an explicit argument (a backend name or an already-resolved
   :class:`Backend` instance),
2. a process-wide default set via :func:`set_default_backend`
   (the benchmark CLI's ``--backend`` axis uses this),
3. the ``REPRO_BACKEND`` environment variable,
4. automatic: ``"numpy"`` when NumPy is importable, else ``"python"``.

Explicitly requesting ``"numpy"`` without NumPy installed raises
:class:`~repro.exceptions.EngineError`; the automatic path silently
falls back to ``"python"`` so the package works dependency-free.

The kernel protocol
-------------------
Kernels operate on an opaque *context* built once per (rows, table)
pair by :meth:`Backend.prepare`; point arguments are integer ids
indexing ``rows``.  This keeps per-call overhead out of inner loops:
the expensive part (for the numpy backend, building the columnar store
and remapping ranks) happens once, and every subsequent kernel call is
a cheap lookup plus the actual comparison work.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.columnar import numpy_available
from repro.exceptions import EngineError

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class Backend(ABC):
    """One implementation of the execution-engine kernel set.

    ``name`` is the registry key; ``vectorized`` tells consumers whether
    the backend benefits from a pre-built
    :class:`~repro.engine.columnar.ColumnarStore` (and whether helpers
    like the MDC pre-filter may use NumPy directly).
    """

    name: str = "abstract"
    vectorized: bool = False

    # -- context ----------------------------------------------------------
    @abstractmethod
    def prepare(self, rows: Sequence[tuple], table, store=None):
        """Build the execution context for ``rows`` under ``table``.

        ``store`` optionally supplies a pre-built columnar store covering
        exactly ``rows`` (vectorized backends use it to skip the
        row-to-column conversion; others ignore it).
        """

    # -- scoring ----------------------------------------------------------
    @abstractmethod
    def scores(self, ctx, ids: Sequence[int]) -> List[float]:
        """The monotone preference score ``f`` of each point."""

    @abstractmethod
    def score_rows(self, table, rows: Sequence[tuple]) -> List[float]:
        """Scores of loose canonical rows (no context needed).

        Used where the rows are not part of a prepared context, e.g.
        Adaptive SFS re-scoring its few affected members per query.
        """

    @abstractmethod
    def sort_by_score(self, ctx, ids: Sequence[int]) -> List[int]:
        """``ids`` sorted by ascending score, ties by rank vector.

        Equal scores are ordered lexicographically by rank vector, so a
        dominator precedes every point it dominates even when float
        rounding ties their scores; rows with equal score and rank
        vector keep their input order.
        """

    # -- dominance --------------------------------------------------------
    @abstractmethod
    def dominates_mask(
        self, ctx, p: int, block: Sequence[int]
    ) -> List[bool]:
        """``mask[k]`` iff point ``p`` dominates ``block[k]``."""

    @abstractmethod
    def dominated_mask(
        self, ctx, p: int, block: Sequence[int]
    ) -> List[bool]:
        """``mask[k]`` iff ``block[k]`` dominates point ``p``."""

    @abstractmethod
    def any_dominates(self, ctx, p: int, block: Sequence[int]) -> bool:
        """True iff some point of ``block`` dominates ``p``."""

    @abstractmethod
    def dominated_any(
        self, ctx, targets: Sequence[int], against: Sequence[int]
    ) -> List[bool]:
        """Per target: is it dominated by any point of ``against``?

        Self-pairs are harmless (nothing dominates itself), so callers
        may pass overlapping id sets.
        """

    @abstractmethod
    def compare_many(self, ctx, p: int, block: Sequence[int]) -> List:
        """Four-way verdicts of ``p`` against each block point.

        Entries are the :mod:`repro.core.dominance` constants
        ``DOMINATES`` / ``DOMINATED`` / ``EQUAL`` / ``INCOMPARABLE``.
        """

    # -- composite kernels -------------------------------------------------
    @abstractmethod
    def skyline(self, ctx, ids: Sequence[int]) -> List[int]:
        """SFS-style skyline of ``ids`` (presort by score, then scan).

        The skyline is a property of the dominance relation alone, so
        every backend returns the same *set*; member order may differ.
        """

    @abstractmethod
    def dim_ranks(self, ctx, ids: Sequence[int], dim: int) -> List[float]:
        """Per-point rank of one dimension (canonical float or nominal
        rank), used by the bitmap algorithm's bitslice construction."""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_INSTANCES: Dict[str, Backend] = {}
_DEFAULT_NAME: Optional[str] = None


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily on first :func:`get_backend` lookup and
    may raise :class:`EngineError` when its dependencies are missing.
    Re-registering a name replaces the factory (and drops any cached
    instance), which keeps tests and plug-ins simple.
    """
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


@dataclass(frozen=True)
class BackendStatus:
    """Availability of one registered backend.

    ``detail`` carries the backend's own tier report when available
    (:meth:`Backend.availability_detail` if the backend defines one)
    or the resolution error when not - so "registered but unavailable"
    (e.g. ``numpy`` without NumPy installed) is distinguishable from
    "unknown name" without triggering the failure at route time.
    """

    name: str
    available: bool
    detail: str

    def __str__(self) -> str:
        state = "available" if self.available else "unavailable"
        return f"{self.name}: {state}" + (
            f" ({self.detail})" if self.detail else ""
        )


def registered_backends() -> Tuple[str, ...]:
    """Names of all registered backends (available or not).

    Use :func:`backend_status` when availability matters: a registered
    name here may still fail to resolve (missing dependency).
    """
    return tuple(sorted(_FACTORIES))


def backend_status(name: Optional[str] = None):
    """Availability report for one backend or all registered ones.

    With ``name``: the :class:`BackendStatus` of that backend (raises
    :class:`EngineError` only for *unknown* names - an unavailable
    backend is reported, not raised).  Without: a tuple with one entry
    per registered backend, sorted by name.  The planner and the CLIs
    use this to degrade gracefully instead of raising at route time.
    """
    if name is not None:
        if name not in _FACTORIES:
            raise EngineError(_unknown_backend_message(name))
        return _probe_status(name)
    return tuple(_probe_status(n) for n in sorted(_FACTORIES))


def _probe_status(name: str) -> BackendStatus:
    try:
        backend = get_backend(name)
    except EngineError as exc:
        return BackendStatus(name, False, str(exc))
    detail = getattr(backend, "availability_detail", None)
    return BackendStatus(name, True, detail() if callable(detail) else "")


def _unknown_backend_message(name: str) -> str:
    parts = []
    for registered in sorted(_FACTORIES):
        status = _probe_status(registered)
        parts.append(
            registered if status.available else f"{registered} (unavailable)"
        )
    return (
        f"unknown backend {name!r}; registered backends: "
        f"{', '.join(parts) or 'none'}"
    )


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this environment."""
    out = []
    for name in sorted(_FACTORIES):
        try:
            get_backend(name)
        except EngineError:
            continue
        out.append(name)
    return tuple(out)


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    The name is validated eagerly so a typo fails at configuration time,
    not deep inside a query.
    """
    if name is not None:
        get_backend(name)  # validates name and availability
    global _DEFAULT_NAME
    _DEFAULT_NAME = name


def default_backend_name() -> str:
    """The name :func:`get_backend` resolves when called without one."""
    if _DEFAULT_NAME is not None:
        return _DEFAULT_NAME
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return env
    return "numpy" if numpy_available() else "python"


def get_backend(name: Optional[Union[str, Backend]] = None) -> Backend:
    """Resolve a backend by name (see module docstring for the order)."""
    if isinstance(name, Backend):
        return name
    if name is None:
        name = default_backend_name()
    if name in _INSTANCES:
        return _INSTANCES[name]
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise EngineError(_unknown_backend_message(name)) from None
    try:
        backend = factory()
    except EngineError as exc:
        raise EngineError(
            f"backend {name!r} is registered but unavailable: {exc}"
        ) from exc
    _INSTANCES[name] = backend
    return backend


def resolve_backend(backend: Optional[Union[str, Backend]] = None) -> Backend:
    """Alias of :func:`get_backend` accepting instances, names or None."""
    return get_backend(backend)
