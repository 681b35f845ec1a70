"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` clause while still being able to distinguish the
individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema definition or a row/value is inconsistent with the schema."""


class DatasetError(ReproError):
    """A dataset operation failed (bad row shape, unknown value, bad id)."""


class EngineError(ReproError):
    """An execution-backend problem (unknown backend, missing dependency).

    Raised by :mod:`repro.engine` when a backend is requested that is not
    registered, or whose optional dependency (e.g. NumPy for the
    ``"numpy"`` backend) is not importable in this environment.
    """


class PreferenceError(ReproError):
    """A preference is malformed or incompatible with a schema."""


class ConflictError(PreferenceError):
    """Two orders are not conflict-free (Definition 1 of the paper).

    Raised when combining partial orders that contain both ``(u, v)`` and
    ``(v, u)`` for some pair of distinct values ``u`` and ``v``.
    """


class RefinementError(PreferenceError):
    """A query preference does not refine the index template (Theorem 1).

    Both the IPO-tree and the Adaptive SFS index only retain enough state to
    answer queries whose preference is a refinement of the template the index
    was built for.  Anything else would silently return wrong skylines, so we
    raise instead.
    """


class StorageError(ReproError):
    """A durability operation failed (corrupt snapshot/WAL, bad layout).

    Raised by :mod:`repro.storage` when a snapshot or write-ahead-log
    file cannot be read back consistently, when replaying the log does
    not reproduce the recorded data versions, or when a storage
    directory is used in an unsupported way (e.g. attaching a fresh
    service to a directory that already holds recoverable state).
    """


class StorageUnavailable(StorageError):
    """The write path is temporarily unavailable; reads keep serving.

    Raised by the serving layer when a mutation cannot be made durable
    right now (a WAL append failed and the store fail-stopped) but the
    service itself is healthy enough to keep answering queries.  The
    condition is *retryable*: a successful
    :meth:`~repro.serve.service.SkylineService.checkpoint` re-syncs the
    durable state and re-arms the write path.  The HTTP front end maps
    this to ``503`` with a ``Retry-After`` hint; nothing was applied,
    so retrying the same mutation is safe.
    """


class ReplicationError(ReproError):
    """A replication stream or replica apply step cannot proceed safely.

    Raised by :mod:`repro.replication` when a shipped WAL frame fails
    its CRC (cut mid-record in transit), when a frame's version stamp
    does not continue the replica's applied version, or when applying a
    frame does not produce the version it was stamped with.  The
    follower treats every one of these as "do not apply, do not
    advance": it re-fetches from its last good offset or re-syncs from
    a fresh snapshot rather than ever serving a divergent answer.
    """


class IndexError_(ReproError):
    """An index structure was used in an unsupported way.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`.
    """


class UnsupportedQueryError(IndexError_):
    """The index cannot answer this query (e.g. IPO-Tree-k missing a value)."""
