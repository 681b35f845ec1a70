"""A read replica that tails the primary's WAL stream.

The follower's whole safety story is one rule: **verify, apply, then
advance - or refuse and stand still.**  Each shipped frame is the
CRC-prefixed WAL line the primary fsynced; before applying it the
follower re-checks the CRC (a frame cut mid-record in transit fails
here), then hands the record to
:meth:`~repro.serve.service.SkylineService.apply_record`, the one write
path that live writes and crash recovery take too.  It refuses a frame
whose version stamp does not continue the replica's version exactly,
validates the batch before touching any state, applies it, and checks
the produced version against the stamp.  Only then does the stream
offset advance - by the frame's byte length, so the next fetch resumes
at a frame boundary.
Any failure leaves the offset untouched: a torn frame is simply
re-fetched intact, a discontinuity forces a re-sync from a fresh
snapshot, and in neither case can a half-applied or out-of-order
mutation reach the replica.  The replica therefore always equals the
primary *at some version*: it may lag, it never lies.

Re-syncs swap in a whole new :class:`~repro.serve.service.SkylineService`
built storage-lessly from the primary's newest snapshot
(:meth:`~repro.serve.service.SkylineService.from_snapshot`); the old
replica keeps answering queries until the swap, so a rotation costs
availability nothing.  The server front end reads the replica through
:class:`Follower.service` on every request for exactly this reason.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.exceptions import ReplicationError, ReproError, StorageError
from repro.net.protocol import REPLICATION_WINDOW_DEFAULT_BYTES
from repro.replication.stream import ReplicationSource
from repro.serve.service import SkylineService
from repro.storage import verify_frame


class Follower:
    """Tail a :class:`~repro.replication.stream.ReplicationSource`.

    Drive it either synchronously - :meth:`sync` then repeated
    :meth:`poll` calls, as the unit tests do - or as a daemon thread
    via :meth:`start`/:meth:`stop`.  ``service`` is the live read-only
    replica (``None`` until the first sync lands); the server front
    end maps ``ready == False`` to ``503 replica-syncing``.

    Counters (``frames_applied``, ``resyncs``, ``torn_refusals``) and
    the ``applied_version`` / ``primary_version`` / ``lag`` gauges are
    exported on the replica server's ``/metrics`` and ``/healthz``.
    """

    def __init__(
        self,
        source: ReplicationSource,
        *,
        backend=None,
        planner_config=None,
        cache_capacity: int = 256,
        window_bytes: int = REPLICATION_WINDOW_DEFAULT_BYTES,
        poll_interval: float = 0.25,
    ) -> None:
        if window_bytes < 1:
            raise ValueError(f"window_bytes must be >= 1, got {window_bytes}")
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self._source = source
        self._backend = backend
        self._planner_config = planner_config
        self._cache_capacity = cache_capacity
        self._window_bytes = window_bytes
        self._poll_interval = poll_interval
        self._service: Optional[SkylineService] = None
        #: ``"syncing"`` (next poll bootstraps from a snapshot) or
        #: ``"tailing"`` (next poll fetches the next WAL window).
        self._state = "syncing"
        self._base: Optional[int] = None
        self._offset = 0
        self._caught_up = False
        self._primary_version = 0
        self._frames_applied = 0
        self._resyncs = 0
        self._torn_refusals = 0
        self._last_error: Optional[str] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- observable state --------------------------------------------------
    @property
    def service(self) -> Optional[SkylineService]:
        """The live replica service (``None`` before the first sync)."""
        return self._service

    @property
    def ready(self) -> bool:
        """Whether the follower has a replica to answer queries from."""
        return self._service is not None

    @property
    def applied_version(self) -> int:
        """The data version the replica currently serves (0 = none)."""
        service = self._service
        return service.version if service is not None else 0

    @property
    def primary_version(self) -> int:
        """The primary's version as of the last stream exchange."""
        with self._lock:
            return self._primary_version

    @property
    def lag(self) -> int:
        """How many versions the replica trails the primary by."""
        return max(0, self.primary_version - self.applied_version)

    @property
    def frames_applied(self) -> int:
        """Total WAL frames verified and applied since construction."""
        with self._lock:
            return self._frames_applied

    @property
    def resyncs(self) -> int:
        """Snapshot bootstraps, the initial one included."""
        with self._lock:
            return self._resyncs

    @property
    def torn_refusals(self) -> int:
        """Frames refused for failing CRC verification in transit."""
        with self._lock:
            return self._torn_refusals

    def status(self) -> dict:
        """The replication block of the replica server's ``/healthz``."""
        with self._lock:
            primary_version = self._primary_version
            frames_applied = self._frames_applied
            resyncs = self._resyncs
            torn_refusals = self._torn_refusals
            last_error = self._last_error
            base = self._base
            offset = self._offset
        applied = self.applied_version
        return {
            "ready": self.ready,
            "state": self._state,
            "applied_version": applied,
            "primary_version": primary_version,
            "lag": max(0, primary_version - applied),
            "base": base,
            "offset": offset,
            "frames_applied": frames_applied,
            "resyncs": resyncs,
            "torn_refusals": torn_refusals,
            "last_error": last_error,
        }

    # -- the replication protocol ------------------------------------------
    def sync(self) -> None:
        """(Re-)bootstrap the replica from the primary's newest snapshot.

        Builds a fresh storage-less service from the shipped snapshot
        document and only then swaps it in, so an existing replica
        keeps answering (at its old, still-exact version) for the
        whole duration.  Tailing restarts at offset 0 of the snapshot's
        generation - the stream address space is ``(base version, byte
        offset)``.
        """
        payload = self._source.snapshot()
        if not isinstance(payload, dict) or "document" not in payload:
            raise ReplicationError(
                "malformed replication snapshot payload: expected an object "
                "with 'document', got "
                f"{type(payload).__name__}"
            )
        version = payload.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise ReplicationError(
                f"replication snapshot carries no integer 'version' "
                f"(got {version!r})"
            )
        service = SkylineService.from_snapshot(
            payload["document"],
            backend=self._backend,
            planner_config=self._planner_config,
            cache_capacity=self._cache_capacity,
        )
        if service.version != version:
            raise ReplicationError(
                f"snapshot document restored to version {service.version}, "
                f"but the payload claims {version} - refusing to tail from "
                f"an inconsistent base"
            )
        with self._lock:
            self._resyncs += 1
            self._observe_primary_locked(payload.get("primary_version"))
            self._base = version
            self._offset = 0
        self._caught_up = False
        self._service = service
        self._state = "tailing"

    def poll(self) -> int:
        """One protocol step: sync if needed, else fetch + apply a window.

        Returns the number of frames applied.  Raises
        :class:`ReplicationError` (offset *not* advanced past the bad
        frame) when the stream ships something unsafe to apply.
        """
        if self._service is None or self._state != "tailing":
            self.sync()
        payload = self._source.window(
            self._base, self._offset, self._window_bytes
        )
        if not isinstance(payload, dict):
            raise ReplicationError(
                f"malformed replication window payload: "
                f"{type(payload).__name__}"
            )
        with self._lock:
            self._observe_primary_locked(payload.get("primary_version"))
        if payload.get("gone"):
            # The base generation was folded away by a checkpoint (or
            # the fault plan pretends it was): re-sync on the next poll.
            self._state = "syncing"
            self._caught_up = False
            return 0
        frames = payload.get("frames")
        if not isinstance(frames, list):
            raise ReplicationError(
                "replication window payload has no 'frames' list"
            )
        applied = 0
        for text in frames:
            self._apply_frame(text)
            applied += 1
        self._caught_up = bool(payload.get("end_of_log", True))
        return applied

    def _apply_frame(self, text: object) -> None:
        """Verify one shipped frame, apply it, then advance the offset."""
        try:
            frame = text.encode("ascii")
        except (AttributeError, UnicodeEncodeError):
            with self._lock:
                self._torn_refusals += 1
            raise ReplicationError(
                "shipped frame is not ASCII text - refusing to apply"
            ) from None
        try:
            record = verify_frame(frame)
        except StorageError as exc:
            # The classic torn frame: cut mid-record in transit.  The
            # offset stays put, so the next window re-ships it intact.
            with self._lock:
                self._torn_refusals += 1
            raise ReplicationError(
                f"shipped frame failed verification at base {self._base} "
                f"offset {self._offset}: {exc}; re-fetching from the last "
                f"applied offset"
            ) from exc
        try:
            self._service.apply_record(record)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self._state = "syncing"
            raise ReplicationError(
                f"shipped frame could not be applied: {exc}; re-syncing "
                f"from a fresh snapshot"
            ) from exc
        with self._lock:
            self._offset += len(frame)
            self._frames_applied += 1

    def _observe_primary_locked(self, version: object) -> None:
        if isinstance(version, int) and not isinstance(version, bool):
            self._primary_version = max(self._primary_version, version)

    # -- driving it --------------------------------------------------------
    def run(self, *, stop: Optional[threading.Event] = None) -> None:
        """Tail until ``stop`` is set; failures back off and retry.

        Every :class:`~repro.exceptions.ReproError` - transport
        trouble, a torn frame, a discontinuity - is recorded in
        ``status()["last_error"]`` and retried after ``poll_interval``;
        :meth:`poll` has already arranged the safe reaction (hold the
        offset, or re-sync).
        """
        stop = stop if stop is not None else self._stop
        while not stop.is_set():
            try:
                self.poll()
            except ReproError as exc:
                with self._lock:
                    self._last_error = str(exc)
                stop.wait(self._poll_interval)
                continue
            if self._state == "tailing" and self._caught_up:
                stop.wait(self._poll_interval)

    def start(self) -> "Follower":
        """Run the tail loop on a daemon thread (idempotent guard)."""
        if self._thread is not None:
            raise ReplicationError("follower is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.run, name="repro-follower", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the tail loop and join the thread (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None

    def wait_for_version(self, version: int, timeout: float = 10.0) -> bool:
        """Block until the replica serves ``version`` (True) or time out."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ready and self.applied_version >= version:
                return True
            time.sleep(0.01)
        return False

    def close(self) -> None:
        """Stop tailing and release the source and the replica service."""
        self.stop()
        self._source.close()
        service = self._service
        if service is not None:
            service.close()

    def __enter__(self) -> "Follower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
