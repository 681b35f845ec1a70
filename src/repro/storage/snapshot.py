"""Versioned binary/JSON snapshots of datasets (and state riding on them).

A snapshot is the *base* of the snapshot + log recovery pattern: one
JSON document holding the full slot space of a
:class:`~repro.updates.dataset.DynamicDataset` - **canonical (encoded)
rows**, per-slot liveness, the data version and the compaction epoch.
Persisting the canonical encoding is the point: loading a snapshot
reassembles the dataset with :meth:`DynamicDataset.restore` and never
re-validates or re-encodes a row, so recovery cost scales with bytes
read, not with encode work redone (``tests/test_storage.py`` pins this
with a poisoned encoder).  Raw values are *derived* from the canonical
encoding on load (the encoding is invertible through the schema:
negate max-dimensions, index domains by value id), so the bulk data is
stored exactly once; the one fidelity caveat is that raw numeric
values come back as floats (``10`` -> ``10.0`` - equal in every
comparison this library performs).

Above :data:`BINARY_PAYLOAD_THRESHOLD` slots (and with NumPy present),
the canonical matrix moves out of the JSON document into a sibling
``.npy`` sidecar - parsing 100k rows of JSON costs hundreds of
milliseconds, loading the same matrix from ``.npy`` costs
single-digits.  Small snapshots stay single-file and human-readable;
either flavour reads back on any environment that can satisfy it (a
``.npy`` payload needs NumPy to load).

Format **v2** makes the sidecar directly *mappable*: the matrix is
written column-major (Fortran order), liveness is stored compactly as
``slots`` + ``dead_ids`` instead of a per-slot ``alive`` list, and the
payload reference carries the dtype/order/row-count header.  With
NumPy present, :func:`read_snapshot` returns the payload as a
*borrowed* :class:`~repro.core.colstore.BorrowedColumnStore` over
``np.load(..., mmap_mode="r")`` - nothing is decoded at read time, so
recovery costs O(WAL tail), and the column-major layout means the
kernels' transposed view is a zero-copy reinterpretation of the same
page-cached bytes.  The ``REPRO_MMAP`` environment variable (or the
``mmap=`` argument) selects the tier: ``auto`` (map when possible),
``off`` (legacy eager decode), ``require`` (error if a sidecar cannot
be mapped).  v1 documents still load through a compat shim and are
rewritten as v2 by the next checkpoint.  Without NumPy, inline
payloads restore through a lazy per-row decoding view
(:class:`~repro.core.colstore.JsonColumnStore`) rather than three
eager O(n) passes.

Every file is written **atomically**: serialise to a sibling ``*.tmp``
file, ``fsync`` it, ``rename`` onto the final name and ``fsync`` the
directory - the sidecar strictly *before* the document that references
it.  A crash during checkpoint therefore leaves either the old
snapshot generation or the old one plus a complete new one - never a
half-written snapshot that recovery could mistake for state.

Values must be JSON-representable (strings, numbers, booleans,
``None``); that covers every dataset this library generates or loads.
Schemas round-trip through a structural fingerprint
(:func:`schema_fingerprint`), so a snapshot and the live schema can be
cross-checked; preferences (the service's template) through
:func:`preference_to_dict`.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Union

from repro import faults
from repro.core.attributes import AttributeKind, AttributeSpec, Schema
from repro.core.colstore import (
    BorrowedColumnStore,
    ColumnStore,
    JsonColumnStore,
)
from repro.core.preferences import ImplicitPreference, Preference
from repro.engine.columnar import numpy_available
from repro.exceptions import StorageError
from repro.updates.dataset import DynamicDataset

#: Bump when the snapshot document layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 2

#: Older format versions :func:`read_snapshot` still understands.
SUPPORTED_FORMAT_VERSIONS = (1, SNAPSHOT_FORMAT_VERSION)

#: The ``kind`` marker distinguishing snapshots from other JSON files.
SNAPSHOT_KIND = "repro-durable-snapshot"

#: Slot count from which the canonical matrix is written as a ``.npy``
#: sidecar instead of inline JSON (when NumPy is available).
BINARY_PAYLOAD_THRESHOLD = 4096

#: Environment switch for the mmap read tier (``auto``/``off``/``require``).
MMAP_ENV = "REPRO_MMAP"


def resolve_mmap_mode(mmap: object = None) -> str:
    """Resolve the mmap tier from an argument or :data:`MMAP_ENV`.

    ``True`` means ``require``, ``False`` means ``off``, a string names
    the tier directly and ``None`` defers to the environment (default
    ``auto``).
    """
    if mmap is True:
        return "require"
    if mmap is False:
        return "off"
    value = mmap if isinstance(mmap, str) else os.environ.get(MMAP_ENV, "auto")
    value = value.strip().lower() or "auto"
    if value not in ("auto", "off", "require"):
        raise StorageError(
            f"invalid mmap mode {value!r} (from {MMAP_ENV} or mmap=): "
            f"expected auto, off or require"
        )
    return value


def schema_fingerprint(schema: Schema) -> List[List[object]]:
    """A JSON-friendly structural description of a schema."""
    return [
        [spec.name, spec.kind.value, list(spec.domain) if spec.domain else None]
        for spec in schema
    ]


def schema_from_fingerprint(fingerprint: List[List[object]]) -> Schema:
    """Reconstruct a :class:`Schema` from its structural fingerprint.

    Inverse of :func:`schema_fingerprint`; the
    fingerprint is fully structural (name, kind, domain), so the
    rebuilt schema is equal to the original and assigns identical
    canonical value ids.
    """
    specs = []
    for entry in fingerprint:
        try:
            name, kind, domain = entry
            specs.append(
                AttributeSpec(
                    str(name),
                    AttributeKind(kind),
                    tuple(domain) if domain is not None else None,
                )
            )
        except (TypeError, ValueError) as exc:
            raise StorageError(
                f"snapshot schema fingerprint entry {entry!r} is "
                f"malformed: {exc}"
            ) from None
    return Schema(specs)


def preference_to_dict(preference: Preference) -> Dict[str, List[object]]:
    """JSON-friendly form of a preference: attribute -> chain."""
    return {name: list(pref.choices) for name, pref in preference.items()}


def preference_from_dict(data: Dict[str, List[object]]) -> Preference:
    """Inverse of :func:`preference_to_dict`."""
    return Preference(
        {name: ImplicitPreference(tuple(chain)) for name, chain in data.items()}
    )


def dataset_state(data: DynamicDataset) -> Dict:
    """The JSON-friendly full slot state of a dynamic dataset (v2 layout).

    Liveness is compact (``slots`` + ``dead_ids``); ``nominal_dims``
    names the columns whose canonical values are integer value ids, so
    a reader can assemble a column store from the payload without
    re-deriving it from the schema.  The output is always directly
    JSON-serialisable; a store-backed dataset exports its canonical
    block through the vectorized ``matrix_block`` path instead of
    walking n lazy rows.
    """
    rows = data.canonical_rows
    block_of = getattr(rows, "matrix_block", None)
    block = block_of(0, len(rows)) if block_of is not None else None
    if block is not None:
        canonical = block.tolist()
    else:
        canonical = [list(row) for row in rows]
    return {
        "schema": schema_fingerprint(data.schema),
        "canonical": canonical,
        "slots": data.num_slots,
        "dead_ids": [
            i for i, flag in enumerate(data.alive_flags) if not flag
        ],
        "nominal_dims": list(data.schema.nominal_indices),
        "data_version": data.version,
        "compactions": data.compactions,
    }


def restore_dataset(state: Dict) -> DynamicDataset:
    """Reassemble the dynamic dataset of a snapshot's ``data`` section.

    No row is re-encoded - and since format v2, no row is even
    *decoded* up front: the canonical payload (a borrowed mmap store
    when :func:`read_snapshot` could map it, the parsed JSON lists
    otherwise) is wrapped in a :class:`~repro.core.colstore.ColumnStore`
    and both row encodings become lazy views over it.  The returned
    dataset is a borrowed immutable base plus a mutable overlay tail:
    WAL replay appends land in the overlay, the base is never copied.
    Handles both the v2 liveness layout (``slots`` + ``dead_ids``) and
    the v1 per-slot ``alive`` list.
    """
    try:
        schema = schema_from_fingerprint(state["schema"])
        payload = state["canonical"]
        if isinstance(payload, ColumnStore):
            store: ColumnStore = payload
        else:
            store = JsonColumnStore(
                payload, schema.nominal_indices, len(schema)
            )
        if "alive" in state:  # v1 layout
            alive = [bool(flag) for flag in state["alive"]]
        else:
            slots = int(state["slots"])
            if slots != len(store):
                raise StorageError(
                    f"snapshot payload holds {len(store)} rows, the "
                    f"document records {slots} slots"
                )
            alive = [True] * slots
            for dead_id in state.get("dead_ids", ()):
                try:
                    alive[int(dead_id)] = False
                except IndexError:
                    raise StorageError(
                        f"snapshot dead id {dead_id!r} is outside the "
                        f"slot space of {slots}"
                    ) from None
        return DynamicDataset.restore(
            schema,
            store.raw_rows(schema),
            store.canonical_rows(),
            alive,
            version=int(state["data_version"]),
            compactions=int(state.get("compactions", 0)),
            store=store,
        )
    except KeyError as exc:
        raise StorageError(
            f"snapshot data section is missing field {exc.args[0]!r}"
        ) from None


def write_snapshot(path: Union[str, Path], document: Dict) -> Path:
    """Atomically write a snapshot ``document`` to ``path``.

    The document is stamped with the format version and kind marker.
    Large canonical payloads (>= :data:`BINARY_PAYLOAD_THRESHOLD`
    slots, NumPy present) are written to an atomic ``.npy`` sidecar
    *before* the JSON document that references it, so a reader that
    sees the document is guaranteed to find the payload.  The
    temp-write / fsync / rename / directory-fsync dance guarantees
    readers only ever observe complete files.
    """
    path = Path(path)
    document = dict(document)
    document["format_version"] = SNAPSHOT_FORMAT_VERSION
    document["kind"] = SNAPSHOT_KIND
    data = document.get("data")
    if (
        isinstance(data, dict)
        and isinstance(data.get("canonical"), list)
        and len(data["canonical"]) >= BINARY_PAYLOAD_THRESHOLD
        and numpy_available()
    ):
        import numpy as np

        payload_path = path.with_suffix(".npy")
        # Column-major on disk: a later mmap's per-column slices are
        # contiguous and its transposed kernel view is zero-copy.
        matrix = np.asfortranarray(
            np.asarray(data["canonical"], dtype=np.float64)
        )
        tmp = payload_path.parent / (payload_path.name + ".tmp")
        with open(tmp, "wb") as handle:
            np.save(handle, matrix, allow_pickle=False)
            handle.flush()
            os.fsync(handle.fileno())
        fault = faults.draw("snapshot.sidecar")
        if fault is not None:
            if fault.kind == "slow":
                time.sleep(fault.delay)
            else:
                # The fsync'd sidecar never reaches its final name - the
                # document referencing it must not be written either.
                raise OSError(
                    f"injected: cannot publish sidecar {payload_path}"
                )
        os.replace(tmp, payload_path)
        # Persist the sidecar's *directory entry* before the document
        # that references it: without this fsync a crash could publish
        # a document pointing at a file that never existed.
        fsync_directory(payload_path.parent)
        data = dict(data)
        data["canonical"] = {
            "npy": payload_path.name,
            "dtype": "float64",
            "order": "F",
            "rows": int(matrix.shape[0]),
        }
        document["data"] = data
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    fault = faults.draw("snapshot.rename")
    if fault is not None:
        if fault.kind == "slow":
            time.sleep(fault.delay)
        else:
            # The fully written tmp file never makes it onto the final
            # name - a crash at the worst checkpoint instant.
            raise OSError(f"injected: cannot rename {tmp} into place")
    os.replace(tmp, path)
    fsync_directory(path.parent)
    return path


def read_snapshot(path: Union[str, Path], mmap: object = None) -> Dict:
    """Load and validate one snapshot document (resolving any sidecar).

    How a ``.npy`` canonical payload comes back depends on the mmap
    tier (``mmap=`` argument, else :data:`MMAP_ENV`, default ``auto``):

    * ``auto``/``require`` with NumPy - ``data["canonical"]`` is a
      *borrowed* :class:`~repro.core.colstore.BorrowedColumnStore`
      mapping the sidecar read-only; nothing is decoded.  The caller
      (transitively, whoever keeps the restored dataset) owns the
      store's file handle and must close it on retirement.
    * ``off``, or ``auto`` without NumPy - the payload is eagerly
      decoded back into typed row lists (nominal ids as ints), the
      pre-v2 behaviour.
    * ``require`` raises when a sidecar exists but cannot be mapped
      (inline payloads always pass - there is nothing to map).
    """
    path = Path(path)
    mode = resolve_mmap_mode(mmap)
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise StorageError(
            f"snapshot {path} is not valid JSON: {exc}"
        ) from None
    _validate_header(document, path)
    data = document.get("data")
    if isinstance(data, dict) and isinstance(data.get("canonical"), dict):
        ref = data["canonical"]
        payload_path = path.parent / ref.get("npy", "")
        schema = schema_from_fingerprint(data["schema"])
        if mode != "off" and numpy_available():
            expected = ref.get("rows", data.get("slots"))
            try:
                data["canonical"] = BorrowedColumnStore(
                    payload_path,
                    schema.nominal_indices,
                    len(schema),
                    expected_rows=(
                        int(expected) if expected is not None else None
                    ),
                )
            except StorageError:
                if mode == "require":
                    raise
                # auto: some filesystems refuse mmap; the eager load
                # below still works (or raises its own clear error).
                data["canonical"] = _load_payload(payload_path, schema)
        elif mode == "require":
            raise StorageError(
                f"mmap mode 'require' ({MMAP_ENV}) but snapshot payload "
                f"{payload_path} cannot be mapped: NumPy is unavailable"
            )
        else:
            data["canonical"] = _load_payload(payload_path, schema)
    return document


def _validate_header(document: object, path: Path) -> None:
    """Reject non-snapshot documents and unknown format versions."""
    if not isinstance(document, dict) or document.get("kind") != SNAPSHOT_KIND:
        raise StorageError(f"{path} is not a repro snapshot document")
    if document.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
        raise StorageError(
            f"unsupported snapshot format "
            f"{document.get('format_version')!r} in {path} "
            f"(expected one of {SUPPORTED_FORMAT_VERSIONS})"
        )


def read_snapshot_header(path: Union[str, Path]) -> Dict:
    """Schema/version/counters of a snapshot *without* its payload.

    Returns the document with ``data["canonical"]`` (and the liveness
    detail) replaced by summary counters: ``slots`` and ``dead`` work
    for both format versions.  A sidecar is never opened, so this is
    safe (and cheap) for probing many generations - the
    :class:`~repro.storage.store.DurableStore` recovery scan and
    replication lag reporting use it instead of full loads.
    """
    path = Path(path)
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise StorageError(
            f"snapshot {path} is not valid JSON: {exc}"
        ) from None
    _validate_header(document, path)
    data = document.get("data")
    if isinstance(data, dict):
        summary = {
            key: value
            for key, value in data.items()
            if key not in ("canonical", "alive", "dead_ids")
        }
        alive = data.get("alive")
        if "slots" not in summary and isinstance(alive, list):  # v1
            summary["slots"] = len(alive)
            summary["dead"] = sum(1 for flag in alive if not flag)
        else:
            summary["dead"] = len(data.get("dead_ids", ()))
        document = dict(document)
        document["data"] = summary
    return document


def _load_payload(payload_path: Path, schema: Schema) -> List[list]:
    """Load a ``.npy`` canonical sidecar back into typed row lists."""
    if not numpy_available():
        raise StorageError(
            f"snapshot payload {payload_path} is a NumPy .npy file; "
            f"loading it requires NumPy in this environment"
        )
    import numpy as np

    try:
        matrix = np.load(payload_path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise StorageError(
            f"cannot read snapshot payload {payload_path}: {exc}"
        ) from None
    if matrix.ndim != 2 or matrix.shape[1] != len(schema):
        raise StorageError(
            f"snapshot payload {payload_path} has shape {matrix.shape}, "
            f"expected (slots, {len(schema)})"
        )
    rows = matrix.tolist()
    for dim in schema.nominal_indices:
        for row in rows:
            row[dim] = int(row[dim])
    return rows


def fsync_directory(directory: Path) -> None:
    """Persist a rename/creation by fsyncing its directory.

    Without this, a crash can lose the *directory entry* of a file
    whose data blocks were themselves fsync'd - the file simply never
    existed as far as recovery is concerned.  No-op on platforms that
    refuse to open directories.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
