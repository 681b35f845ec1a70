"""JSON codecs between wire payloads and serving-layer objects.

The wire protocol (documented for operators in ``docs/serving.md``) is
deliberately dumb: one JSON object per request body, one per response
body.  This module is the *only* place where wire dicts and domain
objects (:class:`~repro.core.preferences.Preference`,
:class:`~repro.serve.service.ServeResult`, ...) convert into each
other, so the server and every client/test share a single vocabulary.

Preferences travel in the same attribute->chain dict form snapshots
use (:func:`repro.storage.snapshot.preference_to_dict`), with
one convenience: a chain may also be spelled as the DNF-ish string form
``"H < T < *"`` that :meth:`ImplicitPreference.parse` accepts.  The
partial-order semantics are unchanged on the wire: values a chain does
not list stay mutually incomparable.

Decoding is strict - unknown fields, wrong types and malformed chains
raise :class:`CodecError` (the server answers ``400``); semantically
invalid but well-formed payloads (a preference that violates the
schema or template) surface as the library's own
:class:`~repro.exceptions.PreferenceError` and map to ``422``.  The
hypothesis property in ``tests/test_net_protocol.py`` pins
``decode(encode(x)) == x`` for both directions.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.preferences import ImplicitPreference, Preference
from repro.exceptions import PreferenceError
from repro.net.http import NetError
from repro.serve.service import BatchReport, ServeResult, UpdateReport


class CodecError(NetError):
    """A request body that does not follow the wire protocol."""


def parse_json_body(body: bytes) -> dict:
    """Decode a request body into one JSON object (strictly a dict)."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CodecError(f"request body is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CodecError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CodecError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _check_fields(payload: dict, allowed: Sequence[str], where: str) -> None:
    """Reject unknown fields loudly (typos must not silently no-op)."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise CodecError(
            f"unknown field(s) {unknown} in {where}; allowed: "
            f"{sorted(allowed)}"
        )


def decode_preference(value: object) -> Optional[Preference]:
    """A wire preference: ``None`` or ``{attribute: chain}``.

    Each chain is a list of values (``["H", "T"]``) or the string form
    (``"H < T"``).  An empty dict is the empty preference.
    """
    if value is None:
        return None
    if not isinstance(value, dict):
        raise CodecError(
            f"preference must be null or an object mapping attributes to "
            f"chains, got {type(value).__name__}"
        )
    chains: Dict[str, ImplicitPreference] = {}
    for name, chain in value.items():
        if not isinstance(name, str):
            raise CodecError(f"attribute name must be a string, got {name!r}")
        if not isinstance(chain, (str, list)):
            raise CodecError(
                f"chain for attribute {name!r} must be a list of values "
                f"or a string, got {type(chain).__name__}"
            )
        try:
            chains[name] = (
                ImplicitPreference.parse(chain)
                if isinstance(chain, str)
                else ImplicitPreference(tuple(chain))
            )
        except (PreferenceError, TypeError) as exc:
            # TypeError covers unhashable JSON values (nested lists);
            # both are wire-shape problems, not semantic ones.
            raise CodecError(
                f"bad chain for attribute {name!r}: {exc}"
            ) from None
    return Preference(chains)


def encode_preference(preference: Optional[Preference]) -> Optional[dict]:
    """Inverse of :func:`decode_preference` (list-form chains)."""
    if preference is None:
        return None
    return {
        name: list(chain.choices) for name, chain in preference.items()
    }


def decode_query(payload: dict) -> Tuple[Optional[Preference], bool, Optional[str]]:
    """``/query`` body -> (preference, use_cache, forced route)."""
    _check_fields(payload, ("preference", "use_cache", "route"), "query")
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise CodecError(
            f"use_cache must be a boolean, got {use_cache!r}"
        )
    route = payload.get("route")
    if route is not None and not isinstance(route, str):
        raise CodecError(f"route must be null or a string, got {route!r}")
    return decode_preference(payload.get("preference")), use_cache, route


def decode_batch(payload: dict) -> Tuple[List[Optional[Preference]], bool]:
    """``/batch`` body -> (positional preferences, use_cache)."""
    _check_fields(payload, ("preferences", "use_cache"), "batch")
    prefs = payload.get("preferences")
    if not isinstance(prefs, list):
        raise CodecError(
            f"batch body needs a 'preferences' list, got "
            f"{type(prefs).__name__}"
        )
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise CodecError(f"use_cache must be a boolean, got {use_cache!r}")
    return [decode_preference(p) for p in prefs], use_cache


def decode_insert(payload: dict) -> List[Tuple[object, ...]]:
    """``/insert`` body -> row tuples (schema validation is the service's)."""
    _check_fields(payload, ("rows",), "insert")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not all(
        isinstance(row, list) for row in rows
    ):
        raise CodecError("insert body needs 'rows': a list of value lists")
    return [tuple(row) for row in rows]


def decode_delete(payload: dict) -> List[int]:
    """``/delete`` body -> point id list."""
    _check_fields(payload, ("ids",), "delete")
    ids = payload.get("ids")
    if not isinstance(ids, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in ids
    ):
        raise CodecError("delete body needs 'ids': a list of integers")
    return list(ids)


#: Default / maximum window sizes a ``/replication/wal`` request may ask
#: for: the default keeps one response comfortably under the request
#: deadline even on a slow link; the cap stops a follower from asking
#: the primary to materialise an unbounded response in memory.
REPLICATION_WINDOW_DEFAULT_BYTES = 256 * 1024
REPLICATION_WINDOW_MAX_BYTES = 4 * 1024 * 1024


def decode_replication_wal(payload: dict) -> Tuple[int, int, int]:
    """``/replication/wal`` body -> (base version, offset, max_bytes)."""
    _check_fields(
        payload, ("base", "offset", "max_bytes"), "replication/wal"
    )
    base = payload.get("base")
    offset = payload.get("offset")
    for name, value in (("base", base), ("offset", offset)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CodecError(
                f"replication/wal needs '{name}': a non-negative integer, "
                f"got {value!r}"
            )
    max_bytes = payload.get("max_bytes", REPLICATION_WINDOW_DEFAULT_BYTES)
    if (
        not isinstance(max_bytes, int)
        or isinstance(max_bytes, bool)
        or max_bytes < 1
    ):
        raise CodecError(
            f"replication/wal 'max_bytes' must be a positive integer, "
            f"got {max_bytes!r}"
        )
    return base, offset, min(max_bytes, REPLICATION_WINDOW_MAX_BYTES)


def decode_replication_snapshot(payload: dict) -> None:
    """``/replication/snapshot`` body: no fields (reject any typo)."""
    _check_fields(payload, (), "replication/snapshot")


def encode_serve_result(result: ServeResult) -> dict:
    """One served query as a wire object (the ``/query`` response)."""
    return {
        "ids": list(result.ids),
        "route": result.route,
        "reason": result.reason,
        "cached": result.cached,
        "seconds": result.seconds,
        "version": result.version,
    }


def decode_serve_result(payload: dict) -> dict:
    """Validate a ``/query`` response body (client-side helper).

    Returns the payload with ``ids`` normalised to a sorted tuple -
    enough for clients and the round-trip property test; the full
    :class:`ServeResult` (cache key and all) never travels.
    """
    _check_fields(
        payload,
        ("ids", "route", "reason", "cached", "seconds", "version"),
        "query response",
    )
    ids = payload.get("ids")
    if not isinstance(ids, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in ids
    ):
        raise CodecError("query response needs 'ids': a list of integers")
    out = dict(payload)
    out["ids"] = tuple(ids)
    return out


def encode_update_report(report: UpdateReport) -> dict:
    """One applied mutation batch as a wire object."""
    return {
        "kind": report.kind,
        "point_ids": list(report.point_ids),
        "version": report.version,
        "skyline_entered": list(report.skyline_entered),
        "skyline_evicted": list(report.skyline_evicted),
        "cache_retained": report.cache_retained,
        "cache_patched": report.cache_patched,
        "cache_invalidated": report.cache_invalidated,
        "seconds": report.seconds,
    }


def encode_batch_report(report: BatchReport) -> dict:
    """One evaluated batch as a wire object (positional results)."""
    return {
        "results": [encode_serve_result(r) for r in report.results],
        "unique_queries": report.unique_queries,
        "duplicate_queries": report.duplicate_queries,
        "cache_hits": report.cache_hits,
        "seconds": report.seconds,
    }


def encode_error(status: int, kind: str, detail: str) -> bytes:
    """The uniform JSON error body every failure path answers with."""
    return json.dumps(
        {"error": {"status": status, "kind": kind, "detail": detail}}
    ).encode("utf-8")


def dump_body(payload: object) -> bytes:
    """Serialize a response payload (compact separators, UTF-8)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")
