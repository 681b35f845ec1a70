"""The JSON service config's per-field type checks and reload subset.

The checks are read off :class:`ServerConfig`'s annotations; these
tests pin, field by field, that each default round-trips through
``config_from_dict`` and that wrong JSON types (a ``bool`` where a
number is expected included) fail with the documented message.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.net import RELOADABLE_FIELDS, ConfigError, ServerConfig
from repro.net.config import config_from_dict

FIELDS = dataclasses.fields(ServerConfig)

#: The JSON type each field's error message names.
EXPECTED = {
    "host": "string",
    "port": "integer",
    "max_inflight": "integer",
    "max_queue": "integer",
    "request_timeout": "number",
    "read_timeout": "number",
    "idle_timeout": "number",
    "max_body_bytes": "integer",
    "max_header_bytes": "integer",
    "worker_threads": "integer",
    "retry_after_seconds": "integer",
    "idempotency_window": "integer",
    "cache_capacity": "integer or null",
    "planner": "object",
    "access_log": "boolean",
}

#: Wrong-typed JSON values per expected type.
WRONG = {
    "string": [1, None, ["h"]],
    "integer": [True, 1.5, "8", None],
    "number": [True, "1.0", None],
    "integer or null": [False, 2.0, "x"],
    "object": [[], "x", None],
    "boolean": [1, "true", None],
}


def default_of(f: dataclasses.Field):
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


def test_every_field_has_an_expected_type():
    assert [f.name for f in FIELDS] == list(EXPECTED)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_field_accepts_its_default(f):
    assert config_from_dict({f.name: default_of(f)}) == ServerConfig()


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_field_rejects_wrong_types(f):
    expected = EXPECTED[f.name]
    for value in WRONG[expected]:
        message = (
            f"service.json.{f.name} has the wrong type: expected "
            f"{expected}, got {type(value).__name__} ({value!r})"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict({f.name: value}, where="service.json")


def test_ints_pass_where_numbers_are_expected():
    assert config_from_dict({"request_timeout": 2}).request_timeout == 2


def test_reloadable_fields_are_all_but_the_listen_address():
    assert set(RELOADABLE_FIELDS) == {f.name for f in FIELDS} - {"host", "port"}
    assert len(RELOADABLE_FIELDS) == len(FIELDS) - 2
