"""Network serving layer: an asyncio HTTP/JSON front end for the service.

This package puts :class:`repro.serve.service.SkylineService` behind a
socket.  It is stdlib-only (asyncio streams plus a minimal HTTP/1.1
parser) and splits into small, separately testable pieces:

* :mod:`repro.net.http` - wire framing: request parsing with byte/time
  limits, response rendering, :class:`~repro.net.http.ProtocolError`.
* :mod:`repro.net.protocol` - JSON codecs between wire payloads and
  service types (preferences, results, reports),
  :class:`~repro.net.protocol.CodecError`.
* :mod:`repro.net.config` - :class:`~repro.net.config.ServerConfig`,
  the hot-reloadable JSON service config and its merge rules.
* :mod:`repro.net.admission` - the bounded inflight + queue gate that
  sheds load with ``429`` before it reaches the executor.
* :mod:`repro.net.metrics` - the in-process counter/gauge/histogram
  registry with Prometheus text exposition.
* :mod:`repro.net.server` - :class:`~repro.net.server.SkylineServer`
  (the asyncio server: routing, deadlines, drain, reload, access logs)
  and :class:`~repro.net.server.ServerThread` (a background-thread
  harness for tests and benchmarks).
* :mod:`repro.net.client` - :class:`~repro.net.client.NetClient`, the
  blocking reference client used by tests, benchmarks, and the smoke.
* :mod:`repro.net.resilient` - the production client wrapper: capped
  full-jitter retries honouring ``Retry-After``, idempotency-keyed
  mutation retry, and a consecutive-failure circuit breaker.
* :mod:`repro.net.idempotency` - the server-side bounded dedup window
  that makes keyed mutation retries exactly-once within the window.

Entry point: ``python -m repro.net``, the one server CLI.  Its service
flags are the workload CLI's (``python -m repro.serve``), declared once
in :func:`repro.serve.__main__.add_service_arguments`.  The wire
protocol, status-code contract, metrics catalog and reload semantics
are documented in ``docs/serving.md``.
"""

from repro.net.admission import AdmissionController, AdmissionDecision
from repro.net.client import (
    NetClient,
    NetRequestError,
    NetResponse,
    parse_listen,
    parse_retry_after,
)
from repro.net.config import (
    RELOADABLE_FIELDS,
    ConfigError,
    ServerConfig,
    config_from_dict,
    load_config,
)
from repro.net.http import (
    HttpRequest,
    NetError,
    ProtocolError,
    ReadLimits,
    read_request,
    render_response,
)
from repro.net.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.net.idempotency import IdempotencyIndex, ReservationOutcome
from repro.net.protocol import CodecError
from repro.net.resilient import (
    CircuitBreaker,
    CircuitOpenError,
    ResilientClient,
    RetriesExhausted,
    RetryPolicy,
)
from repro.net.server import ROUTE_TABLE, ServerThread, SkylineServer

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "CircuitOpenError",
    "CodecError",
    "ConfigError",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "HttpRequest",
    "IdempotencyIndex",
    "MetricsRegistry",
    "NetClient",
    "NetError",
    "NetRequestError",
    "NetResponse",
    "ProtocolError",
    "ReadLimits",
    "RELOADABLE_FIELDS",
    "ROUTE_TABLE",
    "ReservationOutcome",
    "ResilientClient",
    "RetriesExhausted",
    "RetryPolicy",
    "ServerConfig",
    "ServerThread",
    "SkylineServer",
    "config_from_dict",
    "load_config",
    "parse_listen",
    "parse_retry_after",
    "read_request",
    "render_response",
]
