"""HTTP front end for the tree forest, plus its client.

Both halves are built from one route table, :data:`SERVE_ROUTES`, over
the shared transport of :mod:`repro.common.wire`.  All bodies are JSON;
data bytes travel hex-encoded.

=======  ==========================  =======================================
verb     path                        meaning
=======  ==========================  =======================================
GET      ``/``                       service status
GET      ``/tenants``                sorted tenant names
POST     ``/tenants``                create a tenant (TenantConfig fields)
DELETE   ``/t/<name>``               evict a tenant
POST     ``/t/<name>/read``          verified read
POST     ``/t/<name>/readv``         vectored verified read (one walk)
POST     ``/t/<name>/write``         verified write
POST     ``/t/<name>/read_unchecked``   ReadWithoutChecking (Section 5.7)
POST     ``/t/<name>/write_unchecked``  raw DMA-style store
POST     ``/t/<name>/unprotect``     unprotect_range before DMA
POST     ``/t/<name>/rebuild``       rebuild_range after DMA
GET      ``/t/<name>/stats``         walk/batch counters
=======  ==========================  =======================================

Handlers pass the request's JSON values to the tenant's verifier as
they are, so the verifier's own checks answer bad input.  Every error
answer is ``{"error": str, "kind": str}``, and :class:`ServeClient`
re-raises the exception class the kind stands for
(:data:`repro.common.wire.KINDS`) — the exact type a direct
:class:`MemoryVerifier` call would have raised.
"""

from __future__ import annotations

from http.server import ThreadingHTTPServer
from typing import List, Tuple

from ..common.errors import ConfigurationError, IntegrityError, SecureModeError
from ..common.wire import (
    BAD_INPUT,
    HttpChannel,
    Route,
    WireHandler,
    error_for,
    make_server,
    route_table,
)
from .forest import TenantConfig, TreeForest


class ServeError(OSError):
    """Transport/protocol failure talking to a serve front end."""


class _ServeHandler(WireHandler):
    """Request handler bound to one server's :class:`TreeForest`."""

    server_version = "repro-serve/1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.dispatch()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.dispatch()

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.dispatch()


# -- handlers ------------------------------------------------------------------

def _as_bytes(value) -> bytes:
    if not isinstance(value, str):
        raise TypeError("expected hex-encoded data")
    return bytes.fromhex(value)


def _status(server) -> dict:
    return {"service": "repro-serve", "tenants": len(server.forest)}


def _tenants(server) -> dict:
    return {"tenants": server.forest.names()}


def _create_tenant(server, config) -> dict:
    config = TenantConfig.from_dict(config)
    server.forest.create(config)
    return {"created": config.name}


def _evict(server, tenant) -> None:
    server.forest.evict(tenant)


def _read(server, tenant, address, length) -> dict:
    data = server.forest.get(tenant).batcher.read(address, length)
    return {"data": data.hex()}


def _readv(server, tenant, spans) -> dict:
    results = server.forest.get(tenant).batcher.read_many(spans)
    return {"data": [r.hex() for r in results]}


def _write(server, tenant, address, data) -> None:
    server.forest.get(tenant).verifier.write(address, _as_bytes(data))


def _read_unchecked(server, tenant, address, length) -> dict:
    verifier = server.forest.get(tenant).verifier
    return {"data": verifier.read_without_checking(address, length).hex()}


def _write_unchecked(server, tenant, address, data) -> None:
    server.forest.get(tenant).verifier.write_without_checking(
        address, _as_bytes(data))


def _unprotect(server, tenant, address, length) -> None:
    server.forest.get(tenant).verifier.unprotect_range(address, length)


def _rebuild(server, tenant, address, length) -> None:
    server.forest.get(tenant).verifier.rebuild_range(address, length)


def _stats(server, tenant) -> dict:
    tenant = server.forest.get(tenant)
    stats = dict(tenant.verifier.walk_counters())
    stats.update(tenant.batcher.counters())
    return stats


#: a tenant operation's errors: the ones a direct verifier call raises.
_TENANT_ERRORS = {KeyError: "unknown-tenant",
                  SecureModeError: "secure-mode",
                  IntegrityError: "integrity",
                  **BAD_INPUT}


def _op(name: str, handler, fields: Tuple[str, ...],
        status: int = 200) -> Route:
    return Route(name, "POST", f"/t/{{tenant}}/{name}", handler, fields,
                 errors=_TENANT_ERRORS, status=status)


_SPAN = ("address", "length")
_DATA = ("address", "data")

SERVE_ROUTES = route_table(
    Route("status", "GET", "/", _status, health=True),
    Route("tenants", "GET", "/tenants", _tenants),
    Route("create_tenant", "POST", "/tenants", _create_tenant,
          body="config", status=201,
          errors={KeyError: "tenant-exists",
                  ConfigurationError: "bad-request", **BAD_INPUT}),
    Route("evict", "DELETE", "/t/{tenant}", _evict, status=204,
          errors={KeyError: "unknown-tenant"}),
    _op("read", _read, _SPAN),
    _op("readv", _readv, ("spans",)),
    _op("write", _write, _DATA, status=204),
    _op("read_unchecked", _read_unchecked, _SPAN),
    _op("write_unchecked", _write_unchecked, _DATA, status=204),
    _op("unprotect", _unprotect, _SPAN, status=204),
    _op("rebuild", _rebuild, _SPAN, status=204),
    Route("stats", "GET", "/t/{tenant}/stats", _stats,
          errors={KeyError: "unknown-tenant"}),
)


def make_serve_server(forest: TreeForest, host: str = "127.0.0.1",
                      port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` front end; ``port=0`` picks a free one."""
    return make_server(_ServeHandler, SERVE_ROUTES, host, port, forest=forest)


class ServeClient:
    """Client for the serve protocol over one keep-alive channel.

    Raises the same exception types a direct :class:`MemoryVerifier`
    would: ``SecureModeError`` for discipline violations,
    ``IntegrityError`` for detected tamper, ``ValueError`` for bad
    spans — so callers can swap a local verifier for a remote tenant
    without changing their error handling.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.channel = HttpChannel(base_url, timeout=timeout)
        self.base_url = self.channel.base_url

    def close(self) -> None:
        self.channel.close()

    def _call(self, name: str, **values) -> dict:
        request = SERVE_ROUTES[name].request(**values)
        try:
            response = self.channel.request(*request)
        except OSError as err:
            raise ServeError(f"serve front end unreachable: {err}") from err
        if response.status >= 400:
            raise error_for(response, ServeError)
        data = response.json()
        return data if isinstance(data, dict) else {}

    # -- protocol ----------------------------------------------------------

    def status(self) -> dict:
        return self._call("status")

    def tenants(self) -> List[str]:
        return list(self._call("tenants").get("tenants", []))

    def create_tenant(self, config: TenantConfig) -> None:
        self._call("create_tenant", config=config.to_dict())

    def evict(self, tenant: str) -> None:
        self._call("evict", tenant=tenant)

    def read(self, tenant: str, address: int, length: int) -> bytes:
        data = self._call("read", tenant=tenant, address=address,
                          length=length)
        return bytes.fromhex(data.get("data", ""))

    def readv(self, tenant: str,
              spans: List[Tuple[int, int]]) -> List[bytes]:
        data = self._call("readv", tenant=tenant,
                          spans=[[a, n] for a, n in spans])
        return [bytes.fromhex(item) for item in data.get("data", [])]

    def write(self, tenant: str, address: int, data: bytes) -> None:
        self._call("write", tenant=tenant, address=address, data=data.hex())

    def read_unchecked(self, tenant: str, address: int,
                       length: int) -> bytes:
        data = self._call("read_unchecked", tenant=tenant, address=address,
                          length=length)
        return bytes.fromhex(data.get("data", ""))

    def write_unchecked(self, tenant: str, address: int,
                        data: bytes) -> None:
        self._call("write_unchecked", tenant=tenant, address=address,
                   data=data.hex())

    def unprotect(self, tenant: str, address: int, length: int) -> None:
        self._call("unprotect", tenant=tenant, address=address,
                   length=length)

    def rebuild(self, tenant: str, address: int, length: int) -> None:
        self._call("rebuild", tenant=tenant, address=address, length=length)

    def stats(self, tenant: str) -> dict:
        return self._call("stats", tenant=tenant)
