"""One route table under both HTTP servers and their clients.

The sweep coordinator (``repro store-serve``) and the verification
service (``repro serve``) speak one transport: HTTP/1.1 keep-alive with
TCP_NODELAY on both ends, JSON bodies, gzip for any body of
:data:`GZIP_MIN_BYTES` or more, and every error answered as JSON
``{"error": message, "kind": kind}``.  This module is the only copy of
that transport:

* :class:`Route` — one endpoint: verb, path pattern, declared body or
  query fields, handler, and which exceptions the handler raises as
  which error kind;
* :class:`WireHandler` — the request handler both servers subclass.  It
  matches the route, reads and checks the body, calls the handler and
  encodes the answer; anything the route does not map is a 500
  ``internal`` answer, so no request ends in a dropped connection;
* :class:`HttpChannel` — the clients' keep-alive channel.  A client
  builds each request with :meth:`Route.request` and turns an error
  answer back into its exception with :func:`error_for`;
* :func:`check_routes` — the table's self-consistency check.
"""

from __future__ import annotations

import gzip
import http.client
import inspect
import json
import logging
import socket
import threading
import zlib
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)
from urllib.parse import parse_qsl, quote, unquote, urlencode, urlsplit

from .errors import IntegrityError, SecureModeError

logger = logging.getLogger(__name__)

#: bodies at or above this size are gzip-compressed on the wire (both
#: directions).  Cell entries are a few tens of KB of highly repetitive
#: JSON, so this saves ~10x on the bulk transfers while leaving small
#: control messages untouched.
GZIP_MIN_BYTES = 4096

#: upper bound on a request body after decompression: a cell entry is a
#: few tens of KB, a seed request or a hex-encoded tenant write a few MB.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: error kind -> (HTTP status, the exception a client raises for it).
KINDS: Dict[str, Tuple[int, type]] = {
    "bad-request": (400, ValueError),
    "bad-type": (400, TypeError),
    "secure-mode": (403, SecureModeError),
    "not-found": (404, LookupError),
    "unknown-tenant": (404, KeyError),
    "integrity": (409, IntegrityError),
    "tenant-exists": (409, KeyError),
    "length-required": (411, ValueError),
    "too-large": (413, ValueError),
    "internal": (500, RuntimeError),
}

#: the error map most routes share: the caller's bad input.
BAD_INPUT: Dict[type, str] = {TypeError: "bad-type", ValueError: "bad-request"}


@dataclass
class Route:
    """One endpoint of a route table.

    The handler is called as ``handler(server, **path_params, **fields)``;
    a route with ``body`` instead passes the whole JSON object as that one
    argument.  It returns the JSON-able answer (``None`` for an empty
    one, ``bytes`` for an already-encoded one), or ``(status, answer)``
    when the status is not the route's ``status``.
    """

    #: the client call that issues this request.
    name: str
    method: str
    #: ``/literal/{param}/...``; a ``{param}`` matches one path segment.
    path: str
    handler: Callable[..., object]
    #: body keys (query keys for a GET) the handler takes as arguments.
    fields: Tuple[str, ...] = ()
    #: the argument that receives the whole body object, if any.
    body: Optional[str] = None
    #: exception class -> error kind, tried in order.
    errors: Mapping[type, str] = field(default_factory=dict)
    #: the success status.
    status: int = 200
    #: a status endpoint for people and probes: no client calls it.
    health: bool = False
    segments: Tuple[str, ...] = field(init=False)
    params: Tuple[str, ...] = field(init=False)
    required: frozenset = field(init=False)

    def __post_init__(self) -> None:
        self.segments = tuple(self.path.strip("/").split("/"))
        self.params = tuple(s[1:-1] for s in self.segments if s[:1] == "{")
        self.required = frozenset(
            name for name, p in _parameters(self.handler).items()
            if name in self.fields and p.default is inspect.Parameter.empty)

    def match(self, method: str, segments: List[str]
              ) -> Optional[Dict[str, str]]:
        """The path parameters when this route serves the request."""
        if method != self.method or len(segments) != len(self.segments):
            return None
        params = {}
        for want, got in zip(self.segments, segments):
            if want[:1] == "{":
                params[want[1:-1]] = got
            elif want != got:
                return None
        for name, value in params.items():
            params[name] = unquote(value)
        return params

    def request(self, **values) -> Tuple[str, str, Optional[bytes]]:
        """``(method, path, body)`` of the request carrying ``values``.

        A value the route does not declare is a ``TypeError``, as for a
        function call with an unknown keyword.
        """
        declared = set(self.params) | set(self.fields) | {self.body}
        undeclared = sorted(set(values) - declared)
        if undeclared:
            raise TypeError(f"{self.name} does not declare {undeclared}")
        try:
            path = "/" + "/".join(
                quote(str(values.pop(s[1:-1])), safe="") if s[:1] == "{"
                else s for s in self.segments)
            payload = values if self.body is None else values[self.body]
        except KeyError as err:
            raise TypeError(f"{self.name} needs {err}") from None
        if self.method == "GET":
            return self.method, path + ("?" + urlencode(payload)
                                        if payload else ""), None
        if self.body is None and not payload:
            return self.method, path, None
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return self.method, path, body


def route_table(*routes: Route) -> Dict[str, Route]:
    """Routes by client call name."""
    return {route.name: route for route in routes}


class RequestError(Exception):
    """A request the transport itself refuses, before any handler runs."""

    def __init__(self, kind: str, message: str, fatal: bool = False):
        super().__init__(message)
        self.kind = kind
        #: the unread body is still in the socket: close the connection.
        self.fatal = fatal


def _parameters(handler: Callable) -> Dict[str, inspect.Parameter]:
    """The handler's parameters after the leading ``server``."""
    return dict(list(inspect.signature(handler).parameters.items())[1:])


# --------------------------------------------------------------------------
# server half
# --------------------------------------------------------------------------

class WireHandler(BaseHTTPRequestHandler):
    """Routes requests through ``self.server.routes``.

    Subclasses set ``server_version`` and map each verb they serve to
    :meth:`dispatch`.
    """

    protocol_version = "HTTP/1.1"
    #: responses are header+body writes; without this, Nagle + delayed
    #: ACK stalls every keep-alive exchange by ~40 ms.
    disable_nagle_algorithm = True

    def dispatch(self) -> None:
        route = None
        try:
            route, arguments = self._bind()
            answer = route.handler(self.server, **arguments)
        except Exception as err:  # noqa: BLE001 - every error is answered
            self._send_error(err, route)
            return
        if isinstance(answer, tuple):
            self._send(*answer)
        else:
            self._send(route.status, answer)

    def _bind(self) -> Tuple[Route, dict]:
        path, _, query = self.path.partition("?")
        segments = path.strip("/").split("/")
        body = self._read_body()
        for route in self.server.routes:  # type: ignore[attr-defined]
            arguments = route.match(self.command, segments)
            if arguments is not None:
                break
        else:
            raise RequestError("not-found", f"no route for "
                               f"{self.command} {path}")
        if self.command == "GET":
            payload: object = dict(parse_qsl(query))
        else:
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, RecursionError) as err:
                raise RequestError("bad-request",
                                   f"unparseable body: {err}") from None
            if not isinstance(payload, dict):
                raise RequestError("bad-request",
                                   "body must be a JSON object")
        if route.body is not None:
            arguments[route.body] = payload
            return route, arguments
        unknown = sorted(set(payload) - set(route.fields))
        missing = sorted(route.required - set(payload))
        if unknown or missing:
            raise RequestError("bad-request", f"unknown fields {unknown}, "
                               f"missing fields {missing}")
        arguments.update(payload)
        return route, arguments

    def _read_body(self) -> bytes:
        """The request body, gunzipped; every byte of it is consumed."""
        length = self.headers.get("Content-Length")
        if length is None and "Transfer-Encoding" in self.headers:
            raise RequestError("length-required", "length required",
                               fatal=True)
        try:
            size = int(length or 0)
        except ValueError:
            raise RequestError("length-required", "bad Content-Length",
                               fatal=True) from None
        if not 0 <= size <= MAX_BODY_BYTES:
            raise RequestError("too-large", "body too large", fatal=True)
        body = self.rfile.read(size)
        if self.headers.get("Content-Encoding") == "gzip":
            inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)
            try:
                body = inflate.decompress(body, MAX_BODY_BYTES + 1)
            except zlib.error:
                raise RequestError("bad-request", "bad gzip body") from None
            if len(body) > MAX_BODY_BYTES:
                raise RequestError("too-large", "body too large")
            if not inflate.eof:
                raise RequestError("bad-request", "truncated gzip body")
        return body

    def _send_error(self, err: Exception, route: Optional[Route]) -> None:
        if isinstance(err, RequestError):
            kind = err.kind
            if err.fatal:
                self.close_connection = True
        else:
            errors = route.errors if route is not None else {}
            kind = next((kind for cls, kind in errors.items()
                         if isinstance(err, cls)), "internal")
            if kind == "internal":
                logger.error("%s %s failed", self.command, self.path,
                             exc_info=err)
        self._send(KINDS[kind][0], {"error": str(err), "kind": kind})

    def _send(self, status: int, answer: object = None) -> None:
        if answer is None:
            body = b""
        elif isinstance(answer, bytes):
            body = answer
        else:
            body = json.dumps(answer, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        if body:
            self.send_header("Content-Type", "application/json")
            if len(body) >= GZIP_MIN_BYTES and \
                    "gzip" in self.headers.get("Accept-Encoding", ""):
                body = gzip.compress(body)
                self.send_header("Content-Encoding", "gzip")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s " + format, self.address_string(), *args)


def make_server(handler: type, routes: Mapping[str, Route], host: str,
                port: int, **context) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` server; ``context`` becomes its
    attributes (what the handlers receive as ``server``)."""
    server = ThreadingHTTPServer((host, port), handler)
    server.routes = tuple(routes.values())  # type: ignore[attr-defined]
    for name, value in context.items():
        setattr(server, name, value)
    return server


# --------------------------------------------------------------------------
# client half
# --------------------------------------------------------------------------

#: connection-level failures a keep-alive client heals by reconnecting
#: once: the server closed the idle socket (RemoteDisconnected /
#: BadStatusLine) or the kernel reset it under us.
_RECONNECT_ERRORS = (http.client.RemoteDisconnected,
                     http.client.BadStatusLine,
                     ConnectionError)


class HttpResponse(NamedTuple):
    """One decoded HTTP exchange: status + already-gunzipped body."""

    status: int
    body: bytes

    def json(self) -> object:
        return json.loads(self.body) if self.body else {}


def error_for(response: HttpResponse, default: type = ValueError
              ) -> Exception:
    """The exception an error answer stands for: its kind's class, or
    ``default`` for an answer without a known kind."""
    try:
        detail = json.loads(response.body)
        kind, message = detail["kind"], detail["error"]
    except (ValueError, KeyError, TypeError):
        kind, message = "", response.body.decode("utf-8", "replace")[:200]
    exception = KINDS[kind][1] if kind in KINDS else default
    return exception(message or f"HTTP {response.status}")


class HttpChannel:
    """One persistent keep-alive connection per thread to one base URL.

    Connections are not thread-safe; thread-local storage makes sharing
    one channel across a pool of workers safe.  A request that meets a
    connection the server already closed (``RemoteDisconnected`` et al.)
    is sent once more on a fresh one.  That resend is safe because a
    :class:`WireHandler` answers every request it reads, errors
    included: a closed connection means the server dropped an idle
    socket (or went away), not that a handler half ran.  Bodies of
    :data:`GZIP_MIN_BYTES` or more go out gzip-compressed, and responses
    are asked for (and decoded) the same way.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme: {base_url!r}")
        self._https = parts.scheme == "https"
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port
        self._prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self._local = threading.local()

    # -- connection lifecycle ---------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            factory = (http.client.HTTPSConnection if self._https
                       else http.client.HTTPConnection)
            conn = factory(self._host, self._port, timeout=self.timeout)
            try:
                # connect eagerly to disable Nagle: header and body go out
                # in separate small writes, and on a keep-alive connection
                # Nagle + delayed ACK turns every request into a ~40 ms
                # stall — slower than reconnecting per request!
                conn.connect()
                if conn.sock is not None:
                    conn.sock.setsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_NODELAY, 1)
            except OSError:
                pass  # surface the failure on the first request instead
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Drop this thread's connection (the next request reconnects)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:  # pragma: no cover - already dead
                pass

    # -- requests ----------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> HttpResponse:
        """One round trip; raises ``OSError`` on any transport failure."""
        headers = {"Accept-Encoding": "gzip"}
        if body is not None:
            headers["Content-Type"] = "application/json"
            if len(body) >= GZIP_MIN_BYTES:
                body = gzip.compress(body)
                headers["Content-Encoding"] = "gzip"
        last_error: Optional[Exception] = None
        for _attempt in range(2):
            conn = self._connection()
            try:
                conn.request(method, self._prefix + path, body=body,
                             headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.getheader("Content-Encoding") == "gzip":
                    data = gzip.decompress(data)
                return HttpResponse(response.status, data)
            except _RECONNECT_ERRORS as err:
                # stale keep-alive socket (or a flaky peer): reconnect
                # once on a fresh connection before giving up
                self.close()
                last_error = err
            except (http.client.HTTPException, OSError) as err:
                self.close()
                raise err if isinstance(err, OSError) \
                    else OSError(f"{type(err).__name__}: {err}")
        raise last_error if isinstance(last_error, OSError) \
            else OSError(f"{type(last_error).__name__}: {last_error}")


# --------------------------------------------------------------------------
# the table's self-consistency check
# --------------------------------------------------------------------------

def _constants(code) -> Iterable[object]:
    for value in code.co_consts:
        if inspect.iscode(value):
            yield from _constants(value)
        else:
            yield value


def check_routes(routes: Mapping[str, Route],
                 clients: Sequence[type]) -> List[str]:
    """Problems with a route table, one line each (empty when sound).

    * every route's declared fields, path parameters and body argument
      are exactly its handler's parameters;
    * every route is requested by name from some method of ``clients``,
      or is marked ``health``;
    * every error kind maps to one status and one exception class, and
      every route maps exceptions only to known kinds.
    """
    problems: List[str] = []
    called = {value for client in clients
              for member in vars(client).values() if inspect.isfunction(member)
              for value in _constants(member.__code__)
              if isinstance(value, str)}
    seen = set()
    for name, route in routes.items():
        handler = route.handler.__name__
        declared = set(route.params) | set(route.fields)
        if route.body is not None:
            declared.add(route.body)
        taken = set(_parameters(route.handler))
        for missing in sorted(declared - taken):
            problems.append(f"{name}: declared field {missing!r} is not a "
                            f"parameter of {handler}")
        for extra in sorted(taken - declared):
            problems.append(f"{name}: {handler} parameter {extra!r} is not "
                            f"declared")
        if name not in called and not route.health:
            problems.append(f"{name}: no client requests this route")
        if (route.method, route.segments) in seen:
            problems.append(f"{name}: {route.method} {route.path} is routed "
                            f"twice")
        seen.add((route.method, route.segments))
        for cls, kind in route.errors.items():
            if kind not in KINDS:
                problems.append(f"{name}: {cls.__name__} maps to unknown "
                                f"kind {kind!r}")
    for kind, entry in KINDS.items():
        status, exception = entry
        if not (isinstance(status, int) and 400 <= status < 600
                and isinstance(exception, type)
                and issubclass(exception, Exception)):
            problems.append(f"kind {kind!r} must map to one error status "
                            f"and one exception class, not {entry!r}")
    return problems
