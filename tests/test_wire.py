"""The shared wire layer: route tables, both servers and their clients.

* Both route tables pass their self-consistency check.
* The service answers seeded operation sequences exactly as a direct
  :class:`MemoryVerifier` does: the same bytes or the same exception
  type.  The sequences mix checked reads and writes with the Section
  5.7 unchecked/unprotect/rebuild operations, and include boundary
  spans and wrong JSON types.
* The coordinator answers seeded store and lease sequences exactly as
  an in-process :class:`DirectoryStore` / :class:`LeaseBoard` does.
* Raw connections: malformed bodies and handler crashes get JSON error
  answers, each request is handled once, and the keep-alive connection
  survives the error.
"""

import dataclasses
import http.client
import json
import random
import threading

import pytest

from repro.common import SchemeKind
from repro.common.wire import (
    GZIP_MIN_BYTES,
    KINDS,
    HttpChannel,
    check_routes,
)
from repro.hashtree import MemoryVerifier
from repro.memory import UntrustedMemory
from repro.serve import ServeClient, TenantConfig, TreeForest
from repro.serve.forest import build_tenant
from repro.serve.service import SERVE_ROUTES, _ServeHandler, make_serve_server
from repro.sim.results import SimResult
from repro.sim.sweep import (
    CellSpec,
    CoordinatorClient,
    CoordinatorError,
    DirectoryStore,
    HttpStore,
    LeaseBoard,
    cell_fingerprint,
    make_store_server,
    result_to_dict,
    spec_to_dict,
)
from repro.sim.sweep.store import (
    STORE_ROUTES,
    _StoreHandler,
    entry_for,
    validate_entry,
)

DATA = 1024
CHUNK = 64
WINDOW = 256


def _start(server):
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return f"http://{host}:{port}", thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture()
def serve():
    """(forest, url) of a live front end."""
    forest = TreeForest(max_tenants=8)
    server = make_serve_server(forest)
    url, thread = _start(server)
    yield forest, url
    _stop(server, thread)


@pytest.fixture()
def coordinator(tmp_path):
    """(server, url) of a live coordinator with a lease board."""
    server = make_store_server(tmp_path / "served", port=0,
                               lease_ttl_s=600.0)
    url, thread = _start(server)
    yield server, url
    _stop(server, thread)


@pytest.fixture()
def deliveries(monkeypatch):
    """``watch(handler_class, verb)`` records each delivery of that verb
    as ``(path, Content-Encoding)``."""
    seen = []

    def watch(handler_class, verb):
        original = getattr(handler_class, verb)

        def counted(handler):
            seen.append((handler.path,
                         handler.headers.get("Content-Encoding")))
            original(handler)

        monkeypatch.setattr(handler_class, verb, counted)
        return seen

    return watch


# --------------------------------------------------------------------------
# the route tables
# --------------------------------------------------------------------------

class TestRouteTables:
    def test_tables_are_self_consistent(self):
        assert check_routes(SERVE_ROUTES, [ServeClient]) == []
        assert check_routes(STORE_ROUTES, [HttpStore, CoordinatorClient]) \
            == []

    def test_route_without_a_client_is_reported(self):
        problems = check_routes(STORE_ROUTES, [HttpStore])
        assert sorted(p.split(":")[0] for p in problems) == [
            "claim", "done", "heartbeat", "seed", "work_status"]

    def test_extra_handler_parameter_is_reported(self):
        read = SERVE_ROUTES["read"]

        def read_with_offset(server, tenant, address, length, offset=0):
            return read.handler(server, tenant, address, length)

        routes = {**SERVE_ROUTES,
                  "read": dataclasses.replace(read,
                                              handler=read_with_offset)}
        assert check_routes(routes, [ServeClient]) == [
            "read: read_with_offset parameter 'offset' is not declared"]

    def test_every_kind_has_one_status_and_one_exception(self):
        for status, exception in KINDS.values():
            assert 400 <= status < 600 and issubclass(exception, Exception)
        assert check_routes({}, []) == []

    def test_undeclared_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="bogus"):
            SERVE_ROUTES["read"].request(tenant="a", address=0, length=1,
                                         bogus=2)
        with pytest.raises(TypeError, match="tenant"):
            SERVE_ROUTES["read"].request(address=0, length=1)

    def test_requests_match_the_protocol(self):
        assert STORE_ROUTES["work_status"].request(since=3) == \
            ("GET", "/work/status?since=3", None)
        assert STORE_ROUTES["heartbeat"].request(lease="l1", worker="w") \
            == ("POST", "/work/l1/heartbeat", b'{"worker":"w"}')
        assert SERVE_ROUTES["evict"].request(tenant="a b") == \
            ("DELETE", "/t/a%20b", None)

    def test_tenant_config_round_trips(self):
        config = TenantConfig(name="t", data_bytes=8192, scheme="ihash",
                              chunk_bytes=128, cache_chunks=3,
                              blocks_per_chunk=4, window_bytes=512)
        assert TenantConfig.from_dict(config.to_dict()) == config
        assert TenantConfig.from_dict(TenantConfig("u").to_dict()) == \
            TenantConfig("u")


# --------------------------------------------------------------------------
# regressions: each request answered once, with a typed error
# --------------------------------------------------------------------------

class TestAnsweredOnce:
    def test_zero_blocks_per_chunk_is_a_value_error(self, serve,
                                                    deliveries):
        with pytest.raises(ValueError, match="blocks_per_chunk"):
            MemoryVerifier(UntrustedMemory(1 << 16), 4096, scheme="mhash",
                           blocks_per_chunk=0)
        forest, url = serve
        posts = deliveries(_ServeHandler, "do_POST")
        client = ServeClient(url)
        with pytest.raises(ValueError, match="blocks_per_chunk"):
            client.create_tenant(TenantConfig(name="z", data_bytes=4096,
                                              scheme="mhash",
                                              blocks_per_chunk=0))
        assert len(posts) == 1
        assert forest.names() == []
        client.close()

    def test_large_rejected_readv_is_not_resent(self, serve, deliveries):
        _forest, url = serve
        client = ServeClient(url)
        client.create_tenant(TenantConfig(name="a", data_bytes=4096))
        posts = deliveries(_ServeHandler, "do_POST")
        spans = [((i % 64) * 16, 16) for i in range(1499)] + [(0, 0)]
        assert len(json.dumps(spans)) > GZIP_MIN_BYTES
        with pytest.raises(ValueError, match="length must be positive"):
            client.readv("a", spans)
        assert posts == [("/t/a/readv", "gzip")]
        assert len(client.readv("a", spans[:-1])) == 1499
        assert posts[1:] == [("/t/a/readv", "gzip")]
        client.close()


# --------------------------------------------------------------------------
# raw connections on both servers
# --------------------------------------------------------------------------

def _exchange(conn, method, path, body=None):
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _servers(serve, coordinator):
    """(url, handler class, a POST path, a GET path) per server."""
    _forest, serve_url = serve
    _server, store_url = coordinator
    return [(serve_url, _ServeHandler, "/t/a/read", "/tenants"),
            (store_url, _StoreHandler, "/work/claim", "/costs")]


class TestRawConnections:
    @pytest.mark.parametrize("body, message", [
        (b"[" * 100_000, "unparseable body"),
        (b"[1, 2]", "body must be a JSON object"),
        (b'{"worker": ', "unparseable body"),
    ])
    def test_malformed_body_is_a_400(self, serve, coordinator, deliveries,
                                     body, message):
        for url, handler, post_path, get_path in _servers(serve,
                                                           coordinator):
            posts = deliveries(handler, "do_POST")
            posts.clear()
            host, port = url[len("http://"):].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            status, answer = _exchange(conn, "POST", post_path, body)
            sock = conn.sock
            assert status == 400
            assert json.loads(answer) == {
                "error": json.loads(answer)["error"], "kind": "bad-request"}
            assert message in json.loads(answer)["error"]
            assert len(posts) == 1
            assert _exchange(conn, "GET", get_path)[0] == 200
            assert conn.sock is sock  # the connection stayed open
            conn.close()

    def test_handler_crash_is_one_500(self, serve, coordinator, deliveries,
                                      monkeypatch):
        def crash(*_args):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(TreeForest, "names", crash)
        monkeypatch.setattr(DirectoryStore, "cost_history", crash)
        for url, handler, _post_path, get_path in _servers(serve,
                                                            coordinator):
            gets = deliveries(handler, "do_GET")
            gets.clear()
            host, port = url[len("http://"):].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            status, answer = _exchange(conn, "GET", get_path)
            sock = conn.sock
            assert status == 500
            assert json.loads(answer) == {"error": "handler bug",
                                          "kind": "internal"}
            assert gets == [(get_path, None)]
            assert _exchange(conn, "GET", "/")[0] == 200
            assert conn.sock is sock
            conn.close()

    def test_unknown_route_and_fields_are_json_errors(self, serve):
        _forest, url = serve
        channel = HttpChannel(url)
        response = channel.request("POST", "/nowhere", b"{}")
        assert response.status == 404
        assert json.loads(response.body)["kind"] == "not-found"
        response = channel.request("POST", "/t/a/read", b'{"address": 0}')
        assert response.status == 400
        assert "missing fields ['length']" in json.loads(response.body)[
            "error"]
        response = channel.request("POST", "/t/a/read",
                                   b'{"address": 0, "length": 1, "x": 2}')
        assert response.status == 400
        assert "unknown fields ['x']" in json.loads(response.body)["error"]


# --------------------------------------------------------------------------
# differential: the service vs a direct MemoryVerifier
# --------------------------------------------------------------------------

SCHEMES = ("naive", "chash", "mhash", "ihash")

#: addresses and lengths at the edges: 0, negative, the window's edges,
#: past ``data_bytes``, huge — and values of the wrong JSON type.
EDGE_ADDRESSES = (0, 1, -1, -CHUNK, CHUNK - 1, DATA - 1, DATA, DATA - CHUNK,
                  DATA + WINDOW - 1, DATA + WINDOW, 2 ** 62, -2 ** 62)
EDGE_LENGTHS = (0, -1, 1, CHUNK, CHUNK + 1, DATA, WINDOW + 1, 2 ** 62)
WRONG_TYPES = ("7", None, 1.5, 2.0, [3], {"a": 1}, True, False)


def _address(rng):
    roll = rng.random()
    if roll < 0.55:
        return rng.randrange(DATA)
    if roll < 0.75:
        return DATA + rng.randrange(WINDOW)
    if roll < 0.93:
        return rng.choice(EDGE_ADDRESSES)
    return rng.choice(WRONG_TYPES)


def _length(rng):
    roll = rng.random()
    if roll < 0.75:
        return rng.randrange(1, 2 * CHUNK)
    if roll < 0.93:
        return rng.choice(EDGE_LENGTHS)
    return rng.choice(WRONG_TYPES)


#: the chunks ``unprotect``/``rebuild`` mostly target (a DMA landing
#: zone), so most of the segment stays protected for verified access.
DMA_CHUNKS = 4


def _span_op(rng):
    """An ``unprotect``/``rebuild`` span: mostly whole DMA-zone chunks."""
    if rng.random() < 0.85:
        first = rng.randrange(DMA_CHUNKS)
        return first * CHUNK, CHUNK * rng.randrange(1, 3)
    return _address(rng), _length(rng)


def _ops(seed, count):
    rng = random.Random(f"wire/{seed}")
    ops = []
    for _ in range(count):
        kind = rng.choice(("read", "read", "readv", "readv", "write",
                           "write", "read_unchecked", "write_unchecked",
                           "unprotect", "rebuild", "rebuild"))
        if kind in ("read", "read_unchecked"):
            ops.append((kind, _address(rng), _length(rng)))
        elif kind == "readv":
            roll = rng.random()
            if roll < 0.05:
                spans = rng.choice(([], "spans", None, [[1, 2, 3]], [5]))
            elif roll < 0.6:
                spans = [(rng.randrange(DATA - 2 * CHUNK),
                          rng.randrange(1, 2 * CHUNK))
                         for _ in range(rng.randrange(1, 5))]
            else:
                spans = [(_address(rng), _length(rng))
                         for _ in range(rng.randrange(1, 5))]
            ops.append((kind, spans))
        elif kind in ("write", "write_unchecked"):
            size = rng.choice((0, 1, 16, CHUNK, CHUNK + 7))
            ops.append((kind, _address(rng), rng.randbytes(size)))
        else:
            ops.append((kind,) + _span_op(rng))
    return ops


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except Exception as error:  # noqa: BLE001 - the outcome is the type
        return ("error", type(error).__name__)


def _remote(client, tenant, op):
    kind, args = op[0], op[1:]
    if kind == "readv":
        return _outcome(client.readv, tenant, *args)
    return _outcome(getattr(client, kind), tenant, *args)


def _direct(verifier, op):
    kind, args = op[0], op[1:]
    call = {"read": verifier.read, "readv": verifier.read_many,
            "write": verifier.write,
            "read_unchecked": verifier.read_without_checking,
            "write_unchecked": verifier.write_without_checking,
            "unprotect": verifier.unprotect_range,
            "rebuild": verifier.rebuild_range}[kind]
    return _outcome(call, *args)


class TestServeDifferential:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_bytes_or_same_exception(self, serve, seed):
        _forest, url = serve
        client = ServeClient(url)
        twins = {}
        for scheme in SCHEMES:
            config = TenantConfig(name=scheme, data_bytes=DATA,
                                  scheme=scheme, chunk_bytes=CHUNK,
                                  cache_chunks=4, window_bytes=WINDOW)
            client.create_tenant(config)
            twins[scheme] = build_tenant(config).verifier
        kinds = set()
        for index, op in enumerate(_ops(seed, 160)):
            for scheme, verifier in twins.items():
                remote = _remote(client, scheme, op)
                direct = _direct(verifier, op)
                assert remote == direct, (index, scheme, op)
                kinds.add(direct if direct[0] == "error" else op[0])
        # the sequences reach every outcome class the contract names
        assert {("error", name) for name in (
            "ValueError", "TypeError", "SecureModeError")} <= kinds
        assert {"read", "readv", "write", "read_unchecked",
                "write_unchecked", "unprotect", "rebuild"} <= kinds
        for scheme, verifier in twins.items():
            for chunk in range(DATA // CHUNK):
                span = (chunk * CHUNK, CHUNK)
                assert _outcome(client.read, scheme, *span) == \
                    _outcome(verifier.read, *span)
        client.close()


# --------------------------------------------------------------------------
# differential: the coordinator vs an in-process store and lease board
# --------------------------------------------------------------------------

def _cells(count):
    specs = []
    for index in range(count):
        scheme = (SchemeKind.CHASH, SchemeKind.BASE)[index % 2]
        specs.append(CellSpec(("gzip", "mcf")[index % 3 == 0], scheme,
                              instructions=400, warmup=300,
                              seed=index).normalized())
    return specs


def _result(spec, rng):
    return SimResult(spec.benchmark, spec.scheme.value, spec.build_config(),
                     spec.instructions, rng.randrange(1000, 9000),
                     {"l2.data_misses": rng.randrange(50)})


def _submit_checked(store, fingerprint, entry):
    """What the coordinator does with a PUT: validate, then store."""
    try:
        validate_entry(fingerprint, entry)
    except (ValueError, KeyError, TypeError):
        return False
    return store.submit_entry(fingerprint, entry)


def _store_outcome(call, *args):
    status, value = _outcome(call, *args)
    if isinstance(value, SimResult):
        value = result_to_dict(value)
    return status, value


class TestCoordinatorDifferential:
    def test_store_matches_directory_store(self, coordinator, tmp_path):
        _server, url = coordinator
        remote = HttpStore(url)
        direct = DirectoryStore(tmp_path / "direct")
        rng = random.Random("wire/store")
        specs = _cells(6)
        fingerprints = [cell_fingerprint(spec) for spec in specs]
        for _ in range(60):
            roll = rng.random()
            index = rng.randrange(len(specs))
            spec, fingerprint = specs[index], fingerprints[index]
            if roll < 0.35:
                result, elapsed = _result(spec, rng), rng.random()
                assert remote.put(fingerprint, spec, result, elapsed) \
                    == direct.put(fingerprint, spec, result, elapsed)
            elif roll < 0.5:
                entry = entry_for(fingerprint, spec, _result(spec, rng), 1.0)
                entry = rng.choice((
                    {**entry, "schema": -1},
                    {**entry, "fingerprint": fingerprints[index - 1]},
                    {**entry, "result": {}},
                    {"padding": "x" * (2 * GZIP_MIN_BYTES)},
                ))
                assert remote.submit_entry(fingerprint, entry) \
                    == _submit_checked(direct, fingerprint, entry)
            elif roll < 0.9:
                if rng.random() < 0.1:
                    fingerprint = rng.choice(("0" * 63, "../costs", "zz"))
                assert _store_outcome(remote.get, fingerprint) \
                    == _store_outcome(direct.get, fingerprint)
            else:
                direct.flush_costs()
                assert remote.cost_history() == direct.cost_history()
        assert (remote.hits, remote.misses) == (direct.hits, direct.misses)
        remote.close()

    def test_leases_match_lease_board(self, tmp_path):
        server = make_store_server(tmp_path / "served", port=0,
                                   lease_ttl_s=600.0)
        url, thread = _start(server)
        try:
            self._run_leases(url, LeaseBoard(DirectoryStore(tmp_path / "d"),
                                             lease_ttl_s=600.0))
        finally:
            _stop(server, thread)

    @staticmethod
    def _run_leases(url, board):
        client = CoordinatorClient(url, max_tries=1)
        rng = random.Random("wire/leases")
        specs = _cells(8)
        wires = [{"fingerprint": cell_fingerprint(spec),
                  "spec": spec_to_dict(spec)} for spec in specs]
        leases = ["l0"]
        workers = ("w1", "w2", "w3")

        def same(remote_call, direct_call, *args):
            try:
                remote = ("ok", remote_call(*args))
            except CoordinatorError:
                remote = ("rejected",)
            try:
                direct = ("ok", direct_call(*args))
            except (ValueError, KeyError, TypeError):
                direct = ("rejected",)
            assert remote == direct, (remote_call.__name__, args)
            return direct

        for _ in range(70):
            roll = rng.random()
            worker = rng.choice(workers)
            if roll < 0.15:
                groups = [rng.sample(wires, rng.randrange(1, 4))
                          for _ in range(rng.randrange(1, 3))]
                if rng.random() < 0.2:
                    groups.append([{"fingerprint": "nope", "spec": {}}])
                same(client.seed, board.seed, groups, None,
                     rng.random() < 0.2)
            elif roll < 0.45:
                answer = same(client.claim, board.claim, worker)
                if answer[1]["status"] == "lease":
                    leases.append(answer[1]["lease"]["id"])
            elif roll < 0.6:
                same(client.heartbeat, board.heartbeat,
                     rng.choice(leases), worker)
            elif roll < 0.85:
                rows = []
                for wire in rng.sample(wires, rng.randrange(0, 4)):
                    rows.append({"fingerprint": wire["fingerprint"],
                                 "elapsed_s": 1.0,
                                 "error": rng.choice((None, None, "boom")),
                                 "stored": rng.random() < 0.8})
                if rng.random() < 0.1:
                    rows.append("not a row")
                same(client.done, board.done, rng.choice(leases), worker,
                     rows)
            else:
                since = rng.randrange(0, 6)
                remote, direct = client.status(since), board.status(since)
                for answer in (remote, direct):
                    for stats in answer["workers"].values():
                        stats.pop("last_seen")
                assert remote == direct
        client.channel.close()
