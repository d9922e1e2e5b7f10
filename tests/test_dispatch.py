"""Distributed dispatch: the lease board, the wire protocol, the workers.

Unit tests drive :class:`LeaseBoard` directly with a fake monotonic
clock (no sockets, no sleeps for expiry), protocol tests go through the
real HTTP server on an ephemeral loopback port, and the integration
tests at the bottom run real ``python -m repro worker`` subprocesses
against an in-process coordinator — including one killed mid-group —
asserting the distributed sweep is bit-identical to ``--jobs 1``.
"""

import gzip
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.common import KB, SchemeKind
from repro.common.wire import GZIP_MIN_BYTES, HttpChannel
from repro.sim.sweep import (
    CellSpec,
    CoordinatorClient,
    CoordinatorError,
    CostModel,
    HttpStore,
    LeaseBoard,
    WorkQueue,
    cell_fingerprint,
    execute_cell,
    make_store_server,
    run_cells,
    run_distributed,
    spec_from_dict,
    spec_to_dict,
)
from repro.sim.sweep.store import _StoreHandler, entry_for, validate_entry

TINY = dict(instructions=400, warmup=300)


def tiny(benchmark="gzip", scheme=SchemeKind.CHASH, **overrides):
    params = {**TINY, **overrides}
    return CellSpec(benchmark, scheme, **params).normalized()


def wire(cells):
    return [{"fingerprint": cell_fingerprint(spec),
             "spec": spec_to_dict(spec)} for spec in cells]


def assert_same_result(a, b):
    assert a.cycles == b.cycles
    assert a.stats == b.stats
    assert a.instructions == b.instructions
    assert a.benchmark == b.benchmark
    assert a.scheme == b.scheme


def ok_row(spec, stored=True, error=None):
    return {"fingerprint": cell_fingerprint(spec), "label": spec.label(),
            "elapsed_s": 1.0, "warm_s": 0.6, "measure_s": 0.4,
            "error": error, "stored": stored}


@pytest.fixture()
def serve(tmp_path):
    """Factory for in-process coordinators on ephemeral loopback ports."""
    running = []

    def start(ttl=30.0, subdir="served", work=True):
        server = make_store_server(tmp_path / subdir, port=0, work=work,
                                   lease_ttl_s=ttl)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((server, thread))
        host, port = server.server_address[:2]
        return f"http://{host}:{port}", server

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# --------------------------------------------------------------------------
# cell wire format
# --------------------------------------------------------------------------

class TestSpecWire:
    def test_roundtrip_preserves_identity(self):
        for spec in (tiny(), tiny("twolf", SchemeKind.MHASH,
                                  l2_size=256 * KB, seed=3),
                     tiny(hash_throughput=0.8, buffer_entries=4),
                     tiny(write_allocate_valid_bits=False)):
            rebuilt = spec_from_dict(spec_to_dict(spec))
            assert rebuilt == spec
            assert cell_fingerprint(rebuilt) == cell_fingerprint(spec)

    def test_roundtrip_normalizes(self):
        from repro.sim.sweep import cell_param_defaults
        explicit = CellSpec("gzip", SchemeKind.CHASH,
                            l2_size=cell_param_defaults()["l2_size"], **TINY)
        assert spec_from_dict(spec_to_dict(explicit)) == tiny()

    @pytest.mark.parametrize("payload", [
        None, 7, [], {"benchmark": "gzip"},
        {"benchmark": "gzip", "scheme": "not-a-scheme"},
        {"benchmark": "gzip", "scheme": "chash", "l2_size": "huge"},
    ])
    def test_malformed_payload_raises(self, payload):
        with pytest.raises((ValueError, KeyError, TypeError)):
            spec_from_dict(payload)


# --------------------------------------------------------------------------
# queue extensions the coordinator relies on
# --------------------------------------------------------------------------

class TestQueueOps:
    def test_add_resorts_by_cost(self):
        queue = WorkQueue([[tiny()]])
        queue.add([tiny("twolf"), tiny("twolf", seed=1)])
        assert len(queue.take(1)) == 2  # bigger (uniform-cost) group first

    def test_reprice_reorders_existing_groups(self):
        cheap, costly = [tiny()], [tiny("twolf")]
        queue = WorkQueue([cheap, costly])  # uniform: tie broken by label
        queue.reprice(CostModel({"twolf/chash": {"total_s": 9.0, "cells": 1},
                                 "gzip/chash": {"total_s": 1.0, "cells": 1}}))
        assert queue.take(1) == costly

    def test_discard_cells_drops_and_collapses(self):
        doomed = tiny(seed=5)
        queue = WorkQueue([[tiny(), doomed], [doomed]])
        assert queue.discard_cells(lambda c: c == doomed) == 2
        assert len(queue) == 1 and queue.queued_cells() == 1


# --------------------------------------------------------------------------
# the lease board (fake clock, no sockets)
# --------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def board_with(groups, ttl=10.0, store=None):
    clock = FakeClock()
    board = LeaseBoard(store=store, lease_ttl_s=ttl, clock=clock)
    if groups:
        board.seed([wire(group) for group in groups])
    return board, clock


class TestLeaseBoard:
    def test_seed_claim_done_lifecycle(self):
        cells = [tiny(), tiny(seed=1)]
        board, _ = board_with([cells])
        claim = board.claim("w1")
        assert claim["status"] == "lease"
        leased = [c["fingerprint"] for c in claim["lease"]["cells"]]
        assert sorted(leased) == sorted(cell_fingerprint(c) for c in cells)
        retired = board.done(claim["lease"]["id"], "w1",
                             [ok_row(c) for c in cells])
        assert retired == {"retired": True, "accepted": 2, "requeued": 0}
        status = board.status()
        assert status["drained"]
        assert status["totals"]["done_groups"] == 1
        assert status["workers"]["w1"]["cells"] == 2
        assert {o["fingerprint"] for o in status["outcomes"]} == set(leased)

    def test_reseed_skips_pending_and_done(self):
        cells = [tiny(), tiny(seed=1)]
        board, _ = board_with([[cells[0]]])
        assert board.seed([wire(cells)]) == {
            "seeded_groups": 1, "seeded_cells": 1, "skipped_cells": 1,
            "lease_ttl_s": 10.0}
        claim = board.claim("w1")
        board.done(claim["lease"]["id"], "w1", [ok_row(cells[0])])
        again = board.seed([wire([cells[0]])])
        assert again["seeded_cells"] == 0 and again["skipped_cells"] == 1

    def test_costliest_group_leased_first(self):
        small, big = [tiny()], [tiny("twolf"), tiny("twolf", seed=1)]
        board, _ = board_with([small, big])
        assert len(board.claim("w1")["lease"]["cells"]) == 2
        assert len(board.claim("w2")["lease"]["cells"]) == 1

    def test_heartbeat_extends_lease(self):
        board, clock = board_with([[tiny()]], ttl=10.0)
        lease = board.claim("w1")["lease"]
        for _ in range(5):
            clock.now += 8.0  # each step would expire without the beat
            assert board.heartbeat(lease["id"], "w1")["ok"]
        clock.now += 11.0
        assert not board.heartbeat(lease["id"], "w1")["ok"]

    def test_expiry_requeues_for_live_workers(self):
        board, clock = board_with([[tiny()]], ttl=10.0)
        first = board.claim("w1")["lease"]
        clock.now += 11.0
        reclaim = board.claim("w2")
        assert reclaim["status"] == "lease"
        assert reclaim["lease"]["cells"] == first["cells"]
        assert board.status()["totals"]["requeues"] == 1
        assert board.status()["workers"]["w1"]["requeues"] == 1

    def test_late_done_after_expiry_counts_once(self):
        spec = tiny()
        board, clock = board_with([[spec]], ttl=10.0)
        first = board.claim("w1")["lease"]
        clock.now += 11.0
        second = board.claim("w2")["lease"]  # expiry requeued, w2 holds it
        # the presumed-dead worker reports in late: accepted (results are
        # content-addressed and bit-identical), lease already gone
        late = board.done(first["id"], "w1", [ok_row(spec)])
        assert late["retired"] is False and late["accepted"] == 1
        # the re-leased copy completes too: outcome stays deduplicated
        board.done(second["id"], "w2", [ok_row(spec)])
        status = board.status()
        assert status["drained"]
        assert len(status["outcomes"]) == 1
        assert status["outcomes"][0]["worker"] == "w1"

    def test_late_done_cancels_requeued_copy_still_in_queue(self):
        spec = tiny()
        board, clock = board_with([[spec]], ttl=10.0)
        first = board.claim("w1")["lease"]
        clock.now += 11.0
        board.heartbeat("l0", "w3")  # any request runs lazy expiry
        assert board.status()["totals"]["queued_cells"] == 1
        board.done(first["id"], "w1", [ok_row(spec)])
        status = board.status()
        assert status["totals"]["queued_cells"] == 0
        assert status["drained"]

    def test_unstored_success_is_requeued(self):
        spec = tiny()
        board, _ = board_with([[spec]])
        lease = board.claim("w1")["lease"]
        retired = board.done(lease["id"], "w1",
                             [ok_row(spec, stored=False)])
        assert retired == {"retired": True, "accepted": 0, "requeued": 1}
        assert not board.status()["drained"]
        assert board.claim("w1")["status"] == "lease"  # runs again

    def test_failure_resolves_the_cell(self):
        spec = tiny()
        board, _ = board_with([[spec]])
        lease = board.claim("w1")["lease"]
        board.done(lease["id"], "w1",
                   [ok_row(spec, error="ValueError: boom")])
        status = board.status()
        assert status["drained"]
        assert status["workers"]["w1"]["failures"] == 1
        assert status["outcomes"][0]["error"] == "ValueError: boom"

    def test_unreported_cells_requeue(self):
        cells = [tiny(), tiny(seed=1)]
        board, _ = board_with([cells])
        lease = board.claim("w1")["lease"]
        board.done(lease["id"], "w1", [ok_row(cells[0])])  # one cell missing
        status = board.status()
        assert not status["drained"]
        assert status["totals"]["queued_cells"] == 1

    def test_starving_worker_triggers_split(self):
        cells = [tiny(seed=s) for s in range(4)]
        board, _ = board_with(None)
        assert board.claim("w2")["status"] == "empty"  # w2 now starving
        board.seed([wire(cells)])
        first = board.claim("w1")["lease"]["cells"]
        second = board.claim("w2")["lease"]["cells"]
        assert len(first) == 2 and len(second) == 2
        assert board.status()["totals"]["splits"] >= 1

    def test_claim_wait_when_work_is_leased_out(self):
        board, _ = board_with([[tiny()]])
        board.claim("w1")
        assert board.claim("w2")["status"] == "wait"

    def test_status_since_cursor(self):
        cells = [tiny(), tiny(seed=1)]
        board, _ = board_with([[cells[0]], [cells[1]]])
        lease = board.claim("w1")["lease"]
        board.done(lease["id"], "w1",
                   [ok_row(spec_from_dict(c["spec"]))
                    for c in lease["cells"]])
        cursor = board.status()["totals"]["outcome_seq"]
        lease = board.claim("w1")["lease"]
        board.done(lease["id"], "w1",
                   [ok_row(spec_from_dict(c["spec"]))
                    for c in lease["cells"]])
        fresh = board.status(since=cursor)["outcomes"]
        assert len(fresh) == 1 and fresh[0]["seq"] == cursor + 1

    def test_bad_seed_raises(self):
        with pytest.raises((ValueError, KeyError, TypeError)):
            board_with([[tiny()]])[0].seed([[{"fingerprint": "xx",
                                             "spec": {}}]])


# --------------------------------------------------------------------------
# keep-alive + gzip on the HTTP channel
# --------------------------------------------------------------------------

class _DeadConnection:
    """A stale keep-alive socket: every request raises."""

    def __init__(self):
        self.closed = False

    def request(self, *_args, **_kwargs):
        raise http.client.RemoteDisconnected("server closed idle socket")

    def close(self):
        self.closed = True


class TestHttpChannel:
    def test_keepalive_reuses_one_connection(self, serve):
        url, _server = serve()
        channel = HttpChannel(url)
        assert channel.request("GET", "/").status == 200
        first = channel._local.conn
        assert channel.request("GET", "/costs").status == 200
        assert channel._local.conn is first

    def test_reconnects_once_through_a_dead_socket(self, serve):
        url, _server = serve()
        channel = HttpChannel(url)
        dead = _DeadConnection()
        channel._local.conn = dead
        response = channel.request("GET", "/")
        assert response.status == 200 and dead.closed

    def test_per_thread_connections(self, serve):
        url, _server = serve()
        channel = HttpChannel(url)
        channel.request("GET", "/")
        seen = {}

        def probe():
            channel.request("GET", "/")
            seen[threading.get_ident()] = channel._local.conn

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen[thread.ident] is not channel._local.conn

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            HttpChannel("ftp://somewhere/")

    def test_large_entry_gzips_both_directions(self, serve, monkeypatch):
        url, server = serve()
        compressed = []
        real_compress = gzip.compress

        def counting_compress(data, **kwargs):
            compressed.append(len(data))
            return real_compress(data, **kwargs)

        monkeypatch.setattr(gzip, "compress", counting_compress)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        result = execute_cell(spec)
        # pad the entry well past the compression threshold
        result.stats["padding"] = "x" * (2 * GZIP_MIN_BYTES)
        client = HttpStore(url)
        assert client.put(fingerprint, spec, result, 0.1)
        assert compressed, "PUT body above threshold was not compressed"
        stored = json.loads(
            (server.store.path_for(fingerprint)).read_text())
        validate_entry(fingerprint, stored)  # server stored it intact

        # raw GET advertising gzip must come back Content-Encoding: gzip
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", f"/cells/{fingerprint}",
                     headers={"Accept-Encoding": "gzip"})
        response = conn.getresponse()
        body = response.read()
        assert response.getheader("Content-Encoding") == "gzip"
        assert json.loads(gzip.decompress(body)) == stored
        conn.close()
        assert_same_result(HttpStore(url).get(fingerprint), result)

    def test_small_bodies_stay_uncompressed(self, serve):
        url, _server = serve()
        channel = HttpChannel(url)
        response = channel.request("POST", "/work/claim",
                                   b'{"worker": "w"}')
        assert response.status == 200  # tiny body, identity both ways
        assert json.loads(response.body)["status"] == "empty"

    def test_new_server_400_keeps_gzip_enabled(self, serve, monkeypatch):
        """A large PUT the store rejects is answered once (400), and the
        channel keeps compressing: no request is ever resent unzipped."""
        url, _server = serve()
        encodings = []
        dispatch = _StoreHandler.dispatch

        def counted(handler):
            encodings.append(handler.headers.get("Content-Encoding"))
            dispatch(handler)

        monkeypatch.setattr(_StoreHandler, "dispatch", counted)
        channel = HttpChannel(url)
        big = json.dumps({"padding": "x" * (2 * GZIP_MIN_BYTES)}).encode()
        response = channel.request("PUT", "/cells/" + "f" * 64, big)
        assert response.status == 400
        assert json.loads(response.body)["kind"] == "bad-request"
        assert encodings == ["gzip"]
        assert channel.request("PUT", "/cells/" + "f" * 64,
                               big).status == 400
        assert encodings == ["gzip", "gzip"]


# --------------------------------------------------------------------------
# concurrent writers against one coordinator
# --------------------------------------------------------------------------

class TestConcurrentPut:
    def test_same_fingerprint_last_write_wins_no_torn_reads(self, serve):
        url, server = serve()
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        result = execute_cell(spec)
        entries = [entry_for(fingerprint, spec, result, 0.01 * (i + 1))
                   for i in range(8)]
        failures = []
        seen = []
        stop = threading.Event()

        def writer(entry):
            client = HttpStore(url)
            for _ in range(10):
                if not client.submit_entry(fingerprint, entry):
                    failures.append(entry)

        def reader():
            client = HttpStore(url)
            while not stop.is_set():
                data = client.read_entry(fingerprint)
                if data is not None:
                    seen.append(validate_entry(fingerprint, data))

        threads = [threading.Thread(target=writer, args=(entry,))
                   for entry in entries]
        watcher = threading.Thread(target=reader)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        watcher.join()
        assert not failures  # every concurrent PUT succeeded
        # every concurrent read observed a complete, valid entry
        assert seen
        for observed in seen:
            assert_same_result(observed, result)
        # the surviving file is one of the written entries, intact
        final = json.loads(server.store.path_for(fingerprint).read_text())
        assert final in entries


# --------------------------------------------------------------------------
# the wire protocol end to end (client <-> live server)
# --------------------------------------------------------------------------

class TestCoordinatorHttp:
    def test_lease_protocol_over_http(self, serve):
        url, _server = serve()
        client = CoordinatorClient(url)
        cells = [tiny(), tiny(seed=1)]
        seeded = client.seed([wire(cells)])
        assert seeded["seeded_cells"] == 2
        claim = client.claim("w1")
        assert claim["status"] == "lease"
        lease = claim["lease"]
        assert client.heartbeat(lease["id"], "w1")["ok"]
        done = client.done(lease["id"], "w1",
                           [ok_row(c) for c in cells])
        assert done["retired"] and done["accepted"] == 2
        status = client.status()
        assert status["drained"]
        assert client.claim("w1") == {"status": "empty", "seeded": True}

    def test_heartbeat_410_is_an_answer_not_an_error(self, serve):
        url, _server = serve(ttl=0.2)
        client = CoordinatorClient(url)
        client.seed([wire([tiny()])])
        lease = client.claim("w1")["lease"]
        time.sleep(0.35)
        renewed = client.heartbeat(lease["id"], "w1")
        assert renewed["ok"] is False

    def test_expired_lease_requeues_over_http(self, serve):
        url, _server = serve(ttl=0.2)
        client = CoordinatorClient(url)
        client.seed([wire([tiny()])])
        client.claim("w1")
        time.sleep(0.35)
        reclaim = client.claim("w2")
        assert reclaim["status"] == "lease"
        assert client.status()["totals"]["requeues"] == 1

    def test_malformed_seed_is_rejected_without_retry(self, serve):
        url, _server = serve()
        client = CoordinatorClient(url, max_tries=5)
        started = time.perf_counter()
        with pytest.raises(CoordinatorError):
            client.seed([[{"fingerprint": "nope", "spec": {}}]])
        # 4xx raises immediately: no retry/backoff was burned
        assert time.perf_counter() - started < 1.0

    def test_store_only_server_has_no_work_endpoints(self, serve):
        url, _server = serve(work=False)
        client = CoordinatorClient(url)
        with pytest.raises(CoordinatorError):
            client.status()
        root = HttpChannel(url).request("GET", "/")
        assert json.loads(root.body)["work"] is False

    def test_unreachable_coordinator_raises_after_bounded_retries(self):
        client = CoordinatorClient("http://127.0.0.1:9", timeout=0.2,
                                   max_tries=2, backoff_s=0.01)
        with pytest.raises(CoordinatorError, match="unreachable after"):
            client.claim("w1")


# --------------------------------------------------------------------------
# full distributed sweeps: subprocess workers vs --jobs 1
# --------------------------------------------------------------------------

#: four warm groups over three benchmark/scheme families: one shared-warm
#: timing trio, two singleton groups, and one slow group (applu) that
#: stays in flight long enough to kill a worker holding it.
GRID = [
    tiny(),
    tiny(hash_throughput=0.8),
    tiny(buffer_entries=4),
    tiny("gzip", SchemeKind.BASE),
    tiny("twolf", SchemeKind.CHASH, l2_size=256 * KB),
]

SLOW_GRID = GRID + [tiny("applu", SchemeKind.CHASH)]


def spawn_worker(url, tmp_path, name, extra=()):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--coordinator", url,
         "--cache-dir", str(tmp_path / f"l1-{name}"), "--name", name,
         "--poll", "0.05", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


@pytest.fixture(scope="module")
def local_reference():
    """The ``--jobs 1`` ground truth, computed once for the module."""
    report = run_cells(SLOW_GRID, jobs=1, cache=None)
    assert not report.failed, report.summary()
    return report


class TestDistributedSweep:
    def test_two_workers_bit_identical_to_jobs1(self, serve, tmp_path,
                                                local_reference):
        url, _server = serve(ttl=30.0)
        workers = [spawn_worker(url, tmp_path, name,
                                extra=("--exit-when-idle",))
                   for name in ("alpha", "beta")]
        try:
            report = run_distributed(GRID, url,
                                     cache_dir=tmp_path / "driver",
                                     poll_s=0.05, timeout_s=300)
            for proc in workers:
                assert proc.wait(timeout=60) == 0, proc.stdout.read()
        finally:
            for proc in workers:
                proc.kill()
        assert not report.failed, report.summary()
        assert [o.spec for o in report.outcomes] == GRID
        reference = {o.spec: o.result for o in local_reference.outcomes}
        for outcome in report.outcomes:
            assert_same_result(outcome.result, reference[outcome.spec])
        # every cell computed exactly once across the cluster
        computed = sum(stats["cells"] for stats in report.workers.values())
        assert computed == len(GRID)
        assert set(report.workers) <= {"alpha", "beta"}
        assert report.requeues == 0

    def test_worker_killed_mid_group_is_recovered(self, serve, tmp_path,
                                                  local_reference):
        url, server = serve(ttl=1.0)
        status = CoordinatorClient(url)
        outcome = {}

        def drive():
            outcome["report"] = run_distributed(
                SLOW_GRID, url, cache_dir=tmp_path / "driver",
                poll_s=0.05, timeout_s=300)

        driver = threading.Thread(target=drive)
        driver.start()
        victim = spawn_worker(url, tmp_path, "victim")
        rescuer = None
        try:
            # wait until the victim actually holds a lease, then kill it
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                board = status.status()
                claims = board["workers"].get("victim", {}).get("claims", 0)
                if claims and board["totals"]["leased_groups"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim never claimed a group")
            victim.kill()
            victim.wait(timeout=30)
            rescuer = spawn_worker(url, tmp_path, "rescuer",
                                   extra=("--exit-when-idle",))
            driver.join(timeout=300)
            assert not driver.is_alive(), "distributed sweep never finished"
            assert rescuer.wait(timeout=60) == 0, rescuer.stdout.read()
        finally:
            victim.kill()
            if rescuer is not None:
                rescuer.kill()
            driver.join(timeout=5)
        report = outcome["report"]
        assert not report.failed, report.summary()
        # bit-identical to the single-host run despite the mid-group death
        reference = {o.spec: o.result for o in local_reference.outcomes}
        assert [o.spec for o in report.outcomes] == SLOW_GRID
        for cell in report.outcomes:
            assert_same_result(cell.result, reference[cell.spec])
        # the dead worker's lease was requeued to a live one...
        assert report.requeues >= 1
        assert report.workers["rescuer"]["cells"] >= 1
        # ...and duplicated work stayed bounded: far fewer cells computed
        # than re-running the whole grid per worker
        computed = sum(stats["cells"] for stats in report.workers.values())
        assert len(SLOW_GRID) <= computed < 2 * len(SLOW_GRID)

    def test_distributed_rerun_is_served_from_the_store(self, serve,
                                                        tmp_path):
        url, _server = serve(subdir="rerun")
        worker = spawn_worker(url, tmp_path, "solo",
                              extra=("--exit-when-idle",))
        try:
            cold = run_distributed(GRID[:2], url,
                                   cache_dir=tmp_path / "cold",
                                   poll_s=0.05, timeout_s=300)
            assert worker.wait(timeout=120) == 0, worker.stdout.read()
        finally:
            worker.kill()
        assert len(cold.ran) == 2
        # a rerun against the same coordinator needs no workers at all
        warm = run_distributed(GRID[:2], url, cache_dir=tmp_path / "warm",
                               poll_s=0.05, timeout_s=60)
        assert not warm.ran and len(warm.cached) == 2
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert_same_result(a.result, b.result)
