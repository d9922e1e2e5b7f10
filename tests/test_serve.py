"""The multi-tenant verification service: forest, batcher, HTTP, discipline."""

import threading

import pytest

from repro.checks import tsan
from repro.common import ConfigurationError, IntegrityError, SecureModeError
from repro.serve import (
    ServeClient,
    TenantConfig,
    TreeForest,
    make_serve_server,
    run_loadgen,
)
from repro.serve.forest import build_tenant

SMALL = TenantConfig(name="a", data_bytes=4096, chunk_bytes=64,
                     cache_chunks=8)


@pytest.fixture()
def forest():
    return TreeForest(max_tenants=8)


@pytest.fixture()
def service():
    """(forest, client) against a live loopback front end."""
    forest = TreeForest(max_tenants=8)
    server = make_serve_server(forest)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    try:
        yield forest, client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestTreeForest:
    def test_create_get_evict(self, forest):
        tenant = forest.create(SMALL)
        assert forest.get("a") is tenant
        assert forest.names() == ["a"]
        assert tenant.verifier.active
        forest.evict("a")
        assert forest.names() == []
        with pytest.raises(KeyError):
            forest.get("a")

    def test_duplicate_name_rejected(self, forest):
        forest.create(SMALL)
        with pytest.raises(KeyError):
            forest.create(SMALL)

    def test_capacity_enforced(self):
        forest = TreeForest(max_tenants=1)
        forest.create(SMALL)
        with pytest.raises(ConfigurationError):
            forest.create(TenantConfig(name="b", data_bytes=4096))

    def test_per_tenant_scheme_and_geometry(self, forest):
        for index, scheme in enumerate(("naive", "chash", "mhash", "ihash")):
            forest.create(TenantConfig(
                name=f"t{index}", data_bytes=4096 << (index % 2),
                scheme=scheme, chunk_bytes=64))
        assert len(forest.names()) == 4
        for index, scheme in enumerate(("naive", "chash", "mhash", "ihash")):
            assert forest.get(f"t{index}").verifier.scheme == scheme

    def test_bad_config_rejected(self, forest):
        with pytest.raises(ConfigurationError):
            forest.create(TenantConfig(name="x/y", data_bytes=4096))
        with pytest.raises(ConfigurationError):
            forest.create(TenantConfig(name="x", scheme="bogus"))
        # a failed create must not leave a half-registered name behind
        with pytest.raises(KeyError):
            forest.get("x")

    def test_tenants_are_isolated(self, forest):
        forest.create(SMALL)
        forest.create(TenantConfig(name="b", data_bytes=4096))
        forest.get("a").verifier.write(0, b"tenant a")
        assert forest.get("b").verifier.read(0, 8) == b"\x00" * 8


class TestReadBatcher:
    def test_single_read_matches_direct(self):
        tenant = build_tenant(SMALL)
        tenant.verifier.write(10, b"hello")
        assert tenant.batcher.read(10, 5) == b"hello"

    def test_concurrent_reads_correct_and_combined(self):
        tenant = build_tenant(SMALL)
        payload = bytes(range(256)) * (SMALL.data_bytes // 256)
        tenant.verifier.write(0, payload)
        spans = [(i * 16 % 1024, 16) for i in range(64)]
        results = {}

        def reader(index, address, length):
            results[index] = tenant.batcher.read(address, length)

        pool = [threading.Thread(target=reader, args=(i, a, n))
                for i, (a, n) in enumerate(spans)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        for index, (address, length) in enumerate(spans):
            assert results[index] == payload[address:address + length]
        counters = tenant.batcher.counters()
        assert counters["reads"] == len(spans)

    def test_vectored_read_amortizes(self):
        tenant = build_tenant(SMALL)
        before = tenant.verifier.walk_counters()
        tenant.batcher.read_many([(0, 8), (8, 8), (16, 8), (32, 8)])
        after = tenant.verifier.walk_counters()
        assert after["requested"] - before["requested"] == 4
        assert after["performed"] - before["performed"] == 1
        assert tenant.batcher.counters()["batches"] == 1

    def test_bad_span_in_concurrent_batch_fails_only_itself(self):
        tenant = build_tenant(SMALL)
        tenant.verifier.unprotect_range(0, 64)
        outcomes = {}

        def reader(index, address, length):
            try:
                outcomes[index] = tenant.batcher.read(address, length)
            except SecureModeError:
                outcomes[index] = "refused"

        pool = [threading.Thread(target=reader, args=(i, a, n))
                for i, (a, n) in enumerate([(0, 8), (64, 8), (128, 8)] * 4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        for index in outcomes:
            if index % 3 == 0:
                assert outcomes[index] == "refused"
            else:
                assert outcomes[index] == b"\x00" * 8


class TestServiceHttp:
    def test_status_and_tenant_lifecycle(self, service):
        _forest, client = service
        assert client.status()["service"] == "repro-serve"
        client.create_tenant(SMALL)
        assert client.tenants() == ["a"]
        with pytest.raises(KeyError):
            client.create_tenant(SMALL)
        client.evict("a")
        assert client.tenants() == []
        with pytest.raises(KeyError):
            client.evict("a")

    def test_read_write_byte_identical_to_direct(self, service):
        _forest, client = service
        client.create_tenant(SMALL)
        twin = build_tenant(SMALL)
        for address, data in [(0, b"abc"), (61, b"crosses chunks"),
                              (4096 - 5, b"edge!")]:
            client.write("a", address, data)
            twin.verifier.write(address, data)
        for address, length in [(0, 3), (61, 14), (4091, 5), (0, 4096)]:
            assert client.read("a", address, length) == \
                twin.verifier.read(address, length)

    def test_readv_matches_point_reads(self, service):
        _forest, client = service
        client.create_tenant(SMALL)
        client.write("a", 0, bytes(range(256)))
        spans = [(0, 16), (8, 16), (100, 56), (250, 6)]
        vectored = client.readv("a", spans)
        assert vectored == [client.read("a", a, n) for a, n in spans]
        stats = client.stats("a")
        assert stats["requested"] > stats["performed"] > 0

    def test_error_mapping(self, service):
        _forest, client = service
        client.create_tenant(SMALL)
        with pytest.raises(ValueError):
            client.read("a", 0, 0)
        with pytest.raises(SecureModeError):
            client.read("a", 4090, 100)  # crosses into the window
        with pytest.raises(KeyError):
            client.read("nobody", 0, 8)
        with pytest.raises(ValueError):
            client.readv("a", [])

    def test_dma_discipline_per_tenant(self, service):
        """unprotect -> DMA write -> read refuses -> rebuild -> read OK."""
        forest, client = service
        client.create_tenant(SMALL)
        client.create_tenant(TenantConfig(name="b", data_bytes=4096))
        client.write("a", 0, b"original")
        client.unprotect("a", 0, 64)
        client.write_unchecked("a", 0, b"dma-landed")
        with pytest.raises(SecureModeError):
            client.read("a", 0, 10)
        assert client.read_unchecked("a", 0, 10) == b"dma-landed"
        # the sibling tenant is untouched by a's DMA window
        assert client.read("b", 0, 10) == b"\x00" * 10
        client.rebuild("a", 0, 64)
        assert client.read("a", 0, 10) == b"dma-landed"
        with pytest.raises(SecureModeError):
            client.rebuild("a", 0, 64)  # no longer unprotected

    def test_unchecked_write_refused_on_protected(self, service):
        _forest, client = service
        client.create_tenant(SMALL)
        with pytest.raises(SecureModeError):
            client.write_unchecked("a", 0, b"sneak")

    def test_out_of_window_unchecked_access_is_refused_once(
            self, service, monkeypatch):
        """An unchecked span past the unprotected window is a discipline
        violation: 403 on the first and only delivery of the request,
        and the client's next call goes through."""
        forest, client = service
        client.create_tenant(SMALL)
        verifier = forest.get("a").verifier
        calls = []
        for name in ("read_without_checking", "write_without_checking"):
            def counted(*args, _original=getattr(verifier, name),
                        _name=name):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(verifier, name, counted)
        window = verifier.unprotected_window
        with pytest.raises(SecureModeError):
            client.read_unchecked("a", window.stop, 8)
        assert client.read_unchecked("a", window.start, 4) == b"\x00" * 4
        with pytest.raises(SecureModeError):
            client.write_unchecked("a", window.stop, b"overflow")
        client.write_unchecked("a", window.start, b"dma!")
        assert calls == ["read_without_checking", "read_without_checking",
                         "write_without_checking", "write_without_checking"]
        assert client.read_unchecked("a", window.start, 4) == b"dma!"

    def test_cross_tenant_tamper_detected_and_contained(self, service):
        """An adversary with tenant b's RAM cannot serve forged bytes —
        and tenant a keeps verifying."""
        forest, client = service
        client.create_tenant(TenantConfig(name="a", data_bytes=4096,
                                          scheme="naive"))
        client.create_tenant(TenantConfig(name="b", data_bytes=4096,
                                          scheme="naive"))
        client.write("a", 0, b"honest tenant")
        client.write("b", 0, b"victim bytes!")
        victim = forest.get("b")
        physical = victim.verifier.physical_address(0)
        victim.memory.poke(physical, b"EVIL")
        with pytest.raises(IntegrityError):
            client.read("b", 0, 13)
        # isolation: a's tree never covered b's RAM, so a still verifies
        assert client.read("a", 0, 13) == b"honest tenant"

    def test_create_rejects_unknown_fields(self, service):
        _forest, client = service
        with pytest.raises(ValueError):
            client._call("create_tenant",
                         config={"name": "x", "data_bytes": 4096,
                                 "mystery": 1})


class TestSanitizerClean:
    def test_concurrent_service_traffic_is_tsan_clean(self, service):
        _forest, client = service
        tsan.reset()
        client.create_tenant(SMALL)
        client.write("a", 0, bytes(range(256)))

        def hammer(index):
            for i in range(20):
                client.read("a", (index * 64 + i) % 1024, 16)
                client.readv("a", [(0, 16), (8, 16), (24, 16)])

        pool = [threading.Thread(target=hammer, args=(i,))
                for i in range(6)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert tsan.violations() == []
        tsan.assert_clean()


class TestLoadgen:
    def test_loadgen_amortizes_and_diffs_clean(self, tmp_path):
        output = tmp_path / "BENCH_serve.json"
        report = run_loadgen(tenants=2, threads=3, requests=120,
                             spans_per_read=6, data_bytes=8192,
                             seed=3, output=str(output))
        assert report["diff_ok"], report["failures"]
        assert report["amortization_ratio"] > 1.0
        assert report["read_requests"] > 0
        assert report["p99_s"] >= report["p95_s"] >= report["p50_s"] >= 0

        import json
        recorded = json.loads(output.read_text())
        assert recorded["schema"] == 1
        row = recorded["rows"][-1]
        assert row["backend"] == "serve-http"
        assert row["cells"]["serve/amortization"]["ratio"] > 1.0
        assert "seconds" in row["cells"]["serve/p99"]

    def test_loadgen_rejects_tiny_segments(self):
        with pytest.raises(ValueError):
            run_loadgen(tenants=1, threads=64, requests=10,
                        data_bytes=1024, output=None)
