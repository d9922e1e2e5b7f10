"""Tests for the bus/DRAM and hash-engine timing models."""

import pytest

from repro.common import BusConfig, HashEngineConfig
from repro.common.config import DramConfig
from repro.dram import MainMemoryTiming
from repro.hashengine import HashEngineTiming
from repro.hashengine.engine import _BufferPool
from repro.sim.sweep.figures import FIG6_THROUGHPUTS


def make_memory():
    return MainMemoryTiming(BusConfig(), DramConfig())


class TestMainMemoryTiming:
    def test_read_latency_includes_dram_and_transfer(self):
        memory = make_memory()
        done = memory.read(0, 64)
        assert done == 80 + 40  # DRAM latency + 8 beats * 5 core cycles

    def test_back_to_back_reads_are_bus_limited(self):
        memory = make_memory()
        first = memory.read(0, 64)
        second = memory.read(0, 64)
        assert second - first == 40  # transfers pipeline behind one another

    def test_writes_consume_bus(self):
        memory = make_memory()
        memory.write(0, 64)
        done = memory.read(0, 64)
        # the read's data phase waits behind the posted write
        assert done >= 40 + 40

    def test_byte_accounting_by_kind(self):
        memory = make_memory()
        memory.read(0, 64, kind="data")
        memory.read(0, 64, kind="hash")
        memory.write(0, 64, kind="writeback")
        assert memory.stats["read_bytes_data"] == 64
        assert memory.stats["read_bytes_hash"] == 64
        assert memory.stats["write_bytes_writeback"] == 64
        assert memory.stats["bytes_total"] == 192

    def test_bandwidth_utilization(self):
        memory = make_memory()
        memory.read(0, 64)
        assert memory.bandwidth_utilization(80) == 0.5
        assert memory.bandwidth_utilization(0) == 0.0

    def test_timing_disabled_is_free(self):
        memory = make_memory()
        memory.timing_enabled = False
        assert memory.read(123, 64) == 123
        assert memory.write(123, 64) == 123
        assert memory.stats["bytes_total"] == 0

    @pytest.mark.parametrize("bus", [BusConfig(), BusConfig(clock_mhz=133,
                                                            width_bytes=16)])
    def test_memoized_transfer_cycles_match_config(self, bus):
        memory = MainMemoryTiming(bus, DramConfig())
        for n_bytes in range(1, 257):
            assert memory.transfer_cycles(n_bytes) == bus.transfer_cycles(n_bytes)
            # the memo is what the access path reads
            fresh = MainMemoryTiming(bus, DramConfig())
            critical, full = fresh.read_critical(0, n_bytes)
            assert full == 80 + bus.transfer_cycles(n_bytes)
            assert critical == 80 + bus.transfer_cycles(bus.width_bytes)
            assert fresh.write(full, n_bytes) == full + bus.transfer_cycles(n_bytes)


class TestHashEngineTiming:
    def test_single_hash_latency(self):
        engine = HashEngineTiming(HashEngineConfig())
        # 64 bytes at 3.2 GB/s: 20 cycles occupancy + 80 latency
        assert engine.hash_op(0, 64) == 100

    def test_throughput_limits_pipeline(self):
        engine = HashEngineTiming(HashEngineConfig())
        first = engine.hash_op(0, 64)
        second = engine.hash_op(0, 64)
        assert second - first == 20  # one hash per 20 cycles

    def test_higher_throughput_shrinks_gap(self):
        engine = HashEngineTiming(HashEngineConfig(throughput_gb_per_s=6.4))
        first = engine.hash_op(0, 64)
        second = engine.hash_op(0, 64)
        assert second - first == 10

    def test_read_buffer_blocks_when_full(self):
        config = HashEngineConfig(read_buffer_entries=2)
        engine = HashEngineTiming(config)
        slot_a, start_a = engine.begin_check(0)
        slot_b, start_b = engine.begin_check(0)
        engine.finish_check(slot_a, 500)
        engine.finish_check(slot_b, 700)
        _, start_c = engine.begin_check(0)
        assert start_c == 500  # waits for the earliest slot to free
        assert engine.stats["read_buffer_stalls"] == 1

    def test_write_buffer_independent_of_read_buffer(self):
        config = HashEngineConfig(read_buffer_entries=1, write_buffer_entries=1)
        engine = HashEngineTiming(config)
        slot, _ = engine.begin_check(0)
        engine.finish_check(slot, 1000)
        _, start = engine.begin_writeback(0)
        assert start == 0

    def test_timing_disabled_is_free(self):
        engine = HashEngineTiming(HashEngineConfig())
        engine.timing_enabled = False
        assert engine.hash_op(42, 64) == 42
        assert engine.begin_check(42) == (0, 42)
        engine.finish_check(0, 10**9)
        engine.timing_enabled = True
        _, start = engine.begin_check(0)
        assert start == 0  # the disabled finish_check left no residue

    @pytest.mark.parametrize("throughput", FIG6_THROUGHPUTS)
    def test_memoized_occupancy_matches_config(self, throughput):
        config = HashEngineConfig(throughput_gb_per_s=throughput)
        for n_bytes in (1, 8, 16, 32, 64, 100, 128, 256):
            occupancy = config.hash_occupancy_cycles(n_bytes)
            engine = HashEngineTiming(config)
            assert engine.hash_occupancy_cycles(n_bytes) == occupancy
            fresh = HashEngineTiming(config)
            assert fresh.hash_op(0, n_bytes) == config.latency_cycles + occupancy
            assert fresh.hash_op(0, n_bytes) == (config.latency_cycles
                                                 + 2 * occupancy)


class TestBufferPool:
    def test_equal_free_times_pick_the_lowest_slot(self):
        pool = _BufferPool(4)
        assert [pool.acquire(0)[0] for _ in range(4)] == [0, 1, 2, 3]
        # all four now free at 1: the lowest index wins again
        assert pool.acquire(0) == (0, 1)

    def test_tie_break_survives_restore(self):
        pool = _BufferPool(4)
        pool.restore((9, 3, 3, 7))
        assert pool.acquire(0) == (1, 3)
        assert pool.acquire(0) == (2, 3)
        assert pool.acquire(0) == (1, 4)
        assert pool.acquire(10) == (2, 10)

    def test_pristine_restore_into_other_depth(self):
        pool = _BufferPool(3)
        pool.hold(2, 50)
        pool.restore((0,) * 8)
        assert pool.snapshot() == (0, 0, 0)
        assert [pool.acquire(5)[0] for _ in range(3)] == [0, 1, 2]
