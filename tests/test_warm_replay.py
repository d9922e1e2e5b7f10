"""Bit-identity of the warm-up accelerator (packed replay + snapshots).

The warm-state machinery is only allowed to change *wall-clock*, never
results: the packed fast path must leave the hierarchy in exactly the
state the object-stream warm-up produces, and a cell measured from a
restored snapshot must equal the same cell warmed from scratch — for
every scheme, and across cells that share a warm key while differing in
timing parameters.
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.common.config import MB, SchemeKind, table1_config
from repro.sim.system import (
    prepare_warm_state,
    run_benchmark,
    run_from_warm_state,
)
from repro.workloads.generators import (
    WARM_IFETCH,
    WARM_LOAD,
    WARM_STORE,
    WARM_STORE_FULL,
    InstructionStream,
    generate_instructions,
)
from repro.workloads.spec import SPEC_PROFILES

ALL_SCHEMES = (SchemeKind.BASE, SchemeKind.NAIVE, SchemeKind.CHASH,
               SchemeKind.MHASH, SchemeKind.IHASH)

#: one profile per access pattern (wset, random, stream, mixed)
PATTERN_BENCHMARKS = ("gcc", "mcf", "swim", "art")


def functional_state(hierarchy: MemoryHierarchy) -> dict:
    """The hierarchy snapshot minus statistics.

    Warm-up statistics are reset at the measurement boundary, so the two
    warm paths are free to account them differently (the object path
    records a time-dependent ``latest_check``; the packed path replays at
    cycle 0) — what must match exactly is the functional state.
    """
    snap = hierarchy.snapshot()
    del snap["stats"]
    snap["scheme"] = None
    for key in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        snap[key] = snap[key][:-1]  # drop the per-component counter dict
    return snap


class TestInstructionStream:
    @pytest.mark.parametrize("bench", PATTERN_BENCHMARKS)
    def test_take_matches_generator(self, bench):
        profile = SPEC_PROFILES[bench]
        taken = InstructionStream(profile, seed=7).take(6_000)
        generated = list(generate_instructions(profile, 6_000, seed=7))
        assert taken == generated

    @pytest.mark.parametrize("bench", PATTERN_BENCHMARKS)
    def test_segmented_take_matches_one_shot(self, bench):
        profile = SPEC_PROFILES[bench]
        stream = InstructionStream(profile, seed=1)
        segments = stream.take(1_000) + stream.take(1) + stream.take(2_999)
        assert segments == InstructionStream(profile, seed=1).take(4_000)

    @pytest.mark.parametrize("bench", PATTERN_BENCHMARKS)
    def test_packed_prefix_preserves_suffix(self, bench):
        """Draining N instructions packed leaves the stream exactly where
        draining them as objects would — the RNG draw order is shared."""
        profile = SPEC_PROFILES[bench]
        reference = InstructionStream(profile, seed=5).take(9_000)
        stream = InstructionStream(profile, seed=5)
        for _ in stream.packed(6_000, chunk_instructions=2_048):
            pass
        assert stream.take(3_000) == reference[6_000:]

    def test_packed_rows_are_the_memory_events(self):
        profile = SPEC_PROFILES["gcc"]
        objects = InstructionStream(profile, seed=0).take(4_000)
        rows = []
        for codes, values in InstructionStream(profile, seed=0).packed(4_000):
            rows.extend(zip(codes, values))
        expected = []
        last_line = -1
        for instruction in objects:
            line = instruction.pc >> 5
            if line != last_line:
                last_line = line
                expected.append((WARM_IFETCH, instruction.pc))
            if instruction.kind == "load":
                expected.append((WARM_LOAD, instruction.address))
            elif instruction.kind == "store":
                code = WARM_STORE_FULL if instruction.full_block else WARM_STORE
                expected.append((code, instruction.address))
        assert rows == expected

    def test_state_roundtrip_resumes_exactly(self):
        profile = SPEC_PROFILES["swim"]
        stream = InstructionStream(profile, seed=2)
        stream.take(2_500)
        state = stream.state()
        expected = stream.take(2_000)
        resumed = InstructionStream.from_state(profile, state)
        assert resumed.take(2_000) == expected

    def test_packed_rejects_non_power_of_two_line(self):
        stream = InstructionStream(SPEC_PROFILES["gcc"])
        with pytest.raises(ValueError):
            next(stream.packed(100, line_bytes=48))


class TestPackedWarm:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_packed_warm_state_matches_object_warm(self, scheme):
        config = table1_config(scheme)
        profile = SPEC_PROFILES["gcc"]
        by_object = MemoryHierarchy(config)
        by_packed = MemoryHierarchy(config)
        by_object.warm(InstructionStream(profile, 0).take(20_000))
        by_packed.warm_vec(InstructionStream(profile, 0).packed(
            20_000, line_bytes=config.l1i.block_bytes))
        assert functional_state(by_object) == functional_state(by_packed)

    @pytest.mark.parametrize("bench", PATTERN_BENCHMARKS)
    def test_packed_warm_state_matches_across_patterns(self, bench):
        config = table1_config(SchemeKind.CHASH)
        profile = SPEC_PROFILES[bench]
        by_object = MemoryHierarchy(config)
        by_packed = MemoryHierarchy(config)
        by_object.warm(InstructionStream(profile, 0).take(20_000))
        by_packed.warm_vec(InstructionStream(profile, 0).packed(
            20_000, line_bytes=config.l1i.block_bytes))
        assert functional_state(by_object) == functional_state(by_packed)

    def test_packed_warm_applies_valid_bit_ablation(self):
        """With §5.3 disabled, packed full-block stores must take the
        ordinary fetch-and-check miss path, exactly like ``warm``."""
        import dataclasses
        config = dataclasses.replace(table1_config(SchemeKind.CHASH),
                                     write_allocate_valid_bits=False)
        profile = SPEC_PROFILES["swim"]  # streaming: emits full-block stores
        by_object = MemoryHierarchy(config)
        by_packed = MemoryHierarchy(config)
        by_object.warm(InstructionStream(profile, 0).take(20_000))
        by_packed.warm_vec(InstructionStream(profile, 0).packed(
            20_000, line_bytes=config.l1i.block_bytes))
        assert functional_state(by_object) == functional_state(by_packed)


class TestWarmStateSharing:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_restored_cell_equals_cold_cell(self, scheme):
        config = table1_config(scheme)
        cold = run_benchmark(config, "gcc", instructions=1_500, warmup=8_000)
        state = prepare_warm_state(config, "gcc", warmup=8_000)
        shared = run_from_warm_state(config, "gcc", state,
                                     instructions=1_500)
        assert shared.cycles == cold.cycles
        assert shared.stats == cold.stats

    def test_warm_state_survives_reuse(self):
        config = table1_config(SchemeKind.CHASH)
        state = prepare_warm_state(config, "swim", warmup=8_000)
        first = run_from_warm_state(config, "swim", state, instructions=1_500)
        second = run_from_warm_state(config, "swim", state, instructions=1_500)
        assert first.cycles == second.cycles
        assert first.stats == second.stats

    def test_warm_state_shared_across_timing_configs(self):
        """One warm state serves cells that differ only in bus/hash
        timing — the fig6/fig7 scenario the warm key exists for."""
        import dataclasses
        base_config = table1_config(SchemeKind.CHASH)
        slow_engine = dataclasses.replace(
            base_config,
            hash_engine=dataclasses.replace(
                base_config.hash_engine,
                throughput_gb_per_s=0.8,
                read_buffer_entries=1,
                write_buffer_entries=1,
            ),
        )
        state = prepare_warm_state(base_config, "gcc", warmup=8_000)
        shared = run_from_warm_state(slow_engine, "gcc", state,
                                     instructions=1_500)
        cold = run_benchmark(slow_engine, "gcc", instructions=1_500,
                             warmup=8_000)
        assert shared.cycles == cold.cycles
        assert shared.stats == cold.stats

    def test_presweep_leak_reproduced_at_zero_warmup(self):
        """``warmup=0`` keeps pre-sweep statistics in the measured run
        (historical behaviour); a snapshot must reproduce that bit for
        bit, which is why it carries the statistic groups too."""
        config = table1_config(SchemeKind.CHASH)
        cold = run_benchmark(config, "swim", instructions=1_000, warmup=0)
        state = prepare_warm_state(config, "swim", warmup=0)
        shared = run_from_warm_state(config, "swim", state,
                                     instructions=1_000)
        assert shared.cycles == cold.cycles
        assert shared.stats == cold.stats


class TestHierarchySnapshot:
    def test_snapshot_is_immune_to_later_traffic(self):
        config = table1_config(SchemeKind.CHASH)
        hierarchy = MemoryHierarchy(config)
        hierarchy.warm(InstructionStream(SPEC_PROFILES["gcc"], 0).take(5_000))
        snap = hierarchy.snapshot()
        reference = functional_state(hierarchy)
        for i in range(2_000):  # scribble over the snapshot's state
            hierarchy.store(i * 64, i, full_block=bool(i % 2))
        assert functional_state(hierarchy) != reference
        hierarchy.restore(snap)
        assert functional_state(hierarchy) == reference
        assert hierarchy.snapshot() == snap

    def test_restore_on_fresh_instance(self):
        config = table1_config(SchemeKind.MHASH)
        warmed = MemoryHierarchy(config)
        warmed.warm(InstructionStream(SPEC_PROFILES["mcf"], 0).take(5_000))
        snap = warmed.snapshot()
        fresh = MemoryHierarchy(config)
        fresh.restore(snap)
        assert functional_state(fresh) == functional_state(warmed)
        assert fresh.snapshot() == snap
