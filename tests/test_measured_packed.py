"""Bit-identity of the fast path against the object oracle.

The simulator has one fast path — packed columns replayed by
``MemoryHierarchy.warm_vec`` and scheduled by ``OutOfOrderCore.run_vec``
— and one oracle, the per-``Instruction`` object path (``warm``/``run``,
selected for measurement by ``REPRO_MEASURE=object``).  The fast path is
only allowed to change *wall-clock*, never results: for every scheme,
access pattern and L1-I geometry it must produce the same cycle count,
instruction count and full statistics dict as the oracle, and warm-up
must leave the same hierarchy state.

Alongside the equivalence grid live the column-fidelity checks of
``take_packed``, warm sharing under a wide L1-I, and the regressions for
two bugs this machinery exposed: the core's fetch-line shift is derived
from the configured L1-I block size (not hard-coded to 32-byte lines),
and fetch stalls are attributed to the structure that caused them (I-TLB
walk vs I-cache miss).  The kernels behind the fast path — the
prepass route, its edge cases, the trace cache and the
``REPRO_MEASURE`` parsing — are held to the same oracle in
``tests/test_kernels.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.common.config import SchemeKind, SystemConfig, table1_config
from repro.common.packed import (
    MEAS_ALU,
    MEAS_BRANCH,
    MEAS_BRANCH_MISPREDICT,
    MEAS_FP,
    MEAS_LOAD,
    MEAS_STORE,
    MEAS_STORE_FULL,
    WARM_IFETCH,
)
from repro.cpu.isa import Instruction
from repro.cpu.ooo import OutOfOrderCore
from repro.sim.system import (
    MEASURE_PATH_ENV,
    SimulatedSystem,
    _reset_counters,
    prepare_warm_state,
    run_benchmark,
    run_from_warm_state,
)
from repro.workloads.generators import InstructionStream
from repro.workloads.spec import SPEC_PROFILES

ALL_SCHEMES = (SchemeKind.BASE, SchemeKind.NAIVE, SchemeKind.CHASH,
               SchemeKind.MHASH, SchemeKind.IHASH)

#: one profile per access pattern (wset, random, stream)
IDENTITY_BENCHMARKS = ("gcc", "mcf", "swim")

@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """An ambient ``REPRO_MEASURE`` must not leak into the grid."""
    monkeypatch.delenv(MEASURE_PATH_ENV, raising=False)


def with_l1i_block(config: SystemConfig, block_bytes: int) -> SystemConfig:
    """``config`` with its L1 I-cache rebuilt on ``block_bytes`` lines."""
    return dataclasses.replace(
        config,
        l1i=dataclasses.replace(config.l1i, block_bytes=block_bytes),
    )


def measured_code(instruction: Instruction) -> int:
    """The MEAS_* code ``take_packed`` must emit for ``instruction``."""
    if instruction.kind == "load":
        return MEAS_LOAD
    if instruction.kind == "store":
        return MEAS_STORE_FULL if instruction.full_block else MEAS_STORE
    if instruction.kind == "branch":
        return (MEAS_BRANCH_MISPREDICT if instruction.mispredicted
                else MEAS_BRANCH)
    return MEAS_FP if instruction.kind == "fp" else MEAS_ALU


class TestTakePacked:
    """The measured-mode columns carry exactly the object-stream fields."""

    @pytest.mark.parametrize("bench", ("gcc", "mcf", "swim", "art"))
    def test_columns_carry_the_object_fields(self, bench):
        profile = SPEC_PROFILES[bench]
        objects = InstructionStream(profile, seed=3).take(6_000)
        rows = []
        for columns in InstructionStream(profile, seed=3).take_packed(
                6_000, chunk_instructions=2_048):
            rows.extend(zip(*columns))
        assert len(rows) == len(objects)
        for row, instruction in zip(rows, objects):
            kind, pc, address, dep1, dep2, latency = row
            assert kind == measured_code(instruction)
            assert pc == instruction.pc
            assert dep1 == instruction.dep1
            assert dep2 == instruction.dep2
            assert latency == instruction.latency
            if instruction.is_memory:
                assert address == instruction.address

    @pytest.mark.parametrize("bench", ("gcc", "mcf", "swim", "art"))
    def test_packed_prefix_preserves_suffix(self, bench):
        """Draining N instructions packed leaves the stream exactly where
        draining them as objects would — the RNG draw order is shared."""
        profile = SPEC_PROFILES[bench]
        reference = InstructionStream(profile, seed=5).take(9_000)
        stream = InstructionStream(profile, seed=5)
        for _ in stream.take_packed(6_000, chunk_instructions=2_048):
            pass
        assert stream.take(3_000) == reference[6_000:]


class TestBitIdentity:
    """The fast path equals the object oracle: cycles, instruction count
    and the full stats dict, for every scheme × pattern × L1-I geometry,
    measured from one shared warm state."""

    def _pair(self, monkeypatch, config, bench,
              instructions=2_000, warmup=6_000):
        state = prepare_warm_state(config, bench, warmup=warmup)
        monkeypatch.setenv(MEASURE_PATH_ENV, "object")
        oracle = run_from_warm_state(config, bench, state,
                                     instructions=instructions)
        monkeypatch.delenv(MEASURE_PATH_ENV)
        fast = run_from_warm_state(config, bench, state,
                                   instructions=instructions)
        return oracle, fast

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("bench", IDENTITY_BENCHMARKS)
    def test_default_geometry(self, monkeypatch, scheme, bench):
        oracle, fast = self._pair(monkeypatch, table1_config(scheme), bench)
        assert fast.cycles == oracle.cycles
        assert fast.instructions == oracle.instructions
        assert fast.stats == oracle.stats

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("bench", IDENTITY_BENCHMARKS)
    def test_wide_l1i_geometry(self, monkeypatch, scheme, bench):
        config = with_l1i_block(table1_config(scheme), 64)
        oracle, fast = self._pair(monkeypatch, config, bench)
        assert fast.cycles == oracle.cycles
        assert fast.instructions == oracle.instructions
        assert fast.stats == oracle.stats


class TestWarmState:
    """``warm_vec`` leaves the hierarchy exactly where the object-stream
    ``warm`` does: the whole snapshot at the measurement boundary —
    caches, TLBs, scheme state, bus/engine state and the (reset)
    statistics — over small chunks, so chunk boundaries fall often."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("bench", IDENTITY_BENCHMARKS)
    def test_warm_vec_matches_object_warm(self, scheme, bench):
        config = table1_config(scheme)
        profile = SPEC_PROFILES[bench]
        by_object = SimulatedSystem(config)
        by_object.hierarchy.warm(InstructionStream(profile, 0).take(20_000))
        _reset_counters(by_object)
        fast = SimulatedSystem(config)
        fast.hierarchy.warm_vec(InstructionStream(profile, 0).packed(
            20_000, line_bytes=config.l1i.block_bytes,
            chunk_instructions=2_048))
        _reset_counters(fast)
        assert fast.hierarchy.snapshot() == by_object.hierarchy.snapshot()


class TestWarmSharingWideL1I:
    """Satellite: a cell measured from a restored snapshot equals the same
    cell warmed from scratch under a non-default L1-I geometry — for every
    scheme (the ``>>5`` bug class made exactly this diverge)."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_restored_cell_equals_cold_cell(self, scheme):
        config = with_l1i_block(table1_config(scheme), 64)
        cold = run_benchmark(config, "gcc", instructions=1_500, warmup=8_000)
        state = prepare_warm_state(config, "gcc", warmup=8_000)
        shared = run_from_warm_state(config, "gcc", state,
                                     instructions=1_500)
        assert shared.cycles == cold.cycles
        assert shared.stats == cold.stats


class TestFetchLineGeometry:
    """Satellite: the core probes the L1-I once per configured I-line."""

    @pytest.mark.parametrize("block_bytes", (32, 64))
    def test_one_probe_per_iline(self, block_bytes):
        config = with_l1i_block(table1_config(SchemeKind.BASE), block_bytes)
        profile = SPEC_PROFILES["gcc"]
        n = 4_000
        # the dedup ``warm_vec`` applies: one WARM_IFETCH row per line
        expected = 0
        for codes, _ in InstructionStream(profile, 0).packed(
                n, line_bytes=block_bytes):
            expected += sum(1 for code in codes if code == WARM_IFETCH)
        system = SimulatedSystem(config)
        system.run(InstructionStream(profile, 0).take(n))
        assert system.hierarchy.l1i.stats["data_accesses"] == expected

    @pytest.mark.parametrize("block_bytes", (32, 64))
    def test_packed_core_issues_the_same_probes(self, block_bytes):
        config = with_l1i_block(table1_config(SchemeKind.BASE), block_bytes)
        profile = SPEC_PROFILES["gcc"]
        n = 4_000
        by_object = SimulatedSystem(config)
        by_object.run(InstructionStream(profile, 0).take(n))
        by_packed = SimulatedSystem(config)
        by_packed.run_chunks(InstructionStream(profile, 0).take_packed(n))
        assert (by_packed.hierarchy.l1i.stats["data_accesses"]
                == by_object.hierarchy.l1i.stats["data_accesses"])


class TestStallAttribution:
    """Satellite: fetch stalls land on the structure that caused them."""

    def test_itlb_miss_l1i_hit_is_a_tlb_stall(self):
        config = table1_config(SchemeKind.BASE)
        hierarchy = MemoryHierarchy(config)
        core = OutOfOrderCore(config.core, hierarchy)
        # pre-fill the I-line for pc=0 while leaving the I-TLB cold
        hierarchy.l1i.fill(hierarchy.scheme.data_address(0), kind="instr")
        core.run([Instruction(kind="alu", pc=0)])
        assert (core.stats["itlb_stall_cycles"]
                == config.tlb.miss_penalty_cycles)
        assert "icache_stall_cycles" not in core.stats

    def test_itlb_hit_l1i_miss_is_an_icache_stall(self):
        config = table1_config(SchemeKind.BASE)
        hierarchy = MemoryHierarchy(config)
        core = OutOfOrderCore(config.core, hierarchy)
        # pre-warm the I-TLB page while leaving the L1-I cold
        hierarchy.itlb.warm_access(0)
        core.run([Instruction(kind="alu", pc=0)])
        assert core.stats["icache_stall_cycles"] > config.l1i.latency_cycles
        assert "itlb_stall_cycles" not in core.stats

    def test_cold_fetch_splits_the_stall(self):
        """A fetch missing both structures books the walk on the I-TLB and
        only the remainder on the I-cache."""
        config = table1_config(SchemeKind.BASE)
        hierarchy = MemoryHierarchy(config)
        core = OutOfOrderCore(config.core, hierarchy)
        ready, _, itlb_cycles = MemoryHierarchy(config).ifetch(0, 0)
        core.run([Instruction(kind="alu", pc=0)])
        assert core.stats["itlb_stall_cycles"] == itlb_cycles
        assert core.stats["itlb_stall_cycles"] == config.tlb.miss_penalty_cycles
        assert core.stats["icache_stall_cycles"] == ready - itlb_cycles
