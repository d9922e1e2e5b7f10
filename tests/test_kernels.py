"""Bit-identity of the fast path's kernels against the object oracle.

The fast path has one route per chunk: ``OutOfOrderCore.run_vec``
schedules every packed measured chunk from a ``MeasurePrepass``, and
``MemoryHierarchy.warm_vec`` interprets every packed warm row.  Each
must equal the per-``Instruction`` object oracle
(``REPRO_MEASURE=object``): cycles, instruction count, the full
statistics dict and the hierarchy end state.

Alongside live the edge cases the prepass must not mishandle (same-set
dependent runs, eviction storms, chunk-boundary straddles, column
non-mutation), the whole cell run through the oracle end to end, the
warm-state trace cache and the strict parsing of ``REPRO_MEASURE``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import SchemeKind, SystemConfig, table1_config
from repro.common.packed import (
    MEAS_ALU,
    MEAS_BRANCH,
    MEAS_BRANCH_MISPREDICT,
    MEAS_FP,
    MEAS_LOAD,
    MEAS_STORE,
    MEAS_STORE_FULL,
)
from repro.cpu.isa import Instruction
from repro.sim.system import (
    MEASURE_PATH_ENV,
    SimulatedSystem,
    _presweep_stream,
    _reset_counters,
    packed_measure_default,
    prepare_warm_state,
    run_from_warm_state,
)
from repro.workloads.generators import InstructionStream
from repro.workloads.spec import SPEC_PROFILES

ALL_SCHEMES = (SchemeKind.BASE, SchemeKind.NAIVE, SchemeKind.CHASH,
               SchemeKind.MHASH, SchemeKind.IHASH)

#: one profile per access pattern (wset, random, stream)
IDENTITY_BENCHMARKS = ("gcc", "mcf", "swim")

#: the fast path's per-chunk routes: every measured chunk goes through
#: the prepass
ROUTES = ("prepass",)

#: object-stream kind of each measured-mode row code
KIND_NAMES = {
    MEAS_ALU: "alu", MEAS_FP: "fp", MEAS_LOAD: "load", MEAS_STORE: "store",
    MEAS_STORE_FULL: "store", MEAS_BRANCH: "branch",
    MEAS_BRANCH_MISPREDICT: "branch",
}


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


def as_instructions(chunks):
    """The object stream equivalent to measured-mode column ``chunks``."""
    instructions = []
    for chunk in chunks:
        for kind, pc, address, dep1, dep2, latency in zip(*chunk):
            instruction = Instruction(
                kind=KIND_NAMES[kind], pc=pc, address=address, dep1=dep1,
                dep2=dep2, full_block=kind == MEAS_STORE_FULL,
                mispredicted=kind == MEAS_BRANCH_MISPREDICT)
            if not instruction.is_memory:
                assert instruction.latency == latency
            instructions.append(instruction)
    return instructions


def object_warmed_system(config, bench, warmup):
    """A system warmed exactly as ``prepare_warm_state`` warms one, but
    through the object ``warm``; plus the stream parked at the boundary."""
    profile = SPEC_PROFILES[bench]
    system = SimulatedSystem(config)
    if profile.pattern in ("stream", "mixed"):
        _presweep_stream(system, profile)
    stream = InstructionStream(profile, 0)
    system.hierarchy.warm(stream.take(warmup))
    _reset_counters(system)
    return system, stream


# ---------------------------------------------------------------------------
# strict environment parsing
# ---------------------------------------------------------------------------


class TestStrictMeasureEnv:
    """``REPRO_MEASURE`` accepts exactly ``packed`` and ``object``."""

    def test_valid_values(self, monkeypatch):
        assert packed_measure_default()  # unset -> fast path
        monkeypatch.setenv(MEASURE_PATH_ENV, "packed")
        assert packed_measure_default()
        monkeypatch.setenv(MEASURE_PATH_ENV, "object")
        assert not packed_measure_default()

    def test_unknown_value_rejected(self, monkeypatch):
        monkeypatch.setenv(MEASURE_PATH_ENV, "obj")
        with pytest.raises(ValueError, match="unknown measured path"):
            packed_measure_default()


# ---------------------------------------------------------------------------
# each route against the object oracle
# ---------------------------------------------------------------------------


def route_results(monkeypatch, config, bench,
                  instructions=2_000, warmup=6_000):
    """The object oracle plus the fast path on each route, all measured
    from one shared warm state."""
    state = prepare_warm_state(config, bench, warmup=warmup)
    monkeypatch.setenv(MEASURE_PATH_ENV, "object")
    oracle = run_from_warm_state(config, bench, state,
                                 instructions=instructions)
    monkeypatch.delenv(MEASURE_PATH_ENV)
    results = {}
    for route in ROUTES:
        results[route] = run_from_warm_state(
            config, bench, state, instructions=instructions)
    return oracle, results


class TestBitIdentity:
    """Each measured route equals the object oracle: cycles, instruction
    count and the full stats dict, for every scheme × pattern × L1-I
    geometry."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("bench", IDENTITY_BENCHMARKS)
    def test_default_geometry(self, monkeypatch, scheme, bench):
        oracle, results = route_results(monkeypatch, table1_config(scheme),
                                        bench)
        for route, result in results.items():
            assert result.cycles == oracle.cycles, route
            assert result.instructions == oracle.instructions, route
            assert result.stats == oracle.stats, route

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_wide_l1i_geometry(self, monkeypatch, scheme):
        config = with_l1i_block(table1_config(scheme), 64)
        oracle, results = route_results(monkeypatch, config, "gcc")
        for route, result in results.items():
            assert result.cycles == oracle.cycles, route
            assert result.stats == oracle.stats, route

    @pytest.mark.parametrize("bench", IDENTITY_BENCHMARKS)
    def test_object_oracle_chain(self, bench):
        """The whole cell in one place: warm-up *and* measurement through
        the object path equal ``prepare_warm_state`` +
        ``run_from_warm_state`` through the fast path, on every route."""
        config = table1_config(SchemeKind.CHASH)
        system, stream = object_warmed_system(config, bench, 6_000)
        oracle = system.run(stream.take(2_000))
        state = prepare_warm_state(config, bench, warmup=6_000)
        for route in ROUTES:
            result = run_from_warm_state(config, bench, state,
                                         instructions=2_000)
            assert result.cycles == oracle.cycles, route
            assert result.instructions == oracle.instructions, route
            assert result.stats == oracle.stats, route


class TestWarmBackends:
    """``warm_vec`` leaves ``prepare_warm_state`` with the snapshot and
    parked stream the object ``warm`` produces — so a warm fingerprint
    never depends on which path warmed the cell."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_warm_state_identical_across_backends(self, scheme):
        config = table1_config(scheme)
        system, stream = object_warmed_system(config, "gcc", 6_000)
        suffix = stream.take(500)
        state = prepare_warm_state(config, "gcc", warmup=6_000)
        assert state.snapshot == system.hierarchy.snapshot()
        # the parked stream resumes where the object stream goes on
        parked = InstructionStream.from_state(state.profile,
                                              state.stream_state)
        assert parked.take(500) == suffix


# ---------------------------------------------------------------------------
# edge cases the prepass must not mishandle
# ---------------------------------------------------------------------------


def copy_chunks(chunks):
    """A deep copy, so each run consumes pristine columns."""
    return [tuple(list(column) for column in chunk) for chunk in chunks]


def run_cold(config, chunks, fast):
    """Run ``chunks`` on a cold system through the fast path (``fast``)
    or the object oracle; the result plus the hierarchy end state."""
    system = SimulatedSystem(config)
    if fast:
        result = system.run_chunks(copy_chunks(chunks))
    else:
        result = system.run(as_instructions(chunks))
    return result, system.hierarchy.snapshot()


def assert_fast_matches_oracle(config, chunks):
    oracle, end_state = run_cold(config, chunks, fast=False)
    result, state = run_cold(config, chunks, fast=True)
    assert result.cycles == oracle.cycles
    assert result.instructions == oracle.instructions
    assert result.stats == oracle.stats
    assert state == end_state


class TestPrepassEdgeCases:
    """Synthetic column chunks aimed at the prepass's weak spots."""

    def test_same_set_dependent_runs(self):
        """Loads chained by distance-1 dependencies, cycling over two more
        blocks than one L1D set holds — every access both conflicts and
        depends on the previous row's completion."""
        config = table1_config(SchemeKind.CHASH)
        l1d = config.l1d
        stride = l1d.n_sets * l1d.block_bytes
        ways = l1d.associativity + 2
        rows = 768
        kinds, pcs, addresses = [], [], []
        dep1s, dep2s, latencies = [], [], []
        for i in range(rows):
            kinds.append(MEAS_LOAD if i % 3 else MEAS_STORE)
            pcs.append(0x1000 + 4 * i)
            addresses.append(0x4000 + (i % ways) * stride)
            dep1s.append(1 if i else 0)
            dep2s.append(0)
            latencies.append(1)
        chunks = [(kinds, pcs, addresses, dep1s, dep2s, latencies)]
        assert_fast_matches_oracle(config, chunks)

    def test_eviction_storm(self):
        """A block-stride sweep over 4x the L1D with full-block stores
        mixed in: nearly every row misses and most evict a dirty block."""
        config = table1_config(SchemeKind.MHASH)
        l1d = config.l1d
        footprint = 4 * l1d.n_blocks
        rows = 1_024
        kinds, pcs, addresses = [], [], []
        dep1s, dep2s, latencies = [], [], []
        for i in range(rows):
            kinds.append(MEAS_STORE_FULL if i % 4 == 3 else MEAS_LOAD)
            pcs.append(0x2000 + 4 * (i % 64))
            addresses.append(0x8000 + (i % footprint) * l1d.block_bytes)
            dep1s.append(0)
            dep2s.append(0)
            latencies.append(1)
        chunks = [(kinds, pcs, addresses, dep1s, dep2s, latencies)]
        assert_fast_matches_oracle(config, chunks)

    def test_compute_and_mispredict_mix(self):
        """ALU/FP/branch rows (including mispredicts) interleaved with
        loads: the non-memory latencies and the redirect penalty must
        survive the prepass's precomputation."""
        config = table1_config(SchemeKind.BASE)
        pattern = (
            (MEAS_ALU, 1), (MEAS_FP, 4), (MEAS_LOAD, 1),
            (MEAS_BRANCH, 1), (MEAS_ALU, 1),
            (MEAS_BRANCH_MISPREDICT, 1), (MEAS_FP, 4), (MEAS_LOAD, 1),
        )
        rows = 640
        kinds, pcs, addresses = [], [], []
        dep1s, dep2s, latencies = [], [], []
        for i in range(rows):
            kind, latency = pattern[i % len(pattern)]
            kinds.append(kind)
            pcs.append(0x3000 + 4 * i)
            addresses.append(0x6000 + (i * 8) % 4_096
                             if kind == MEAS_LOAD else 0)
            dep1s.append(2 if i >= 2 else 0)
            dep2s.append(5 if i >= 5 and i % 7 == 0 else 0)
            latencies.append(latency)
        chunks = [(kinds, pcs, addresses, dep1s, dep2s, latencies)]
        assert_fast_matches_oracle(config, chunks)

    @pytest.mark.parametrize("route", ROUTES)
    def test_chunk_boundary_straddles(self, route):
        """Re-chunking the same stream (odd 97-row chunks vs one big
        chunk) cannot change results on any route: line runs and page
        runs straddling chunk boundaries must carry over exactly."""
        assert route in ROUTES
        config = table1_config(SchemeKind.CHASH)
        profile = SPEC_PROFILES["gcc"]
        n = 2_000
        whole = list(InstructionStream(profile, 0).take_packed(
            n, chunk_instructions=n))
        straddled = list(InstructionStream(profile, 0).take_packed(
            n, chunk_instructions=97))
        oracle, end_state = run_cold(config, whole, fast=False)
        for chunks in (whole, straddled):
            result, state = run_cold(config, chunks, fast=True)
            assert result.cycles == oracle.cycles
            assert result.stats == oracle.stats
            assert state == end_state

    @pytest.mark.parametrize("route", ROUTES)
    def test_columns_are_not_mutated(self, route):
        """The warm-state trace cache hands the *same* column lists to
        every cell and repeat — a route that wrote into them would
        corrupt every later run."""
        assert route in ROUTES
        config = table1_config(SchemeKind.CHASH)
        profile = SPEC_PROFILES["mcf"]
        chunks = list(InstructionStream(profile, 0).take_packed(
            1_500, chunk_instructions=512))
        pristine = copy_chunks(chunks)
        system = SimulatedSystem(config)
        system.run_chunks(chunks)
        assert chunks == pristine


# ---------------------------------------------------------------------------
# warm-state trace cache
# ---------------------------------------------------------------------------


class TestTraceCache:
    """``WarmState.measured_chunks`` shares one generation pass across
    cells and repeats without changing any result."""

    def test_chunks_cached_per_count(self):
        config = table1_config(SchemeKind.BASE)
        state = prepare_warm_state(config, "gcc", warmup=6_000)
        first = state.measured_chunks(1_000)
        assert state.measured_chunks(1_000) is first
        assert state.measured_chunks(500) is not first
        # the cached trace is exactly the parked stream's suffix
        stream = InstructionStream.from_state(state.profile,
                                              state.stream_state)
        assert first == list(stream.take_packed(1_000))

    def test_repeats_from_one_state_are_identical(self):
        config = table1_config(SchemeKind.CHASH)
        state = prepare_warm_state(config, "swim", warmup=6_000)
        first = run_from_warm_state(config, "swim", state,
                                    instructions=1_500)
        second = run_from_warm_state(config, "swim", state,
                                     instructions=1_500)
        assert second.cycles == first.cycles
        assert second.stats == first.stats
