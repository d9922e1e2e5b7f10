"""Full-system simulator: config + workload in, :class:`SimResult` out.

This is the top of the timing stack — the equivalent of the paper's
modified SimpleScalar run.  It owns cache warm-up (the paper fast-forwards
1.5 billion instructions; we warm structures with a prefix of the same
instruction stream before measuring).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..cache.hierarchy import DEFAULT_PROTECTED_BYTES, MemoryHierarchy
from ..common.config import SystemConfig
from ..cpu.isa import Instruction
from ..cpu.ooo import CoreResult, OutOfOrderCore
from ..workloads.generators import InstructionStream, WorkloadProfile
from ..workloads.spec import SPEC_PROFILES
from .results import SimResult

#: Environment switch for the measured path: ``REPRO_MEASURE=object``
#: routes :meth:`SimulatedSystem.run_stream` (and therefore
#: :func:`run_benchmark`, :func:`run_from_warm_state` and every sweep
#: cell) through the per-:class:`Instruction` oracle path instead of the
#: packed columns of the fast path.  Results are bit-identical either
#: way (``tests/test_measured_packed.py`` and ``tests/test_kernels.py``
#: prove it); the flag exists so
#: the oracle stays one environment variable away.
MEASURE_PATH_ENV = "REPRO_MEASURE"


def packed_measure_default() -> bool:
    """Whether measured runs use the packed fast path by default.

    Unknown values raise rather than silently selecting a path — a typo
    like ``REPRO_MEASURE=obj`` must not send a whole sweep down the fast
    path while the operator believes the oracle is running.
    """
    value = os.environ.get(MEASURE_PATH_ENV, "packed")
    if value not in ("packed", "object"):
        raise ValueError(
            f"unknown measured path {value!r} (from ${MEASURE_PATH_ENV}); "
            f"valid values: packed, object"
        )
    return value != "object"


class SimulatedSystem:
    """One machine instance: build once, run one instruction stream."""

    def __init__(self, config: SystemConfig,
                 protected_bytes: int = DEFAULT_PROTECTED_BYTES):
        self.config = config
        self.hierarchy = MemoryHierarchy(config, protected_bytes)
        self.core = OutOfOrderCore(config.core, self.hierarchy)

    def run(self, instructions: Sequence[Instruction],
            benchmark: str = "custom", start_cycle: int = 0) -> SimResult:
        """Run materialized :class:`Instruction` objects (the oracle path)."""
        result = self.core.run(instructions, start_cycle=start_cycle)
        return self._result(benchmark, result)

    def run_stream(self, stream: InstructionStream, count: int,
                   benchmark: str = "custom",
                   start_cycle: int = 0) -> SimResult:
        """Measure the next ``count`` instructions of ``stream``.

        The default routes through the fast path
        (:meth:`InstructionStream.take_packed` columns — see
        :meth:`run_chunks`): no :class:`Instruction` object is ever
        allocated, and the :class:`SimResult` is bit-identical to the
        object path.  ``REPRO_MEASURE=object`` in the environment selects
        the object path as an oracle.
        """
        if packed_measure_default():
            return self.run_chunks(stream.take_packed(count),
                                   benchmark=benchmark,
                                   start_cycle=start_cycle)
        result = self.core.run(stream.take(count), start_cycle=start_cycle)
        return self._result(benchmark, result)

    def run_chunks(self, chunks, benchmark: str = "custom",
                   start_cycle: int = 0) -> SimResult:
        """Measure pre-packed column ``chunks`` through the fast path.

        ``chunks`` is an iterable (or cached list — see
        :meth:`WarmState.measured_chunks`) of column tuples from
        :meth:`InstructionStream.take_packed`, scheduled by
        :meth:`OutOfOrderCore.run_vec <repro.cpu.ooo.OutOfOrderCore.run_vec>`.
        """
        result = self.core.run_vec(chunks, start_cycle=start_cycle)
        return self._result(benchmark, result)

    def _result(self, benchmark: str, result: CoreResult) -> SimResult:
        stats = self.hierarchy.all_stats()
        stats.update(self.core.stats.as_dict())
        return SimResult(
            benchmark=benchmark,
            scheme=self.config.scheme.value,
            config=self.config,
            instructions=result.instructions,
            cycles=result.cycles,
            stats=stats,
        )


def default_warmup(config: SystemConfig) -> int:
    """Warm-up length for ``config``: enough instructions to fill the L2
    even for a streaming workload (~16 instructions per block), essential
    so large caches reach steady-state dirty-eviction behaviour."""
    return 16 * config.l2.n_blocks + 200_000


def run_benchmark(
    config: SystemConfig,
    benchmark: str,
    instructions: int = 20_000,
    warmup: Optional[int] = None,
    seed: int = 0,
    profile: Optional[WorkloadProfile] = None,
    protected_bytes: int = DEFAULT_PROTECTED_BYTES,
) -> SimResult:
    """Run one (config, benchmark) pair with cache warm-up.

    The warm-up prefix is replayed *functionally* — caches, TLBs and the
    scheme's L2 hash blocks all evolve through the real code paths, but
    the bus and hash engine are free — standing in for the paper's
    1.5-billion-instruction fast-forward.  Counters reset at the boundary,
    so only the measured suffix defines IPC and traffic.

    The prefix replays through the fast path
    (:meth:`InstructionStream.packed` feeding
    :meth:`MemoryHierarchy.warm_vec`): no ``Instruction`` objects are
    allocated, and the end state is bit-identical to the object-stream
    warm-up.  The measured suffix then runs through the fast path too
    (see :meth:`SimulatedSystem.run_stream`) unless
    ``REPRO_MEASURE=object`` requests the per-object oracle.

    ``warmup`` defaults to :func:`default_warmup`.
    """
    system, stream = _warmed_system(config, benchmark, warmup, seed, profile,
                                    protected_bytes)
    return system.run_stream(stream, instructions, benchmark=benchmark)


def _warmed_system(
    config: SystemConfig,
    benchmark: str,
    warmup: Optional[int],
    seed: int,
    profile: Optional[WorkloadProfile],
    protected_bytes: int,
) -> Tuple[SimulatedSystem, InstructionStream]:
    """Build a system, pre-sweep + warm it, and park the instruction stream
    at the measurement boundary."""
    if profile is None:
        profile = SPEC_PROFILES[benchmark]
    if warmup is None:
        warmup = default_warmup(config)
    system = SimulatedSystem(config, protected_bytes)
    if profile.pattern in ("stream", "mixed"):
        _presweep_stream(system, profile)
    stream = InstructionStream(profile, seed)
    if warmup:
        system.hierarchy.warm_vec(
            stream.packed(warmup, line_bytes=config.l1i.block_bytes))
        _reset_counters(system)
    return system, stream


@dataclass
class WarmState:
    """A warmed hierarchy snapshot plus the parked instruction stream.

    Everything here is a function of the *warm key*
    (:func:`~repro.sim.sweep.fingerprint.warm_fingerprint` fields:
    geometry, scheme + tree layout, workload, seed, warm-up length) — not
    of bus/DRAM/hash timing — so one ``WarmState`` serves every sweep cell
    sharing that key.  :attr:`snapshot` and :attr:`stream_state` are
    immutable with respect to :func:`run_from_warm_state`: restoring is
    copy-on-read, so a state can seed any number of cells in any order.
    """

    profile: WorkloadProfile
    warmup: int
    seed: int
    protected_bytes: int
    #: :meth:`MemoryHierarchy.snapshot` taken at the measurement boundary.
    snapshot: dict
    #: :meth:`InstructionStream.state` at the same boundary.
    stream_state: tuple
    #: Packed measured-suffix traces keyed by instruction count — a pure
    #: cache (the stream is deterministic from :attr:`stream_state`), so
    #: cells and repeats sharing this state replay one generation pass.
    _traces: dict = field(default_factory=dict, repr=False, compare=False)

    def measured_chunks(self, instructions: int) -> list:
        """The packed measured suffix of length ``instructions``.

        Generated once per distinct count via
        :meth:`InstructionStream.take_packed` from the parked
        :attr:`stream_state`, then reused by every cell and repeat that
        measures the same suffix — trace generation is roughly half the
        per-cell cost of an L2-resident measured run, and it is identical
        across all timing-only cell parameters.
        """
        chunks = self._traces.get(instructions)
        if chunks is None:
            stream = InstructionStream.from_state(self.profile,
                                                  self.stream_state)
            chunks = list(stream.take_packed(instructions))
            self._traces[instructions] = chunks
        return chunks


def prepare_warm_state(
    config: SystemConfig,
    benchmark: str,
    warmup: Optional[int] = None,
    seed: int = 0,
    profile: Optional[WorkloadProfile] = None,
    protected_bytes: int = DEFAULT_PROTECTED_BYTES,
) -> WarmState:
    """Run the warm-up once and capture a reusable :class:`WarmState`."""
    if profile is None:
        profile = SPEC_PROFILES[benchmark]
    if warmup is None:
        warmup = default_warmup(config)
    system, stream = _warmed_system(config, benchmark, warmup, seed, profile,
                                    protected_bytes)
    return WarmState(
        profile=profile,
        warmup=warmup,
        seed=seed,
        protected_bytes=protected_bytes,
        snapshot=system.hierarchy.snapshot(),
        stream_state=stream.state(),
    )


def run_from_warm_state(
    config: SystemConfig,
    benchmark: str,
    warm_state: WarmState,
    instructions: int = 20_000,
) -> SimResult:
    """Measure one cell from a shared :class:`WarmState`.

    Builds a fresh system for ``config`` (which may differ from the
    warming config in any timing-only parameter), restores the warmed
    hierarchy state, resumes the instruction stream at the measurement
    boundary and runs the measured suffix — bit-identical to
    :func:`run_benchmark` warming this cell from scratch.

    The fast path replays the suffix from
    :meth:`WarmState.measured_chunks`, so trace generation is shared
    across every cell and repeat on this state.  The
    ``REPRO_MEASURE=object`` oracle regenerates the stream each run.
    """
    system = SimulatedSystem(config, warm_state.protected_bytes)
    system.hierarchy.restore(warm_state.snapshot)
    if packed_measure_default():
        return system.run_chunks(warm_state.measured_chunks(instructions),
                                 benchmark=benchmark)
    stream = InstructionStream.from_state(warm_state.profile,
                                          warm_state.stream_state)
    return system.run_stream(stream, instructions, benchmark=benchmark)


def _presweep_stream(system: SimulatedSystem, profile: WorkloadProfile) -> None:
    """One block-stride traversal of a streaming footprint, timing off.

    Streaming benchmarks sweep arrays much larger than any L2; in steady
    state every new block displaces a block dirtied one sweep ago.  An
    instruction-level warm-up long enough for the cursors to wrap would
    cost millions of instructions, so the sweep's end state is produced
    directly: every block of the footprint is loaded, and the write
    stream's blocks are stored, through the ordinary (scheme-aware) paths.
    """
    hierarchy = system.hierarchy
    hierarchy.set_warm_mode(True)
    try:
        base = profile.code_bytes
        half = profile.footprint_bytes // 2
        writes_blocks = profile.store_fraction > 0
        load, store = hierarchy.load, hierarchy.store
        full_block = bool(profile.stream_store_fraction)
        for offset in range(0, profile.footprint_bytes, 64):
            load(base + offset, 0)
            if writes_blocks:
                store(base + (offset + half) % profile.footprint_bytes, 0,
                      full_block=full_block)
    finally:
        hierarchy.set_warm_mode(False)


def _reset_counters(system: SimulatedSystem) -> None:
    """Zero statistics after warm-up, keeping cache/TLB/bus state."""
    hierarchy = system.hierarchy
    for group in (
        hierarchy.l1i.stats, hierarchy.l1d.stats, hierarchy.l2.stats,
        hierarchy.itlb.stats, hierarchy.dtlb.stats,
        hierarchy.memory.stats, hierarchy.engine.stats,
        hierarchy.scheme.stats, hierarchy.stats, system.core.stats,
    ):
        group.reset()
