"""The full memory hierarchy: L1 I/D, TLBs, unified L2, scheme, memory.

This is what the core model talks to.  Responsibilities:

* L1 lookups and fills (write-back, write-allocate, inclusive in spirit:
  an L1 miss always consults the L2, and L1 dirty victims are written
  into the L2);
* forwarding L2 data/instruction misses to the configured
  :mod:`integrity scheme <repro.schemes>`, which owns all traffic between
  the L2 and main memory;
* the §5.3 valid-bit write-allocate optimization: a store stream that
  fully overwrites a block allocates it dirty with no fetch and no check
  (workloads mark such stores; the flag can be disabled for ablation).

Timing is request-level: every call takes ``now`` and returns completion
times computed against the shared busy-until resources (bus, hash
pipeline, hash buffers).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..common.config import SchemeKind, SystemConfig
from ..common.stats import StatGroup, merge_groups
from ..common.units import GB, log2_exact
from ..dram.bus import MainMemoryTiming
from ..hashengine.engine import HashEngineTiming
from ..hashtree.layout import TreeLayout
from ..schemes import build_scheme
from ..common.packed import WARM_IFETCH, WARM_LOAD, WARM_STORE_FULL
from .cache import CacheSim
from .tlb import TLBSim

#: Default protected-memory size: a full 4 GB physical space, giving the
#: 12-13 level tree behind the paper's "thirteen additional accesses".
DEFAULT_PROTECTED_BYTES = 4 * GB


class MemoryHierarchy:
    """L1s + L2 + TLBs + integrity scheme + bus/DRAM, as one object."""

    def __init__(self, config: SystemConfig,
                 protected_bytes: int = DEFAULT_PROTECTED_BYTES):
        self.config = config
        self.l1i = CacheSim(config.l1i)
        self.l1d = CacheSim(config.l1d)
        self.l2 = CacheSim(config.l2)
        self.itlb = TLBSim(config.tlb, name="itlb")
        self.dtlb = TLBSim(config.tlb, name="dtlb")
        self.memory = MainMemoryTiming(config.bus, config.dram)
        self.engine = HashEngineTiming(config.hash_engine)
        if config.scheme is SchemeKind.BASE:
            self.layout: Optional[TreeLayout] = None
        else:
            tree = config.tree
            self.layout = TreeLayout(protected_bytes, tree.chunk_bytes,
                                     tree.hash_bytes)
        self.scheme = build_scheme(config, self.l2, self.memory, self.engine,
                                   self.layout)
        self.stats = StatGroup("hierarchy")
        self._l1_latency = config.l1d.latency_cycles
        self._l2_latency = config.l2.latency_cycles
        #: warm-up instruction-fetch dedup granularity: one probe per L1-I line.
        self._iline_shift = log2_exact(config.l1i.block_bytes)

    # -- core-facing operations ------------------------------------------------------

    def load(self, address: int, now: int) -> Tuple[int, int]:
        """Data load; returns ``(data_ready, check_done)``."""
        now += self.dtlb.access(address)
        physical = self.scheme.data_address(address)
        if self.l1d.access(physical, write=False).hit:
            ready = now + self._l1_latency
            return ready, ready
        return self._l1_miss(physical, now + self._l1_latency, write=False,
                             kind="data", l1=self.l1d)

    def store(self, address: int, now: int,
              full_block: bool = False) -> Tuple[int, int]:
        """Data store; returns ``(done, check_done)``.

        ``full_block`` marks a store stream that overwrites the whole L2
        block (the valid-bit optimization applies when enabled).
        """
        now += self.dtlb.access(address)
        physical = self.scheme.data_address(address)
        if self.l1d.access(physical, write=True).hit:
            done = now + self._l1_latency
            return done, done
        if full_block and self.config.write_allocate_valid_bits:
            return self._full_block_store_miss(physical, now)
        return self._l1_miss(physical, now + self._l1_latency, write=True,
                             kind="data", l1=self.l1d)

    def ifetch(self, address: int, now: int) -> Tuple[int, int, int]:
        """Instruction fetch; returns ``(ready, check_done, itlb_cycles)``.

        ``itlb_cycles`` is the I-TLB table-walk penalty folded into
        ``ready``, reported separately so the core can attribute fetch
        stalls to the right structure (a TLB-missing, L1-I-hitting fetch
        is a TLB stall, not an I-cache stall).
        """
        itlb_cycles = self.itlb.access(address)
        now += itlb_cycles
        physical = self.scheme.data_address(address)
        if self.l1i.access(physical, write=False).hit:
            ready = now + self.config.l1i.latency_cycles
            return ready, ready, itlb_cycles
        ready, check_done = self._l1_miss(
            physical, now + self.config.l1i.latency_cycles,
            write=False, kind="instr", l1=self.l1i)
        return ready, check_done, itlb_cycles

    # -- internals ------------------------------------------------------------------------

    def _l1_miss(self, physical: int, now: int, write: bool, kind: str,
                 l1: CacheSim) -> Tuple[int, int]:
        lookup = self.l2.access(physical, write=False, kind=kind)
        if lookup.hit:
            ready = now + self._l2_latency
            self._fill_l1(l1, physical, dirty=write, now=now)
            return ready, ready
        outcome = self.scheme.handle_data_miss(physical, now, write=False)
        self._fill_l1(l1, physical, dirty=write, now=now)
        self.stats.max("latest_check", outcome.check_done)
        return outcome.data_ready, outcome.check_done

    def _full_block_store_miss(self, physical: int, now: int) -> Tuple[int, int]:
        """Streaming store: allocate dirty everywhere, fetch nothing."""
        self.stats.add("full_block_store_allocations")
        lookup = self.l2.access(physical, write=True, kind="data")
        if not lookup.hit:
            # valid-bit allocation: no fetch, no check (Section 5.3)
            self.scheme.fill_l2(physical, now, dirty=True, kind="data")
        self._fill_l1(self.l1d, physical, dirty=True, now=now)
        done = now + self._l1_latency
        return done, done

    def _fill_l1(self, l1: CacheSim, physical: int, dirty: bool, now: int) -> None:
        result = l1.fill(physical, dirty=dirty)
        if result.victim_address is not None and result.victim_dirty:
            self._l1_victim_writeback(result.victim_address, now)

    def _l1_victim_writeback(self, victim: int, now: int) -> None:
        self.stats.add("l1_writebacks")
        lookup = self.l2.access(victim, write=True, kind="data")
        if not lookup.hit:
            # L2 no longer holds the line: write-allocate it back
            # (rare; the L2 is far larger than the L1)
            self.stats.add("l1_writeback_l2_misses")
            self.scheme.handle_data_miss(victim, now, write=True)

    # -- functional warm-up ----------------------------------------------------------------

    def set_warm_mode(self, on: bool) -> None:
        """Enter/leave functional warm-up: timing off and cache/TLB counters
        diverted to scratch storage (warm-up statistics are discarded by the
        post-warm-up reset, so the hot path need not maintain them)."""
        self.memory.timing_enabled = not on
        self.engine.timing_enabled = not on
        for sim in (self.l1i, self.l1d, self.l2, self.itlb, self.dtlb):
            sim.divert_counters(on)

    def warm(self, instructions) -> None:
        """Replay memory references with timing disabled.

        Evolves every piece of cache/TLB state — including the hash blocks
        the scheme allocates in the L2, which is what makes chash work —
        through the *identical* code paths, but with the bus and hash
        engine free and instantaneous.  This stands in for the paper's
        1.5-billion-instruction fast-forward at tractable cost.
        """
        self.set_warm_mode(True)
        ifetch, load, store = self.ifetch, self.load, self.store
        iline_shift = self._iline_shift
        try:
            last_line = -1
            for instruction in instructions:
                line = instruction.pc >> iline_shift
                if line != last_line:
                    ifetch(instruction.pc, 0)
                    last_line = line
                kind = instruction.kind
                if kind == "load":
                    load(instruction.address, 0)
                elif kind == "store":
                    store(instruction.address, 0,
                          full_block=instruction.full_block)
        finally:
            self.set_warm_mode(False)

    def warm_vec(self, chunks) -> None:
        """Replay packed warm-up chunks with timing disabled; the fast
        twin of :meth:`warm`.

        ``chunks`` is an iterable of ``(codes, values)`` column pairs from
        :meth:`InstructionStream.packed
        <repro.workloads.generators.InstructionStream.packed>` generated
        with ``line_bytes=config.l1i.block_bytes``: one row per *memory
        event* — the generator already performed the one-probe-per-I-line
        dedup that :meth:`warm` does inline — so no :class:`Instruction`
        object is allocated and the end state is bit-identical to
        :meth:`warm` over the equivalent object stream.  Every row is
        interpreted through the counter-free warm paths
        (:meth:`CacheSim.warm_access <repro.cache.cache.CacheSim.warm_access>`,
        :meth:`_warm_l1_miss` and friends); the row body is only a few
        bound-method calls.
        """
        l1i_warm = self.l1i.warm_access
        l1d_warm = self.l1d.warm_access
        itlb_warm = self.itlb.warm_access
        dtlb_warm = self.dtlb.warm_access
        data_address = self.scheme.data_address
        warm_l1_miss = self._warm_l1_miss
        valid_bits = self.config.write_allocate_valid_bits
        l1i, l1d = self.l1i, self.l1d
        self.set_warm_mode(True)
        try:
            for codes, values in chunks:
                for code, value in zip(codes, values):
                    if code == WARM_IFETCH:
                        itlb_warm(value)
                        physical = data_address(value)
                        if not l1i_warm(physical, False):
                            warm_l1_miss(physical, False, "instr", l1i)
                    elif code == WARM_LOAD:
                        dtlb_warm(value)
                        physical = data_address(value)
                        if not l1d_warm(physical, False):
                            warm_l1_miss(physical, False, "data", l1d)
                    else:  # WARM_STORE or WARM_STORE_FULL
                        dtlb_warm(value)
                        physical = data_address(value)
                        if not l1d_warm(physical, True):
                            if code == WARM_STORE_FULL and valid_bits:
                                self._warm_full_block_store_miss(physical)
                            else:
                                warm_l1_miss(physical, True, "data", l1d)
        finally:
            self.set_warm_mode(False)

    def _warm_l1_miss(self, physical: int, write: bool, kind: str,
                      l1: CacheSim) -> None:
        """Counter-free mirror of :meth:`_l1_miss` (timing already off)."""
        if not self.l2.warm_access(physical, False):
            self.scheme.handle_data_miss(physical, 0, write=False)
        self._warm_fill_l1(l1, physical, write)

    def _warm_full_block_store_miss(self, physical: int) -> None:
        """Counter-free mirror of :meth:`_full_block_store_miss`."""
        self.stats.add("full_block_store_allocations")
        if not self.l2.warm_access(physical, True):
            self.scheme.fill_l2(physical, 0, dirty=True, kind="data")
        self._warm_fill_l1(self.l1d, physical, True)

    def _warm_fill_l1(self, l1: CacheSim, physical: int, dirty: bool) -> None:
        result = l1.warm_fill(physical, dirty=dirty)
        if result.victim_address is not None and result.victim_dirty:
            self.stats.add("l1_writebacks")
            if not self.l2.warm_access(result.victim_address, True):
                self.stats.add("l1_writeback_l2_misses")
                self.scheme.handle_data_miss(result.victim_address, 0,
                                             write=True)

    # -- snapshot / restore ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything a measured run's outcome depends on, deep-copied.

        Captures the functional warm state (cache tags/LRU/dirty, TLB
        entries, scheme state) *and* every statistics group plus the
        bus/engine busy-until state — the latter matter for the
        ``warmup=0`` path, where pre-sweep statistics legitimately leak
        into the measured run and must be reproduced bit for bit.
        """
        return {
            "l1i": self.l1i.snapshot(),
            "l1d": self.l1d.snapshot(),
            "l2": self.l2.snapshot(),
            "itlb": self.itlb.snapshot(),
            "dtlb": self.dtlb.snapshot(),
            "memory": self.memory.snapshot(),
            "engine": self.engine.snapshot(),
            "scheme": self.scheme.snapshot_state(),
            "stats": dict(self.stats.counters),
        }

    def restore(self, snap: dict) -> None:
        """Restore a :meth:`snapshot`, possibly taken on a *different*
        hierarchy instance — the warm-sharing contract is that both configs
        agree on every field :func:`~repro.sim.sweep.fingerprint.warm_fingerprint`
        covers (geometry, scheme, workload), while pure timing parameters
        (bus width, hash latency/throughput, buffer depth) may differ."""
        self.l1i.restore(snap["l1i"])
        self.l1d.restore(snap["l1d"])
        self.l2.restore(snap["l2"])
        self.itlb.restore(snap["itlb"])
        self.dtlb.restore(snap["dtlb"])
        self.memory.restore(snap["memory"])
        self.engine.restore(snap["engine"])
        self.scheme.restore_state(snap["scheme"])
        live = self.stats.counters
        live.clear()
        live.update(snap["stats"])

    # -- reporting ------------------------------------------------------------------------

    def all_stats(self) -> dict:
        return merge_groups(
            self.l1i.stats, self.l1d.stats, self.l2.stats,
            self.itlb.stats, self.dtlb.stats,
            self.memory.stats, self.engine.stats,
            self.scheme.stats, self.stats,
        )
