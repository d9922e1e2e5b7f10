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
from ..kernels import warm as warm_kernel
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

    def _warm_interp_chunk(self, codes, values) -> int:
        """Interpret one packed warm chunk row by row — the body of
        :meth:`warm` over columns, through the counter-free warm paths.
        Returns the L1 miss count (the adaptive gate in :meth:`warm_vec`
        uses it as the next chunk's hit-fraction estimate)."""
        l1i_warm = self.l1i.warm_access
        l1d_warm = self.l1d.warm_access
        itlb_warm = self.itlb.warm_access
        dtlb_warm = self.dtlb.warm_access
        data_address = self.scheme.data_address
        warm_l1_miss = self._warm_l1_miss
        valid_bits = self.config.write_allocate_valid_bits
        l1i, l1d = self.l1i, self.l1d
        misses = 0
        for code, value in zip(codes, values):
            if code == WARM_IFETCH:
                itlb_warm(value)
                physical = data_address(value)
                if not l1i_warm(physical, False):
                    misses += 1
                    warm_l1_miss(physical, False, "instr", l1i)
            elif code == WARM_LOAD:
                dtlb_warm(value)
                physical = data_address(value)
                if not l1d_warm(physical, False):
                    misses += 1
                    warm_l1_miss(physical, False, "data", l1d)
            else:  # WARM_STORE or WARM_STORE_FULL
                dtlb_warm(value)
                physical = data_address(value)
                if not l1d_warm(physical, True):
                    misses += 1
                    if code == WARM_STORE_FULL and valid_bits:
                        self._warm_full_block_store_miss(physical)
                    else:
                        warm_l1_miss(physical, True, "data", l1d)
        return misses

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
        :meth:`warm` over the equivalent object stream.

        On hit-dominated chunks the hit rows are resolved in
        dependency-free batches (:mod:`repro.kernels.warm`) instead of
        one interpreted dispatch per row, with misses and evictions
        dropping to the exact per-row machinery (:meth:`_warm_l1_miss`
        and friends; batched LRU application is exact — see
        :meth:`CacheSim.warm_access_batched
        <repro.cache.cache.CacheSim.warm_access_batched>`).  The gate is
        adaptive: each chunk's observed hit fraction decides the *next*
        chunk's path, and miss-heavy chunks run through the row
        interpreter :meth:`_warm_interp_chunk` — its row body is only ~3
        bound-method calls, so batching can only pay where long
        guaranteed-hit runs dominate.
        """
        self.set_warm_mode(True)
        data_offset = self.scheme.data_address(0)
        page_bits = self.itlb._page_bits
        i_offset = self.l1i._offset_bits
        d_offset = self.l1d._offset_bits
        threshold = warm_kernel.MIN_FAST_FRACTION
        try:
            fast_fraction = 0.0  # caches start cold: interpret first
            for codes, values in chunks:
                n = len(codes)
                if not n:
                    continue
                if fast_fraction < threshold:
                    misses = self._warm_interp_chunk(codes, values)
                    fast_fraction = 1.0 - misses / n
                else:
                    plan = warm_kernel.build_plan(
                        codes, values, data_offset, page_bits,
                        i_offset, d_offset)
                    fast_fraction = self._warm_vec_chunk(plan)
        finally:
            self.set_warm_mode(False)

    def _warm_vec_chunk(self, plan) -> float:
        """Drain one planned chunk: batch the hit spans, interpret the
        rest.  Returns the chunk's hit-candidate fraction (the adaptive
        gate's estimate for the next chunk).  Chunks whose fraction
        turns out too low for the batching machinery to pay off are
        interpreted outright."""
        n = plan.n
        live = warm_kernel.Residency(
            self.l1i.resident_blocks(), self.l1d.resident_blocks(),
            self.itlb.resident_pages(), self.dtlb.resident_pages())
        mask = warm_kernel.fast_mask(plan, live)
        fast_fraction = sum(mask) / n
        if fast_fraction < warm_kernel.MIN_FAST_FRACTION:
            self._warm_interp_chunk(plan.codes, plan.values)
            return fast_fraction
        poison = warm_kernel.Poison()
        blk_l, page_l, is_if_l = plan.blk, plan.page, plan.is_if
        cur = 0
        for index in [row for row, hit in enumerate(mask) if not hit]:
            # Rows whose block/page was filled after the mask was built
            # are guaranteed hits now — keep them inside the span.
            if is_if_l[index]:
                if (blk_l[index] in live.l1i
                        and page_l[index] in live.itlb):
                    continue
            elif (blk_l[index] in live.l1d
                    and page_l[index] in live.dtlb):
                continue
            if cur < index:
                self._warm_vec_hits(plan, cur, index, poison, live)
            self._warm_vec_row(plan, index, poison, live)
            cur = index + 1
        if cur < n:
            self._warm_vec_hits(plan, cur, n, poison, live)
        return fast_fraction

    def _warm_vec_hits(self, plan, start: int, end: int,
                       poison, live) -> None:
        """Apply a guaranteed-hit run.  Long runs are batched (screened
        in one C-speed ``isdisjoint`` pass against the poison sets);
        short runs are cheaper row by row (the row interpreter is exact
        and keeps the residency/poison bookkeeping, so later batches
        stay screened)."""
        if end - start < warm_kernel.MIN_BATCH_ROWS:
            row_interp = self._warm_vec_row
            for row in range(start, end):
                row_interp(plan, row, poison, live)
            return
        if poison.empty():
            self._warm_vec_batch(plan, start, end)
            return
        blocks = plan.blk[start:end]
        pages = plan.page[start:end]
        if (poison.l1i.isdisjoint(blocks) and poison.l1d.isdisjoint(blocks)
                and poison.itlb.isdisjoint(pages)
                and poison.dtlb.isdisjoint(pages)):
            self._warm_vec_batch(plan, start, end)
        else:
            self._warm_vec_span(plan, start, end, poison, live)

    def _warm_vec_span(self, plan, start: int, end: int,
                       poison, live) -> None:
        """Apply rows ``[start, end)`` — all hit candidates, at least
        one of them poisoned — screening each row individually."""
        blk_l, page_l, is_if_l = plan.blk, plan.page, plan.is_if
        run = start
        for row in range(start, end):
            if is_if_l[row]:
                stale = (blk_l[row] in poison.l1i
                         or page_l[row] in poison.itlb)
            else:
                stale = (blk_l[row] in poison.l1d
                         or page_l[row] in poison.dtlb)
            if stale:
                if run < row:
                    self._warm_vec_batch(plan, run, row)
                self._warm_vec_row(plan, row, poison, live)
                run = row + 1
        if run < end:
            self._warm_vec_batch(plan, run, end)

    def _warm_vec_batch(self, plan, start: int, end: int) -> None:
        """Apply a run of guaranteed hits.  Instruction and data rows
        touch disjoint structures (L1-I/I-TLB vs L1-D/D-TLB), so
        applying each structure's sub-sequence in order is exact; LRU
        promotion only needs each structure's *unique* addresses in
        most-recent-first order, so the dedup runs at column speed."""
        unique_recent = warm_kernel.unique_recent
        if_blocks = unique_recent(plan.blk, plan.is_if, start, end)
        if if_blocks:
            self.l1i.warm_access_batched(if_blocks)
            self.itlb.warm_access_batched(
                unique_recent(plan.page, plan.is_if, start, end))
        data_blocks = unique_recent(plan.blk, plan.not_if, start, end)
        if data_blocks:
            self.l1d.warm_access_batched(
                data_blocks,
                warm_kernel.unique_vals(plan.blk, plan.is_wr, start, end))
            self.dtlb.warm_access_batched(
                unique_recent(plan.page, plan.not_if, start, end))

    def _warm_vec_row(self, plan, row: int, poison, live) -> None:
        """Interpret one row exactly like :meth:`_warm_interp_chunk`,
        keeping the residency sets exact (fills add, evictions — peeked
        before they happen — move the victim into the poison sets)."""
        code = plan.codes[row]
        value = plan.values[row]
        block = plan.blk[row]
        page = plan.page[row]
        if code == WARM_IFETCH:
            evicted = self.itlb.victim_page(page)
            self.itlb.warm_access(value)
            if evicted is not None:
                live.itlb.discard(evicted)
                poison.itlb.add(evicted)
            live.itlb.add(page)
            poison.itlb.discard(page)
            physical = value + plan.data_offset
            if not self.l1i.warm_access(physical, False):
                victim = self.l1i.victim_block(block)
                if victim is not None:
                    live.l1i.discard(victim)
                    poison.l1i.add(victim)
                self._warm_l1_miss(physical, False, "instr", self.l1i)
            live.l1i.add(block)
            poison.l1i.discard(block)
            return
        evicted = self.dtlb.victim_page(page)
        self.dtlb.warm_access(value)
        if evicted is not None:
            live.dtlb.discard(evicted)
            poison.dtlb.add(evicted)
        live.dtlb.add(page)
        poison.dtlb.discard(page)
        physical = value + plan.data_offset
        if code == WARM_LOAD:
            if not self.l1d.warm_access(physical, False):
                victim = self.l1d.victim_block(block)
                if victim is not None:
                    live.l1d.discard(victim)
                    poison.l1d.add(victim)
                self._warm_l1_miss(physical, False, "data", self.l1d)
            live.l1d.add(block)
            poison.l1d.discard(block)
            return
        if not self.l1d.warm_access(physical, True):
            if (code == WARM_STORE_FULL
                    and self.config.write_allocate_valid_bits):
                # Allocates straight into the L2 — L1-D residency is
                # untouched, so no bookkeeping for this row.
                self._warm_full_block_store_miss(physical)
                return
            victim = self.l1d.victim_block(block)
            if victim is not None:
                live.l1d.discard(victim)
                poison.l1d.add(victim)
            self._warm_l1_miss(physical, True, "data", self.l1d)
        live.l1d.add(block)
        poison.l1d.discard(block)

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
