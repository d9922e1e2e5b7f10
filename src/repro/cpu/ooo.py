"""Analytic out-of-order superscalar core model.

Models the machine of Table 1 — 4-wide fetch/issue/commit, a 128-entry
register update unit (RUU), a 64-entry load/store queue — as a dataflow
schedule with resource constraints, computed in one pass over the
instruction stream (no cycle loop, so large sweeps stay fast):

* **fetch**: ``fetch_width`` per cycle, stalled by RUU/LSQ occupancy,
  I-cache misses and branch mispredictions;
* **issue**: when operands are ready (register dependencies resolve via
  producer completion times); loads query the memory hierarchy at issue;
* **commit**: in order, ``commit_width`` per cycle, after completion.

Two integrity-specific behaviours from Section 5.9 are modelled exactly:
data from memory is consumed *speculatively* as soon as it arrives (a
load's completion is its ``data_ready``, not its ``check_done``), and
``crypto`` instructions are verification barriers — they do not complete
until every previously-issued check has finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..cache.hierarchy import MemoryHierarchy
from ..common.config import CoreConfig
from ..common.packed import MEAS_BRANCH_MISPREDICT, MEAS_LOAD, MEAS_STORE_FULL
from ..common.stats import StatGroup
from ..common.units import log2_exact
from ..kernels import measure as measure_kernel
from .isa import Instruction

#: extra pipeline stages between fetch and earliest issue.
FRONTEND_DEPTH = 3
#: fetch-redirect penalty after a mispredicted branch resolves.
MISPREDICT_PENALTY = 3


@dataclass
class CoreResult:
    """Outcome of one simulation run."""

    instructions: int
    cycles: int
    last_check_done: int
    #: absolute cycle the run finished at (pass as the next run's start).
    end_cycle: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OutOfOrderCore:
    """The analytic OoO model used for every figure in the evaluation."""

    def __init__(self, config: CoreConfig, hierarchy: MemoryHierarchy):
        self.config = config
        self.hierarchy = hierarchy
        self.stats = StatGroup("core")
        #: fetch-line granularity: one I-cache probe per L1-I line, derived
        #: from the configured geometry (the warm-up dedup uses the same
        #: shift, so warm and measured ifetch traffic always agree).
        self._iline_shift = log2_exact(hierarchy.config.l1i.block_bytes)

    def run(self, instructions: Iterable[Instruction],
            start_cycle: int = 0) -> CoreResult:
        """Schedule ``instructions``; ``start_cycle`` continues a previous
        run's clock so shared busy-until resources (bus, hash pipeline)
        stay consistent across warm-up and measurement."""
        cfg = self.config
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        ruu = cfg.ruu_entries
        lsq = cfg.lsq_entries
        hierarchy = self.hierarchy
        iline_shift = self._iline_shift
        l1i_latency = hierarchy.config.l1i.latency_cycles

        complete: list[int] = []   # completion time per instruction
        commit: list[int] = []     # commit time per instruction
        mem_commit: list[int] = [] # commit times of memory instructions

        fetch_cycle = start_cycle  # cycle the current fetch group issues in
        fetched_in_cycle = 0
        fetch_blocked_until = start_cycle  # mispredict redirects
        last_fetch_line = -1
        outstanding_checks = 0     # informational
        latest_check = 0
        count = 0

        for instruction in instructions:
            index = count
            count += 1

            # ---- fetch ------------------------------------------------------
            if fetched_in_cycle >= fetch_width:
                fetch_cycle += 1
                fetched_in_cycle = 0
            fetch_time = max(fetch_cycle, fetch_blocked_until)

            # RUU occupancy: wait for instruction index-ruu to commit
            if index >= ruu:
                fetch_time = max(fetch_time, commit[index - ruu])
            # LSQ occupancy for memory operations
            if instruction.is_memory and len(mem_commit) >= lsq:
                fetch_time = max(fetch_time, mem_commit[len(mem_commit) - lsq])

            # I-cache: one lookup per new fetch line
            line = instruction.pc >> iline_shift
            if line != last_fetch_line:
                ready, _, itlb_cycles = hierarchy.ifetch(instruction.pc,
                                                         fetch_time)
                if ready > fetch_time + l1i_latency:
                    # attribute the stall to the structure that caused it:
                    # the I-TLB walk is folded into `ready` but is not an
                    # I-cache stall
                    if itlb_cycles:
                        self.stats.add("itlb_stall_cycles", itlb_cycles)
                    cache_delay = ready - fetch_time - itlb_cycles
                    if cache_delay > l1i_latency:
                        self.stats.add("icache_stall_cycles", cache_delay)
                    fetch_time = ready
                last_fetch_line = line
            if fetch_time > fetch_cycle:
                fetch_cycle = fetch_time
                fetched_in_cycle = 0
            fetched_in_cycle += 1

            # ---- issue / execute ---------------------------------------------
            ready = fetch_time + FRONTEND_DEPTH
            if instruction.dep1 and index - instruction.dep1 >= 0:
                ready = max(ready, complete[index - instruction.dep1])
            if instruction.dep2 and index - instruction.dep2 >= 0:
                ready = max(ready, complete[index - instruction.dep2])

            if instruction.kind == "load":
                data_ready, check_done = hierarchy.load(instruction.address,
                                                        ready)
                done = max(data_ready, ready + 1)
                latest_check = max(latest_check, check_done)
                self.stats.add("loads")
            elif instruction.kind == "store":
                store_done, check_done = hierarchy.store(
                    instruction.address, ready,
                    full_block=instruction.full_block,
                )
                # stores complete quickly; the LSQ entry is held until the
                # write has actually landed (store_done)
                done = ready + 1
                latest_check = max(latest_check, check_done)
                self.stats.add("stores")
                ready_for_lsq = max(store_done, done)
            elif instruction.kind == "crypto":
                # verification barrier: every outstanding check must finish
                done = max(ready, latest_check) + instruction.latency
                self.stats.add("crypto_barriers")
            else:
                done = ready + instruction.latency

            complete.append(done)

            # ---- commit --------------------------------------------------------
            commit_time = done
            if index > 0:
                commit_time = max(commit_time, commit[index - 1])
            if index >= commit_width:
                commit_time = max(commit_time, commit[index - commit_width] + 1)
            commit.append(commit_time)
            if instruction.is_memory:
                if instruction.kind == "store":
                    mem_commit.append(max(commit_time, ready_for_lsq))
                else:
                    mem_commit.append(commit_time)

            # ---- branch misprediction -------------------------------------------
            if instruction.kind == "branch" and instruction.mispredicted:
                fetch_blocked_until = max(fetch_blocked_until,
                                          done + MISPREDICT_PENALTY)
                self.stats.add("mispredictions")

        end_cycle = commit[-1] + 1 if commit else start_cycle
        cycles = end_cycle - start_cycle
        self.stats.set("cycles", cycles)
        self.stats.set("instructions", count)
        return CoreResult(instructions=count, cycles=cycles,
                          last_check_done=latest_check, end_cycle=end_cycle)

    def run_vec(self, chunks, start_cycle: int = 0) -> CoreResult:
        """Schedule packed measured-mode chunks; the fast twin of :meth:`run`.

        ``chunks`` is an iterable of column tuples from
        :meth:`InstructionStream.take_packed
        <repro.workloads.generators.InstructionStream.take_packed>`.  The
        analytic schedule is the one :meth:`run` computes, expressed over
        parallel columns instead of :class:`Instruction` objects, so the
        :class:`CoreResult` and every statistic are bit-identical to
        running the equivalent object stream — only the wall-clock
        differs.

        Every chunk is classified by a
        :class:`~repro.kernels.measure.MeasurePrepass`: timing-free rows
        (the overwhelming majority on cache-resident workloads) resolve
        to precomputed completion deltas — the prepass applies their
        LRU updates inline and their counters in bulk — so the schedule
        loop touches only scalars for them.  Rows that reach the
        integrity scheme keep their live hierarchy call, made *here* at
        the real cycle with state in exact row order: the prepass stops
        in front of each such row and resumes after its call.  Cold and
        miss-heavy chunks take the same route.

        The unbounded ``complete``/``commit``/``mem_commit`` lists of
        :meth:`run` become ring buffers sized by the machine's own
        windows: an operand producer more than ``ruu_entries`` back has
        necessarily committed before this instruction fetches (the
        RUU-occupancy bound makes ``fetch_time >= commit[index - ruu]``,
        commit times are monotone, and completion never exceeds commit),
        so its completion time can never be the binding constraint and
        the dependency lookup is skipped outside the window.
        """
        cfg = self.config
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        ruu = cfg.ruu_entries
        lsq = cfg.lsq_entries
        hierarchy = self.hierarchy
        hier_ifetch = hierarchy.ifetch
        hier_load = hierarchy.load
        hier_store = hierarchy.store
        iline_shift = self._iline_shift
        l1i_latency = hierarchy.config.l1i.latency_cycles

        window = max(ruu, commit_width + 1)
        # round the rings up to powers of two so the hot loop can index with
        # a mask instead of a modulo; slots are only read within `window`
        # (resp. `lsq`) of being written, so the extra slack slots are inert
        ring = 1 << (window - 1).bit_length()
        mask = ring - 1
        mem_ring = 1 << (lsq - 1).bit_length()
        mem_mask = mem_ring - 1
        complete = [0] * ring
        commit = [0] * ring
        mem_commit = [0] * mem_ring
        mem_count = 0
        prev_commit = 0

        meas_load = MEAS_LOAD
        meas_store_full = MEAS_STORE_FULL
        meas_mispredict = MEAS_BRANCH_MISPREDICT
        frontend_depth = FRONTEND_DEPTH
        mispredict_penalty = MISPREDICT_PENALTY
        timing = measure_kernel.TIMING
        prepass_class = measure_kernel.MeasurePrepass

        fetch_cycle = start_cycle
        fetched_in_cycle = 0
        fetch_blocked_until = start_cycle
        last_fetch_line = -1
        latest_check = 0
        count = 0
        loads = stores = mispredictions = 0
        icache_stall = itlb_stall = 0

        for kinds, pcs, addresses, dep1s, dep2s, latencies in chunks:
            if not kinds:
                continue
            pre = prepass_class(hierarchy, kinds, pcs, addresses,
                                last_fetch_line)
            pre.run()
            last_fetch_line = pre.carry
            pre_run = pre.run
            mem_info_col = pre.mem_info
            base = count
            # the info columns are ``None``-folded: one slot carries
            # both "was the structure consulted" and the all-hit
            # delta, so the loop unpacks six values per row and only
            # TIMING rows reach back into the pc/address columns
            rows = zip(kinds, dep1s, dep2s, latencies,
                       pre.if_info, pre.mem_info)
            # prologue: full guards while the window fills.  Once
            # `count >= window` (>= ruu, commit_width and any
            # dependency distance the steady loop honours), the guards
            # `index >= ruu`, `dep <= index`, `index > 0` and
            # `index >= commit_width` are always true, so the
            # steady-state loop below drops them.
            if count < window:
                for kind, dep1, dep2, latency, f_info, m_info in rows:
                    index = count
                    count += 1

                    # ---- fetch --------------------------------------
                    if fetched_in_cycle >= fetch_width:
                        fetch_cycle += 1
                        fetched_in_cycle = 0
                    fetch_time = (fetch_cycle
                                  if fetch_cycle >= fetch_blocked_until
                                  else fetch_blocked_until)

                    if index >= ruu:
                        occupancy = commit[(index - ruu) & mask]
                        if occupancy > fetch_time:
                            fetch_time = occupancy
                    is_memory = m_info is not None
                    if is_memory and mem_count >= lsq:
                        occupancy = mem_commit[(mem_count - lsq)
                                               & mem_mask]
                        if occupancy > fetch_time:
                            fetch_time = occupancy

                    if f_info is not None:
                        if f_info is timing:
                            ready, _, itlb_cycles = hier_ifetch(
                                pcs[index - base], fetch_time)
                            pre_run()
                            delta = ready - fetch_time
                            if is_memory:
                                # the resumed walk may just have
                                # (re)classified this row's data
                                # access; the zipped slot is stale
                                m_info = mem_info_col[index - base]
                        else:
                            delta, itlb_cycles = f_info
                        if delta > l1i_latency:
                            if itlb_cycles:
                                itlb_stall += itlb_cycles
                            cache_delay = delta - itlb_cycles
                            if cache_delay > l1i_latency:
                                icache_stall += cache_delay
                            fetch_time += delta
                    if fetch_time > fetch_cycle:
                        fetch_cycle = fetch_time
                        fetched_in_cycle = 0
                    fetched_in_cycle += 1

                    # ---- issue / execute ----------------------------
                    ready = fetch_time + frontend_depth
                    if dep1 and dep1 <= index and dep1 <= window:
                        produced = complete[(index - dep1) & mask]
                        if produced > ready:
                            ready = produced
                    if dep2 and dep2 <= index and dep2 <= window:
                        produced = complete[(index - dep2) & mask]
                        if produced > ready:
                            ready = produced

                    if kind == meas_load:
                        if m_info is timing:
                            data_ready, check_done = hier_load(
                                addresses[index - base], ready)
                            pre_run()
                        else:
                            data_ready = ready + m_info
                            check_done = data_ready
                        done = (data_ready if data_ready > ready + 1
                                else ready + 1)
                        if check_done > latest_check:
                            latest_check = check_done
                        loads += 1
                    elif is_memory:  # MEAS_STORE or MEAS_STORE_FULL
                        if m_info is timing:
                            store_done, check_done = hier_store(
                                addresses[index - base], ready,
                                full_block=kind == meas_store_full)
                            pre_run()
                        else:
                            store_done = ready + m_info
                            check_done = store_done
                        done = ready + 1
                        if check_done > latest_check:
                            latest_check = check_done
                        stores += 1
                        ready_for_lsq = (store_done
                                         if store_done > done else done)
                    else:
                        done = ready + latency
                    slot = index & mask
                    complete[slot] = done

                    # ---- commit -------------------------------------
                    commit_time = done
                    if index > 0 and prev_commit > commit_time:
                        commit_time = prev_commit
                    if index >= commit_width:
                        drained = commit[(index - commit_width)
                                         & mask] + 1
                        if drained > commit_time:
                            commit_time = drained
                    commit[slot] = commit_time
                    prev_commit = commit_time
                    if is_memory:
                        if kind == meas_load:
                            mem_commit[mem_count & mem_mask] = commit_time
                        else:
                            mem_commit[mem_count & mem_mask] = (
                                commit_time
                                if commit_time > ready_for_lsq
                                else ready_for_lsq)
                        mem_count += 1

                    # ---- branch misprediction -----------------------
                    if kind == meas_mispredict:
                        redirect = done + mispredict_penalty
                        if redirect > fetch_blocked_until:
                            fetch_blocked_until = redirect
                        mispredictions += 1

                    if count >= window:
                        break

            for kind, dep1, dep2, latency, f_info, m_info in rows:
                index = count
                count += 1

                # ---- fetch ------------------------------------------
                if fetched_in_cycle >= fetch_width:
                    fetch_cycle += 1
                    fetched_in_cycle = 0
                fetch_time = (fetch_cycle
                              if fetch_cycle >= fetch_blocked_until
                              else fetch_blocked_until)

                occupancy = commit[(index - ruu) & mask]
                if occupancy > fetch_time:
                    fetch_time = occupancy
                is_memory = m_info is not None
                if is_memory and mem_count >= lsq:
                    occupancy = mem_commit[(mem_count - lsq) & mem_mask]
                    if occupancy > fetch_time:
                        fetch_time = occupancy

                if f_info is not None:
                    if f_info is timing:
                        ready, _, itlb_cycles = hier_ifetch(
                            pcs[index - base], fetch_time)
                        pre_run()
                        delta = ready - fetch_time
                        if is_memory:
                            # the resumed walk may just have
                            # (re)classified this row's data access;
                            # the zipped slot is stale
                            m_info = mem_info_col[index - base]
                    else:
                        delta, itlb_cycles = f_info
                    if delta > l1i_latency:
                        if itlb_cycles:
                            itlb_stall += itlb_cycles
                        cache_delay = delta - itlb_cycles
                        if cache_delay > l1i_latency:
                            icache_stall += cache_delay
                        fetch_time += delta
                if fetch_time > fetch_cycle:
                    fetch_cycle = fetch_time
                    fetched_in_cycle = 0
                fetched_in_cycle += 1

                # ---- issue / execute --------------------------------
                ready = fetch_time + frontend_depth
                if dep1 and dep1 <= window:
                    produced = complete[(index - dep1) & mask]
                    if produced > ready:
                        ready = produced
                if dep2 and dep2 <= window:
                    produced = complete[(index - dep2) & mask]
                    if produced > ready:
                        ready = produced

                if kind == meas_load:
                    if m_info is timing:
                        data_ready, check_done = hier_load(
                            addresses[index - base], ready)
                        pre_run()
                    else:
                        data_ready = ready + m_info
                        check_done = data_ready
                    done = (data_ready if data_ready > ready + 1
                            else ready + 1)
                    if check_done > latest_check:
                        latest_check = check_done
                    loads += 1
                elif is_memory:  # MEAS_STORE or MEAS_STORE_FULL
                    if m_info is timing:
                        store_done, check_done = hier_store(
                            addresses[index - base], ready,
                            full_block=kind == meas_store_full)
                        pre_run()
                    else:
                        store_done = ready + m_info
                        check_done = store_done
                    done = ready + 1
                    if check_done > latest_check:
                        latest_check = check_done
                    stores += 1
                    ready_for_lsq = (store_done if store_done > done
                                     else done)
                else:
                    done = ready + latency
                slot = index & mask
                complete[slot] = done

                # ---- commit -----------------------------------------
                commit_time = done
                if prev_commit > commit_time:
                    commit_time = prev_commit
                drained = commit[(index - commit_width) & mask] + 1
                if drained > commit_time:
                    commit_time = drained
                commit[slot] = commit_time
                prev_commit = commit_time
                if is_memory:
                    if kind == meas_load:
                        mem_commit[mem_count & mem_mask] = commit_time
                    else:
                        mem_commit[mem_count & mem_mask] = (
                            commit_time if commit_time > ready_for_lsq
                            else ready_for_lsq)
                    mem_count += 1

                # ---- branch misprediction ---------------------------
                if kind == meas_mispredict:
                    redirect = done + mispredict_penalty
                    if redirect > fetch_blocked_until:
                        fetch_blocked_until = redirect
                    mispredictions += 1

        if loads:
            self.stats.add("loads", loads)
        if stores:
            self.stats.add("stores", stores)
        if mispredictions:
            self.stats.add("mispredictions", mispredictions)
        if itlb_stall:
            self.stats.add("itlb_stall_cycles", itlb_stall)
        if icache_stall:
            self.stats.add("icache_stall_cycles", icache_stall)
        end_cycle = prev_commit + 1 if count else start_cycle
        cycles = end_cycle - start_cycle
        self.stats.set("cycles", cycles)
        self.stats.set("instructions", count)
        return CoreResult(instructions=count, cycles=cycles,
                          last_check_done=latest_check, end_cycle=end_cycle)
