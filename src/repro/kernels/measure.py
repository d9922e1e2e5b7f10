"""Column prepass for the measured path.

:class:`MeasurePrepass` turns one packed measured chunk into per-row
completion info the analytic schedule consumes as precomputed scalars.
The boundary it enforces is exact:

* A row is **timing-free** when it never reaches
  ``scheme.handle_data_miss``/``scheme.fill_l2`` — i.e. every structure
  it touches resolves at a constant latency (TLB walks included: their
  penalty is fixed).  For such a row the completion *delta* relative to
  the schedule's issue cycle is a constant, valid at whatever cycle the
  schedule later assigns the row.
* A row that can reach the scheme — an L1 miss whose block is absent
  from the L2, or whose L1 victim is dirty and absent from the L2 — is
  marked with the :data:`TIMING` sentinel.  The prepass *stops* in front
  of it; the schedule makes the real hierarchy call with the real cycle,
  then calls :meth:`MeasurePrepass.run` to resume.  State therefore
  evolves in exact row order, and every live call happens with the
  hierarchy in exactly the state the object path would have.

The interpreter is a single forward walk over the chunk's *active* rows
(fetch-line changes and loads/stores; other rows never touch the
hierarchy).  Each active row is classified by membership in a live
residency set — seeded from ``resident_blocks()`` and updated on every
fill, so it always equals what ``probe()`` would answer.  Resident rows
run an inline twin of the cache/TLB hit paths: same set indexing, same
LRU promotion (skipped when the row repeats the previous row's block or
page — a just-accessed entry is already most recent), same dirty
marking, with the per-kind counters accumulated locally and flushed in
bulk at the end of the chunk (counter updates are additive, so deferring
them commutes with the live calls in between).  Non-resident rows fall
back to the real per-row hierarchy call — exact by construction — and
update the live set from the fill's peeked victim.  The walk mirrors
:meth:`CacheSim.access <repro.cache.cache.CacheSim.access>` and
:meth:`TLBSim.access <repro.cache.tlb.TLBSim.access>` including the
instruction side's default ``data`` counter kind, which is also what
:meth:`MemoryHierarchy.ifetch <repro.cache.hierarchy.MemoryHierarchy.ifetch>`
uses when probing the L1-I.
"""

from __future__ import annotations

from ..common.packed import MEAS_LOAD, MEAS_STORE, MEAS_STORE_FULL

#: marks a row whose hierarchy call must happen live, at schedule time.
TIMING = object()

#: sub-row cursor sides: the fetch probe precedes the data access.
_IF = 0
_MEM = 1


class MeasurePrepass:
    """One chunk's columns and its resumable active-row interpreter."""

    __slots__ = (
        "hierarchy", "l1i", "l1d", "l2", "itlb", "dtlb",
        "n", "kinds", "pcs", "addresses", "carry",
        "i_blk_l", "i_page_l", "d_blk_l", "d_page_l",
        "if_rows", "mem_rows", "if_info", "mem_info",
        "live_l1i", "live_l1d",
        "_l1_latency", "_l1i_latency", "_miss_if", "_miss_delta",
        "_last_i_blk", "_last_i_page", "_last_d_blk", "_last_d_page",
        "_count_i", "_miss_i", "_count_d", "_miss_d", "_writes_d",
        "_ifp", "_memp", "_pending",
    )

    def __init__(self, hierarchy, kinds, pcs, addresses, carry):
        self.hierarchy = hierarchy
        self.l1i = l1i = hierarchy.l1i
        self.l1d = l1d = hierarchy.l1d
        self.l2 = hierarchy.l2
        self.itlb = itlb = hierarchy.itlb
        self.dtlb = dtlb = hierarchy.dtlb
        self.kinds = kinds
        self.pcs = pcs
        self.addresses = addresses
        n = len(kinds)
        self.n = n
        data_offset = hierarchy.scheme.data_address(0)
        i_mask = ~((1 << l1i._offset_bits) - 1)
        d_mask = ~((1 << l1d._offset_bits) - 1)
        i_page_bits = itlb._page_bits
        d_page_bits = dtlb._page_bits
        self.i_blk_l = [(pc + data_offset) & i_mask for pc in pcs]
        self.i_page_l = [pc >> i_page_bits for pc in pcs]
        self.d_blk_l = [(address + data_offset) & d_mask
                        for address in addresses]
        self.d_page_l = [address >> d_page_bits for address in addresses]
        iline_shift = hierarchy._iline_shift
        ilines = [pc >> iline_shift for pc in pcs]
        previous = [carry]
        previous.extend(ilines)
        new_line_l = [line != before
                      for line, before in zip(ilines, previous)]
        self.carry = ilines[-1]
        is_mem_l = [MEAS_LOAD <= kind <= MEAS_STORE_FULL for kind in kinds]
        # the walk consumes the two event streams through monotone
        # cursors; the sentinel keeps the merge loop branch-free at EOF
        self.if_rows = [row for row, flag in enumerate(new_line_l) if flag]
        self.mem_rows = [row for row, flag in enumerate(is_mem_l) if flag]
        self.if_rows.append(n)
        self.mem_rows.append(n)
        self.live_l1i = l1i.resident_blocks()
        self.live_l1d = l1d.resident_blocks()
        # per-row completion info, ``None``-folded so the schedule loop
        # reads activity and latency from one slot: ``None`` = structure
        # not consulted, otherwise the constant delta the row resolves
        # to; rows that miss something overwrite their slot.
        l1i_latency = hierarchy.config.l1i.latency_cycles
        l1_latency = hierarchy._l1_latency
        self._l1i_latency = l1i_latency
        self._l1_latency = l1_latency
        fast_if = (l1i_latency, 0)
        self.if_info = [fast_if if nl else None for nl in new_line_l]
        self.mem_info = [l1_latency if m else None for m in is_mem_l]
        self._miss_if = (l1i_latency + itlb._miss_penalty,
                         itlb._miss_penalty)
        self._miss_delta = l1_latency + dtlb._miss_penalty
        self._last_i_blk = -1
        self._last_i_page = -1
        self._last_d_blk = -1
        self._last_d_page = -1
        self._count_i = 0
        self._miss_i = 0
        self._count_d = 0
        self._miss_d = 0
        self._writes_d = 0
        self._ifp = 0
        self._memp = 0
        self._pending = None

    # -- resumable interpretation ---------------------------------------------------

    def run(self) -> None:
        """Advance until a row needs a live call or the chunk ends.

        After a stop, the schedule performs the live hierarchy call the
        :data:`TIMING` slot demands, then calls :meth:`run` again; the
        deferred residency bookkeeping for that call is applied first.
        """
        if self._pending is not None:
            self._apply_pending()
        n = self.n
        if_rows = self.if_rows
        mem_rows = self.mem_rows
        ifp = self._ifp
        memp = self._memp
        next_if = if_rows[ifp]
        next_mem = mem_rows[memp]
        i_blk_l, i_page_l = self.i_blk_l, self.i_page_l
        d_blk_l, d_page_l = self.d_blk_l, self.d_page_l
        kinds = self.kinds
        if_info = self.if_info
        mem_info = self.mem_info
        live_l1i = self.live_l1i
        live_l1d = self.live_l1d
        l1i, l1d = self.l1i, self.l1d
        i_sets, d_sets = l1i._sets, l1d._sets
        i_shift, d_shift = l1i._offset_bits, l1d._offset_bits
        i_nsets, d_nsets = l1i._n_sets, l1d._n_sets
        i_lru, d_lru = l1i._lru, l1d._lru
        dirty_add = l1d._dirty.add
        itlb, dtlb = self.itlb, self.dtlb
        it_sets, dt_sets = itlb._sets, dtlb._sets
        it_nsets, dt_nsets = itlb._n_sets, dtlb._n_sets
        it_assoc, dt_assoc = itlb._associativity, dtlb._associativity
        miss_if = self._miss_if
        miss_delta = self._miss_delta
        store_kind = MEAS_STORE
        last_i_blk = self._last_i_blk
        last_i_page = self._last_i_page
        last_d_blk = self._last_d_blk
        last_d_page = self._last_d_page
        count_i = self._count_i
        miss_i = self._miss_i
        count_d = self._count_d
        miss_d = self._miss_d
        writes_d = self._writes_d
        try:
            while True:
                if next_if <= next_mem:
                    if next_if == n:
                        break
                    row = next_if
                    blk = i_blk_l[row]
                    if blk == last_i_blk:
                        # repeat of the previous fetch block: hit, already
                        # most recent in both L1-I and I-TLB
                        count_i += 1
                        ifp += 1
                        next_if = if_rows[ifp]
                        continue
                    if blk in live_l1i:
                        count_i += 1
                        last_i_blk = blk
                        if i_lru:
                            ways = i_sets[(blk >> i_shift) % i_nsets]
                            if ways[0] != blk:
                                ways.remove(blk)
                                ways.insert(0, blk)
                        page = i_page_l[row]
                        if page != last_i_page:
                            last_i_page = page
                            ways = it_sets[page % it_nsets]
                            if page in ways:
                                if ways[0] != page:
                                    ways.remove(page)
                                    ways.insert(0, page)
                            else:
                                miss_i += 1
                                if len(ways) >= it_assoc:
                                    ways.pop()
                                ways.insert(0, page)
                                if_info[row] = miss_if
                        ifp += 1
                        next_if = if_rows[ifp]
                        continue
                    # L1-I miss: fall back to the real per-row call
                    if not self._interp_if(row, blk):
                        ifp += 1  # the live call resolves this event
                        return
                    last_i_blk = blk
                    last_i_page = i_page_l[row]
                    ifp += 1
                    next_if = if_rows[ifp]
                    continue
                row = next_mem
                blk = d_blk_l[row]
                if blk == last_d_blk:
                    # repeat of the previous data block: hit, already
                    # most recent in both L1-D and D-TLB
                    count_d += 1
                    if kinds[row] >= store_kind:
                        writes_d += 1
                        dirty_add(blk)
                    memp += 1
                    next_mem = mem_rows[memp]
                    continue
                if blk in live_l1d:
                    count_d += 1
                    last_d_blk = blk
                    if d_lru:
                        ways = d_sets[(blk >> d_shift) % d_nsets]
                        if ways[0] != blk:
                            ways.remove(blk)
                            ways.insert(0, blk)
                    if kinds[row] >= store_kind:
                        writes_d += 1
                        dirty_add(blk)
                    page = d_page_l[row]
                    if page != last_d_page:
                        last_d_page = page
                        ways = dt_sets[page % dt_nsets]
                        if page in ways:
                            if ways[0] != page:
                                ways.remove(page)
                                ways.insert(0, page)
                        else:
                            miss_d += 1
                            if len(ways) >= dt_assoc:
                                ways.pop()
                            ways.insert(0, page)
                            mem_info[row] = miss_delta
                    memp += 1
                    next_mem = mem_rows[memp]
                    continue
                # L1-D miss: fall back to the real per-row call
                if not self._interp_mem(row, blk):
                    memp += 1  # the live call resolves this event
                    return
                last_d_blk = blk
                last_d_page = d_page_l[row]
                memp += 1
                next_mem = mem_rows[memp]
        finally:
            self._ifp = ifp
            self._memp = memp
            self._last_i_blk = last_i_blk
            self._last_i_page = last_i_page
            self._last_d_blk = last_d_blk
            self._last_d_page = last_d_page
            self._count_i = count_i
            self._miss_i = miss_i
            self._count_d = count_d
            self._miss_d = miss_d
            self._writes_d = writes_d
        self._flush()

    def _apply_pending(self) -> None:
        """Apply the live-set bookkeeping for the live call the schedule
        just made, stashed when the prepass stopped (the victim was
        peeked then; no state changed in between, so it is still exact)."""
        side, row, blk, victim = self._pending
        self._pending = None
        if side == _IF:
            live = self.live_l1i
            self._last_i_blk = blk
            self._last_i_page = self.i_page_l[row]
        else:
            live = self.live_l1d
            self._last_d_blk = blk
            self._last_d_page = self.d_page_l[row]
        if victim is not None:
            live.discard(victim)
        live.add(blk)

    def _interp_if(self, row: int, blk: int) -> bool:
        """Guaranteed-L1-I-miss fetch of ``row`` at ``now=0``; ``False``
        means the row needs a live call and the walk must stop."""
        victim = self.l1i.victim_block(blk)
        if not self.l2.probe(blk):
            # the scheme will be consulted: stop in front of the row
            # (L1-I victims are never dirty — I-fills never write — so an
            # absent block in the L2 is the only instruction-side hazard)
            self.if_info[row] = TIMING
            self._pending = (_IF, row, blk, victim)
            return False
        ready, _, itlb_cycles = self.hierarchy.ifetch(self.pcs[row], 0)
        self.if_info[row] = (ready, itlb_cycles)
        live = self.live_l1i
        if victim is not None:
            live.discard(victim)
        live.add(blk)
        return True

    def _interp_mem(self, row: int, blk: int) -> bool:
        """Guaranteed-L1-D-miss access of ``row`` at ``now=0``; ``False``
        means the row needs a live call and the walk must stop."""
        l1d = self.l1d
        l2 = self.l2
        victim = l1d.victim_block(blk)
        if not l2.probe(blk) or (victim is not None
                                 and victim in l1d._dirty
                                 and not l2.probe(victim)):
            # block fetch or dirty-victim writeback reaches the scheme
            self.mem_info[row] = TIMING
            self._pending = (_MEM, row, blk, victim)
            return False
        kind = self.kinds[row]
        if kind == MEAS_LOAD:
            delta, _ = self.hierarchy.load(self.addresses[row], 0)
        else:
            delta, _ = self.hierarchy.store(
                self.addresses[row], 0, full_block=kind == MEAS_STORE_FULL)
        self.mem_info[row] = delta
        live = self.live_l1d
        if victim is not None:
            live.discard(victim)
        live.add(blk)
        return True

    def _flush(self) -> None:
        """Bulk-apply the walk's accumulated hit counters; counter
        updates are additive, so deferring them to the end of the chunk
        commutes with the live calls made in between."""
        count_i = self._count_i
        if count_i:
            cache = self.l1i
            keys = cache.kind_keys("data")
            counters = cache._counters
            get = counters.get
            counters[keys[0]] = get(keys[0], 0) + count_i
            counters[keys[2]] = get(keys[2], 0) + count_i
            counters = self.itlb._counters
            get = counters.get
            counters["accesses"] = get("accesses", 0) + count_i
            miss_i = self._miss_i
            hits = count_i - miss_i
            if hits:
                counters["hits"] = get("hits", 0) + hits
            if miss_i:
                counters["misses"] = get("misses", 0) + miss_i
            self._count_i = 0
            self._miss_i = 0
        count_d = self._count_d
        if count_d:
            cache = self.l1d
            keys = cache.kind_keys("data")
            counters = cache._counters
            get = counters.get
            counters[keys[0]] = get(keys[0], 0) + count_d
            writes_d = self._writes_d
            if writes_d:
                counters[keys[1]] = get(keys[1], 0) + writes_d
            counters[keys[2]] = get(keys[2], 0) + count_d
            counters = self.dtlb._counters
            get = counters.get
            counters["accesses"] = get("accesses", 0) + count_d
            miss_d = self._miss_d
            hits = count_d - miss_d
            if hits:
                counters["hits"] = get("hits", 0) + hits
            if miss_d:
                counters["misses"] = get("misses", 0) + miss_d
            self._count_d = 0
            self._writes_d = 0
            self._miss_d = 0
