"""Column planning for the batched warm-path kernel.

Everything here is *pure column math* over one packed warm chunk —
classification of rows into per-cache block/page columns and
hit-candidate masks.  The state-mutating half of the kernel (batched LRU
application, the slow-row interpreter) lives on
:meth:`repro.cache.hierarchy.MemoryHierarchy.warm_vec`, where the
twin-symmetry checker can pair its mutations against ``warm``.

Correctness model (the sequential-dependence boundary):

* A row whose block and page are resident *at mask-build time* is a
  guaranteed hit as long as nothing was evicted since — hits only
  promote LRU entries, never change membership, so a run of
  mask-``True`` rows can be applied as one batch.
* Misses (mask ``False``) are interpreted row by row through the exact
  counter-free warm paths; each may fill (stale-``False`` rows are
  re-checked by the interpreter, so conservatism is safe) and may
  *evict*.  Evicted blocks/pages are the only stale-``True`` hazard;
  they go into a :class:`Poison` set consulted before batching, and the
  masks are rebuilt outright once enough slow rows accumulate.
"""

from __future__ import annotations

from ..common.packed import WARM_IFETCH, WARM_STORE

#: below this hit-candidate fraction a chunk is interpreted row by row —
#: the row body is only ~3 bound-method calls, so the batching
#: machinery pays for itself only when long hit runs dominate outright.
MIN_FAST_FRACTION = 0.995
#: hit runs shorter than this are applied row by row; per-span batching
#: overhead only amortizes over longer runs.
MIN_BATCH_ROWS = 32


class WarmPlan:
    """Per-chunk columns shared by mask builds and batch application."""

    __slots__ = ("n", "data_offset", "codes", "values", "blk", "page",
                 "is_if", "not_if", "is_wr")


def build_plan(codes, values, data_offset, page_bits,
               i_offset_bits, d_offset_bits) -> WarmPlan:
    """Classify one ``(codes, values)`` chunk into per-cache columns."""
    plan = WarmPlan()
    codes = list(codes)
    values = list(values)
    is_if = [code == WARM_IFETCH for code in codes]
    d_mask = ~((1 << d_offset_bits) - 1)
    if i_offset_bits == d_offset_bits:
        plan.blk = [(value + data_offset) & d_mask for value in values]
    else:
        i_mask = ~((1 << i_offset_bits) - 1)
        plan.blk = [(value + data_offset) & (i_mask if fetch else d_mask)
                    for value, fetch in zip(values, is_if)]
    plan.page = [value >> page_bits for value in values]
    plan.is_if = is_if
    plan.not_if = [not fetch for fetch in is_if]
    plan.is_wr = [code >= WARM_STORE for code in codes]
    plan.codes = codes
    plan.values = values
    plan.n = len(codes)
    plan.data_offset = data_offset
    return plan


def fast_mask(plan, live):
    """Hit-candidate mask: row block *and* page resident right now."""
    l1i, itlb, l1d, dtlb = live.l1i, live.itlb, live.l1d, live.dtlb
    return [(block in l1i and page in itlb) if fetch
            else (block in l1d and page in dtlb)
            for block, page, fetch in zip(plan.blk, plan.page, plan.is_if)]


def unique_recent(col, mask, start, end):
    """Unique ``col[start:end]`` values where ``mask`` holds, most
    recently seen first — the promotion order batched LRU application
    needs."""
    order: dict = {}
    pop = order.pop
    for value, flag in zip(col[start:end], mask[start:end]):
        if flag:
            pop(value, None)
            order[value] = None
    return list(reversed(order))


def unique_vals(col, mask, start, end):
    """Unique ``col[start:end]`` values where ``mask`` holds (order-free)."""
    return {value for value, flag in zip(col[start:end], mask[start:end])
            if flag}


class Residency:
    """Exact current L1/TLB membership, maintained incrementally by the
    row interpreter (fills add, evictions discard) so rows filled *after*
    the chunk's mask was built stop fragmenting the batch spans."""

    __slots__ = ("l1i", "l1d", "itlb", "dtlb")

    def __init__(self, l1i, l1d, itlb, dtlb):
        self.l1i = l1i
        self.l1d = l1d
        self.itlb = itlb
        self.dtlb = dtlb


class Poison:
    """Blocks/pages evicted since the chunk's mask was built and not
    since refilled — the only stale-``True`` hazard a batched span must
    screen against."""

    __slots__ = ("l1i", "l1d", "itlb", "dtlb")

    def __init__(self):
        self.l1i: set = set()
        self.l1d: set = set()
        self.itlb: set = set()
        self.dtlb: set = set()

    def empty(self) -> bool:
        return not (self.l1i or self.l1d or self.itlb or self.dtlb)
