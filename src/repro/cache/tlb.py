"""TLB timing model (Table 1: 4-way, 128 entries, I and D)."""

from __future__ import annotations

from typing import List

from ..common.config import TLBConfig
from ..common.stats import StatGroup
from ..common.units import log2_exact


class TLBSim:
    """Set-associative TLB; a miss costs a fixed table-walk penalty."""

    def __init__(self, config: TLBConfig, name: str = "tlb"):
        self.config = config
        self.stats = StatGroup(name)
        self._page_bits = log2_exact(config.page_bytes)
        self._n_sets = config.entries // config.associativity
        self._sets: List[List[int]] = [[] for _ in range(self._n_sets)]
        self._counters = self.stats.counters
        self._associativity = config.associativity
        self._miss_penalty = config.miss_penalty_cycles

    def access(self, address: int) -> int:
        """Translate ``address``; returns the added latency in cycles."""
        page = address >> self._page_bits
        ways = self._sets[page % self._n_sets]
        counters = self._counters
        get = counters.get
        counters["accesses"] = get("accesses", 0) + 1
        if page in ways:
            if ways[0] != page:
                ways.remove(page)
                ways.insert(0, page)
            counters["hits"] = get("hits", 0) + 1
            return 0
        counters["misses"] = get("misses", 0) + 1
        if len(ways) >= self._associativity:
            ways.pop()
        ways.insert(0, page)
        return self._miss_penalty

    def warm_access(self, address: int) -> None:
        """Counter-free :meth:`access` for functional warm-up: identical
        set/LRU evolution, no latency computed, no statistics."""
        page = address >> self._page_bits
        ways = self._sets[page % self._n_sets]
        if page in ways:
            if ways[0] != page:
                ways.remove(page)
                ways.insert(0, page)
            return
        if len(ways) >= self._associativity:
            ways.pop()
        ways.insert(0, page)

    def divert_counters(self, divert: bool) -> None:
        """Send counter updates to a scratch dict (for warm-up phases whose
        statistics are reset anyway) or back to the real :attr:`stats`."""
        self._counters = {} if divert else self.stats.counters

    # -- snapshot / restore -----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Full mutable state (translations in LRU order, counters)."""
        return ([list(ways) for ways in self._sets], dict(self.stats.counters))

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot`; the snapshot remains reusable."""
        sets, counters = snap
        self._sets = [list(ways) for ways in sets]
        live = self.stats.counters
        live.clear()
        live.update(counters)

    @property
    def miss_rate(self) -> float:
        return self.stats.ratio("misses", "accesses")
