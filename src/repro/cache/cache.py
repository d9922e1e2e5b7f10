"""Set-associative cache timing simulator (tags only).

The functional byte-moving caches live in :mod:`repro.hashtree`; this
simulator tracks tags, LRU state and dirty bits to produce hit/miss
streams and victim information for the performance model.  Accesses carry
a *kind* label (``data``, ``hash``, ``instr``) so cache pollution by tree
nodes is measurable per request class — that separation is exactly what
Figure 4 of the paper plots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..common.config import CacheConfig
from ..common.stats import StatGroup
from ..common.units import log2_exact


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache access (state already updated)."""

    hit: bool
    #: True when the access found the line dirty (for write-back decisions).
    was_dirty: bool = False


@dataclass(frozen=True)
class FillResult:
    """Outcome of allocating a line after a miss."""

    victim_address: Optional[int]
    victim_dirty: bool


#: supported victim-selection policies.
REPLACEMENT_POLICIES = ("lru", "fifo", "random")

#: shared immutable access outcomes — the access path is the hottest loop in
#: the whole simulator, so it must not allocate a result object per call.
_HIT_CLEAN = AccessResult(hit=True, was_dirty=False)
_HIT_DIRTY = AccessResult(hit=True, was_dirty=True)
_MISS = AccessResult(hit=False)
_NO_VICTIM = FillResult(None, False)


class CacheSim:
    """Set-associative write-back cache, tags only.

    ``policy`` selects the victim: ``lru`` (the paper's machine), ``fifo``
    (no promotion on hit) or ``random`` (seeded, deterministic) — the
    latter two exist for sensitivity studies.
    """

    def __init__(self, config: CacheConfig, policy: str = "lru",
                 seed: int = 0x5EED):
        if policy not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {REPLACEMENT_POLICIES}"
            )
        self.config = config
        self.policy = policy
        self.stats = StatGroup(config.name)
        self._offset_bits = log2_exact(config.block_bytes)
        self._n_sets = config.n_sets
        #: per-set eviction-order list of block addresses (victim at the end).
        self._sets: List[List[int]] = [[] for _ in range(self._n_sets)]
        self._dirty: set[int] = set()
        self._rng = random.Random(seed)
        self._lru = policy == "lru"
        self._counters = self.stats.counters
        #: per-kind precomputed stat keys: (accesses, writes, hits, misses, fills)
        self._kind_keys: dict = {}

    def _keys_for(self, kind: str) -> tuple:
        keys = (f"{kind}_accesses", f"{kind}_writes", f"{kind}_hits",
                f"{kind}_misses", f"{kind}_fills")
        self._kind_keys[kind] = keys
        return keys

    def kind_keys(self, kind: str) -> tuple:
        """The precomputed counter-key tuple for ``kind`` —
        ``(accesses, writes, hits, misses, fills)``.  Public so the
        kernel prepass can bulk-apply counters outside this module."""
        return self._kind_keys.get(kind) or self._keys_for(kind)

    def divert_counters(self, divert: bool) -> None:
        """Send counter updates to a scratch dict (for warm-up phases whose
        statistics are reset anyway) or back to the real :attr:`stats`."""
        self._counters = {} if divert else self.stats.counters

    # -- address helpers --------------------------------------------------------

    def block_address(self, address: int) -> int:
        return (address >> self._offset_bits) << self._offset_bits

    def _set_index(self, block_address: int) -> int:
        return (block_address >> self._offset_bits) % self._n_sets

    # -- lookups -----------------------------------------------------------------

    def access(self, address: int, write: bool = False, kind: str = "data") -> AccessResult:
        """Look up ``address``; on hit, update LRU and dirtiness.

        Misses do *not* allocate — the caller decides when the fill happens
        (after the block arrives) via :meth:`fill`.
        """
        offset_bits = self._offset_bits
        block = (address >> offset_bits) << offset_bits
        ways = self._sets[(block >> offset_bits) % self._n_sets]
        keys = self._kind_keys.get(kind) or self._keys_for(kind)
        counters = self._counters
        get = counters.get
        counters[keys[0]] = get(keys[0], 0) + 1
        if write:
            counters[keys[1]] = get(keys[1], 0) + 1
        if block in ways:
            if self._lru and ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            counters[keys[2]] = get(keys[2], 0) + 1
            dirty = self._dirty
            if write:
                if block in dirty:
                    return _HIT_DIRTY
                dirty.add(block)
                return _HIT_CLEAN
            return _HIT_DIRTY if block in dirty else _HIT_CLEAN
        counters[keys[3]] = get(keys[3], 0) + 1
        return _MISS

    def warm_access(self, address: int, write: bool = False) -> bool:
        """Counter-free :meth:`access` for functional warm-up.

        Evolves tag/LRU/dirty state exactly like :meth:`access` (warm-up
        counters are diverted to scratch and discarded anyway, so skipping
        them is free) and returns only the hit/miss verdict.
        """
        offset_bits = self._offset_bits
        block = (address >> offset_bits) << offset_bits
        ways = self._sets[(block >> offset_bits) % self._n_sets]
        if block in ways:
            if self._lru and ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            if write:
                self._dirty.add(block)
            return True
        return False

    def resident_blocks(self) -> set:
        """Every block address currently resident, as a set (the
        measured prepass classifies whole columns against it)."""
        resident: set = set()
        for ways in self._sets:
            resident.update(ways)
        return resident

    def warm_fill(self, address: int, dirty: bool = False) -> FillResult:
        """Counter-free :meth:`fill` for functional warm-up.

        State evolution — including the victim RNG draw under the
        ``random`` policy — is identical to :meth:`fill`.
        """
        offset_bits = self._offset_bits
        block = (address >> offset_bits) << offset_bits
        ways = self._sets[(block >> offset_bits) % self._n_sets]
        if block in ways:  # racing fill (e.g. two misses to one block)
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            if dirty:
                self._dirty.add(block)
            return _NO_VICTIM
        victim_address = None
        victim_dirty = False
        if len(ways) >= self.config.associativity:
            if self.policy == "random":
                victim_address = ways.pop(self._rng.randrange(len(ways)))
            else:  # lru and fifo both evict from the tail
                victim_address = ways.pop()
            victim_dirty = victim_address in self._dirty
            self._dirty.discard(victim_address)
        ways.insert(0, block)
        if dirty:
            self._dirty.add(block)
        if victim_address is None:
            return _NO_VICTIM
        return FillResult(victim_address, victim_dirty)

    def probe(self, address: int) -> bool:
        """Presence test with no LRU/stat side effects."""
        block = self.block_address(address)
        return block in self._sets[self._set_index(block)]

    def victim_block(self, block: int) -> Optional[int]:
        """The block a fill of (absent) ``block`` would evict right now.

        Pure peek for the measured prepass's residency tracking; exact for
        the LRU/FIFO tail-eviction policies (the hierarchy never builds
        ``random`` caches).  ``None`` when no eviction would occur.
        """
        ways = self._sets[(block >> self._offset_bits) % self._n_sets]
        if block not in ways and len(ways) >= self.config.associativity:
            return ways[-1]
        return None

    def is_dirty(self, address: int) -> bool:
        return self.block_address(address) in self._dirty

    def fill(self, address: int, dirty: bool = False, kind: str = "data") -> FillResult:
        """Allocate ``address``'s block, evicting the LRU way if needed."""
        offset_bits = self._offset_bits
        block = (address >> offset_bits) << offset_bits
        ways = self._sets[(block >> offset_bits) % self._n_sets]
        counters = self._counters
        get = counters.get
        if block in ways:  # racing fill (e.g. two misses to one block)
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            if dirty:
                self._dirty.add(block)
            return _NO_VICTIM
        victim_address = None
        victim_dirty = False
        if len(ways) >= self.config.associativity:
            if self.policy == "random":
                victim_address = ways.pop(self._rng.randrange(len(ways)))
            else:  # lru and fifo both evict from the tail
                victim_address = ways.pop()
            victim_dirty = victim_address in self._dirty
            self._dirty.discard(victim_address)
            counters["evictions"] = get("evictions", 0) + 1
            if victim_dirty:
                counters["dirty_evictions"] = get("dirty_evictions", 0) + 1
        ways.insert(0, block)
        if dirty:
            self._dirty.add(block)
        keys = self._kind_keys.get(kind) or self._keys_for(kind)
        counters[keys[4]] = get(keys[4], 0) + 1
        if victim_address is None:
            return _NO_VICTIM
        return FillResult(victim_address, victim_dirty)

    def invalidate(self, address: int) -> bool:
        """Drop a block if present; returns whether it was dirty."""
        block = self.block_address(address)
        ways = self._sets[self._set_index(block)]
        if block not in ways:
            return False
        ways.remove(block)
        dirty = block in self._dirty
        self._dirty.discard(block)
        return dirty

    def mark_clean(self, address: int) -> None:
        self._dirty.discard(self.block_address(address))

    # -- snapshot / restore -----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Full mutable state (tags, LRU order, dirty bits, victim RNG,
        counters), deep-copied so later accesses cannot alias it."""
        return (
            [list(ways) for ways in self._sets],
            set(self._dirty),
            self._rng.getstate(),
            dict(self.stats.counters),
        )

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot`; the snapshot remains reusable."""
        sets, dirty, rng_state, counters = snap
        self._sets = [list(ways) for ways in sets]
        self._dirty = set(dirty)
        self._rng.setstate(rng_state)
        # mutate the counter dict in place: hot paths bind it once
        live = self.stats.counters
        live.clear()
        live.update(counters)

    # -- metrics -------------------------------------------------------------------

    def miss_rate(self, kind: str = "data") -> float:
        return self.stats.ratio(f"{kind}_misses", f"{kind}_accesses")

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheSim({self.config.name}, {self.config.size_bytes} B)"
