"""Timing-scheme interface: how L2 misses and write-backs reach memory.

A :class:`TimingScheme` is the machinery between the L2 cache and main
memory.  The core never calls it directly — the
:class:`~repro.cache.hierarchy.MemoryHierarchy` forwards L2 data misses and
L2 victim write-backs, and the scheme decides what bus traffic, hash-engine
work and extra L2 (hash) accesses they cost:

* ``base``   — plain fetch/write-back, no verification;
* ``naive``  — full tree walk from memory on every miss, hashes uncached;
* ``chash``  — tree nodes cached in L2, walk stops at the first hit;
* ``mhash``  — chash with several L2 blocks per hash chunk;
* ``ihash``  — mhash with incremental MACs on the write-back path.

Timing convention: methods take ``now`` (cycle the miss reaches the L2
miss handler) and return a :class:`MissOutcome`; ``data_ready`` is when the
requested block is usable by the core (speculative execution continues
from there, Section 5.9), ``check_done`` is when its background
verification chain completes (crypto instructions wait for the maximum of
these).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cache.cache import CacheSim
from ..common.config import SystemConfig
from ..common.stats import StatGroup
from ..dram.bus import MainMemoryTiming
from ..hashengine.engine import HashEngineTiming
from ..hashtree.layout import TreeLayout

#: Cascaded evictions deeper than this are counted, not followed — the
#: timing error is negligible and it bounds recursion.
MAX_CASCADE_DEPTH = 24


@dataclass(frozen=True)
class MissOutcome:
    """What the core learns about one L2 miss."""

    data_ready: int
    check_done: int


class TimingScheme:
    """Common plumbing for the five schemes."""

    name = "abstract"

    def __init__(
        self,
        config: SystemConfig,
        l2: CacheSim,
        memory: MainMemoryTiming,
        engine: HashEngineTiming,
        layout: Optional[TreeLayout],
    ):
        self.l2 = l2
        self.memory = memory
        self.engine = engine
        self.stats = StatGroup(f"scheme_{self.name}")
        self._counters = self.stats.counters
        self.block_bytes = config.l2.block_bytes
        self._l2_latency = config.l2.latency_cycles
        #: constant offset applied by :meth:`data_address` — precomputed so
        #: the per-reference hot path is one integer add.
        self._data_offset = 0
        if layout is not None:
            # the walk indexes the tree in closed form (hashtree/layout.py):
            # chunk c's parent is c // arity - 1 (negative: on chip) and
            # its entry is at parent * chunk_bytes + (c % arity) * hash_bytes
            self.arity = layout.arity
            self.chunk_bytes = layout.chunk_bytes
            self.hash_bytes = layout.hash_bytes
            self.total_chunks = layout.total_chunks
            self._data_offset = layout.first_leaf * layout.chunk_bytes

    # -- interface used by the memory hierarchy -----------------------------------

    def handle_data_miss(self, address: int, now: int, write: bool) -> MissOutcome:
        """An L2 data (or instruction) miss at physical ``address``.

        Must fetch the block, arrange verification, fill the L2 and handle
        any victim write-back.  ``write`` marks a write-allocate fill.
        """
        raise NotImplementedError

    def data_address(self, program_address: int) -> int:
        """Map a program address into the protected physical segment."""
        return program_address + self._data_offset

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot_state(self) -> tuple:
        """Scheme-owned mutable state (all five schemes keep only counters;
        a future stateful scheme overrides both hooks together)."""
        return (dict(self._counters),)

    def restore_state(self, snap: tuple) -> None:
        (counters,) = snap
        live = self._counters
        live.clear()
        live.update(counters)

    # -- shared helpers ---------------------------------------------------------------

    def _chunk_at(self, address: int) -> int:
        """Chunk index holding physical ``address``; checked once per walk."""
        chunk = address // self.chunk_bytes
        if not 0 <= chunk < self.total_chunks:
            raise IndexError(f"chunk {chunk} outside [0, {self.total_chunks})")
        return chunk

    def fill_l2(self, address: int, now: int, dirty: bool, kind: str,
                depth: int = 0) -> None:
        """Allocate a block in the L2, writing back the victim if dirty.

        Public because the hierarchy's §5.3 valid-bit store-allocate path
        fills the L2 directly (no fetch, no check) and still needs the
        scheme's victim-write-back cascade.
        """
        result = self.l2.fill(address, dirty=dirty, kind=kind)
        if result.victim_address is not None and result.victim_dirty:
            if depth >= MAX_CASCADE_DEPTH:
                counters = self._counters
                counters["cascade_depth_overflows"] = (
                    counters.get("cascade_depth_overflows", 0) + 1)
                # account the bus write at least, so bandwidth stays honest
                self.memory.write(now, self.block_bytes, kind="writeback")
                return
            self.handle_writeback(result.victim_address, now, depth + 1)

    def handle_writeback(self, victim_address: int, now: int, depth: int = 0) -> None:
        """An L2 dirty victim leaves the cache at ``now``."""
        raise NotImplementedError
