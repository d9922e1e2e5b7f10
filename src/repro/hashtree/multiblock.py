"""Multiple cache blocks per chunk — the ``mhash`` algorithm (Section 5.4).

The hash-computation unit (the *chunk*) is decoupled from the cache block:
one hash covers ``blocks_per_chunk`` cache blocks, cutting the memory
overhead without growing the cache block.  The price is traffic: verifying
or writing back any one block requires assembling the whole chunk.

The trusted cache holds *blocks*.  Per the paper's modified algorithms:

* ``ReadAndCheckChunk`` assembles the chunk *as it is in memory*: blocks
  that are clean in the cache come from the cache (they equal memory),
  everything else — uncached **and dirty** blocks alike — is read from
  memory, because the parent hash covers the memory image.
* ``ReadAndCheck`` (:meth:`read_block`) inserts only the blocks that were
  uncached; dirty blocks keep their newer cached data.
* ``Write-Back`` completes the chunk via ``ReadAndCheckChunk``, marks the
  chunk's cached blocks clean, hashes the *modified* chunk and writes the
  dirty blocks plus the parent hash.

Blocks of the chunk being verified are pinned in the cache for the
duration of the walk so a recursive eviction cannot mutate the memory
image mid-check (hardware holds them in the read/write buffers).  An
evicted block whose write-back is in flight is served from its
write-back buffer until it is stored, never from its stale memory copy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import IntegrityError, SimulationError
from ..common.stats import StatGroup
from ..crypto.hashes import HashFunction, default_hash
from ..memory.main_memory import UntrustedMemory
from .cached import ChunkCache
from .layout import TreeLayout


class BlockCache(ChunkCache):
    """LRU block cache with pinning (blocks held by an in-flight check)."""

    def __init__(self, capacity_blocks: int):
        super().__init__(capacity_blocks)
        self.pinned: Set[int] = set()

    def pop_victim(self) -> Tuple[int, bytearray, bool]:
        """Evict the LRU *unpinned* entry."""
        for block in self._entries:  # OrderedDict iterates LRU-first
            if block not in self.pinned:
                data = self._entries.pop(block)
                dirty = block in self._dirty
                self._dirty.discard(block)
                return block, data, dirty
        raise SimulationError(
            "every cached block is pinned; the trusted cache is too small "
            "for the tree depth (grow capacity_blocks)"
        )


class MultiBlockHashTree:
    """The mhash scheme, functionally: block cache + chunk-granularity hashes.

    Parameters
    ----------
    layout:
        Chunk geometry; ``layout.chunk_bytes`` must equal
        ``block_bytes * blocks_per_chunk``.
    blocks_per_chunk:
        Cache blocks covered by one hash (``>= 1``; 1 degenerates to chash
        with a block cache).
    capacity_blocks:
        Trusted cache size in blocks.
    """

    def __init__(
        self,
        memory: UntrustedMemory,
        layout: TreeLayout,
        blocks_per_chunk: int = 2,
        hash_fn: Optional[HashFunction] = None,
        capacity_blocks: int = 2048,
        checking_enabled: bool = True,
    ):
        if memory.size_bytes < layout.physical_bytes:
            raise ValueError("memory too small for the tree layout")
        if blocks_per_chunk < 1:
            raise ValueError(f"blocks_per_chunk must be >= 1, "
                             f"got {blocks_per_chunk}")
        if layout.chunk_bytes % blocks_per_chunk != 0:
            raise ValueError("chunk must split into equal blocks")
        self.memory = memory
        self.layout = layout
        self.blocks_per_chunk = blocks_per_chunk
        self.block_bytes = layout.chunk_bytes // blocks_per_chunk
        self.hash_fn = hash_fn if hash_fn is not None else default_hash()
        if self.hash_fn.digest_bytes != layout.hash_bytes:
            raise ValueError("hash function output must match layout.hash_bytes")
        self.cache = BlockCache(capacity_blocks)
        self.secure_store: List[bytes] = [
            bytes(layout.hash_bytes) for _ in range(layout.secure_hash_slots)
        ]
        self.checking_enabled = checking_enabled
        self.stats = StatGroup("mhash")
        #: blocks whose write-back is in flight, mapped to the trusted
        #: buffer being written back (see :meth:`write_back`).
        self._in_flight: Dict[int, bytearray] = {}

    # -- block/chunk address helpers ---------------------------------------------

    def _blocks_of(self, chunk: int) -> range:
        first = chunk * self.blocks_per_chunk
        return range(first, first + self.blocks_per_chunk)

    def _block_address(self, block: int) -> int:
        return block * self.block_bytes

    def _chunk_of_block(self, block: int) -> int:
        return block // self.blocks_per_chunk

    # -- chunk digest (overridden by the incremental-MAC subclass) ----------------

    def _digest_chunk(self, chunk: int, blocks: List[bytes]) -> bytes:
        """Digest a fully-assembled chunk into one tree entry."""
        self.stats.add("hash_computations")
        return self.hash_fn.digest(b"".join(blocks))

    # -- the paper's operations ----------------------------------------------------

    def read_and_check_chunk(self, chunk: int) -> List[bytes]:
        """Assemble the memory image of ``chunk`` and verify it.

        Returns the per-block memory image (stale for dirty-cached blocks,
        exactly as the paper notes).
        """
        pinned_here = [b for b in self._blocks_of(chunk) if b not in self.cache.pinned]
        self.cache.pinned.update(pinned_here)
        try:
            # Load the tree entry *before* assembling: fetching it can
            # recurse into evictions whose write-backs legitimately rewrite
            # this chunk's memory image; assembly and comparison below are
            # recursion-free, so entry and image stay consistent.
            entry = self._load_entry(chunk) if self.checking_enabled else None
            blocks: List[bytes] = []
            for block in self._blocks_of(chunk):
                cached = self.cache.peek(block)
                if cached is not None and not self.cache.is_dirty(block):
                    self.stats.add("chunk_blocks_from_cache")
                    blocks.append(bytes(cached))
                else:
                    self.stats.add("memory_block_reads")
                    blocks.append(
                        self.memory.read(self._block_address(block), self.block_bytes)
                    )
            if self.checking_enabled:
                self._verify_against_entry(chunk, blocks, entry)
            return blocks
        finally:
            self.cache.pinned.difference_update(pinned_here)

    def _verify_against_entry(
        self, chunk: int, blocks: List[bytes], entry: bytes
    ) -> None:
        digest = self._digest_chunk(chunk, blocks)
        self.stats.add("hash_checks")
        if digest != entry:
            raise IntegrityError(
                f"integrity check failed for chunk {chunk}",
                address=self.layout.chunk_address(chunk),
            )

    def _fetch_chunk_into_cache(self, chunk: int) -> None:
        """Check the chunk and allocate its previously-uncached blocks.

        The chunk's blocks are pinned across the fetch *and* the fill:
        inserting one block can evict a dirty chunk-mate, whose write-back
        would freshen memory and invalidate the snapshot the loop is about
        to install as clean.
        """
        pinned_here = [b for b in self._blocks_of(chunk) if b not in self.cache.pinned]
        self.cache.pinned.update(pinned_here)
        try:
            blocks = self.read_and_check_chunk(chunk)
            for candidate, data in zip(self._blocks_of(chunk), blocks):
                if (candidate not in self.cache
                        and candidate not in self._in_flight):
                    self._insert(candidate, bytearray(data), dirty=False)
                    if candidate not in self.cache.pinned:
                        self.cache.pinned.add(candidate)
                        pinned_here.append(candidate)
        finally:
            self.cache.pinned.difference_update(pinned_here)

    def read_block(self, block: int) -> bytes:
        """ReadAndCheck at block granularity."""
        cached = self.cache.get(block)
        if cached is None:
            cached = self._in_flight.get(block)
        if cached is not None:
            self.stats.add("cache_hits")
            return bytes(cached)
        self.stats.add("cache_misses")
        self._fetch_chunk_into_cache(self._chunk_of_block(block))
        live = self.cache.get(block)
        if live is None:  # pragma: no cover - internal consistency guard
            raise SimulationError(f"block {block} vanished during insertion")
        return bytes(live)

    def write_block_bytes(self, block: int, offset: int, payload: bytes) -> None:
        """Write: modify in place when cached, else fetch the chunk first."""
        if offset < 0 or offset + len(payload) > self.block_bytes:
            raise ValueError("write does not fit inside one block")
        live = self.cache.get(block)
        if live is None and block in self._in_flight:
            # in flight: its write-back stores the buffer after this update
            self.stats.add("cache_hits")
            self._in_flight[block][offset : offset + len(payload)] = payload
            return
        if live is None:
            self.stats.add("cache_misses")
            self._fetch_chunk_into_cache(self._chunk_of_block(block))
            live = self.cache.get(block)
            if live is None:  # pragma: no cover - internal consistency guard
                raise SimulationError(f"block {block} vanished during insertion")
        else:
            self.stats.add("cache_hits")
        live[offset : offset + len(payload)] = payload
        self.cache.mark_dirty(block)

    def write_back(self, block: int, data: bytes) -> None:
        """Write-Back of one evicted dirty block (plus chunk-mates' dirt).

        The chunk's cached blocks are pinned for the whole operation: the
        paper requires the data writes and the parent-hash update to become
        visible "simultaneously", and a recursive eviction in between would
        observe (and fail on) the half-updated state.

        The fetches before the writes can evict and write back children
        of this chunk, whose entry updates must reach ``block``'s newest
        trusted copy.  An evicted ``block`` is therefore served from a
        buffer in :attr:`_in_flight` until it is stored; a ``block`` still
        cached (a flush) is stored from its live cache copy.
        """
        chunk = self._chunk_of_block(block)
        pinned_here = [b for b in self._blocks_of(chunk) if b not in self.cache.pinned]
        self.cache.pinned.update(pinned_here)
        self._in_flight[block] = bytearray(data)
        try:
            self._write_back_pinned(chunk, block)
        finally:
            del self._in_flight[block]
            self.cache.pinned.difference_update(pinned_here)

    def _newest(self, block: int) -> bytes:
        """``block``'s content to store once a write-back's fetches are
        done: the live cache copy (marked clean) or the in-flight buffer."""
        live = self.cache.peek(block)
        if live is None:
            return bytes(self._in_flight[block])
        self.cache.mark_clean(block)
        return bytes(live)

    def _write_back_pinned(self, chunk: int, block: int) -> None:
        memory_image = self.read_and_check_chunk(chunk)
        # Make the parent entry block resident *now*: once the data writes
        # below start, the chunk is inconsistent until _store_entry lands,
        # and a cache miss inside _store_entry could recurse into a
        # verification of this very chunk.
        self._ensure_entry_resident(chunk)
        data = self._newest(block)
        modified: List[bytes] = []
        dirty_blocks: List[Tuple[int, bytes]] = [(block, data)]
        for candidate, mem_data in zip(self._blocks_of(chunk), memory_image):
            if candidate == block:
                modified.append(data)
                continue
            cached = self.cache.peek(candidate)
            if cached is not None:
                if self.cache.is_dirty(candidate):
                    dirty_blocks.append((candidate, bytes(cached)))
                    self.cache.mark_clean(candidate)
                modified.append(bytes(cached))
            else:
                modified.append(mem_data)
        digest = self._digest_chunk(chunk, modified)
        for dirty_block, dirty_data in dirty_blocks:
            self.memory.write(self._block_address(dirty_block), dirty_data)
            self.stats.add("memory_block_writes")
        self._store_entry(chunk, digest)

    # -- byte-granularity protected address space -----------------------------------

    def read(self, address: int, length: int) -> bytes:
        pieces = []
        cursor, remaining = address, length
        while remaining > 0:
            chunk, chunk_offset = self.layout.leaf_for_address(cursor)
            block = chunk * self.blocks_per_chunk + chunk_offset // self.block_bytes
            block_offset = chunk_offset % self.block_bytes
            take = min(remaining, self.block_bytes - block_offset)
            pieces.append(self.read_block(block)[block_offset : block_offset + take])
            cursor += take
            remaining -= take
        return b"".join(pieces)

    def write(self, address: int, data: bytes) -> None:
        cursor = address
        view = memoryview(data)
        while view:
            chunk, chunk_offset = self.layout.leaf_for_address(cursor)
            block = chunk * self.blocks_per_chunk + chunk_offset // self.block_bytes
            block_offset = chunk_offset % self.block_bytes
            take = min(len(view), self.block_bytes - block_offset)
            self.write_block_bytes(block, block_offset, bytes(view[:take]))
            cursor += take
            view = view[take:]

    def flush(self) -> None:
        """Write back every dirty block, deepest chunks first."""
        while True:
            dirty = self.cache.dirty_chunks()
            if not dirty:
                return
            block = dirty[-1]
            data = self.cache.peek(block)
            if data is None:  # pragma: no cover - internal consistency guard
                self.cache.mark_clean(block)
                continue
            # write_back marks the block clean only after the memory-image
            # assembly, which relies on the dirty flag to know this
            # block's memory copy is stale.
            self.write_back(block, bytes(data))

    def initialize_from_memory(self) -> None:
        """Compute every tree entry bottom-up from current memory contents.

        The paper's cache-flush initialization trick does not work for the
        incremental variant (footnote: MAC computations there are
        incremental), so both mhash and ihash initialize by scanning —
        each chunk's entry is computed from scratch.
        """
        for chunk in range(self.layout.total_chunks - 1, -1, -1):
            blocks = [
                self.memory.peek(self._block_address(b), self.block_bytes)
                for b in self._blocks_of(chunk)
            ]
            self._store_entry_raw(chunk, self._initial_entry(chunk, blocks))

    def _initial_entry(self, chunk: int, blocks: List[bytes]) -> bytes:
        """Tree entry for a freshly-initialized chunk (ihash overrides)."""
        return self._digest_chunk(chunk, blocks)

    def invalidate_chunk(self, chunk: int) -> None:
        """Drop any cached copies of the chunk's blocks (DMA unprotect)."""
        for block in self._blocks_of(chunk):
            self.cache.remove(block)

    def rebuild_chunk_from_memory(self, chunk: int) -> None:
        """Recompute ``chunk``'s entry from memory (re-protect after DMA)."""
        blocks = [
            self.memory.peek(self._block_address(b), self.block_bytes)
            for b in self._blocks_of(chunk)
        ]
        self._store_entry(chunk, self._initial_entry(chunk, blocks))

    # -- tree-entry plumbing -----------------------------------------------------------

    def _load_entry(self, chunk: int) -> bytes:
        """Fetch the tree entry (hash/MAC+timestamps) covering ``chunk``."""
        location = self.layout.hash_location(chunk)
        if location.in_secure_memory:
            return self.secure_store[location.index]
        entry_offset = location.index * self.layout.hash_bytes
        block = (
            location.parent_chunk * self.blocks_per_chunk
            + entry_offset // self.block_bytes
        )
        offset = entry_offset % self.block_bytes
        parent_block = self.read_block(block)
        return parent_block[offset : offset + self.layout.hash_bytes]

    def _store_entry(self, chunk: int, entry: bytes) -> None:
        """Write the tree entry for ``chunk`` through the cache (Write op)."""
        location = self.layout.hash_location(chunk)
        if location.in_secure_memory:
            self.secure_store[location.index] = entry
            return
        entry_offset = location.index * self.layout.hash_bytes
        block = (
            location.parent_chunk * self.blocks_per_chunk
            + entry_offset // self.block_bytes
        )
        offset = entry_offset % self.block_bytes
        self.write_block_bytes(block, offset, entry)

    def _ensure_entry_resident(self, chunk: int) -> None:
        """Pull the block holding ``chunk``'s tree entry into the cache."""
        location = self.layout.hash_location(chunk)
        if location.in_secure_memory:
            return
        entry_offset = location.index * self.layout.hash_bytes
        block = (
            location.parent_chunk * self.blocks_per_chunk
            + entry_offset // self.block_bytes
        )
        if block not in self.cache:
            self.read_block(block)

    def _store_entry_raw(self, chunk: int, entry: bytes) -> None:
        """Initialization-time direct store, bypassing the cache."""
        location = self.layout.hash_location(chunk)
        if location.in_secure_memory:
            self.secure_store[location.index] = entry
        else:
            self.memory.poke(location.address, entry)

    def _insert(self, block: int, data: bytearray, dirty: bool) -> bytearray:
        """Insert with eviction; keeps any newer buffer installed by recursion."""
        while self.cache.full and block not in self.cache:
            victim, victim_data, victim_dirty = self.cache.pop_victim()
            self.stats.add("evictions")
            if victim_dirty:
                self.write_back(victim, bytes(victim_data))
        existing = self.cache.peek(block)
        if existing is not None:
            if dirty:
                self.cache.mark_dirty(block)
            return existing
        self.cache.put(block, data, dirty)
        return data
