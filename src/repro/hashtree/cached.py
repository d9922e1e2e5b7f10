"""Functional cached hash tree — the ``chash`` algorithm (Section 5.3).

The tree machinery is merged with a trusted on-chip cache.  Cached chunks
are trusted, so:

* a read that hits in the cache performs **no** hash operations;
* a miss checks the fetched chunk against its parent hash, where the
  parent lookup itself goes through the cache — a cached parent terminates
  the verification walk immediately (the cached node acts as the root of a
  smaller tree);
* hashes are recomputed only when a dirty chunk is written back, and the
  new hash is *written through the cache* into the parent chunk, dirtying
  it in turn.

The essential invariant (paper, Section 5.3): **at any time, nodes contain
hashes of their children as they are in memory** — a dirty cached child's
parent entry still reflects the stale memory copy until write-back.

This class is exact about that invariant and is differentially tested
against the uncached :class:`~repro.hashtree.tree.HashTree`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..common.errors import IntegrityError
from ..common.stats import StatGroup
from ..crypto.hashes import HashFunction, default_hash
from ..memory.main_memory import UntrustedMemory
from .layout import TreeLayout


class ChunkCache:
    """A trusted, LRU, write-back cache of whole chunks (on-chip storage)."""

    def __init__(self, capacity_chunks: int):
        if capacity_chunks < 1:
            raise ValueError("cache needs at least one chunk of capacity")
        self.capacity = capacity_chunks
        self._entries: "OrderedDict[int, bytearray]" = OrderedDict()
        self._dirty: set[int] = set()

    def __contains__(self, chunk: int) -> bool:
        return chunk in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, chunk: int) -> Optional[bytearray]:
        """Return the cached content (promoting to MRU), or None."""
        entry = self._entries.get(chunk)
        if entry is not None:
            self._entries.move_to_end(chunk)
        return entry

    def peek(self, chunk: int) -> Optional[bytearray]:
        """Return cached content without touching recency."""
        return self._entries.get(chunk)

    def is_dirty(self, chunk: int) -> bool:
        return chunk in self._dirty

    def mark_dirty(self, chunk: int) -> None:
        if chunk not in self._entries:
            raise KeyError(f"chunk {chunk} not cached")
        self._dirty.add(chunk)

    def mark_clean(self, chunk: int) -> None:
        self._dirty.discard(chunk)

    def put(self, chunk: int, data: bytearray, dirty: bool) -> None:
        """Insert or refresh an entry; caller must have made room."""
        self._entries[chunk] = data
        self._entries.move_to_end(chunk)
        if dirty:
            self._dirty.add(chunk)
        else:
            self._dirty.discard(chunk)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def pop_victim(self) -> Tuple[int, bytearray, bool]:
        """Remove and return the LRU entry as ``(chunk, data, was_dirty)``."""
        chunk, data = self._entries.popitem(last=False)
        dirty = chunk in self._dirty
        self._dirty.discard(chunk)
        return chunk, data, dirty

    def remove(self, chunk: int) -> None:
        self._entries.pop(chunk, None)
        self._dirty.discard(chunk)

    def dirty_chunks(self) -> List[int]:
        return sorted(self._dirty)

    def cached_chunks(self) -> Iterator[int]:
        return iter(list(self._entries.keys()))


class CachedHashTree:
    """The chash scheme, functionally: trusted cache + hash tree.

    Parameters
    ----------
    memory, layout, hash_fn:
        As for :class:`~repro.hashtree.tree.HashTree`.
    capacity_chunks:
        Size of the trusted cache in chunks (models the L2).
    checking_enabled:
        When False, reads skip verification (the write-only hashing mode
        used during secure-mode initialization, Section 5.8).
    """

    def __init__(
        self,
        memory: UntrustedMemory,
        layout: TreeLayout,
        hash_fn: Optional[HashFunction] = None,
        capacity_chunks: int = 1024,
        checking_enabled: bool = True,
    ):
        if memory.size_bytes < layout.physical_bytes:
            raise ValueError("memory too small for the tree layout")
        self.memory = memory
        self.layout = layout
        self.hash_fn = hash_fn if hash_fn is not None else default_hash()
        if self.hash_fn.digest_bytes != layout.hash_bytes:
            raise ValueError("hash function output must match layout.hash_bytes")
        self.cache = ChunkCache(capacity_chunks)
        self.secure_store: List[bytes] = [
            bytes(layout.hash_bytes) for _ in range(layout.secure_hash_slots)
        ]
        self.checking_enabled = checking_enabled
        self.stats = StatGroup("chash")
        #: chunks held in a trusted buffer outside the cache while their
        #: write-back fetches the parent or their fill evicts victims,
        #: mapped to that buffer (see :meth:`write_back`, :meth:`_insert`).
        self._in_flight: Dict[int, bytearray] = {}

    # -- the paper's four operations ------------------------------------------

    def read_and_check_chunk(self, chunk: int) -> bytes:
        """ReadAndCheckChunk: fetch from memory and verify against the parent.

        Returns the chunk *as it is in memory*.  The parent hash is obtained
        with :meth:`read_chunk` (i.e. through the cache), so a cached
        ancestor cuts the walk short.
        """
        address = self.layout.chunk_address(chunk)
        if not self.checking_enabled:
            self.stats.add("memory_chunk_reads")
            return self.memory.read(address, self.layout.chunk_bytes)
        # Load the expected hash *before* reading the data: fetching the
        # parent can recurse into evictions whose write-backs legitimately
        # rewrite this chunk's memory and parent entry; everything after
        # this line is recursion-free, so entry and data stay consistent.
        expected = self._load_expected_hash(chunk)
        data = self.memory.read(address, self.layout.chunk_bytes)
        self.stats.add("memory_chunk_reads")
        digest = self.hash_fn.digest(data)
        self.stats.add("hash_computations")
        self.stats.add("hash_checks")
        if digest != expected:
            raise IntegrityError(
                f"integrity check failed for chunk {chunk}", address=address
            )
        return data

    def read_chunk(self, chunk: int) -> bytes:
        """ReadAndCheck: cached data is trusted and returned immediately,
        and so is a chunk held in flight."""
        cached = self.cache.get(chunk)
        if cached is None:
            cached = self._in_flight.get(chunk)
        if cached is not None:
            self.stats.add("cache_hits")
            return bytes(cached)
        self.stats.add("cache_misses")
        data = self.read_and_check_chunk(chunk)
        live = self._insert(chunk, bytearray(data), dirty=False)
        return bytes(live)

    def write_chunk_bytes(self, chunk: int, offset: int, payload: bytes) -> None:
        """Write: modify directly if cached, else write-allocate.

        When ``payload`` covers the whole chunk the fetch-and-check is
        skipped (the valid-bit write-allocate optimization at the end of
        Section 5.3): the chunk's old memory content never influences the
        new state, so there is nothing to verify.
        """
        if offset < 0 or offset + len(payload) > self.layout.chunk_bytes:
            raise ValueError("write does not fit inside one chunk")
        live = self.cache.get(chunk)
        if live is not None:
            self.stats.add("cache_hits")
        else:
            self.stats.add("cache_misses")
            if len(payload) == self.layout.chunk_bytes:
                self.stats.add("whole_chunk_write_allocations")
                live = self._insert(chunk, bytearray(payload), dirty=True)
            else:
                data = bytearray(self.read_and_check_chunk(chunk))
                live = self._insert(chunk, data, dirty=False)
        live[offset : offset + len(payload)] = payload
        self.cache.mark_dirty(chunk)

    def write_back(self, chunk: int, data: bytes) -> None:
        """Write-Back: hash the evicted chunk, store it, update the parent.

        The paper requires the data write and the parent-hash update to
        become visible "simultaneously": the parent chunk is made resident
        *first*, so that no recursive verification (triggered by a cache
        miss on the parent) can observe the half-updated state in between.

        Fetching the parent can evict and write back this chunk's own
        children.  Their hash updates must reach this chunk's newest
        trusted copy — ``data``, not the stale copy in memory — so while
        the fetch runs the chunk is served from a buffer in
        :attr:`_in_flight`, and it is hashed and stored only after the fetch.
        """
        location = self.layout.hash_location(chunk)
        buffer = bytearray(data)
        if (not location.in_secure_memory
                and location.parent_chunk not in self.cache):
            self._in_flight[chunk] = buffer
            try:
                self.read_chunk(location.parent_chunk)
            finally:
                del self._in_flight[chunk]
        digest = self.hash_fn.digest(buffer)
        self.stats.add("hash_computations")
        self.memory.write(self.layout.chunk_address(chunk), bytes(buffer))
        self.stats.add("memory_chunk_writes")
        if location.in_secure_memory:
            self.secure_store[location.index] = digest
            return
        live = self.cache.get(location.parent_chunk)
        if live is not None:
            self.cache.mark_dirty(location.parent_chunk)
        else:
            # the parent is in flight; its write-back or fill stores the
            # buffer after this update
            live = self._in_flight.get(location.parent_chunk)
            if live is None:  # pragma: no cover - internal consistency guard
                raise RuntimeError("parent chunk vanished during write-back")
        start = location.index * self.layout.hash_bytes
        live[start : start + self.layout.hash_bytes] = digest

    # -- byte-granularity protected address space -------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Verified read over the protected (program) address space."""
        pieces = []
        cursor, remaining = address, length
        while remaining > 0:
            chunk, offset = self.layout.leaf_for_address(cursor)
            take = min(remaining, self.layout.chunk_bytes - offset)
            pieces.append(self.read_chunk(chunk)[offset : offset + take])
            cursor += take
            remaining -= take
        return b"".join(pieces)

    def write(self, address: int, data: bytes) -> None:
        """Verified write over the protected (program) address space."""
        cursor = address
        view = memoryview(data)
        while view:
            chunk, offset = self.layout.leaf_for_address(cursor)
            take = min(len(view), self.layout.chunk_bytes - offset)
            self.write_chunk_bytes(chunk, offset, bytes(view[:take]))
            cursor += take
            view = view[take:]

    # -- maintenance -------------------------------------------------------------

    def flush(self) -> None:
        """Write back every dirty chunk (deepest first, so one pass per level)."""
        while True:
            dirty = self.cache.dirty_chunks()
            if not dirty:
                return
            # Children always have larger indices than their parents in this
            # layout, so descending order pushes dirt upward monotonically.
            chunk = dirty[-1]
            data = self.cache.peek(chunk)
            if data is None:  # pragma: no cover - internal consistency guard
                self.cache.mark_clean(chunk)
                continue
            self.cache.mark_clean(chunk)
            self.write_back(chunk, bytes(data))

    def initialize_by_touch(self, payload: Optional[bytes] = None) -> None:
        """The secure-mode initialization procedure of Section 5.8.

        1. hashing on for writes, checking off for reads;
        2. write-touch every leaf chunk (whole-chunk writes, so nothing is
           fetched);
        3. flush the cache, which computes the tree bottom-up;
        4. re-enable verification exceptions.

        ``payload`` optionally overwrites every leaf; by default each leaf
        keeps its current memory content.
        """
        if payload is not None and len(payload) != self.layout.chunk_bytes:
            raise ValueError("payload must be exactly one chunk")
        self.checking_enabled = False
        for leaf in range(self.layout.first_leaf, self.layout.total_chunks):
            content = (
                payload
                if payload is not None
                else self.memory.peek(
                    self.layout.chunk_address(leaf), self.layout.chunk_bytes
                )
            )
            self.write_chunk_bytes(leaf, 0, content)
        self.flush()
        self.checking_enabled = True

    def invalidate_chunk(self, chunk: int) -> None:
        """Drop any cached copy without writing it back (DMA unprotect)."""
        self.cache.remove(chunk)

    def rebuild_chunk_from_memory(self, chunk: int) -> None:
        """Recompute ``chunk``'s hash from its current memory content.

        Used to re-protect a chunk after DMA deposited new (untrusted-
        origin) data under the tree; the new hash is written through the
        cache so it propagates upward on write-back like any other update.
        """
        data = self.memory.peek(
            self.layout.chunk_address(chunk), self.layout.chunk_bytes
        )
        digest = self.hash_fn.digest(data)
        self.stats.add("hash_computations")
        location = self.layout.hash_location(chunk)
        if location.in_secure_memory:
            self.secure_store[location.index] = digest
            return
        self.write_chunk_bytes(
            location.parent_chunk, location.index * self.layout.hash_bytes, digest
        )

    # -- internals ---------------------------------------------------------------

    def _load_expected_hash(self, chunk: int) -> bytes:
        location = self.layout.hash_location(chunk)
        if location.in_secure_memory:
            return self.secure_store[location.index]
        parent = self.read_chunk(location.parent_chunk)
        start = location.index * self.layout.hash_bytes
        return parent[start : start + self.layout.hash_bytes]

    def _insert(self, chunk: int, data: bytearray, dirty: bool) -> bytearray:
        """Make ``chunk`` resident with its trusted content ``data`` and
        return the live cache buffer.

        The fetch that produced ``data`` can recurse into write-backs that
        (re)install ``chunk``; the buffer already in the cache is then
        *newer* than ``data`` (it carries a child's fresh hash) and wins.
        Evicting a dirty victim here triggers a write-back whose
        parent-hash update may land in ``chunk`` too.  While the victims
        go, ``chunk`` is served from ``data`` (see :attr:`_in_flight`)
        rather than reloaded from memory, and it is inserted dirty if such
        an update changed it.
        """
        existing = self.cache.peek(chunk)
        if existing is not None:
            if dirty:
                self.cache.mark_dirty(chunk)
            return existing
        if self.cache.full:
            original = bytes(data)
            self._in_flight[chunk] = data
            try:
                while self.cache.full:
                    victim, victim_data, victim_dirty = self.cache.pop_victim()
                    self.stats.add("evictions")
                    if victim_dirty:
                        self.write_back(victim, bytes(victim_data))
            finally:
                del self._in_flight[chunk]
            dirty = dirty or data != original
        self.cache.put(chunk, data, dirty)
        return data
