"""The mhash scheme: several L2 blocks per hash chunk (Section 5.4).

Halves (or quarters) the hash memory overhead without touching the L2
block size, at the price of chunk-granularity traffic: verifying any one
block means assembling its whole chunk, and writing back a dirty block
means re-assembling, re-hashing and writing every dirty chunk-mate.
Figure 8 shows the resulting bandwidth cost relative to chash and ihash.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .api import MAX_CASCADE_DEPTH, MissOutcome, TimingScheme


class MHashScheme(TimingScheme):
    name = "mhash"

    def __init__(self, config, l2, memory, engine, layout):
        super().__init__(config, l2, memory, engine, layout)
        self.blocks_per_chunk = layout.chunk_bytes // config.l2.block_bytes

    # -- miss path -----------------------------------------------------------------

    def handle_data_miss(self, address: int, now: int, write: bool) -> MissOutcome:
        counters = self._counters
        counters["data_misses"] = counters.get("data_misses", 0) + 1
        data_ready, check_done = self._fetch_and_verify_chunk(
            self._chunk_at(address), now,
            needed=self.l2.block_address(address), write=write, depth=0,
        )
        return MissOutcome(data_ready=data_ready, check_done=check_done)

    def _fetch_and_verify_chunk(
        self,
        chunk: int,
        now: int,
        needed: Optional[int],
        write: bool,
        depth: int,
    ) -> Tuple[int, int]:
        """Assemble, verify and allocate one chunk.

        ``needed`` is the block address whose arrival time the core waits
        on (None for internal hash-chunk fetches).  Returns
        ``(data_ready, check_done)``.  A read-buffer slot is held from the
        first fetch until this chunk's own MAC/hash comparison completes.
        """
        slot, now = self.engine.begin_check(now)
        data_ready, hashed = self._assemble(chunk, now, needed, write, depth)
        entry_ready, chain_done = self._entry_lookup(chunk, now, depth)
        own_check = max(hashed, entry_ready)
        self.engine.finish_check(slot, own_check)
        return data_ready, max(own_check, chain_done)

    def _assemble(self, chunk: int, now: int, needed: Optional[int],
                  write: bool, depth: int) -> Tuple[int, int]:
        """Gather and hash every block of ``chunk``, allocating in the L2.

        Returns ``(data_ready, hashed)``: when the ``needed`` block (for an
        internal fetch, the whole chunk) is usable, and when the chunk's
        hash is computed.
        """
        counters = self._counters
        get = counters.get
        l2 = self.l2
        memory = self.memory
        block_bytes = self.block_bytes
        base = chunk * self.chunk_bytes
        data_ready = now
        assembled = now
        for index in range(self.blocks_per_chunk):
            block_address = base + index * block_bytes
            if block_address == needed:
                counters["data_block_reads"] = get("data_block_reads", 0) + 1
                data_ready, ready = memory.read_critical(now, block_bytes,
                                                         kind="data")
                self.fill_l2(block_address, now, dirty=write, kind="data",
                             depth=depth)
            elif l2.probe(block_address) and not l2.is_dirty(block_address):
                # clean in cache: equals memory, no bus traffic
                counters["chunk_blocks_from_cache"] = (
                    get("chunk_blocks_from_cache", 0) + 1)
                continue
            else:
                # uncached, or dirty (the hash covers the memory image)
                counters["chunk_assembly_reads"] = (
                    get("chunk_assembly_reads", 0) + 1)
                ready = memory.read(now, block_bytes, kind="hash")
                if not l2.probe(block_address):
                    self.fill_l2(block_address, now, dirty=False, kind="data",
                                 depth=depth)
            assembled = max(assembled, ready)
        assembled = max(assembled, data_ready)
        if needed is None:
            # internal fetch: the "data" the caller waits on is the chunk
            data_ready = assembled
        return data_ready, self.engine.hash_op(assembled, self.chunk_bytes)

    def _entry_lookup(self, chunk: int, now: int, depth: int) -> Tuple[int, int]:
        """Read ``chunk``'s tree entry through the L2.

        While the entry misses, the parent chunk is assembled and hashed
        (holding its own read-buffer slot) and its entry looked up in
        turn; the climb stops at an L2 hit or at secure memory, and the
        unwind completes each parent's check top-down.  Returns
        ``(value_ready, chain_done)``.
        """
        engine = self.engine
        counters = self._counters
        get = counters.get
        pending = []
        while True:
            parent = chunk // self.arity - 1
            if parent < 0:  # the entry is in secure memory
                ready = done = now
                break
            entry = parent * self.chunk_bytes + (chunk % self.arity) * self.hash_bytes
            if self.l2.access(entry, write=False, kind="hash").hit:
                counters["hash_l2_hits"] = get("hash_l2_hits", 0) + 1
                ready = done = now + self._l2_latency
                break
            counters["hash_l2_misses"] = get("hash_l2_misses", 0) + 1
            if depth >= MAX_CASCADE_DEPTH:  # pragma: no cover - guard
                counters["cascade_depth_overflows"] = (
                    get("cascade_depth_overflows", 0) + 1)
                ready = done = now
                break
            chunk, depth = parent, depth + 1
            slot, now = engine.begin_check(now)
            data_ready, hashed = self._assemble(chunk, now, None, False, depth)
            pending.append((slot, data_ready, hashed))
        while pending:
            slot, data_ready, hashed = pending.pop()
            own_check = max(hashed, ready)
            engine.finish_check(slot, own_check)
            ready, done = data_ready, max(own_check, done)
        return ready, done

    # -- write-back path ----------------------------------------------------------------

    def handle_writeback(self, victim_address: int, now: int, depth: int = 0) -> None:
        """Assemble the chunk, flush all its dirt, re-hash, update the entry."""
        counters = self._counters
        get = counters.get
        counters["writebacks"] = get("writebacks", 0) + 1
        l2 = self.l2
        chunk = self._chunk_at(victim_address)
        base = chunk * self.chunk_bytes
        victim_block = l2.block_address(victim_address)
        slot, start = self.engine.begin_writeback(now)

        assembled = start
        dirty_blocks = 1  # the victim itself
        for index in range(self.blocks_per_chunk):
            block_address = base + index * self.block_bytes
            if block_address == victim_block:
                continue  # data travelled with the eviction
            if l2.probe(block_address) and not l2.is_dirty(block_address):
                # clean in cache: equals memory, participates for free
                counters["chunk_blocks_from_cache"] = (
                    get("chunk_blocks_from_cache", 0) + 1)
                continue
            if l2.is_dirty(block_address):
                dirty_blocks += 1
                l2.mark_clean(block_address)
            # uncached or dirty: the memory image must come over the bus
            counters["chunk_assembly_reads"] = (
                get("chunk_assembly_reads", 0) + 1)
            assembled = max(assembled,
                            self.memory.read(start, self.block_bytes,
                                             kind="hash"))
        # one hash to check the old image, one to generate the new entry
        checked = self.engine.hash_op(assembled, self.chunk_bytes)
        entry_ready, _ = self._entry_lookup(chunk, start, depth)
        rehashed = self.engine.hash_op(max(assembled, checked, entry_ready),
                                       self.chunk_bytes)
        for _ in range(dirty_blocks):
            counters["dirty_block_writes"] = get("dirty_block_writes", 0) + 1
            self.memory.write(start, self.block_bytes, kind="writeback")
        self.engine.finish_writeback(slot, rehashed)
        self._update_entry(chunk, now, depth)

    def _update_entry(self, chunk: int, now: int, depth: int) -> None:
        """Write the new entry into the parent through the L2 (Write op)."""
        parent = chunk // self.arity - 1
        if parent < 0:
            return
        entry = parent * self.chunk_bytes + (chunk % self.arity) * self.hash_bytes
        counters = self._counters
        if self.l2.access(entry, write=True, kind="hash").hit:
            counters["hash_l2_hits"] = counters.get("hash_l2_hits", 0) + 1
            return
        counters["hash_l2_misses"] = counters.get("hash_l2_misses", 0) + 1
        if depth >= MAX_CASCADE_DEPTH:
            counters["cascade_depth_overflows"] = (
                counters.get("cascade_depth_overflows", 0) + 1)
            return
        slot, start = self.engine.begin_check(now)
        _, parent_done = self._fetch_and_verify_chunk(
            parent, start, needed=None, write=False, depth=depth + 1,
        )
        self.engine.finish_check(slot, parent_done)
        # dirty the entry's block now that the parent chunk is resident
        self.l2.access(entry, write=True, kind="hash")
