"""The chash scheme: hash-tree machinery merged with the L2 (Section 5.3).

On a miss the fetched chunk is hashed and compared against its parent
entry, *where the parent lookup goes through the L2*: a cached ancestor is
trusted and terminates the walk, and fetched hash chunks allocate in the
L2 like data (that allocation is both the win — fewer than one extra
memory access per miss, Figure 5a — and the cost — cache pollution,
Figure 4).  Dirty evictions re-hash the block and write the new hash into
the parent entry through the cache, dirtying it in turn.
"""

from __future__ import annotations

from .api import MAX_CASCADE_DEPTH, MissOutcome, TimingScheme


class CHashScheme(TimingScheme):
    name = "chash"

    def handle_data_miss(self, address: int, now: int, write: bool) -> MissOutcome:
        counters = self._counters
        counters["data_misses"] = counters.get("data_misses", 0) + 1
        data_ready, check_done = self._fetch_checked(
            self._chunk_at(address), now, "data", 0)
        self.fill_l2(address, now, dirty=write, kind="data")
        return MissOutcome(data_ready=data_ready, check_done=check_done)

    # -- verification walk -------------------------------------------------------

    def _fetch_checked(self, chunk: int, now: int, kind: str,
                       depth: int) -> tuple[int, int]:
        """Fetch ``chunk`` from memory and check it against its parent entry.

        The parent entry is read through the L2.  While it misses, the
        parent chunk is fetched (as ``hash`` traffic) and checked in turn;
        the climb stops at an L2 hit or at secure memory.  A read-buffer
        slot is held from each chunk's fetch until *its own* hash
        comparison completes (hardware gives each buffered block its own
        slot).  The unwind runs top-down and, at each level, allocates the
        fetched parent in the L2 before the child it vouches for releases
        its slot: a write-back cascading out of that fill must see the
        child's slot still held.  Returns ``(data_ready, chain_done)``.
        """
        engine = self.engine
        counters = self._counters
        get = counters.get
        chunk_bytes = self.chunk_bytes
        pending = []
        while True:
            slot, start = engine.begin_check(now)
            data_ready, full_ready = self.memory.read_critical(
                start, chunk_bytes, kind)
            hashed = engine.hash_op(full_ready, chunk_bytes)
            parent = chunk // self.arity - 1
            if parent < 0:  # the hash is in secure memory
                ready = done = start
                break
            entry = parent * chunk_bytes + (chunk % self.arity) * self.hash_bytes
            if self.l2.access(entry, write=False, kind="hash").hit:
                counters["hash_l2_hits"] = get("hash_l2_hits", 0) + 1
                ready = done = start + self._l2_latency
                break
            counters["hash_l2_misses"] = get("hash_l2_misses", 0) + 1
            if depth >= MAX_CASCADE_DEPTH:  # pragma: no cover - guard
                counters["cascade_depth_overflows"] = (
                    get("cascade_depth_overflows", 0) + 1)
                ready = done = start
                break
            counters["hash_chunk_reads"] = get("hash_chunk_reads", 0) + 1
            pending.append((slot, data_ready, hashed, start, depth, parent))
            chunk, now, kind, depth = parent, start, "hash", depth + 1
        # ready/done: when the topmost chunk's expected hash is available,
        # and when everything above it is verified
        while True:
            own_check = max(hashed, ready)
            engine.finish_check(slot, own_check)
            ready, done = data_ready, max(own_check, done)
            if not pending:
                return ready, done
            slot, data_ready, hashed, start, depth, parent = pending.pop()
            self.fill_l2(parent * chunk_bytes, start, dirty=False, kind="hash",
                         depth=depth + 1)

    # -- write-back path ------------------------------------------------------------

    def handle_writeback(self, victim_address: int, now: int, depth: int = 0) -> None:
        """Hash the evicted block, store it, update the parent through L2."""
        counters = self._counters
        get = counters.get
        counters["writebacks"] = get("writebacks", 0) + 1
        chunk = self._chunk_at(victim_address)
        chunk_bytes = self.chunk_bytes
        slot, start = self.engine.begin_writeback(now)
        hashed = self.engine.hash_op(start, chunk_bytes)
        self.memory.write(start, self.block_bytes, kind="writeback")
        self.engine.finish_writeback(slot, hashed)
        parent = chunk // self.arity - 1
        if parent < 0:
            return
        entry = parent * chunk_bytes + (chunk % self.arity) * self.hash_bytes
        if self.l2.access(entry, write=True, kind="hash").hit:
            counters["hash_l2_hits"] = get("hash_l2_hits", 0) + 1
            return
        counters["hash_l2_misses"] = get("hash_l2_misses", 0) + 1
        if depth >= MAX_CASCADE_DEPTH:
            counters["cascade_depth_overflows"] = get("cascade_depth_overflows", 0) + 1
            return
        # Write-allocate the parent: fetch, verify, then dirty it in L2.
        counters["hash_chunk_reads"] = get("hash_chunk_reads", 0) + 1
        self._fetch_checked(parent, now, "hash", depth + 1)
        self.fill_l2(parent * chunk_bytes, now, dirty=True, kind="hash",
                     depth=depth + 1)
