"""The naive scheme: tree machinery between L2 and memory, hashes uncached.

Every L2 miss triggers a full verification walk — ``depth`` extra chunk
reads from memory plus as many hash computations — and every dirty
eviction rewrites the whole path (read, modify, re-hash, write at each
level).  Nothing about the tree ever enters the L2, so the walk never
shortens: this is the log(N) bandwidth blow-up the paper's Figure 3/5
shows, with ~10x slowdowns for write-back-heavy benchmarks.
"""

from __future__ import annotations

from .api import MissOutcome, TimingScheme


class NaiveScheme(TimingScheme):
    name = "naive"

    def handle_data_miss(self, address: int, now: int, write: bool) -> MissOutcome:
        counters = self._counters
        counters["data_misses"] = counters.get("data_misses", 0) + 1
        chunk = self._chunk_at(address)
        slot, start = self.engine.begin_check(now)
        data_ready, full_ready = self.memory.read_critical(
            start, self.block_bytes, kind="data")
        check_done = self._verify_path(chunk, full_ready, start)
        self.engine.finish_check(slot, check_done)
        self.fill_l2(address, now, dirty=write, kind="data")
        return MissOutcome(data_ready=data_ready, check_done=check_done)

    def _verify_path(self, chunk: int, data_ready: int, now: int) -> int:
        """Fetch and hash every ancestor chunk from memory."""
        counters = self._counters
        chunk_bytes = self.chunk_bytes
        # hash the data chunk itself once it has arrived
        chain_done = self.engine.hash_op(data_ready, chunk_bytes)
        parent = chunk // self.arity - 1
        while parent >= 0:
            counters["hash_chunk_reads"] = counters.get("hash_chunk_reads", 0) + 1
            parent_ready = self.memory.read(now, chunk_bytes, kind="hash")
            parent_hashed = self.engine.hash_op(parent_ready, chunk_bytes)
            chain_done = max(chain_done, parent_hashed)
            parent = parent // self.arity - 1
        return chain_done

    def handle_writeback(self, victim_address: int, now: int, depth: int = 0) -> None:
        """Rewrite the whole path: the uncached tree has no deferral."""
        counters = self._counters
        get = counters.get
        counters["writebacks"] = get("writebacks", 0) + 1
        chunk = self._chunk_at(victim_address)
        chunk_bytes = self.chunk_bytes
        slot, start = self.engine.begin_writeback(now)
        hashed = self.engine.hash_op(start, chunk_bytes)
        self.memory.write(start, self.block_bytes, kind="writeback")
        last = hashed
        parent = chunk // self.arity - 1
        while parent >= 0:
            counters["hash_chunk_reads"] = get("hash_chunk_reads", 0) + 1
            counters["hash_chunk_writes"] = get("hash_chunk_writes", 0) + 1
            parent_ready = self.memory.read(start, chunk_bytes, kind="hash")
            last = self.engine.hash_op(max(parent_ready, last), chunk_bytes)
            self.memory.write(parent_ready, chunk_bytes, kind="hash")
            parent = parent // self.arity - 1
        self.engine.finish_writeback(slot, last)
