"""The ihash scheme: incremental MACs on the write-back path (Section 5.4.1).

Reads verify like mhash (the whole chunk is assembled and MACed), but a
dirty eviction avoids chunk assembly entirely: read the parent MAC through
the L2, read the block's *old* value straight from memory (unchecked — the
one-bit timestamps make that safe), swap the block's term in the MAC, and
write the block plus the updated entry.  That single extra block read is
why ihash tracks chash closely in Figure 8 except for the most
bandwidth-bound benchmarks.
"""

from __future__ import annotations

from .api import MAX_CASCADE_DEPTH
from .mhash import MHashScheme


class IHashScheme(MHashScheme):
    name = "ihash"

    def handle_writeback(self, victim_address: int, now: int, depth: int = 0) -> None:
        """Incremental write-back: parent MAC + one unchecked old read."""
        counters = self._counters
        get = counters.get
        counters["writebacks"] = get("writebacks", 0) + 1
        chunk = self._chunk_at(victim_address)
        parent = chunk // self.arity - 1
        entry = parent * self.chunk_bytes + (chunk % self.arity) * self.hash_bytes
        slot, start = self.engine.begin_writeback(now)

        # 1. read the parent MAC entry with ReadAndCheck (through the L2)
        entry_ready = start
        if parent >= 0:
            if self.l2.access(entry, write=False, kind="hash").hit:
                counters["hash_l2_hits"] = get("hash_l2_hits", 0) + 1
                entry_ready = start + self._l2_latency
            else:
                counters["hash_l2_misses"] = get("hash_l2_misses", 0) + 1
                if depth < MAX_CASCADE_DEPTH:
                    _, parent_done = self._fetch_and_verify_chunk(
                        parent, start, needed=None, write=False,
                        depth=depth + 1,
                    )
                    entry_ready = parent_done
                else:
                    counters["cascade_depth_overflows"] = (
                        get("cascade_depth_overflows", 0) + 1)

        # 2. read the old block value directly from memory — unchecked
        counters["unchecked_old_reads"] = get("unchecked_old_reads", 0) + 1
        old_ready = self.memory.read(start, self.block_bytes, kind="old")

        # 3. update the MAC: hash the old and the new block terms
        old_term = self.engine.hash_op(old_ready, self.block_bytes)
        new_term = self.engine.hash_op(start, self.block_bytes)
        mac_done = max(old_term, new_term, entry_ready)
        counters["mac_updates"] = get("mac_updates", 0) + 1

        # 4. write the block; dirty the entry in the L2 (visible together)
        self.memory.write(start, self.block_bytes, kind="writeback")
        if parent >= 0:
            self.l2.access(entry, write=True, kind="hash")
        self.engine.finish_writeback(slot, mac_done)
