"""Hash checking/generating unit timing model (Section 6.1, Figures 6–7).

The unit sits next to the L2: a pipelined hash core with a configurable
latency (80 cycles) and throughput (one 64-byte hash per 20 cycles at the
default 3.2 GB/s), fed by a *read buffer* (new L2 blocks waiting to be
checked) and a *write buffer* (evicted blocks waiting for their new hash).

Buffer entries are the paper's flow-control: data can be consumed
speculatively while its check runs in the background, but when every
buffer entry is occupied the memory transaction that needs one stalls —
that is the only way verification latency ever reaches the critical path
(Section 6.2).
"""

from __future__ import annotations

from typing import List

from ..common.config import HashEngineConfig
from ..common.stats import StatGroup


class _BufferPool:
    """Fixed number of slots, each busy until a stored completion time."""

    def __init__(self, entries: int):
        self._free_at: List[int] = [0] * entries

    def acquire(self, now: int) -> tuple[int, int]:
        """Return ``(slot, start)``: the earliest usable slot, possibly
        making the caller wait until one frees.

        The slot is provisionally reserved (so concurrent acquires pick
        other slots); :meth:`hold` installs the real release time.
        """
        free_at = self._free_at
        earliest = min(free_at)
        slot = free_at.index(earliest)  # lowest index among equal times
        start = now if now > earliest else earliest
        free_at[slot] = start + 1
        return slot, start

    def hold(self, slot: int, until: int) -> None:
        if until > self._free_at[slot]:
            self._free_at[slot] = until

    def earliest_free(self) -> int:
        return min(self._free_at)

    def snapshot(self) -> tuple:
        return tuple(self._free_at)

    def restore(self, saved: tuple) -> None:
        """Restore a :meth:`snapshot`.

        A *pristine* snapshot (all slots free at 0 — which is what any
        functional warm-up leaves behind, since timing is disabled) may be
        restored into a pool of a different depth; that is what lets warm
        state be shared across cells that sweep the buffer size.  A busy
        snapshot must match the pool's depth exactly.
        """
        if len(saved) == len(self._free_at):
            self._free_at = list(saved)
        elif any(saved):
            raise ValueError(
                f"cannot restore a busy {len(saved)}-entry buffer snapshot "
                f"into a {len(self._free_at)}-entry pool"
            )
        else:
            self._free_at = [0] * len(self._free_at)


class HashEngineTiming:
    """Pipelined hash unit with read/write buffers."""

    def __init__(self, config: HashEngineConfig):
        self.config = config
        self.stats = StatGroup("hash_engine")
        self._counters = self.stats.counters
        self._pipe_free_at = 0
        self._read_buffers = _BufferPool(config.read_buffer_entries)
        self._write_buffers = _BufferPool(config.write_buffer_entries)
        #: cleared during functional cache warm-up: hashing is free.
        self.timing_enabled = True
        self.latency_cycles = config.latency_cycles
        #: n_bytes -> pipeline occupancy; a run hashes only a few sizes.
        self._occupancy: dict = {}

    def hash_occupancy_cycles(self, n_bytes: int) -> int:
        """:meth:`HashEngineConfig.hash_occupancy_cycles`, memoized per size."""
        occupancy = self.config.hash_occupancy_cycles(n_bytes)
        self._occupancy[n_bytes] = occupancy
        return occupancy

    # -- raw pipeline ------------------------------------------------------------

    def hash_op(self, ready: int, n_bytes: int) -> int:
        """Digest ``n_bytes`` that are available at ``ready``.

        Returns the completion time: pipeline issue (throughput-limited)
        plus the fixed pipeline latency.
        """
        if not self.timing_enabled:
            return ready
        free = self._pipe_free_at
        start = ready if ready > free else free
        occupancy = (self._occupancy.get(n_bytes)
                     or self.hash_occupancy_cycles(n_bytes))
        self._pipe_free_at = start + occupancy
        counters = self._counters
        get = counters.get
        counters["hash_ops"] = get("hash_ops", 0) + 1
        counters["hashed_bytes"] = get("hashed_bytes", 0) + n_bytes
        counters["pipe_busy_cycles"] = get("pipe_busy_cycles", 0) + occupancy
        return start + self.latency_cycles + occupancy

    # -- snapshot / restore -----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Pipeline/buffer busy-until state plus counters."""
        return (
            self._pipe_free_at,
            self._read_buffers.snapshot(),
            self._write_buffers.snapshot(),
            dict(self._counters),
        )

    def restore(self, snap: tuple) -> None:
        self._pipe_free_at, read_free, write_free, counters = snap
        self._read_buffers.restore(read_free)
        self._write_buffers.restore(write_free)
        live = self._counters
        live.clear()
        live.update(counters)

    # -- buffered operations -------------------------------------------------------

    def begin_check(self, now: int) -> tuple[int, int]:
        """Claim a read-buffer slot for an incoming block check.

        Returns ``(slot, start)``; ``start >= now`` is when the memory
        transaction may proceed (it stalls while the buffer is full).
        """
        if not self.timing_enabled:
            return 0, now
        slot, start = self._read_buffers.acquire(now)
        if start > now:
            counters = self._counters
            get = counters.get
            counters["read_buffer_stall_cycles"] = (
                get("read_buffer_stall_cycles", 0) + start - now)
            counters["read_buffer_stalls"] = get("read_buffer_stalls", 0) + 1
        return slot, start

    def finish_check(self, slot: int, done: int) -> None:
        """Release the read-buffer slot once the check completed at ``done``."""
        if not self.timing_enabled:
            return
        self._read_buffers.hold(slot, done)
        counters = self._counters
        counters["checks_completed"] = counters.get("checks_completed", 0) + 1

    def begin_writeback(self, now: int) -> tuple[int, int]:
        """Claim a write-buffer slot for an evicted block awaiting its hash."""
        if not self.timing_enabled:
            return 0, now
        slot, start = self._write_buffers.acquire(now)
        if start > now:
            counters = self._counters
            get = counters.get
            counters["write_buffer_stall_cycles"] = (
                get("write_buffer_stall_cycles", 0) + start - now)
            counters["write_buffer_stalls"] = get("write_buffer_stalls", 0) + 1
        return slot, start

    def finish_writeback(self, slot: int, done: int) -> None:
        if not self.timing_enabled:
            return
        self._write_buffers.hold(slot, done)
        counters = self._counters
        counters["writebacks_completed"] = counters.get("writebacks_completed", 0) + 1
