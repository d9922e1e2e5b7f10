"""Split-transaction memory bus and DRAM timing (Table 1, Section 6.3).

All structures that access main memory — the L2 fill path, write-backs and
the hash-tree machinery — share one data bus (the paper models separate
address and data buses; the address phase is short and pipelined, so
contention is dominated by the data bus, which is what this model
arbitrates).  The model is *busy-until*: a transfer is granted at
``max(request_time, bus_free_at)`` and holds the bus for the transfer's
beat count; DRAM array latency overlaps other transfers.

Per-kind byte counters feed the bandwidth figures (Figure 5b).
"""

from __future__ import annotations

from ..common.config import BusConfig, DramConfig
from ..common.stats import StatGroup


class MainMemoryTiming:
    """Timing front-end for off-chip memory: one bus + DRAM latency."""

    def __init__(self, bus: BusConfig, dram: DramConfig):
        self.bus = bus
        self.dram = dram
        self.stats = StatGroup("memory")
        self._counters = self.stats.counters
        self._data_bus_free_at = 0
        #: cleared during functional cache warm-up: transfers become free
        #: and instantaneous so only cache state evolves.
        self.timing_enabled = True
        self._latency = dram.first_chunk_latency_cycles
        self._first_beat = bus.transfer_cycles(bus.width_bytes)
        #: n_bytes -> bus cycles; a run moves only two or three sizes.
        self._transfer: dict = {}
        #: per-kind precomputed stat keys: (read bytes, write bytes)
        self._kind_keys: dict = {}

    def transfer_cycles(self, n_bytes: int) -> int:
        """:meth:`BusConfig.transfer_cycles`, memoized per size."""
        cycles = self.bus.transfer_cycles(n_bytes)
        self._transfer[n_bytes] = cycles
        return cycles

    def _keys_for(self, kind: str) -> tuple:
        keys = self._kind_keys[kind] = (f"read_bytes_{kind}",
                                        f"write_bytes_{kind}")
        return keys

    def _grant(self, ready: int, n_bytes: int) -> int:
        """Arbitrate the data bus for ``n_bytes`` once they are ready."""
        cycles = self._transfer.get(n_bytes) or self.transfer_cycles(n_bytes)
        free = self._data_bus_free_at
        done = (ready if ready > free else free) + cycles
        self._data_bus_free_at = done
        counters = self._counters
        counters["bus_busy_cycles"] = counters.get("bus_busy_cycles", 0) + cycles
        return done

    def read(self, now: int, n_bytes: int, kind: str = "data") -> int:
        """Issue a read at ``now``; returns the cycle the last byte arrives.

        ``kind`` labels the traffic for accounting: ``data`` (program
        blocks), ``hash`` (tree chunks) or ``old`` (ihash's unchecked
        old-value reads).
        """
        return self.read_critical(now, n_bytes, kind)[1]

    def read_critical(self, now: int, n_bytes: int,
                      kind: str = "data") -> tuple[int, int]:
        """Issue a read; returns ``(critical_word_ready, full_block_ready)``.

        The paper's memory latency is "to the first chunk": the requested
        word is forwarded as soon as the first bus beat lands (critical
        word first), while consumers of the *whole* block — the hash unit
        above all — wait for the last beat.
        """
        if not self.timing_enabled:
            return now, now
        key = (self._kind_keys.get(kind) or self._keys_for(kind))[0]
        counters = self._counters
        get = counters.get
        counters["reads"] = get("reads", 0) + 1
        counters[key] = get(key, 0) + n_bytes
        counters["bytes_total"] = get("bytes_total", 0) + n_bytes
        full = self._grant(now + self._latency, n_bytes)
        return full - self._transfer[n_bytes] + self._first_beat, full

    def write(self, now: int, n_bytes: int, kind: str = "data") -> int:
        """Issue a write at ``now``; returns when the bus transfer finishes.

        Writes are posted (the processor does not wait for them), but they
        occupy bus bandwidth like everything else.
        """
        if not self.timing_enabled:
            return now
        key = (self._kind_keys.get(kind) or self._keys_for(kind))[1]
        counters = self._counters
        get = counters.get
        counters["writes"] = get("writes", 0) + 1
        counters[key] = get(key, 0) + n_bytes
        counters["bytes_total"] = get("bytes_total", 0) + n_bytes
        return self._grant(now, n_bytes)

    # -- snapshot / restore -----------------------------------------------------------

    def snapshot(self) -> tuple:
        """Busy-until state plus counters (warm-up leaves both untouched,
        but a snapshot must also cover presweeps taken with timing on)."""
        return (self._data_bus_free_at, dict(self._counters))

    def restore(self, snap: tuple) -> None:
        self._data_bus_free_at, counters = snap
        live = self._counters
        live.clear()
        live.update(counters)

    @property
    def bus_free_at(self) -> int:
        return self._data_bus_free_at

    def bandwidth_utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the data bus was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats["bus_busy_cycles"] / elapsed_cycles)
