"""The unverified baseline: a plain L2 miss handler."""

from __future__ import annotations

from .api import MissOutcome, TimingScheme


class BaseScheme(TimingScheme):
    """No integrity machinery: fetch, fill, write back."""

    name = "base"

    def handle_data_miss(self, address: int, now: int, write: bool) -> MissOutcome:
        counters = self._counters
        counters["data_misses"] = counters.get("data_misses", 0) + 1
        data_ready, _ = self.memory.read_critical(now, self.block_bytes,
                                                  kind="data")
        self.fill_l2(address, now, dirty=write, kind="data")
        return MissOutcome(data_ready=data_ready, check_done=data_ready)

    def handle_writeback(self, victim_address: int, now: int, depth: int = 0) -> None:
        counters = self._counters
        counters["writebacks"] = counters.get("writebacks", 0) + 1
        self.memory.write(now, self.block_bytes, kind="writeback")
