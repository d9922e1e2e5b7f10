"""Request combining: concurrent reads share one verification walk.

The paper's Section 5.9 hides verification latency by checking hashes
speculatively in the background; a serving front end can go further —
when many clients read from the same tree at once, their requests
usually climb overlapping paths, and one walk can answer all of them.
:class:`ReadBatcher` implements the classic leader/follower combining
pattern:

* every caller appends its span to the pending list under the batcher
  lock;
* the first caller to find no leader running becomes the leader, drains
  the list (again under the lock) and serves the whole batch with one
  :meth:`MemoryVerifier.read_many` call **outside** the lock;
* followers block on a per-request event — never under a lock — and
  wake with their bytes (or their own exception).

A batch whose combined validation fails is retried request by request,
so each caller sees exactly the error a direct ``read`` would have
raised; results are byte-identical to unbatched reads by
``read_many``'s construction.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..checks.tsan import guarded_list, new_lock
from ..hashtree.verifier import MemoryVerifier


class _PendingRead:
    __slots__ = ("address", "length", "event", "result", "error")

    def __init__(self, address: int, length: int):
        self.address = address
        self.length = length
        self.event = threading.Event()
        self.result: Optional[bytes] = None
        self.error: Optional[BaseException] = None


class ReadBatcher:
    """Coalesce concurrent reads against one tenant's verifier."""

    def __init__(self, verifier: MemoryVerifier, max_batch: int = 64):
        self.verifier = verifier
        self.max_batch = max_batch
        self._lock = new_lock("ReadBatcher._lock")
        self._pending: List[_PendingRead] = guarded_list(
            self._lock, "ReadBatcher._pending"
        )
        self._leader_running = False
        self._reads = 0
        self._batches = 0
        self._batch_reads = 0

    def read(self, address: int, length: int) -> bytes:
        """A verified read, possibly served by another caller's walk."""
        entry = _PendingRead(address, length)
        with self._lock:
            self._pending.append(entry)
            self._reads += 1
            lead = not self._leader_running
            if lead:
                self._leader_running = True
        if lead:
            self._drain()
        else:
            entry.event.wait()
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        return entry.result

    def read_many(self, spans: List[tuple]) -> List[bytes]:
        """A pre-batched (vectored) read: one walk for the whole vector.

        Unlike :meth:`read` this never waits on other callers — the
        vector itself is the batch — but it still counts into the same
        amortization statistics.
        """
        results = self.verifier.read_many(spans)
        with self._lock:
            self._reads += len(spans)
            self._batches += 1
            self._batch_reads += len(spans)
        return results

    # -- leader ------------------------------------------------------------

    def _drain(self) -> None:
        """Serve pending batches until the list is empty, then abdicate."""
        while True:
            with self._lock:
                batch = list(self._pending[:self.max_batch])
                del self._pending[:len(batch)]
                if not batch:
                    # empty while holding the lock: any later append sees
                    # _leader_running False and elects itself leader, so
                    # no request can be stranded
                    self._leader_running = False
                    return
                if len(batch) > 1:
                    self._batches += 1
                    self._batch_reads += len(batch)
            try:
                self._serve(batch)
            finally:
                for entry in batch:
                    if not entry.event.is_set():
                        if entry.error is None and entry.result is None:
                            entry.error = RuntimeError(
                                "batch leader died before serving this read"
                            )
                        entry.event.set()

    def _serve(self, batch: List[_PendingRead]) -> None:
        spans = [(entry.address, entry.length) for entry in batch]
        try:
            results = self.verifier.read_many(spans)
        except Exception:
            # read_many validates the whole batch atomically, so one bad
            # span poisons it; retry individually so every caller gets
            # exactly the outcome a direct read would have produced
            for entry in batch:
                try:
                    entry.result = self.verifier.read(entry.address,
                                                      entry.length)
                except Exception as error:
                    entry.error = error
                entry.event.set()
            return
        for entry, result in zip(batch, results):
            entry.result = result
            entry.event.set()

    # -- accounting --------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Combining statistics (walk amortization lives on the verifier)."""
        with self._lock:
            return {
                "reads": self._reads,
                "batches": self._batches,
                "batched_reads": self._batch_reads,
            }
