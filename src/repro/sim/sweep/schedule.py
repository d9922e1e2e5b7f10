"""Cost-aware work-stealing dispatch for the sweep runner.

The runner's unit of dispatch is a *warm group* — cells sharing one
:func:`~repro.sim.sweep.fingerprint.warm_fingerprint`, warmed once and
measured from restored snapshots.  Group runtimes vary wildly (a
streaming benchmark's group can cost 5× a cache-friendly one), so a
static partition leaves workers idle behind the longest group.  This
module replaces it with a coordinator-side queue:

* groups are ordered by **estimated cost**, costliest first (classic
  LPT), from the advisory ``elapsed_s`` history the store keeps per
  ``benchmark/scheme`` (:meth:`ResultStore.cost_history`) — a pooled
  shared store means a brand-new host starts with the whole pool's
  timing knowledge;
* idle workers **pull** the next group off the queue as they finish —
  dynamic self-balancing regardless of how wrong the estimates are;
* when workers would go idle with too few groups queued, the costliest
  splittable group is **split in half** (one extra warm-up buys
  restored parallelism) — dynamically, at the moment of starvation,
  not by a static up-front partition.

None of this can change a result: measuring from a restored snapshot
is bit-identical to warming from scratch, so any split, any ordering
and any worker count produce the same :class:`SimResult` per cell —
only wall-clock moves.  The queue itself is deterministic (cost ties
break on cell labels), so two sweeps over the same store history also
*dispatch* identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .spec import CellSpec
from .store import ResultStore

#: cost assumed for a cell with no history anywhere (arbitrary unit —
#: only *relative* costs matter for ordering).
DEFAULT_CELL_COST = 1.0


class CostModel:
    """Per-cell cost estimates from the store's ``elapsed_s`` history.

    History buckets are keyed ``benchmark/scheme`` — coarse on purpose:
    pending cells are cache *misses*, so their exact fingerprints have
    no history by definition, but their benchmark/scheme family almost
    always does after one sweep.  Estimates are advisory: they order
    and split work, never touch results.
    """

    def __init__(self, history: Optional[Dict[str, dict]] = None):
        self.history: Dict[str, float] = {}
        total = 0.0
        cells = 0
        for key, bucket in (history or {}).items():
            try:
                bucket_total = float(bucket["total_s"])
                bucket_cells = int(bucket["cells"])
            except (KeyError, TypeError, ValueError):
                continue
            if bucket_cells <= 0:
                continue
            self.history[key] = bucket_total / bucket_cells
            total += bucket_total
            cells += bucket_cells
        #: mean cost across every bucket — the estimate for families
        #: never seen before (better than a constant once *any* history
        #: exists, because it is at least in this machine's units).
        self.default = total / cells if cells else DEFAULT_CELL_COST

    @classmethod
    def from_store(cls, store: Optional[ResultStore]) -> "CostModel":
        return cls(store.cost_history() if store is not None else None)

    def cell_cost(self, spec: CellSpec) -> float:
        key = f"{spec.benchmark}/{spec.scheme.value}"
        return self.history.get(key, self.default)

    def group_cost(self, group: Sequence[CellSpec]) -> float:
        return sum(self.cell_cost(spec) for spec in group)


def split_group(group: Sequence[CellSpec]) -> Tuple[List[CellSpec],
                                                    List[CellSpec]]:
    """Halve one warm group (caller guarantees ``len(group) >= 2``).

    Safe by construction: both halves re-warm independently and every
    member still measures from a snapshot bit-identical to its own
    from-scratch warm-up.
    """
    half = len(group) // 2
    return list(group[:half]), list(group[half:])


class WorkQueue:
    """Coordinator-side queue of warm groups; workers pull, queue splits.

    ``take(idle_workers)`` hands out the costliest queued group.  Before
    popping it tops the queue up: while fewer groups are queued than
    workers are idle, the costliest splittable group is halved (counted
    in :attr:`splits` — the "stolen" warm-ups the sweep paid to keep
    workers busy).  When nothing splittable remains the queue simply
    runs dry and ``take`` returns ``None``.
    """

    def __init__(self, groups: Sequence[Sequence[CellSpec]],
                 cost_model: Optional[CostModel] = None):
        self.model = cost_model or CostModel()
        #: (estimated cost, tie-break label, group), kept sorted
        #: costliest-first; labels make ordering fully deterministic.
        self._queue: List[Tuple[float, str, List[CellSpec]]] = [
            self._item(list(group)) for group in groups if group
        ]
        self._sort()
        self.splits = 0
        self.dispatched = 0

    def _item(self, group: List[CellSpec]) -> Tuple[float, str,
                                                    List[CellSpec]]:
        return (self.model.group_cost(group), group[0].label(), group)

    def _sort(self) -> None:
        self._queue.sort(key=lambda item: (-item[0], item[1]))

    def __len__(self) -> int:
        return len(self._queue)

    def queued_cells(self) -> int:
        return sum(len(item[2]) for item in self._queue)

    def add(self, group: Sequence[CellSpec]) -> None:
        """Queue one more group (a late seed or a requeued expired lease)."""
        if not group:
            return
        self._queue.append(self._item(list(group)))
        self._sort()

    def reprice(self, cost_model: CostModel) -> None:
        """Re-estimate every queued group under a fresh cost model.

        The coordinator calls this as completions stream in, so LPT
        ordering improves *during* a run instead of being frozen at seed
        time.  Purely advisory: ordering can never change results.
        """
        self.model = cost_model
        self._queue = [self._item(group) for _cost, _label, group
                       in self._queue]
        self._sort()

    def discard_cells(self, should_drop) -> int:
        """Drop queued cells ``should_drop`` matches; returns the count.

        The coordinator uses this when a presumed-dead worker's results
        arrive *after* its lease expired and its group was requeued: the
        late results are valid (content-addressed, bit-identical), so
        the requeued copies are redundant work.
        """
        dropped = 0
        rebuilt = []
        for _cost, _label, group in self._queue:
            kept = [cell for cell in group if not should_drop(cell)]
            dropped += len(group) - len(kept)
            if kept:
                rebuilt.append(self._item(kept))
        if dropped:
            self._queue = rebuilt
            self._sort()
        return dropped

    def _split_costliest(self) -> bool:
        """Halve the costliest group with >= 2 cells; False when none."""
        for index, (_cost, _label, group) in enumerate(self._queue):
            if len(group) >= 2:
                first, second = split_group(group)
                self._queue[index] = self._item(first)
                self._queue.append(self._item(second))
                self.splits += 1
                self._sort()
                return True
        return False

    def take(self, idle_workers: int = 1) -> Optional[List[CellSpec]]:
        """The next group to dispatch, splitting to feed idle workers."""
        if not self._queue:
            return None
        while len(self._queue) < idle_workers and self._split_costliest():
            pass
        _cost, _label, group = self._queue.pop(0)
        self.dispatched += 1
        return group
