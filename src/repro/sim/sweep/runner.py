"""Parallel sweep execution: fan cells out across worker processes.

Every cell is fully self-contained (config + benchmark + seed +
instruction counts), every simulation seeds its own RNGs, and results are
keyed by cell rather than by completion order — so a sweep is
*deterministic*: ``jobs=1`` and ``jobs=N`` produce bit-identical
:class:`SimResult` values, and a cached re-run returns exactly what the
cold run computed.

Flow per sweep: normalize + dedupe the requested cells, satisfy what the
result store already holds (a local
:class:`~repro.sim.sweep.store.DirectoryStore` or a tiered
local+shared :class:`~repro.sim.sweep.store.TieredStore` — an L2 hit is
hydrated into L1 and reported per tier), then dispatch the misses as
warm groups through a cost-aware work-stealing queue
(:mod:`repro.sim.sweep.schedule`): groups go out costliest-first over a
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=1`` stays
in-process), idle workers pull the next group, and oversized groups are
split dynamically when workers would starve.  Fresh results are written
back through the store and the sweep returns a :class:`SweepReport`
with per-cell timings, per-tier store accounting and the run/cached/
failed summary.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..results import SimResult
from ..system import prepare_warm_state, run_benchmark, run_from_warm_state
from .fingerprint import cell_fingerprint, warm_fingerprint
from .schedule import CostModel, WorkQueue
from .spec import CellSpec
from .store import ResultStore


def resolve_jobs(jobs: int) -> int:
    """``0`` means auto (one worker per CPU); anything else clamps to 1+."""
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def dedupe_cells(cells: Iterable[CellSpec]) -> List[CellSpec]:
    """Normalize cells and drop duplicates, preserving first-seen order.

    Figures share rows (fig4/fig5 are fig3 subsets), so a ``--figure
    all`` request contains many equivalent spellings of the same cell;
    every sweep front end — local or distributed — runs each exactly
    once.
    """
    unique: List[CellSpec] = []
    seen = set()
    for cell in cells:
        spec = cell.normalized()
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)
    return unique


def warm_groups_of(pending: Sequence[CellSpec]) -> List[List[CellSpec]]:
    """Partition cells into warm-sharing groups, deterministically ordered.

    Cells sharing a :func:`warm_fingerprint` form one group (warmed once,
    measured from restored snapshots); groups come back sorted by that
    fingerprint so every front end seeds identical groups.
    """
    grouped: Dict[str, List[CellSpec]] = {}
    for spec in pending:
        grouped.setdefault(warm_fingerprint(spec), []).append(spec)
    return [grouped[key] for key in sorted(grouped)]


def execute_cell(spec: CellSpec) -> SimResult:
    """Run one cell from scratch (module-level so workers can pickle it)."""
    return run_benchmark(
        spec.build_config(),
        spec.benchmark,
        instructions=spec.instructions,
        warmup=spec.warmup,
        seed=spec.seed,
    )


def _timed_execute(spec: CellSpec) -> Tuple[SimResult, float]:
    start = time.perf_counter()
    result = execute_cell(spec)
    return result, time.perf_counter() - start


#: One cell's result inside a group:
#: (spec, result, elapsed, warm, measure, error).
_GroupRow = Tuple[CellSpec, Optional[SimResult], float, float, float,
                  Optional[str]]


def execute_group(specs: Sequence[CellSpec]) -> List[_GroupRow]:
    """Run one warm-sharing group (module-level so workers can pickle it).

    Every spec in ``specs`` shares a :func:`warm_fingerprint`, so the
    group warms **once** (charged to the first cell's ``warm`` column) and
    every cell measures from a restored copy of that state — bit-identical
    to warming each cell from scratch.  A warm-up failure fails the whole
    group; a measurement failure fails only its own cell.
    """
    first = specs[0]
    try:
        start = time.perf_counter()
        warm_state = prepare_warm_state(
            first.build_config(),
            first.benchmark,
            warmup=first.warmup,
            seed=first.seed,
        )
        warm_s = time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - group isolation
        message = f"{type(error).__name__}: {error}"
        return [(spec, None, 0.0, 0.0, 0.0, message) for spec in specs]
    rows: List[_GroupRow] = []
    for index, spec in enumerate(specs):
        cell_warm = warm_s if index == 0 else 0.0
        try:
            start = time.perf_counter()
            result = run_from_warm_state(
                spec.build_config(),
                spec.benchmark,
                warm_state,
                instructions=spec.instructions,
            )
            measure_s = time.perf_counter() - start
        except Exception as error:  # noqa: BLE001 - cell isolation
            rows.append((spec, None, 0.0, 0.0, 0.0,
                         f"{type(error).__name__}: {error}"))
        else:
            rows.append((spec, result, cell_warm + measure_s, cell_warm,
                         measure_s, None))
    return rows


@dataclass(frozen=True)
class CellOutcome:
    """How one cell of a sweep was satisfied."""

    spec: CellSpec
    result: Optional[SimResult]
    elapsed_s: float
    #: ``"run"``, ``"cached"`` or ``"failed"``.
    source: str
    error: Optional[str] = None
    #: Warm-up seconds charged to this cell (the cell that actually warmed
    #: its group carries the whole group's warm-up; reusers carry 0).
    warm_s: float = 0.0
    #: Seconds spent simulating the measured suffix.
    measure_s: float = 0.0
    #: Store tier that satisfied a ``cached`` cell (``"local"`` for the
    #: L1 directory, ``"shared"`` for an L2 hit hydrated into L1);
    #: ``None`` for run/failed cells.
    tier: Optional[str] = None
    #: Remote worker that computed a distributed cell (``None`` for
    #: cells run in this process or served from the store).
    worker: Optional[str] = None


@dataclass
class SweepReport:
    """Everything one sweep produced, plus its cost accounting."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    jobs: int = 1
    elapsed_s: float = 0.0
    #: Warm-sharing groups actually dispatched (0 when nothing ran or
    #: sharing was disabled).
    warm_groups: int = 0
    #: Dynamic group splits the work-stealing queue performed to keep
    #: idle workers busy (each costs one redundant warm-up).
    steals: int = 0
    #: Whether a result store was consulted (False for ``cache=None``).
    store_used: bool = False
    #: Store lookups that missed every tier (the cells that had to run).
    store_misses: int = 0
    #: Expired-lease requeues a distributed sweep's coordinator performed
    #: (each one is a dead or wedged worker's group handed to a live one).
    requeues: int = 0
    #: Per-remote-worker accounting of a distributed sweep:
    #: ``name -> {"cells", "claims", "requeues", "failures"}``.
    workers: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def results(self) -> Dict[CellSpec, SimResult]:
        """Successful results keyed by normalized :class:`CellSpec`."""
        return {
            outcome.spec: outcome.result
            for outcome in self.outcomes
            if outcome.result is not None
        }

    def _by_source(self, source: str) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.source == source]

    @property
    def ran(self) -> List[CellOutcome]:
        return self._by_source("run")

    @property
    def cached(self) -> List[CellOutcome]:
        return self._by_source("cached")

    @property
    def failed(self) -> List[CellOutcome]:
        return self._by_source("failed")

    def cached_by_tier(self) -> Dict[str, int]:
        """Cached-cell counts per store tier (``local``/``shared``)."""
        counts: Dict[str, int] = {}
        for outcome in self.cached:
            tier = outcome.tier or "local"
            counts[tier] = counts.get(tier, 0) + 1
        return counts

    def summary(self) -> str:
        """Multi-line sweep accounting for the end of a CLI run."""
        ran, cached, failed = self.ran, self.cached, self.failed
        lines = [
            f"sweep: {len(self.outcomes)} cells — {len(ran)} run, "
            f"{len(cached)} cached, {len(failed)} failed "
            f"in {self.elapsed_s:.1f}s wall ({self.jobs} jobs)"
        ]
        if self.store_used:
            tiers = self.cached_by_tier()
            lines.append(
                f"  store: {tiers.get('local', 0)} local (L1) hits, "
                f"{tiers.get('shared', 0)} shared (L2) hits, "
                f"{self.store_misses} misses"
            )
        if ran:
            cell_time = sum(o.elapsed_s for o in ran)
            lines.append(
                f"  simulated {cell_time:.1f}s of cell work "
                f"({cell_time / len(ran):.2f}s/cell avg, "
                f"{max(o.elapsed_s for o in ran):.2f}s max)"
            )
            warm_time = sum(o.warm_s for o in ran)
            measure_time = sum(o.measure_s for o in ran)
            if warm_time or measure_time:
                split = (
                    f"  warm-up {warm_time:.1f}s / measure {measure_time:.1f}s"
                )
                if self.warm_groups:
                    split += (
                        f" ({len(ran)} cells warmed via "
                        f"{self.warm_groups} shared group"
                        f"{'s' if self.warm_groups != 1 else ''})"
                    )
                lines.append(split)
            if self.steals:
                lines.append(
                    f"  work stealing: {self.steals} idle split"
                    f"{'s' if self.steals != 1 else ''} "
                    f"(extra warm-ups traded for parallelism)"
                )
        if self.requeues:
            lines.append(
                f"  lease requeues: {self.requeues} expired lease"
                f"{'s' if self.requeues != 1 else ''} handed to live workers"
            )
        for name in sorted(self.workers):
            stats = self.workers[name]
            lines.append(
                f"  worker {name}: {stats.get('cells', 0)} cells over "
                f"{stats.get('claims', 0)} claims"
                + (f", {stats['requeues']} lease(s) lost"
                   if stats.get("requeues") else "")
                + (f", {stats['failures']} failure(s)"
                   if stats.get("failures") else "")
            )
        if failed:
            for outcome in failed:
                lines.append(f"  FAILED {outcome.spec.label()}: {outcome.error}")
        return "\n".join(lines)


ProgressFn = Callable[[CellOutcome], None]


def run_cells(
    cells: Iterable[CellSpec],
    jobs: int = 1,
    cache: Optional[ResultStore] = None,
    fresh: bool = False,
    progress: Optional[ProgressFn] = None,
    share_warm: bool = True,
) -> SweepReport:
    """Run a sweep; see module docstring for the exact flow.

    ``cache`` is any :class:`~repro.sim.sweep.store.ResultStore` — the
    plain local :class:`~repro.sim.sweep.store.DirectoryStore`, a shared
    :class:`~repro.sim.sweep.store.DirectoryStore`/``HttpStore``, or a
    :class:`~repro.sim.sweep.store.TieredStore` combining both.
    ``cache=None`` disables persistence entirely; ``fresh=True`` keeps
    the store but ignores existing entries (recomputing and overwriting
    them).  Duplicate cells (figures share rows) are computed once.

    ``jobs=0`` means one worker per CPU (``os.cpu_count()``).

    ``share_warm`` (default on) schedules the cache-miss cells in groups
    keyed by :func:`warm_fingerprint` through the work-stealing queue:
    each group warms once and every member cell measures from a restored
    snapshot of that state.  Results are bit-identical with sharing on
    or off, for any store tiering, and for any ``jobs`` — only the
    wall-clock changes.
    """
    started = time.perf_counter()
    jobs = resolve_jobs(jobs)
    unique = dedupe_cells(cells)

    fingerprints = {spec: cell_fingerprint(spec) for spec in unique}
    outcomes: Dict[CellSpec, CellOutcome] = {}
    pending: List[CellSpec] = []
    store_misses = 0

    for spec in unique:
        fetched = None
        if cache is not None and not fresh:
            fetched = cache.fetch(fingerprints[spec])
            if fetched is None:
                store_misses += 1
        if fetched is not None:
            outcome = CellOutcome(spec, fetched.result, 0.0, "cached",
                                  tier=fetched.tier)
            outcomes[spec] = outcome
            if progress is not None:
                progress(outcome)
        else:
            pending.append(spec)

    def record(spec: CellSpec, result: Optional[SimResult], elapsed: float,
               error: Optional[str] = None, warm_s: float = 0.0,
               measure_s: float = 0.0) -> None:
        source = "failed" if result is None else "run"
        outcome = CellOutcome(spec, result, elapsed, source, error,
                              warm_s=warm_s, measure_s=measure_s)
        outcomes[spec] = outcome
        if result is not None and cache is not None:
            cache.put(fingerprints[spec], spec, result, elapsed)
        if progress is not None:
            progress(outcome)

    def record_rows(rows: Sequence[_GroupRow]) -> None:
        for spec, result, elapsed, warm_s, measure_s, error in rows:
            record(spec, result, elapsed, error,
                   warm_s=warm_s, measure_s=measure_s)

    cost_model = CostModel.from_store(cache) if pending else CostModel()
    warm_groups = 0
    steals = 0
    if not share_warm:
        # costliest-first submission order: the executor's own task queue
        # already gives dynamic per-cell pulling, LPT ordering just keeps
        # the long poles from landing last
        ordered = sorted(pending,
                         key=lambda s: (-cost_model.cell_cost(s), s.label()))
        if jobs <= 1 or len(ordered) <= 1:
            for spec in ordered:
                try:
                    result, elapsed = _timed_execute(spec)
                except Exception as error:  # noqa: BLE001 - cell isolation
                    record(spec, None, 0.0, f"{type(error).__name__}: {error}")
                else:
                    record(spec, result, elapsed)
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {pool.submit(_timed_execute, spec): spec
                           for spec in ordered}
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining,
                                           return_when=FIRST_COMPLETED)
                    for future in sorted(done, key=lambda f: str(futures[f])):
                        spec = futures[future]
                        try:
                            result, elapsed = future.result()
                        except Exception as error:  # noqa: BLE001
                            record(spec, None, 0.0,
                                   f"{type(error).__name__}: {error}")
                        else:
                            record(spec, result, elapsed)
    elif pending:
        queue = WorkQueue(warm_groups_of(pending), cost_model)
        if jobs <= 1:
            while True:
                group = queue.take(1)
                if group is None:
                    break
                record_rows(execute_group(group))
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                in_flight: Dict = {}
                while True:
                    # idle workers pull; the queue splits the costliest
                    # group when fewer groups remain than idle workers
                    while len(in_flight) < jobs:
                        group = queue.take(jobs - len(in_flight))
                        if group is None:
                            break
                        in_flight[pool.submit(execute_group, group)] = group
                    if not in_flight:
                        break
                    done, _ = wait(set(in_flight),
                                   return_when=FIRST_COMPLETED)
                    for future in sorted(done,
                                         key=lambda f: str(in_flight[f])):
                        group = in_flight.pop(future)
                        try:
                            rows = future.result()
                        except Exception as error:  # noqa: BLE001
                            message = f"{type(error).__name__}: {error}"
                            for spec in group:
                                record(spec, None, 0.0, message)
                        else:
                            record_rows(rows)
        warm_groups = queue.dispatched
        steals = queue.splits

    ordered_outcomes = [outcomes[spec] for spec in unique]
    return SweepReport(
        outcomes=ordered_outcomes,
        jobs=jobs,
        elapsed_s=time.perf_counter() - started,
        warm_groups=warm_groups,
        steals=steals,
        store_used=cache is not None,
        store_misses=store_misses,
    )


def results_grid(
    report: SweepReport,
    variant_params: Sequence[str] = (),
) -> Dict[Tuple, SimResult]:
    """Re-key a report as ``(benchmark, scheme, variant...) -> SimResult``.

    ``variant_params`` names the :class:`CellSpec` fields that distinguish
    machine variants in this sweep (e.g. ``("l2_size", "l2_block")`` for
    Figure 3); the returned keys carry those values in order.
    """
    grid: Dict[Tuple, SimResult] = {}
    for spec, result in report.results.items():
        variant = tuple(getattr(spec, param) for param in variant_params)
        grid[(spec.benchmark, spec.scheme.value) + variant] = result
    return grid
