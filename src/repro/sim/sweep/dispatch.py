"""Distributed sweep dispatch: work leases over the store's HTTP channel.

The figure grids are embarrassingly parallel across warm groups, but a
cold sweep used to be bounded by one machine: the tiered store pools
*results* across hosts, and the work-stealing queue balances *workers*
on one box.  This module adds the missing piece — a coordinator that
hands warm groups to remote workers over the same HTTP server the store
already speaks, so several machines split one cold ``--figure all``
sweep:

* :class:`LeaseBoard` — the coordinator's work-lease state machine,
  carried by ``python -m repro store-serve`` behind ``/work/``
  endpoints.  A driver **seeds** warm groups; workers **claim** the
  costliest queued group (the same :class:`CostModel`/:class:`WorkQueue`
  LPT ordering the local runner uses), **heartbeat** while computing,
  and **done** to retire the lease.  A lease that misses its TTL is
  requeued automatically, so a dead or wedged worker costs one lease
  TTL, not the sweep.
* :class:`CoordinatorClient` — the stdlib HTTP client side of that
  protocol, with bounded retry/backoff on transient failures, sharing
  the keep-alive gzip :class:`~repro.common.wire.HttpChannel`.
* :func:`run_worker` — the ``python -m repro worker`` loop: claim →
  warm once → measure every cell from restored snapshots → write the
  results back through a tiered store (local L1 + the coordinator as
  L2) → acknowledge.
* :func:`run_distributed` — the ``repro sweep --coordinator URL``
  driver: satisfy what the store already holds, seed the misses as warm
  groups, then stream per-worker completions into an ordinary
  :class:`~repro.sim.sweep.runner.SweepReport`.

None of this can change a result.  Workers run the exact
:func:`~repro.sim.sweep.runner.execute_group` path the local runner
uses, results are content-addressed by cell fingerprint, and duplicated
work (a re-leased group whose first worker turned out to be alive)
produces bit-identical entries — so any worker count, any join/leave
timing and any failure pattern yields the same report as ``--jobs 1``.

Determinism note: lease *timing* is wall-clock-driven by nature (that
is the failure detector), but timing only decides *who* computes a
cell, never *what* the cell computes.
"""

from __future__ import annotations

import logging
import os
import re
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ...checks.tsan import guarded_dict, guarded_list, new_lock
from ...common.wire import HttpChannel, error_for
from .fingerprint import cell_fingerprint
from .runner import (
    CellOutcome,
    SweepReport,
    dedupe_cells,
    execute_group,
    warm_groups_of,
)
from .schedule import CostModel, WorkQueue
from .spec import CellSpec, spec_from_dict, spec_to_dict
from .store import (
    STORE_ROUTES,
    DirectoryStore,
    HttpStore,
    ResultStore,
    TieredStore,
)

logger = logging.getLogger(__name__)

#: a cell fingerprint on the wire (same shape the store enforces).
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")

#: default lease time-to-live.  Three missed heartbeats (workers beat at
#: ttl/3) mean the worker is presumed dead and its group is requeued.
DEFAULT_LEASE_TTL_S = 60.0


def default_worker_name() -> str:
    """``<hostname>-<pid>`` — unique enough per cluster, stable per run."""
    try:
        host = socket.gethostname()
    except OSError:  # pragma: no cover - no hostname configured
        host = "worker"
    host = re.sub(r"[^A-Za-z0-9._-]", "-", host) or "worker"
    return f"{host}-{os.getpid()}"


# --------------------------------------------------------------------------
# coordinator side: the lease board
# --------------------------------------------------------------------------

class _BoardCell:
    """One dispatched cell: wire payload + rebuilt spec.

    The rebuilt :class:`CellSpec` gives the board real labels and
    benchmark/scheme families, so the *existing* :class:`CostModel` and
    :class:`WorkQueue` order remote work exactly like local work.
    """

    __slots__ = ("fingerprint", "spec", "wire")

    def __init__(self, wire: dict):
        if not isinstance(wire, dict):
            raise ValueError(f"cell is {type(wire).__name__}, not an object")
        fingerprint = wire.get("fingerprint")
        if not isinstance(fingerprint, str) \
                or not _FINGERPRINT_RE.match(fingerprint):
            raise ValueError(f"bad cell fingerprint: {fingerprint!r}")
        self.fingerprint = fingerprint
        self.spec = spec_from_dict(wire.get("spec"))
        self.wire = {"fingerprint": fingerprint,
                     "spec": spec_to_dict(self.spec)}

    # -- the surface CostModel/WorkQueue use ------------------------------

    @property
    def benchmark(self) -> str:
        return self.spec.benchmark

    @property
    def scheme(self):
        return self.spec.scheme

    def label(self) -> str:
        # the fingerprint suffix keeps queue tie-breaks fully
        # deterministic even for cells sharing a display label
        return f"{self.spec.label()}#{self.fingerprint[:8]}"


@dataclass
class _Lease:
    """One outstanding claim: which worker holds which cells until when."""

    lease_id: str
    worker: str
    cells: List[_BoardCell]
    deadline: float
    ttl_s: float


def _worker_stats() -> Dict[str, int]:
    return {"claims": 0, "cells": 0, "failures": 0, "requeues": 0}


@dataclass
class LeaseBoard:
    """The coordinator's work-lease state machine (thread-safe).

    Lives inside the ``store-serve`` process next to its
    :class:`DirectoryStore`; every mutation happens under one lock, and
    expiry is evaluated lazily on each request (no timer thread), so a
    lease can only be observed as live or already requeued — never
    half-expired.

    Liveness contract: a claimed group is either acknowledged via
    :meth:`done` before its TTL runs out (heartbeats extend it), or it
    is requeued for the next claimer.  Results arriving *after* expiry
    are still accepted — they are bit-identical by construction — and
    cancel any still-queued requeued copy of the same cells.
    """

    store: Optional[ResultStore] = None
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    #: injectable monotonic clock (tests compress time with it).
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        # under REPRO_TSAN=1 the lock records acquisition order and the
        # containers assert it is held on every mutation; otherwise these
        # are the plain threading.Lock / dict / list they always were.
        self._lock = new_lock("LeaseBoard._lock")
        history = self.store.cost_history() if self.store else None
        self._queue = WorkQueue([], CostModel(history))
        self._leases: Dict[str, _Lease] = guarded_dict(
            self._lock, "LeaseBoard._leases")
        #: fingerprint -> "queued" | "leased" for every unfinished cell.
        self._pending: Dict[str, str] = guarded_dict(
            self._lock, "LeaseBoard._pending")
        #: fingerprint -> successful outcome (first completion wins).
        self._done: Dict[str, dict] = guarded_dict(
            self._lock, "LeaseBoard._done")
        #: append-only outcome log the drivers poll with a cursor.
        self._outcomes: List[dict] = guarded_list(
            self._lock, "LeaseBoard._outcomes")
        self._lease_seq = 0
        self._outcome_seq = 0
        #: workers that polled for work and found none (starvation
        #: signal: their presence makes claims split big groups).
        self._starving: Dict[str, float] = guarded_dict(
            self._lock, "LeaseBoard._starving")
        self.workers: Dict[str, Dict[str, int]] = guarded_dict(
            self._lock, "LeaseBoard.workers")
        self.seeded_groups = 0
        self.seeded_cells = 0
        self.done_groups = 0
        self.requeues = 0

    # -- protocol verbs ----------------------------------------------------

    def seed(self, groups: Sequence[Sequence[dict]],
             ttl_s: Optional[float] = None,
             fresh: bool = False) -> dict:
        """Queue warm groups of wire cells; malformed input raises.

        Cells already queued, leased, or (unless ``fresh``) completed on
        this board are skipped, so two drivers seeding overlapping grids
        never duplicate work — both will see the shared outcomes.
        """
        parsed = [[_BoardCell(wire) for wire in group]
                  for group in groups if group]
        with self._lock:
            if isinstance(ttl_s, (int, float)) and ttl_s > 0:
                self.lease_ttl_s = float(ttl_s)
            seeded_groups = seeded_cells = skipped = 0
            for group in parsed:
                wanted = []
                for cell in group:
                    if cell.fingerprint in self._pending \
                            or (not fresh and cell.fingerprint in self._done):
                        skipped += 1
                        continue
                    if fresh:
                        self._done.pop(cell.fingerprint, None)
                    wanted.append(cell)
                    self._pending[cell.fingerprint] = "queued"
                if wanted:
                    self._queue.add(wanted)
                    seeded_groups += 1
                    seeded_cells += len(wanted)
            self.seeded_groups += seeded_groups
            self.seeded_cells += seeded_cells
            return {"seeded_groups": seeded_groups,
                    "seeded_cells": seeded_cells,
                    "skipped_cells": skipped,
                    "lease_ttl_s": self.lease_ttl_s}

    def claim(self, worker: str) -> dict:
        """Lease the costliest queued group to ``worker`` (LPT order).

        When fewer groups are queued than workers are starving, the
        queue splits its costliest splittable group first — the
        distributed analog of local work stealing.  Returns one of
        ``{"status": "lease", ...}``, ``{"status": "wait"}`` (work is
        leased out; poll again) or ``{"status": "empty"}``.
        """
        now = self.clock()
        with self._lock:
            self._touch(worker, now)
            self._expire(now)
            stale = [name for name, seen in self._starving.items()
                     if now - seen > self.lease_ttl_s]
            for name in stale:
                del self._starving[name]
            if not len(self._queue):
                self._starving[worker] = now
                if self._leases:
                    return {"status": "wait",
                            "retry_s": round(
                                min(1.0, self.lease_ttl_s / 4), 3)}
                return {"status": "empty",
                        "seeded": self.seeded_groups > 0}
            idle = 1 + sum(1 for name in self._starving if name != worker)
            group = self._queue.take(idle)
            self._starving.pop(worker, None)
            self._lease_seq += 1
            lease = _Lease(
                lease_id=f"l{self._lease_seq}",
                worker=worker,
                cells=group,
                deadline=now + self.lease_ttl_s,
                ttl_s=self.lease_ttl_s,
            )
            self._leases[lease.lease_id] = lease
            for cell in group:
                self._pending[cell.fingerprint] = "leased"
            self.workers[worker]["claims"] += 1
            return {"status": "lease",
                    "lease": {"id": lease.lease_id,
                              "ttl_s": lease.ttl_s,
                              "cells": [cell.wire for cell in group]}}

    def heartbeat(self, lease_id: str, worker: str) -> dict:
        """Renew a lease; ``ok=False`` means it already expired."""
        now = self.clock()
        with self._lock:
            self._touch(worker, now)
            self._expire(now)
            lease = self._leases.get(lease_id)
            if lease is None:
                return {"ok": False,
                        "reason": "lease expired or unknown "
                                  "(group requeued)"}
            lease.deadline = now + lease.ttl_s
            return {"ok": True, "ttl_s": lease.ttl_s}

    def done(self, lease_id: str, worker: str,
             cell_reports: Sequence[dict]) -> dict:
        """Retire a lease with its per-cell results metadata.

        Each report row carries ``fingerprint``, ``elapsed_s`` /
        ``warm_s`` / ``measure_s``, an optional ``error``,
        and ``stored`` — whether the worker's write-back to the shared
        store succeeded.  Rows that computed fine but did *not* land in
        the store are requeued (invisible work is no work); late reports
        from expired leases are accepted and cancel requeued duplicates.
        """
        now = self.clock()
        with self._lock:
            self._touch(worker, now)
            self._expire(now)
            lease = self._leases.pop(lease_id, None)
            by_fingerprint: Dict[str, dict] = {}
            for row in cell_reports:
                if isinstance(row, dict) \
                        and isinstance(row.get("fingerprint"), str):
                    by_fingerprint[row["fingerprint"]] = row
            known = {cell.fingerprint: cell for cell in lease.cells} \
                if lease else {}
            requeue: List[_BoardCell] = []
            resolved = set()
            accepted = 0
            for fingerprint, row in by_fingerprint.items():
                cell = known.get(fingerprint)
                error = row.get("error")
                stored = bool(row.get("stored"))
                if error is None and not stored:
                    # computed but never landed in the store: requeue if
                    # we still know the cell's spec (live lease), else
                    # leave the already-requeued copy to recompute it
                    if cell is not None:
                        requeue.append(cell)
                    self.workers[worker]["requeues"] += 1
                    continue
                if error is None:
                    self.workers[worker]["cells"] += 1
                else:
                    self.workers[worker]["failures"] += 1
                accepted += 1
                self._record_outcome(fingerprint, row, worker)
                resolved.add(fingerprint)
            # drop queued duplicates of anything just resolved (late
            # results from an expired-and-requeued lease)
            if resolved:
                self._queue.discard_cells(
                    lambda cell: cell.fingerprint in resolved)
            if requeue:
                for cell in requeue:
                    self._pending[cell.fingerprint] = "queued"
                self._queue.add(requeue)
            if lease is not None:
                self.done_groups += 1
                # cells the worker never reported on (crashed mid-group
                # but managed to call done?) go back on the queue too
                unreported = [cell for cell in lease.cells
                              if cell.fingerprint not in by_fingerprint
                              and self._pending.get(cell.fingerprint)
                              == "leased"]
                if unreported:
                    for cell in unreported:
                        self._pending[cell.fingerprint] = "queued"
                    self._queue.add(unreported)
                    self.requeues += 1
            # completions carry fresh elapsed_s history (recorded by the
            # store on PUT) — re-price the queue so LPT ordering keeps
            # improving while the cluster runs
            if self.store is not None and accepted:
                self._queue.reprice(CostModel(self.store.cost_history()))
            return {"retired": lease is not None, "accepted": accepted,
                    "requeued": len(requeue)}

    def status(self, since: int = 0) -> dict:
        """Board snapshot + every outcome with ``seq > since``."""
        now = self.clock()
        with self._lock:
            self._expire(now)
            outcomes = [row for row in self._outcomes if row["seq"] > since]
            workers = {
                name: dict(stats) for name, stats in self.workers.items()
            }
            return {
                "totals": {
                    "seeded_groups": self.seeded_groups,
                    "seeded_cells": self.seeded_cells,
                    "done_groups": self.done_groups,
                    "queued_groups": len(self._queue),
                    "queued_cells": self._queue.queued_cells(),
                    "leased_groups": len(self._leases),
                    "requeues": self.requeues,
                    "splits": self._queue.splits,
                    "outcome_seq": self._outcome_seq,
                    "lease_ttl_s": self.lease_ttl_s,
                },
                "drained": not self._pending and not self._leases,
                "workers": workers,
                "outcomes": outcomes,
            }

    # -- internals (call with the lock held) -------------------------------

    def _touch(self, worker: str, now: float) -> None:
        stats = self.workers.setdefault(worker, _worker_stats())
        stats["last_seen"] = round(now, 3)  # type: ignore[assignment]

    def _expire(self, now: float) -> None:
        expired = [lease for lease in self._leases.values()
                   if lease.deadline < now]
        for lease in sorted(expired, key=lambda item: item.lease_id):
            del self._leases[lease.lease_id]
            stale = [cell for cell in lease.cells
                     if self._pending.get(cell.fingerprint) == "leased"]
            for cell in stale:
                self._pending[cell.fingerprint] = "queued"
            if stale:
                self._queue.add(stale)
            self.requeues += 1
            self.workers.setdefault(lease.worker,
                                    _worker_stats())["requeues"] += 1
            logger.warning("lease %s (%s, %d cells) expired; requeued",
                           lease.lease_id, lease.worker, len(stale))

    def _record_outcome(self, fingerprint: str, row: dict,
                        worker: str) -> None:
        if row.get("error") is None and fingerprint in self._done:
            return  # duplicate completion (re-leased group) — keep first
        # both success and failure resolve the cell: a deterministic
        # failure requeued forever would wedge the board, so failures
        # surface to the driver instead
        self._pending.pop(fingerprint, None)
        self._outcome_seq += 1
        outcome = {
            "seq": self._outcome_seq,
            "fingerprint": fingerprint,
            "label": row.get("label"),
            "worker": worker,
            "elapsed_s": float(row.get("elapsed_s") or 0.0),
            "warm_s": float(row.get("warm_s") or 0.0),
            "measure_s": float(row.get("measure_s") or 0.0),
            "error": row.get("error"),
        }
        self._outcomes.append(outcome)
        if outcome["error"] is None:
            self._done[fingerprint] = outcome


# --------------------------------------------------------------------------
# client side: the coordinator protocol
# --------------------------------------------------------------------------

class CoordinatorError(OSError):
    """The coordinator is unreachable or rejected a request."""


class CoordinatorClient:
    """Stdlib client for the ``/work/`` endpoints, with bounded retry.

    Requests are built from :data:`~repro.sim.sweep.store.STORE_ROUTES`.
    Transient failures (connection refused/reset, timeouts, a 5xx
    without an error kind, e.g. from a proxy) are retried ``max_tries``
    times with deterministic exponential backoff.  An error answer with
    a kind — a 4xx rejection or a 500 ``internal`` — raises at once: the
    handler already ran, and retrying cannot help.  Heartbeat's 410
    (lease gone) is a *negative answer*, not an error, and comes back as
    ``ok=False``.
    """

    def __init__(self, base_url: str, timeout: float = 10.0,
                 max_tries: int = 5, backoff_s: float = 0.25):
        self.channel = HttpChannel(base_url, timeout=timeout)
        self.base_url = self.channel.base_url
        self.max_tries = max(1, max_tries)
        self.backoff_s = backoff_s

    def _call(self, name: str, **values) -> dict:
        method, path, body = STORE_ROUTES[name].request(**values)
        last_error: Optional[Exception] = None
        for attempt in range(self.max_tries):
            if attempt:
                time.sleep(min(self.backoff_s * (2 ** (attempt - 1)), 8.0))
            try:
                response = self.channel.request(method, path, body)
            except OSError as err:
                last_error = err
                continue
            if response.status >= 400 and response.status != 410:
                error = error_for(response, CoordinatorError)
                if response.status >= 500 \
                        and isinstance(error, CoordinatorError):
                    last_error = error  # no error kind: not our handler
                    continue
                raise CoordinatorError(
                    f"coordinator rejected {method} {path}: "
                    f"HTTP {response.status}: {error}")
            try:
                data = response.json()
            except ValueError as err:
                raise CoordinatorError(
                    f"unparseable coordinator response for {path}: {err}")
            if not isinstance(data, dict):
                raise CoordinatorError(
                    f"coordinator response for {path} is not an object")
            return data
        raise CoordinatorError(
            f"coordinator {self.base_url} unreachable after "
            f"{self.max_tries} tries: {last_error}")

    def seed(self, groups: Sequence[Sequence[dict]],
             ttl_s: Optional[float] = None, fresh: bool = False) -> dict:
        return self._call("seed", groups=[list(group) for group in groups],
                          ttl_s=ttl_s, fresh=fresh)

    def claim(self, worker: str) -> dict:
        return self._call("claim", worker=worker)

    def heartbeat(self, lease_id: str, worker: str) -> dict:
        return self._call("heartbeat", lease=lease_id, worker=worker)

    def done(self, lease_id: str, worker: str,
             cells: Sequence[dict]) -> dict:
        return self._call("done", lease=lease_id, worker=worker,
                          cells=list(cells))

    def status(self, since: int = 0) -> dict:
        return self._call("work_status", since=int(since))


# --------------------------------------------------------------------------
# the worker: ``python -m repro worker --coordinator URL``
# --------------------------------------------------------------------------

class _Heartbeat:
    """Background lease renewal while a group computes.

    Beats every ``ttl/3`` so a healthy worker misses its deadline only
    after three consecutive failures; a transient miss is harmless (the
    next beat renews), and a lost lease just means the group was
    requeued — the results are still submitted and deduplicated.
    """

    def __init__(self, client: CoordinatorClient, lease_id: str,
                 worker: str, ttl_s: float):
        self._client = client
        self._lease_id = lease_id
        self._worker = worker
        self._interval = max(0.05, ttl_s / 3.0)
        self._stop = threading.Event()
        self.lost = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._client.heartbeat(self._lease_id,
                                              self._worker).get("ok"):
                    self.lost.set()
                    return
            except CoordinatorError as err:
                logger.warning("heartbeat for %s failed: %s",
                               self._lease_id, err)


def run_worker(
    coordinator: str,
    cache_dir=None,
    name: Optional[str] = None,
    poll_s: float = 0.5,
    exit_when_idle: bool = False,
    max_groups: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """The worker loop: claim → warm once → run cells → store → ack.

    Results are written through a tiered store (local L1 under
    ``cache_dir``, the coordinator itself as the HTTP L2) before the
    lease is acknowledged, so a completed cell is always visible to the
    driver by the time its outcome streams down.  ``exit_when_idle``
    ends the loop once the board has been seeded and fully drained (the
    CI smoke and scripted clusters use it); the default is to keep
    polling for the next sweep.  Returns a process exit code.
    """
    worker = name or default_worker_name()
    client = CoordinatorClient(coordinator)
    store = TieredStore(DirectoryStore(cache_dir),
                        HttpStore(coordinator))
    say = log if log is not None else (lambda _line: None)
    completed = 0
    say(f"worker {worker}: polling {client.base_url}")
    while True:
        try:
            response = client.claim(worker)
        except CoordinatorError as err:
            say(f"worker {worker}: giving up: {err}")
            return 1
        status = response.get("status")
        if status == "lease":
            lease = response.get("lease") or {}
            completed += 1
            _run_lease(client, store, worker, lease, say)
            if max_groups is not None and completed >= max_groups:
                return 0
        elif status == "wait":
            time.sleep(float(response.get("retry_s") or poll_s))
        else:  # empty
            if exit_when_idle and response.get("seeded"):
                say(f"worker {worker}: board drained after "
                    f"{completed} group(s); exiting")
                return 0
            time.sleep(poll_s)


def _run_lease(client: CoordinatorClient, store: ResultStore, worker: str,
               lease: dict, say: Callable[[str], None]) -> None:
    """Execute one leased group and acknowledge it."""
    lease_id = str(lease.get("id"))
    ttl_s = float(lease.get("ttl_s") or DEFAULT_LEASE_TTL_S)
    wire_cells = lease.get("cells") or []
    specs: List[CellSpec] = []
    fingerprints: List[str] = []
    reports: List[dict] = []
    for wire in wire_cells:
        try:
            specs.append(spec_from_dict(wire.get("spec")))
            fingerprints.append(wire["fingerprint"])
        except (ValueError, KeyError, TypeError) as err:
            # un-runnable cell: report it failed so the driver sees it
            # instead of the board requeueing it forever
            reports.append({"fingerprint": wire.get("fingerprint"),
                            "error": f"unrunnable cell: {err}",
                            "stored": False})
    say(f"worker {worker}: lease {lease_id} "
        f"({len(specs)} cells, first {specs[0].label() if specs else '-'})")
    rows = []
    if specs:
        with _Heartbeat(client, lease_id, worker, ttl_s):
            rows = execute_group(specs)
    for fingerprint, row in zip(fingerprints, rows):
        spec, result, elapsed, warm_s, measure_s, error = row
        stored = False
        if result is not None:
            stored = store.put(fingerprint, spec, result, elapsed)
        reports.append({
            "fingerprint": fingerprint,
            "label": spec.label(),
            "elapsed_s": round(elapsed, 4),
            "warm_s": round(warm_s, 4),
            "measure_s": round(measure_s, 4),
            "error": error,
            "stored": stored,
        })
    try:
        client.done(lease_id, worker, reports)
    except CoordinatorError as err:
        # the lease will expire and requeue; our stored results remain
        # visible, so the recomputation shrinks to whatever failed
        say(f"worker {worker}: could not acknowledge {lease_id}: {err}")


# --------------------------------------------------------------------------
# the driver: ``repro sweep --coordinator URL``
# --------------------------------------------------------------------------

def wire_group(group: Sequence[CellSpec],
               fingerprints: Dict[CellSpec, str]) -> List[dict]:
    """One warm group in wire form (fingerprint + serialized spec)."""
    return [{"fingerprint": fingerprints[spec],
             "spec": spec_to_dict(spec)} for spec in group]


def run_distributed(
    cells: Iterable[CellSpec],
    coordinator: str,
    cache_dir=None,
    fresh: bool = False,
    lease_ttl_s: Optional[float] = None,
    poll_s: float = 0.5,
    timeout_s: Optional[float] = None,
    progress=None,
) -> SweepReport:
    """Run a sweep by seeding a coordinator and streaming completions.

    Bit-identical to :func:`~repro.sim.sweep.runner.run_cells` with
    ``jobs=1`` for any worker count and any failure pattern: cached
    cells are satisfied from the tiered store exactly as locally, and
    every miss is computed remotely by the same ``execute_group`` path.
    Blocks until every seeded cell has an outcome (``timeout_s`` bounds
    the wait; ``None`` waits for workers indefinitely).
    """
    started = time.perf_counter()
    store = TieredStore(DirectoryStore(cache_dir), HttpStore(coordinator))
    client = CoordinatorClient(coordinator)
    unique = dedupe_cells(cells)
    fingerprints = {spec: cell_fingerprint(spec) for spec in unique}

    outcomes: Dict[CellSpec, CellOutcome] = {}
    pending: List[CellSpec] = []
    store_misses = 0
    for spec in unique:
        fetched = None
        if not fresh:
            fetched = store.fetch(fingerprints[spec])
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

    groups = warm_groups_of(pending)
    seeded = client.seed([wire_group(group, fingerprints)
                          for group in groups],
                         ttl_s=lease_ttl_s, fresh=fresh)
    logger.info("seeded %s groups (%s cells, %s already known) on %s",
                seeded.get("seeded_groups"), seeded.get("seeded_cells"),
                seeded.get("skipped_cells"), client.base_url)

    waiting = {fingerprints[spec]: spec for spec in pending}
    fetch_retries: Dict[str, int] = {}
    since = 0
    board = client.status()
    while waiting:
        if timeout_s is not None \
                and time.perf_counter() - started > timeout_s:
            raise CoordinatorError(
                f"distributed sweep timed out with {len(waiting)} cells "
                f"outstanding after {timeout_s:.0f}s")
        board = client.status(since)
        since = board["totals"]["outcome_seq"]
        progressed = False
        for row in board.get("outcomes", []):
            fingerprint = row.get("fingerprint")
            spec = waiting.get(fingerprint)
            if spec is None:
                continue  # another driver's cell, or a duplicate
            if row.get("error"):
                outcome = CellOutcome(spec, None, 0.0, "failed",
                                      row["error"], worker=row.get("worker"))
            else:
                result = store.get(fingerprint)
                if result is None:
                    # done raced the PUT's visibility (or the entry was
                    # pruned between ack and fetch): retry a few polls,
                    # then surface the loss instead of spinning forever
                    tries = fetch_retries.get(fingerprint, 0) + 1
                    fetch_retries[fingerprint] = tries
                    if tries < 5:
                        continue
                    outcome = CellOutcome(
                        spec, None, 0.0, "failed",
                        "completed remotely but the result never "
                        "appeared in the store", worker=row.get("worker"))
                else:
                    outcome = CellOutcome(
                        spec, result, row.get("elapsed_s", 0.0), "run",
                        warm_s=row.get("warm_s", 0.0),
                        measure_s=row.get("measure_s", 0.0),
                        worker=row.get("worker"),
                    )
            del waiting[fingerprint]
            outcomes[spec] = outcome
            progressed = True
            if progress is not None:
                progress(outcome)
        if waiting and not progressed:
            time.sleep(poll_s)

    totals = board.get("totals", {})
    workers = {name: {key: value for key, value in stats.items()
                      if key != "last_seen"}
               for name, stats in board.get("workers", {}).items()}
    ordered = [outcomes[spec] for spec in unique]
    return SweepReport(
        outcomes=ordered,
        jobs=max(1, len(workers)),
        elapsed_s=time.perf_counter() - started,
        warm_groups=len(groups),
        steals=totals.get("splits", 0),
        store_used=True,
        store_misses=store_misses,
        requeues=totals.get("requeues", 0),
        workers=workers,
    )
