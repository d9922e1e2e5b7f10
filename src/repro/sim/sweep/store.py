"""Tiered, shareable content-addressed result stores for the sweep engine.

Every finished cell is one JSON *entry* keyed by its SHA-256
:func:`~repro.sim.sweep.fingerprint.cell_fingerprint` — the fingerprint
covers everything that determines the result, so an entry computed on
any host is valid on every other host by construction.  Entries live
in a small store hierarchy:

* :class:`DirectoryStore` — entries as ``<fingerprint>.json`` files
  under one root (a local ``.repro_cache/`` or any shared filesystem
  path, e.g. NFS);
* :class:`HttpStore` — the same entries behind a coordinator speaking
  plain HTTP (``GET``/``PUT /cells/<fingerprint>``), served by
  ``python -m repro store-serve`` (:func:`make_store_server`) — both
  ends stdlib-only;
* :class:`TieredStore` — a read-through / write-back pair: the local
  directory is L1, a shared directory or HTTP store is L2.  An L2 hit
  is *hydrated* into L1 so the next sweep on this host never leaves
  the local disk; a fresh result is written back to both tiers so
  every pooled host benefits.

Robustness contract (inherited from the original cache): a corrupted,
truncated, schema-mismatched or unreachable entry is a logged *miss*,
never an error — the sweep recomputes and overwrites it.  Writes are
atomic (unique temporary file + ``os.replace``); temporary names embed
the hostname, PID and a monotonic nonce so concurrent writers on a
shared filesystem can never clobber each other's half-written files.

Each directory store also keeps a ``_costs.json`` sidecar aggregating
the observed ``elapsed_s`` per ``benchmark/scheme`` — the cost history
the work-stealing scheduler (:mod:`repro.sim.sweep.schedule`) uses to
order warm groups.  The sidecar is an *advisory hint*: it never affects
results, only dispatch order, and a lost update merely degrades the
schedule estimate.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import re
import socket
import threading
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ...checks.tsan import guarded_dict, new_lock, new_rlock
from ...common.wire import (
    BAD_INPUT,
    HttpChannel,
    HttpResponse,
    Route,
    WireHandler,
    error_for,
    make_server,
    route_table,
)
from ..results import SimResult
from .fingerprint import CACHE_SCHEMA_VERSION, config_from_dict, config_to_dict
from .spec import CellSpec

logger = logging.getLogger(__name__)

#: default local (L1) store root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: environment variable naming the shared (L2) store for ``repro sweep``.
STORE_ENV = "REPRO_STORE"

#: a store entry's file name stem: the 64-hex-digit cell fingerprint.
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")

#: errors the robustness contract converts into logged misses.
_STORE_ERRORS = (OSError, ValueError, KeyError, TypeError)

#: cost-history sidecar file name (never a valid fingerprint name).
_COSTS_NAME = "_costs.json"

def result_to_dict(result: SimResult) -> dict:
    """Serialize a :class:`SimResult` (config tree included) to plain data."""
    return {
        "benchmark": result.benchmark,
        "scheme": result.scheme,
        "config": config_to_dict(result.config),
        "instructions": result.instructions,
        "cycles": result.cycles,
        "stats": dict(result.stats),
    }


def result_from_dict(data: dict) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`result_to_dict` output."""
    return SimResult(
        benchmark=data["benchmark"],
        scheme=data["scheme"],
        config=config_from_dict(data["config"]),
        instructions=data["instructions"],
        cycles=data["cycles"],
        stats=dict(data["stats"]),
    )


def entry_for(fingerprint: str, spec: CellSpec, result: SimResult,
              elapsed_s: float) -> dict:
    """The canonical store entry for one finished cell.

    Readers ignore keys they do not know, so entries written with extra
    provenance metadata (older trees recorded a ``backend`` key) stay
    readable.
    """
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "cell": spec.label(),
        "elapsed_s": round(elapsed_s, 4),
        "result": result_to_dict(result),
    }


def validate_entry(fingerprint: str, data: dict) -> SimResult:
    """Check an entry's self-description and rebuild its result.

    Raises ``ValueError``/``KeyError``/``TypeError`` on any mismatch —
    callers go through :meth:`ResultStore.read_valid`, which downgrades
    every such failure to a miss.
    """
    if not isinstance(data, dict):
        raise ValueError(f"entry is {type(data).__name__}, not an object")
    if data.get("schema") != CACHE_SCHEMA_VERSION:
        raise ValueError(f"schema {data.get('schema')!r} != "
                         f"{CACHE_SCHEMA_VERSION}")
    if data.get("fingerprint") != fingerprint:
        raise ValueError("fingerprint mismatch inside entry")
    return result_from_dict(data["result"])


def cost_key(entry: dict) -> Optional[str]:
    """The ``benchmark/scheme`` cost-history bucket of an entry."""
    label = entry.get("cell")
    if not isinstance(label, str):
        return None
    parts = label.split("/")
    if len(parts) < 2:
        return None
    return f"{parts[0]}/{parts[1]}"


class Fetched(NamedTuple):
    """One successful store lookup: the result plus the tier that had it."""

    result: SimResult
    tier: str


@dataclass
class PruneReport:
    """What ``prune`` removed (and what it left alone)."""

    removed: int = 0
    reclaimed_bytes: int = 0
    kept: int = 0

    def merge(self, other: "PruneReport") -> "PruneReport":
        return PruneReport(self.removed + other.removed,
                           self.reclaimed_bytes + other.reclaimed_bytes,
                           self.kept + other.kept)

    def summary(self) -> str:
        return (f"pruned {self.removed} file(s), reclaimed "
                f"{self.reclaimed_bytes} bytes ({self.kept} entries kept)")


class ResultStore:
    """Interface + shared policy for every store tier.

    Subclasses implement the transport pair :meth:`read_entry` /
    :meth:`write_entry`; everything above that — validation, hit/miss
    accounting, the miss-on-corruption contract, cost recording — lives
    here so every tier behaves identically.
    """

    #: tier label used in reports (``local`` for L1, ``shared`` for L2).
    label = "store"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        # stores are shared across worker threads (the coordinator's
        # handler pool, TieredStore under a parallel sweep), and `+= 1`
        # is a read-modify-write — so the counters get their own lock.
        self._stats_lock = new_lock(f"{type(self).__name__}._stats_lock")

    def _count_hit(self) -> None:
        with self._stats_lock:
            self.hits += 1

    def _count_miss(self) -> None:
        with self._stats_lock:
            self.misses += 1

    # -- transport (subclass responsibility) ------------------------------

    def read_entry(self, fingerprint: str) -> Optional[dict]:
        """The raw entry dict, ``None`` when absent; may raise on trouble."""
        raise NotImplementedError

    def write_entry(self, fingerprint: str, entry: dict) -> None:
        """Store ``entry`` durably and atomically; may raise on trouble."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable location (path or URL) for log/CLI lines."""
        return type(self).__name__

    # -- shared policy -----------------------------------------------------

    def read_valid(self, fingerprint: str) -> Optional[Tuple[dict, SimResult]]:
        """The validated ``(entry, result)`` pair, counting hits/misses.

        Any transport or validation failure is a logged miss, never an
        error — the caller recomputes the cell.
        """
        data = None
        try:
            data = self.read_entry(fingerprint)
        except _STORE_ERRORS as err:
            logger.warning("ignoring unreadable cache entry %s in %s: %s",
                           fingerprint[:12], self.describe(), err)
        if data is not None:
            try:
                return data, validate_entry(fingerprint, data)
            except _STORE_ERRORS as err:
                logger.warning("ignoring unreadable cache entry %s in %s: %s",
                               fingerprint[:12], self.describe(), err)
        self._count_miss()
        return None

    def fetch(self, fingerprint: str) -> Optional[Fetched]:
        """The cached result tagged with the tier that served it."""
        valid = self.read_valid(fingerprint)
        if valid is None:
            return None
        self._count_hit()
        return Fetched(valid[1], self.label)

    def get(self, fingerprint: str) -> Optional[SimResult]:
        """The cached result for ``fingerprint``, or ``None`` on any miss."""
        fetched = self.fetch(fingerprint)
        return None if fetched is None else fetched.result

    def put(self, fingerprint: str, spec: CellSpec, result: SimResult,
            elapsed_s: float) -> bool:
        """Store ``result``; failures are logged, not raised.

        Returns whether the entry was durably written (distributed
        workers use this to tell the coordinator when a result did *not*
        land).
        """
        return self.submit_entry(fingerprint,
                                 entry_for(fingerprint, spec, result,
                                           elapsed_s))

    def submit_entry(self, fingerprint: str, entry: dict) -> bool:
        """Write a fresh entry + record its cost; failures are logged.

        Returns ``True`` when the write succeeded.
        """
        try:
            self.write_entry(fingerprint, entry)
            self.record_cost(entry)
            return True
        except _STORE_ERRORS as err:
            logger.warning("could not write cache entry %s to %s: %s",
                           fingerprint[:12], self.describe(), err)
            return False

    def hydrate(self, fingerprint: str, entry: dict) -> None:
        """Copy an already-validated entry into this tier (no cost record)."""
        try:
            self.write_entry(fingerprint, entry)
        except _STORE_ERRORS as err:
            logger.warning("could not hydrate cache entry %s into %s: %s",
                           fingerprint[:12], self.describe(), err)

    # -- optional services -------------------------------------------------

    def record_cost(self, entry: dict) -> None:
        """Fold one entry's ``elapsed_s`` into the cost history (if kept)."""

    def cost_history(self) -> Dict[str, dict]:
        """``benchmark/scheme -> {"total_s", "cells"}`` advisory history."""
        return {}

    def flush_costs(self) -> None:
        """Force any batched cost history to durable storage (if kept)."""

    def prune(self, remove_entries: bool = True) -> PruneReport:
        """Remove droppings (and bad entries); no-op for remote tiers."""
        return PruneReport()

    def counter_lines(self) -> List[str]:
        """One accounting line per tier, for the end of a CLI sweep."""
        with self._stats_lock:
            hits, misses = self.hits, self.misses
        return [f"{self.label}: {hits} hits, {misses} misses "
                f"({self.describe()})"]


def _safe_hostname() -> str:
    """The hostname with path-hostile characters squeezed out."""
    try:
        name = socket.gethostname()
    except OSError:  # pragma: no cover - no hostname configured
        name = "unknown-host"
    return re.sub(r"[^A-Za-z0-9._-]", "-", name) or "unknown-host"


#: per-process monotonic nonce for temporary file names.
_TMP_NONCE = itertools.count()
_HOSTNAME = _safe_hostname()


class DirectoryStore(ResultStore):
    """Entries as ``<fingerprint>.json`` files under one directory.

    Used both as the local L1 (``.repro_cache/``) and, pointed at a
    shared filesystem path, as a multi-host L2.  Writes are atomic and
    collision-free across hosts: the temporary name embeds hostname,
    PID and a per-process nonce, and a failed ``os.replace`` cleans the
    temporary file up instead of leaving a dropping behind.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 label: str = "local", cost_flush_every: int = 1):
        super().__init__()
        self.root = Path(root) if root is not None else Path(DEFAULT_CACHE_DIR)
        self.label = label
        #: with the default of 1 every cost record is a read-merge-write
        #: of the sidecar (multi-process safe on a shared root); a store
        #: that *owns* its root — the serving coordinator — batches
        #: updates in memory and flushes every N records / on shutdown.
        self.cost_flush_every = max(1, cost_flush_every)
        self._costs_lock = threading.RLock()
        self._costs_cache: Optional[Dict[str, dict]] = None
        self._pending_costs = 0

    def describe(self) -> str:
        return str(self.root)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def read_entry(self, fingerprint: str) -> Optional[dict]:
        try:
            with open(self.path_for(fingerprint), "r",
                      encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def write_entry(self, fingerprint: str, entry: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(fingerprint)
        self._atomic_write(path, json.dumps(entry, separators=(",", ":")))

    def _atomic_write(self, path: Path, text: str) -> None:
        """Unique tmp + ``os.replace``; the tmp never survives a failure."""
        tmp = path.with_name(
            f"{path.name}.tmp-{_HOSTNAME}-{os.getpid()}-{next(_TMP_NONCE)}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- cost history ------------------------------------------------------

    def _costs_path(self) -> Path:
        return self.root / _COSTS_NAME

    def record_cost(self, entry: dict) -> None:
        key = cost_key(entry)
        elapsed = entry.get("elapsed_s")
        if key is None or not isinstance(elapsed, (int, float)):
            return
        with self._costs_lock:
            if self.cost_flush_every == 1:
                # read-merge-write each time so concurrent processes on a
                # shared root fold their histories together
                costs = self._read_costs_file()
                self._bump(costs, key, float(elapsed))
                self._write_costs(costs)
                return
            if self._costs_cache is None:
                self._costs_cache = self._read_costs_file()
            self._bump(self._costs_cache, key, float(elapsed))
            self._pending_costs += 1
            if self._pending_costs >= self.cost_flush_every:
                self._write_costs(self._costs_cache)
                self._pending_costs = 0

    @staticmethod
    def _bump(costs: Dict[str, dict], key: str, elapsed: float) -> None:
        bucket = costs.setdefault(key, {"total_s": 0.0, "cells": 0})
        bucket["total_s"] = round(bucket["total_s"] + elapsed, 4)
        bucket["cells"] += 1

    def _write_costs(self, costs: Dict[str, dict]) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._atomic_write(self._costs_path(),
                               json.dumps(costs, sort_keys=True,
                                          separators=(",", ":")))
        except OSError as err:  # advisory only — never fail the sweep
            logger.debug("could not update cost history in %s: %s",
                         self.root, err)

    def flush_costs(self) -> None:
        with self._costs_lock:
            if self._costs_cache is not None and self._pending_costs:
                self._write_costs(self._costs_cache)
                self._pending_costs = 0

    def _read_costs_file(self) -> Dict[str, dict]:
        try:
            with open(self._costs_path(), "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except _STORE_ERRORS:
            return {}
        if not isinstance(data, dict):
            return {}
        history: Dict[str, dict] = {}
        for key, bucket in data.items():
            if (isinstance(bucket, dict)
                    and isinstance(bucket.get("total_s"), (int, float))
                    and isinstance(bucket.get("cells"), int)
                    and bucket["cells"] > 0):
                history[key] = {"total_s": float(bucket["total_s"]),
                                "cells": bucket["cells"]}
        return history

    def cost_history(self) -> Dict[str, dict]:
        with self._costs_lock:
            if self._costs_cache is not None:
                # deep-enough copy: callers mutate buckets when merging
                return {key: dict(bucket)
                        for key, bucket in self._costs_cache.items()}
        return self._read_costs_file()

    # -- maintenance -------------------------------------------------------

    def _entry_paths(self) -> List[Path]:
        try:
            paths = list(self.root.glob("*.json"))
        except OSError:  # pragma: no cover - disk trouble
            return []
        return [p for p in paths if _FINGERPRINT_RE.match(p.stem)]

    def __len__(self) -> int:
        return len(self._entry_paths())

    def prune(self, remove_entries: bool = True) -> PruneReport:
        """Delete tmp droppings and (optionally) unreadable entries.

        Droppings are ``*.json.tmp*`` files left by a killed writer;
        with ``remove_entries`` every entry that would read as a miss
        (corrupt, truncated, schema-mismatched, wrong fingerprint) is
        removed too.  Returns what was reclaimed.  Not safe to run
        concurrently with an *active* writer on the same root — a live
        temporary file is indistinguishable from a stale one.
        """
        report = PruneReport()
        try:
            droppings = sorted(self.root.glob("*.json.tmp*"))
        except OSError:  # pragma: no cover - disk trouble
            droppings = []
        for path in droppings:
            report.removed += 1
            report.reclaimed_bytes += self._unlink_size(path)
        for path in sorted(self._entry_paths()):
            bad = False
            if remove_entries:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        validate_entry(path.stem, json.load(handle))
                except _STORE_ERRORS:
                    bad = True
            if bad:
                report.removed += 1
                report.reclaimed_bytes += self._unlink_size(path)
            else:
                report.kept += 1
        return report

    @staticmethod
    def _unlink_size(path: Path) -> int:
        try:
            size = path.stat().st_size
            path.unlink()
            return size
        except OSError:  # pragma: no cover - raced or unreadable
            return 0


class HttpStore(ResultStore):
    """Client half of the stdlib HTTP store pair (L2 over the network).

    Talks to the ``python -m repro store-serve`` coordinator:
    ``GET /cells/<fingerprint>`` (200 entry JSON / 404 miss),
    ``PUT /cells/<fingerprint>`` (entry JSON body), ``GET /costs``
    (advisory cost history) — all over one per-thread keep-alive
    :class:`HttpChannel`, with large entries gzip-compressed in both
    directions.  Requests are built from :data:`STORE_ROUTES`.  Every
    network failure follows the store contract:
    logged miss on read, logged drop on write.
    """

    label = "shared"

    def __init__(self, base_url: str, timeout: float = 10.0):
        super().__init__()
        self.channel = HttpChannel(base_url, timeout=timeout)
        self.base_url = self.channel.base_url
        self.timeout = timeout

    def describe(self) -> str:
        return self.base_url

    def close(self) -> None:
        self.channel.close()

    def _send(self, name: str, **values) -> HttpResponse:
        return self.channel.request(*STORE_ROUTES[name].request(**values))

    def read_entry(self, fingerprint: str) -> Optional[dict]:
        response = self._send("get_cell", fingerprint=fingerprint)
        if response.status == 404:
            return None
        if response.status != 200:
            raise OSError(f"HTTP {response.status} reading {fingerprint[:12]}")
        return json.loads(response.body)

    def write_entry(self, fingerprint: str, entry: dict) -> None:
        response = self._send("put_cell", fingerprint=fingerprint,
                              entry=entry)
        if response.status != 204:
            raise OSError(f"HTTP {response.status} writing "
                          f"{fingerprint[:12]}: {error_for(response)}")

    def cost_history(self) -> Dict[str, dict]:
        try:
            response = self._send("costs")
            if response.status != 200:
                return {}
            data = response.json()
        except _STORE_ERRORS:
            return {}
        return data if isinstance(data, dict) else {}


class TieredStore(ResultStore):
    """Read-through / write-back pair: local L1 + shared L2.

    * ``fetch``: L1 first; an L2 hit is hydrated into L1 (so repeat
      sweeps on this host stay local) and reported with tier
      ``shared``.
    * ``put``: written to both tiers, so every host pooling the L2
      sees fresh results.
    * cost history: merged, shared first, so a brand-new host inherits
      the pool's timings for scheduling.
    """

    label = "tiered"

    def __init__(self, local: DirectoryStore, shared: ResultStore):
        super().__init__()
        self.local = local
        self.shared = shared

    def describe(self) -> str:
        return f"{self.local.describe()} + {self.shared.describe()}"

    def fetch(self, fingerprint: str) -> Optional[Fetched]:
        fetched = self.local.fetch(fingerprint)
        if fetched is not None:
            self._count_hit()
            return fetched
        valid = self.shared.read_valid(fingerprint)
        if valid is None:
            self._count_miss()
            return None
        self.shared._count_hit()
        entry, result = valid
        self.local.hydrate(fingerprint, entry)
        self._count_hit()
        return Fetched(result, self.shared.label)

    def get(self, fingerprint: str) -> Optional[SimResult]:
        fetched = self.fetch(fingerprint)
        return None if fetched is None else fetched.result

    def put(self, fingerprint: str, spec: CellSpec, result: SimResult,
            elapsed_s: float) -> bool:
        entry = entry_for(fingerprint, spec, result, elapsed_s)
        self.local.submit_entry(fingerprint, entry)
        # the *shared* write is the one that makes a distributed result
        # visible to the coordinator — its success is what callers need
        return self.shared.submit_entry(fingerprint, entry)

    def flush_costs(self) -> None:
        self.local.flush_costs()
        self.shared.flush_costs()

    def cost_history(self) -> Dict[str, dict]:
        merged = dict(self.shared.cost_history())
        for key, bucket in self.local.cost_history().items():
            if key in merged:
                merged[key] = {
                    "total_s": merged[key]["total_s"] + bucket["total_s"],
                    "cells": merged[key]["cells"] + bucket["cells"],
                }
            else:
                merged[key] = bucket
        return merged

    def prune(self, remove_entries: bool = True) -> PruneReport:
        return self.local.prune(remove_entries).merge(
            self.shared.prune(remove_entries))

    def counter_lines(self) -> List[str]:
        return self.local.counter_lines() + self.shared.counter_lines()


def open_store(spec: str, label: str = "shared") -> ResultStore:
    """A store from a ``--store`` / ``REPRO_STORE`` spec.

    ``http(s)://...`` opens an :class:`HttpStore` client; anything else
    is a filesystem path (typically on a shared mount) opened as a
    :class:`DirectoryStore`.
    """
    if spec.startswith("http://") or spec.startswith("https://"):
        return HttpStore(spec)
    return DirectoryStore(spec, label=label)


def build_store(cache_dir: Union[str, Path, None] = None,
                store_spec: Optional[str] = None) -> ResultStore:
    """The sweep's store: local L1, tiered with a shared L2 when given."""
    local = DirectoryStore(cache_dir)
    if not store_spec:
        return local
    return TieredStore(local, open_store(store_spec))


# --------------------------------------------------------------------------
# the coordinator: ``python -m repro store-serve``
# --------------------------------------------------------------------------

class _StoreHandler(WireHandler):
    """Request handler bound to one server's :class:`DirectoryStore` (and
    its :class:`~repro.sim.sweep.dispatch.LeaseBoard`, if any)."""

    server_version = "repro-store/2"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.dispatch()

    def do_PUT(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.dispatch()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.dispatch()


def _checked(fingerprint: str) -> str:
    """``fingerprint`` when it names a cell (and so no other file)."""
    if not _FINGERPRINT_RE.fullmatch(fingerprint):
        raise ValueError(f"{fingerprint!r} is not a cell fingerprint")
    return fingerprint


# ``/`` and ``/costs`` answer pre-encoded bytes so their JSON layout
# (default separators) stays the coordinator protocol's, byte for byte.

def _store_status(server) -> bytes:
    status = {"store": "repro", "schema": CACHE_SCHEMA_VERSION,
              "entries": len(server.store),
              "work": server.board is not None}
    return json.dumps(status).encode("utf-8")


def _costs(server) -> bytes:
    return json.dumps(server.store.cost_history(),
                      sort_keys=True).encode("utf-8")


def _get_cell(server, fingerprint) -> bytes:
    """The stored file's bytes, exactly as written."""
    with open(server.store.path_for(_checked(fingerprint)), "rb") as handle:
        return handle.read()


def _put_cell(server, fingerprint, entry) -> None:
    validate_entry(_checked(fingerprint), entry)
    server.store.write_entry(fingerprint, entry)
    server.store.record_cost(entry)


def _seed(server, groups=(), ttl_s=None, fresh=False) -> dict:
    return server.board.seed(groups, ttl_s=ttl_s, fresh=bool(fresh))


def _claim(server, worker="anonymous") -> dict:
    return server.board.claim(str(worker))


def _heartbeat(server, lease, worker="") -> Tuple[int, dict]:
    renewed = server.board.heartbeat(lease, str(worker))
    return (200 if renewed.get("ok") else 410), renewed


def _done(server, lease, worker="", cells=()) -> dict:
    return server.board.done(lease, str(worker), cells)


def _work_status(server, since="0") -> dict:
    return server.board.status(since=int(since))


#: a malformed work request: what the lease board raises on bad input.
_WORK_ERRORS = {KeyError: "bad-request", **BAD_INPUT}

#: the coordinator protocol; the ``/work/`` routes exist only on a
#: server that carries a lease board.
STORE_ROUTES = route_table(
    Route("store_status", "GET", "/", _store_status, health=True),
    Route("costs", "GET", "/costs", _costs),
    Route("get_cell", "GET", "/cells/{fingerprint}", _get_cell,
          errors={FileNotFoundError: "not-found", ValueError: "not-found"}),
    Route("put_cell", "PUT", "/cells/{fingerprint}", _put_cell,
          body="entry", status=204,
          errors=dict.fromkeys(_STORE_ERRORS, "bad-request")),
    Route("seed", "POST", "/work/seed", _seed,
          ("groups", "ttl_s", "fresh"), errors=_WORK_ERRORS),
    Route("claim", "POST", "/work/claim", _claim, ("worker",),
          errors=_WORK_ERRORS),
    Route("heartbeat", "POST", "/work/{lease}/heartbeat", _heartbeat,
          ("worker",), errors=_WORK_ERRORS),
    Route("done", "POST", "/work/{lease}/done", _done, ("worker", "cells"),
          errors=_WORK_ERRORS),
    Route("work_status", "GET", "/work/status", _work_status, ("since",),
          errors=_WORK_ERRORS),
)


def make_store_server(root: Union[str, Path],
                      host: str = "127.0.0.1",
                      port: int = 8737,
                      work: bool = True,
                      lease_ttl_s: float = 60.0) -> ThreadingHTTPServer:
    """A ready-to-run coordinator over ``root`` (call ``serve_forever``).

    ``port=0`` binds an ephemeral port (useful in tests); the bound
    address is ``server.server_address``.  The server validates every
    ``PUT`` before storing it, so one misbehaving client cannot poison
    the pool — and the on-disk layout is exactly a
    :class:`DirectoryStore`, so the same root can simultaneously be
    mounted and used as a filesystem store.

    With ``work=True`` (the default) the server also carries a
    :class:`~repro.sim.sweep.dispatch.LeaseBoard` behind the ``/work/``
    endpoints, making it the coordinator of distributed sweeps: drivers
    seed warm groups, ``python -m repro worker`` processes claim and
    complete them under ``lease_ttl_s``-second leases.  Cost records are
    batched in memory (the server owns its root) and flushed every few
    records — call ``server.store.flush_costs()`` on shutdown.
    """
    from .dispatch import LeaseBoard  # circular at module level

    store = DirectoryStore(root, label="served", cost_flush_every=8)
    routes = {name: route for name, route in STORE_ROUTES.items()
              if work or not route.path.startswith("/work/")}
    return make_server(
        _StoreHandler, routes, host, port, store=store,
        board=LeaseBoard(store, lease_ttl_s=lease_ttl_s) if work else None)
