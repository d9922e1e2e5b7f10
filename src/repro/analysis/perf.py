"""Regression gates against the committed perf baselines.

Two gates live here:

* ``python -m repro bench --compare BENCH_measure.json`` re-measures the
  fast path for every cell recorded in the baseline and fails when any
  cell got more than :data:`DEFAULT_TOLERANCE` slower than the cell's
  ``kernels_fallback_s`` column (the batched fast path's time).  The
  baseline is CPU time on the machine that produced it, so an
  *absolute* gate would be meaningless across machines — the gate is
  meant for A/B runs on one machine (the CI perf job re-records a fresh
  baseline first and compares a candidate tree against it, see
  ``.github/workflows/ci.yml``).

* ``python -m repro bench --ratchet`` — the **perf-trajectory ratchet**.
  ``BENCH_trajectory.json`` accumulates one row per recorded run (git
  SHA, host fingerprint, pipeline label, per-cell CPU seconds); the
  ratchet re-measures the :data:`RATCHET_CELLS` and fails when any cell
  is more than the tolerance slower than the *best* committed
  :data:`PIPELINE` row for this host.  Every run appends its own row,
  so an improvement automatically becomes the new floor — speedups
  ratchet, regressions fail loudly.  Rows from other hosts or pipelines
  are kept (they are the trajectory) but never compared against:
  absolute times only mean something on the machine and code path that
  produced them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from ..common.config import SchemeKind, table1_config
from ..sim.system import prepare_warm_state, run_from_warm_state

#: per-cell slowdown beyond which the gates fail (>20 %).
DEFAULT_TOLERANCE = 0.20

#: baseline sections holding per-cell records, in report order.
SECTIONS = ("machinery", "end_to_end")

#: default trajectory file, committed at the repo root.
TRAJECTORY_DEFAULT = "BENCH_trajectory.json"

#: trajectory file schema (bump on incompatible row changes).
TRAJECTORY_SCHEMA = 1

#: pipeline label of simulator trajectory rows: the batched fast path.
#: Rows recorded under other labels (rows from earlier column backends,
#: the service's ``serve-http`` rows) stay in the file but never gate it.
PIPELINE = "batched"

#: the ratchet's measurement geometry — matches the perf benchmarks in
#: ``benchmarks/test_perf_measure.py`` so their recorded rows feed the
#: same baseline pool.
RATCHET_INSTRUCTIONS = 400_000
RATCHET_WARMUP = 50_000

#: cells the ratchet gate re-measures: the L2-resident machinery cells
#: (suffix-bound — where kernel regressions show first) plus one
#: memory-bound end-to-end cell (where hierarchy regressions show).
RATCHET_CELLS: Dict[str, dict] = {
    key: {"instructions": RATCHET_INSTRUCTIONS, "warmup": RATCHET_WARMUP}
    for key in ("base/gzip", "chash/gzip", "chash/twolf", "chash/swim")
}

#: best-of-N repeats for one ratchet measurement.
RATCHET_REPEATS = 3


def _measure_cell(key: str, cell: dict, repeats: int) -> float:
    """Best-of-N CPU seconds of one baseline cell's fast path."""
    scheme_name, benchmark = key.split("/", 1)
    config = table1_config(SchemeKind(scheme_name))
    state = prepare_warm_state(config, benchmark, warmup=cell["warmup"])
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        start = time.process_time()
        run_from_warm_state(config, benchmark, state,
                            instructions=cell["instructions"])
        best = min(best, time.process_time() - start)
        gc.enable()
    return best


def compare_bench(path: str, tolerance: float = DEFAULT_TOLERANCE,
                  repeats: int = 5) -> Tuple[List[str], bool]:
    """Re-measure every baseline cell and diff against its recorded time.

    Returns the report lines and whether every cell stayed within
    ``tolerance`` of its baseline.
    """
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    lines = [f"perf gate: {path} vs current tree "
             f"(best of {repeats}, tolerance +{tolerance:.0%})"]
    ok = True
    for section in SECTIONS:
        for key, cell in sorted(baseline.get(section, {}).items()):
            base_s = cell["kernels_fallback_s"]
            now_s = _measure_cell(key, cell, repeats)
            ratio = now_s / base_s
            regressed = ratio > 1.0 + tolerance
            ok = ok and not regressed
            verdict = "REGRESSION" if regressed else "ok"
            lines.append(f"  {key:12s} baseline {base_s:6.3f}s  "
                         f"now {now_s:6.3f}s  ({ratio:5.2f}x)  {verdict}")
    lines.append("perf gate: " + ("PASS" if ok else "FAIL"))
    return lines, ok


# --------------------------------------------------------------------------
# the perf-trajectory ratchet
# --------------------------------------------------------------------------

def host_fingerprint() -> str:
    """Short stable id of this machine class for baseline matching.

    Hashes the properties that make absolute CPU times comparable —
    architecture, OS, CPU count, Python implementation and major.minor —
    so a trajectory row recorded on a different class of machine is
    never used as this machine's baseline.
    """
    payload = {
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "python": platform.python_implementation(),
        "version": ".".join(platform.python_version_tuple()[:2]),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def current_git_sha() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def load_trajectory(path: str) -> List[dict]:
    """Every committed trajectory row; an unreadable file is empty."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return []
    rows = data.get("rows") if isinstance(data, dict) else None
    return [row for row in rows if isinstance(row, dict)] \
        if isinstance(rows, list) else []


def append_trajectory_row(path: str, cells: Dict[str, dict], backend: str,
                          host: Optional[str] = None,
                          git_sha: Optional[str] = None) -> dict:
    """Append one recorded run to the trajectory file (atomically).

    ``cells`` maps ``scheme/benchmark`` to
    ``{"instructions", "warmup", "seconds"}``; ``backend`` is the
    pipeline label the row is filed under (:data:`PIPELINE` for the
    simulator).  Returns the appended row.
    """
    row = {
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "host": host if host is not None else host_fingerprint(),
        "backend": backend,
        "python": platform.python_version(),
        "cells": {key: dict(cells[key]) for key in sorted(cells)},
    }
    rows = load_trajectory(path)
    rows.append(row)
    payload = json.dumps({"schema": TRAJECTORY_SCHEMA, "rows": rows},
                         indent=2, sort_keys=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return row


def trajectory_baseline(rows: List[dict], host: str, backend: str,
                        cells: Dict[str, dict]) -> Dict[str, float]:
    """Best (minimum) committed seconds per cell for ``host`` rows
    labelled ``backend``.

    Only rows whose measurement geometry (instructions, warmup) matches
    ``cells`` count — a row recorded with a different window is a
    different experiment, not a baseline.
    """
    best: Dict[str, float] = {}
    for row in rows:
        if row.get("host") != host or row.get("backend") != backend:
            continue
        row_cells = row.get("cells")
        if not isinstance(row_cells, dict):
            continue
        for key, wanted in cells.items():
            recorded = row_cells.get(key)
            if not isinstance(recorded, dict):
                continue
            if (recorded.get("instructions") != wanted["instructions"]
                    or recorded.get("warmup") != wanted["warmup"]):
                continue
            seconds = recorded.get("seconds")
            if isinstance(seconds, (int, float)) and seconds > 0:
                best[key] = min(best.get(key, float("inf")), float(seconds))
    return best


def ratchet_bench(path: str = TRAJECTORY_DEFAULT,
                  tolerance: float = DEFAULT_TOLERANCE,
                  repeats: int = RATCHET_REPEATS,
                  cells: Optional[Dict[str, dict]] = None,
                  record: bool = True) -> Tuple[List[str], bool]:
    """The perf-trajectory ratchet (see module docstring).

    Re-measures every ratchet cell, compares against the best committed
    :data:`PIPELINE` row for this host, appends the fresh measurements
    as a new row (``record=True``), and returns the report lines plus
    whether every cell stayed within ``tolerance`` of its floor.  A host
    with no committed history passes and merely seeds the trajectory —
    the gate tightens from the second run onward.
    """
    cells = cells if cells is not None else RATCHET_CELLS
    host = host_fingerprint()
    rows = load_trajectory(path)
    baseline = trajectory_baseline(rows, host, PIPELINE, cells)
    lines = [f"perf ratchet: {path} ({len(rows)} committed rows, "
             f"host {host}, {PIPELINE} pipeline, best of {repeats}, "
             f"tolerance +{tolerance:.0%})"]
    ok = True
    measured: Dict[str, dict] = {}
    for key in sorted(cells):
        cell = cells[key]
        now_s = _measure_cell(key, cell, repeats)
        measured[key] = {"instructions": cell["instructions"],
                         "warmup": cell["warmup"],
                         "seconds": round(now_s, 3)}
        best_s = baseline.get(key)
        if best_s is None:
            lines.append(f"  {key:12s} best      —     "
                         f"now {now_s:6.3f}s  (new baseline)")
            continue
        ratio = now_s / best_s
        regressed = ratio > 1.0 + tolerance
        ok = ok and not regressed
        verdict = "REGRESSION" if regressed else (
            "improved" if ratio < 1.0 else "ok")
        lines.append(f"  {key:12s} best {best_s:6.3f}s  "
                     f"now {now_s:6.3f}s  ({ratio:5.2f}x)  {verdict}")
    if record:
        append_trajectory_row(path, measured, PIPELINE, host=host)
        lines.append(f"appended row {len(rows) + 1} to {path}")
    lines.append("perf ratchet: " + ("PASS" if ok else "FAIL"))
    return lines, ok
