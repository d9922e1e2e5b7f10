"""Opt-in perf measurement of the warm-up accelerator: ``REPRO_PERF=1``.

Times the two warm-up levers this engine has:

* **packed replay** — one cell's functional warm-up via the fast path
  (packed chunks through ``warm_vec``) vs the per-``Instruction``
  object stream (``warm``, the oracle);
* **snapshot sharing** — a fig7-style timing grid (one warm key, many
  cells) with per-group shared warm state vs warming every cell from
  scratch.

Writes ``BENCH_warm.json`` next to ``BENCH_sweep.json``.  Like the sweep
perf smoke, this only *records* — wall-clock thresholds are too machine-
dependent to assert in CI — but it does assert the bit-identity that
makes the speedups legitimate.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.common import MB, SchemeKind, table1_config
from repro.sim.sweep import CellSpec, run_cells
from repro.workloads import InstructionStream, SPEC_PROFILES

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_PERF") != "1",
    reason="perf smoke is opt-in: set REPRO_PERF=1",
)

OUTPUT = "BENCH_warm.json"

#: a fig7-style grid: 3 benchmarks x 6 buffer depths, one warm key per
#: benchmark (buffer depth never reaches warm-up state)
GRID = [
    CellSpec(bench, SchemeKind.CHASH, l2_size=1 * MB, l2_block=64,
             buffer_entries=entries, instructions=4_000, warmup=120_000)
    for bench in ("gzip", "twolf", "swim")
    for entries in (1, 2, 4, 8, 16, 32)
]


def _timed_grid(**kwargs):
    start = time.perf_counter()
    report = run_cells(GRID, cache=None, **kwargs)
    elapsed = time.perf_counter() - start
    assert not report.failed, report.summary()
    return report, elapsed


def test_perf_warm():
    config = table1_config(SchemeKind.CHASH)
    profile = SPEC_PROFILES["gcc"]
    warmup = 200_000

    # -- fast path vs object stream, one cell's warm-up --------------------
    stream = InstructionStream(profile, 0)
    hierarchy = MemoryHierarchy(config)
    start = time.perf_counter()
    hierarchy.warm(stream.take(warmup))
    object_s = time.perf_counter() - start

    stream = InstructionStream(profile, 0)
    packed_hierarchy = MemoryHierarchy(config)
    start = time.perf_counter()
    packed_hierarchy.warm_vec(
        stream.packed(warmup, line_bytes=config.l1i.block_bytes))
    packed_s = time.perf_counter() - start

    # the speedup only counts because the state is identical
    snap, packed_snap = hierarchy.snapshot(), packed_hierarchy.snapshot()
    assert all(snap[k][:-1] == packed_snap[k][:-1]
               for k in ("l1i", "l1d", "l2", "itlb", "dtlb"))

    # -- shared vs per-cell warm-up on a timing grid -----------------------
    shared, shared_s = _timed_grid(share_warm=True)
    unshared, unshared_s = _timed_grid(share_warm=False)
    for spec in shared.results:
        assert shared.results[spec].stats == unshared.results[spec].stats

    shared_warm_s = sum(o.warm_s for o in shared.ran)
    shared_measure_s = sum(o.measure_s for o in shared.ran)

    record = {
        "packed_replay": {
            "warmup_instructions": warmup,
            "object_stream_s": round(object_s, 3),
            "packed_s": round(packed_s, 3),
            "speedup": round(object_s / packed_s, 2),
        },
        "warm_sharing": {
            "cells": len(GRID),
            "warm_groups": shared.warm_groups,
            "per_cell_warm_s": round(unshared_s, 3),
            "shared_warm_s": round(shared_s, 3),
            "grid_speedup": round(unshared_s / shared_s, 2),
            "shared_warm_time_s": round(shared_warm_s, 3),
            "shared_measure_time_s": round(shared_measure_s, 3),
        },
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(f"\nwrote {OUTPUT}: packed replay x{record['packed_replay']['speedup']}, "
          f"shared warm grid x{record['warm_sharing']['grid_speedup']}")
