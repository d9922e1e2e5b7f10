"""Opt-in perf smoke for the sweep engine: ``REPRO_PERF=1`` to enable.

Times one small-but-real sweep three ways — cold sequential, cold
parallel, warm from the disk cache — and writes the measurements to
``BENCH_sweep.json`` so perf regressions in the engine (or the simulator
hot paths underneath it) show up as numbers, not vibes.

Not part of the default run: wall-clock assertions are too machine-
dependent for CI, so this file only *records*; thresholds live in code
review of the JSON deltas.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.common import KB, MB, SchemeKind
from repro.sim.sweep import CellSpec, DirectoryStore, run_cells

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_PERF") != "1",
    reason="perf smoke is opt-in: set REPRO_PERF=1",
)

OUTPUT = "BENCH_sweep.json"

CELLS = [
    CellSpec(bench, scheme, l2_size=size, l2_block=64,
             instructions=4_000, warmup=4_000)
    for bench in ("gzip", "twolf", "swim")
    for scheme in (SchemeKind.BASE, SchemeKind.CHASH)
    for size in (256 * KB, 1 * MB)
]


def _timed(**kwargs):
    start = time.perf_counter()
    report = run_cells(CELLS, **kwargs)
    elapsed = time.perf_counter() - start
    assert not report.failed, report.summary()
    return report, elapsed


def test_perf_smoke(tmp_path):
    jobs = os.cpu_count() or 1

    cold_seq, cold_seq_s = _timed(jobs=1, cache=None)
    cold_par, cold_par_s = _timed(jobs=jobs, cache=None)

    cache = DirectoryStore(tmp_path / "cache", label="local")
    _timed(jobs=1, cache=cache)          # populate
    warm, warm_s = _timed(jobs=1, cache=cache)
    assert len(warm.cached) == len(CELLS)

    # warm must be dramatically cheaper than cold on any machine
    assert warm_s < cold_seq_s / 5

    # parallel must agree with sequential bit for bit
    for spec in cold_seq.results:
        assert cold_par.results[spec].cycles == cold_seq.results[spec].cycles
        assert cold_par.results[spec].stats == cold_seq.results[spec].stats

    record = {
        "cells": len(CELLS),
        "jobs": jobs,
        "cold_sequential_s": round(cold_seq_s, 3),
        "cold_parallel_s": round(cold_par_s, 3),
        "warm_s": round(warm_s, 3),
        "parallel_speedup": round(cold_seq_s / cold_par_s, 2),
        "warm_speedup": round(cold_seq_s / warm_s, 1),
        "per_cell_s": {
            outcome.spec.label(): round(outcome.elapsed_s, 3)
            for outcome in cold_seq.ran
        },
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(f"\nwrote {OUTPUT}: cold {cold_seq_s:.1f}s, "
          f"parallel {cold_par_s:.1f}s (x{record['parallel_speedup']}), "
          f"warm {warm_s:.2f}s (x{record['warm_speedup']})")
