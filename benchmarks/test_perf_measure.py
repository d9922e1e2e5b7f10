"""Opt-in perf measurement of the measured path: ``REPRO_PERF=1``.

Times one cell's *measured suffix* — restore the shared warm state and
run the core's analytic schedule over it — through the simulator's two
pipelines:

* **object** — the per-``Instruction`` oracle (``REPRO_MEASURE=object``):
  materialize objects, schedule one by one.
* **fast** — the batched fast path: the measured suffix replays from the
  :meth:`WarmState.measured_chunks` trace cache (generation paid once
  per warm state, as in a real sweep where many cells and repeats share
  it) and schedules through ``run_vec`` — a per-chunk prepass
  precomputes every row's fetch-line and memory latency so the
  ring-buffer loop touches only scalars.  Its seconds are recorded as
  ``kernels_fallback_s``, the column committed baselines already carry
  for this path, which ``python -m repro bench --compare`` reads.

Two sections are recorded:

* **machinery** — workloads whose footprint sits comfortably inside the
  2 MB L2 (gzip/vpr/twolf, ≤ 1 MB), so the suffix machinery — trace
  handling and the scheduling loop — dominates the cell.  The headline
  geomeans are computed over these cells on both the base machine and
  the paper's cached-tree scheme.  Within them, the ``resident`` subset
  (gzip) is the cells whose suffix stays essentially L1-resident: there
  the fast path's win is undiluted.  vpr/twolf carry ~5 % genuine L1
  misses whose hierarchy walk both pipelines execute identically
  (Amdahl).
* **end_to_end** — the memory-bound identity benchmarks (gcc/mcf/swim
  under chash).  There the hash-tree walk bounds the achievable gain,
  so these rows are context, not the headline.

Timing uses ``time.process_time`` (CPU time) with the GC paused: the
suffix is pure compute, and CPU time is robust against the scheduler
noise of shared CI machines.  Thresholds are too machine-dependent to
assert here — this test *records* ``BENCH_measure.json`` (committed as
the baseline) and ``python -m repro bench --compare BENCH_measure.json``
gates regressions against it — but it does assert the bit-identity
between the two pipelines that makes the speedups legitimate.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time

import pytest

from repro.analysis import (PIPELINE, TRAJECTORY_DEFAULT,
                            append_trajectory_row)
from repro.common import SchemeKind, table1_config
from repro.sim.system import (
    MEASURE_PATH_ENV,
    prepare_warm_state,
    run_from_warm_state,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_PERF") != "1",
    reason="perf smoke is opt-in: set REPRO_PERF=1",
)

OUTPUT = "BENCH_measure.json"

#: L2-resident integer workloads (footprint <= 1 MB): the measured
#: suffix, not the memory system, is the bottleneck.
MACHINERY_BENCHMARKS = ("gzip", "vpr", "twolf")
MACHINERY_SCHEMES = (SchemeKind.BASE, SchemeKind.CHASH)
#: the machinery cells whose suffix is essentially L1-resident — the
#: undiluted fast-path measurement (see module docstring).
RESIDENT_BENCHMARKS = ("gzip",)
#: one profile per access pattern, memory-bound under chash: context rows.
END_TO_END_BENCHMARKS = ("gcc", "mcf", "swim")
INSTRUCTIONS = 400_000
WARMUP = 50_000
REPEATS = 5


def _timed(config, bench, state, repeats=REPEATS):
    """Best-of-N CPU time of the current pipeline's measured suffix."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        start = time.process_time()
        result = run_from_warm_state(config, bench, state,
                                     instructions=INSTRUCTIONS)
        best = min(best, time.process_time() - start)
        gc.enable()
    return result, best


def _timed_object(config, bench, state):
    os.environ[MEASURE_PATH_ENV] = "object"
    try:
        return _timed(config, bench, state, repeats=2)
    finally:
        del os.environ[MEASURE_PATH_ENV]


def _cell(config, bench):
    """One cell's per-pipeline times, with bit-identity asserted."""
    state = prepare_warm_state(config, bench, warmup=WARMUP)
    by_object, object_s = _timed_object(config, bench, state)
    by_fast, fast_s = _timed(config, bench, state)

    # the speedup only counts because the results are identical
    assert by_fast.cycles == by_object.cycles
    assert by_fast.instructions == by_object.instructions
    assert by_fast.stats == by_object.stats

    return {
        "instructions": INSTRUCTIONS,
        "warmup": WARMUP,
        "object_path_s": round(object_s, 3),
        "kernels_fallback_s": round(fast_s, 3),
        "vs_object": round(object_s / fast_s, 2),
    }


def _geomean(values):
    return round(
        pow(2.0, sum(math.log2(v) for v in values) / len(values)), 2)


def test_perf_measure(monkeypatch):
    monkeypatch.delenv(MEASURE_PATH_ENV, raising=False)
    machinery = {}
    end_to_end = {}
    for scheme in MACHINERY_SCHEMES:
        config = table1_config(scheme)
        for bench in MACHINERY_BENCHMARKS:
            machinery[f"{scheme.value}/{bench}"] = _cell(config, bench)
    chash = table1_config(SchemeKind.CHASH)
    for bench in END_TO_END_BENCHMARKS:
        end_to_end[f"chash/{bench}"] = _cell(chash, bench)

    resident = [cell["vs_object"] for key, cell in machinery.items()
                if key.split("/")[1] in RESIDENT_BENCHMARKS]
    record = {
        "machinery": machinery,
        "end_to_end": end_to_end,
        "summary": {
            "machinery_vs_object_geomean": _geomean(
                [c["vs_object"] for c in machinery.values()]),
            "resident_vs_object_geomean": _geomean(resident),
            "machinery_min_vs_object": min(
                c["vs_object"] for c in machinery.values()),
            "end_to_end_vs_object_geomean": _geomean(
                [c["vs_object"] for c in end_to_end.values()]),
        },
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    # every REPRO_PERF=1 run also feeds the perf-trajectory ratchet: the
    # fast path's times land as one row under this host's PIPELINE label,
    # so `python -m repro bench --ratchet` tightens against the best of them
    append_trajectory_row(
        TRAJECTORY_DEFAULT,
        {key: {"instructions": INSTRUCTIONS, "warmup": WARMUP,
               "seconds": cell["kernels_fallback_s"]}
         for key, cell in {**machinery, **end_to_end}.items()},
        backend=PIPELINE,
    )

    summary = record["summary"]
    print(f"\nwrote {OUTPUT}: fast path vs object "
          f"x{summary['machinery_vs_object_geomean']} (geomean; resident "
          f"x{summary['resident_vs_object_geomean']}), "
          + ", ".join(f"{k} x{v['vs_object']}" for k, v in machinery.items()))
