"""Shared infrastructure for the per-figure benchmark harness.

Every figure is a grid of (benchmark, scheme, machine-variant) cells; many
figures share cells (e.g. Figure 4's miss rates come from Figure 3's
256 KB and 4 MB runs).  Cells are declared as
:class:`repro.sim.sweep.CellSpec` values, so

* session sharing uses the spec's normalized key — an explicit value equal
  to the Table 1 default can never create a duplicate cache entry, for
  *any* parameter (the spec and the on-disk fingerprint share one defaults
  table, :func:`repro.sim.sweep.cell_param_defaults`);
* results persist across harness runs in the content-addressed disk cache
  under ``.repro_cache/`` — a re-run of an unchanged figure is seconds,
  not minutes.  Prime it for all figures at once with
  ``python -m repro sweep --figure all --jobs N``.

Environment knobs:

``REPRO_BENCH_FAST=1``
    Run three representative benchmarks (gzip, twolf, swim) with shorter
    measurement windows — for smoke-testing the harness itself.
``REPRO_BENCH_CACHE=0``
    Disable the persistent disk cache (session sharing still applies).
``REPRO_CACHE_DIR=PATH``
    Put the disk cache somewhere other than ``.repro_cache/``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

import pytest

from repro.common import SchemeKind, SystemConfig
from repro.sim.results import SimResult
from repro.sim.sweep import (CellSpec, DirectoryStore, cell_fingerprint,
                             execute_cell)
from repro.workloads import BENCHMARK_ORDER

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"

BENCHMARKS = ["gzip", "twolf", "swim"] if FAST else list(BENCHMARK_ORDER)
INSTRUCTIONS = 6_000 if FAST else 12_000

CellKey = Tuple
CELL_CACHE: Dict[CellKey, SimResult] = {}

DISK_CACHE: Optional[DirectoryStore] = (
    None
    if os.environ.get("REPRO_BENCH_CACHE") == "0"
    else DirectoryStore(os.environ.get("REPRO_CACHE_DIR"), label="local")
)


def cell(
    benchmark: str,
    scheme: SchemeKind,
    l2_size: Optional[int] = None,
    l2_block: Optional[int] = None,
    hash_throughput: Optional[float] = None,
    buffer_entries: Optional[int] = None,
    blocks_per_chunk: Optional[int] = None,
    write_allocate_valid_bits: Optional[bool] = None,
) -> SimResult:
    """Run (or fetch) one simulation cell."""
    spec = CellSpec(
        benchmark, scheme,
        l2_size=l2_size, l2_block=l2_block,
        hash_throughput=hash_throughput, buffer_entries=buffer_entries,
        blocks_per_chunk=blocks_per_chunk,
        write_allocate_valid_bits=write_allocate_valid_bits,
        instructions=INSTRUCTIONS,
    ).normalized()
    key = spec.key()
    if key in CELL_CACHE:
        return CELL_CACHE[key]
    result = None
    fingerprint = None
    if DISK_CACHE is not None:
        fingerprint = cell_fingerprint(spec)
        result = DISK_CACHE.get(fingerprint)
    if result is None:
        start = time.perf_counter()
        result = execute_cell(spec)
        if DISK_CACHE is not None:
            DISK_CACHE.put(fingerprint, spec, result,
                           time.perf_counter() - start)
    CELL_CACHE[key] = result
    return result


def build_config(
    scheme: SchemeKind,
    l2_size: Optional[int] = None,
    l2_block: Optional[int] = None,
    hash_throughput: Optional[float] = None,
    buffer_entries: Optional[int] = None,
    blocks_per_chunk: Optional[int] = None,
    write_allocate_valid_bits: Optional[bool] = None,
) -> SystemConfig:
    """The config a cell with these deltas simulates (benchmark-agnostic)."""
    return CellSpec(
        "gzip", scheme,
        l2_size=l2_size, l2_block=l2_block,
        hash_throughput=hash_throughput, buffer_entries=buffer_entries,
        blocks_per_chunk=blocks_per_chunk,
        write_allocate_valid_bits=write_allocate_valid_bits,
    ).build_config()


def print_banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


@pytest.fixture(scope="session")
def bench_benchmarks():
    return BENCHMARKS
