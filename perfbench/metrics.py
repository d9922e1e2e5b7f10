"""Metric names, units and directions; ``BENCHMARK.json`` mirrors them.

Every workload prints every metric.  A per-layer metric of a layer the
workload does not run (a simulator layer on a service workload, or the
reverse) reads 0.  Per-layer seconds are self time, per measured
instruction (``/instr``) on the simulator and per operation (``/op``) on
the service.  ``moves`` names the end-to-end metric a change to the
layer should move.

No latency tail is gated: on a shared 2-CPU host the service's open-loop
p90 spread by 0.28-0.34 over ten seeds (quartile distance over median)
and its p99 by 0.4-0.5, past the largest bound a metric may have, while
its median spread by 0.08-0.13.  Every run prints its tail percentiles,
with their sample counts, on its ``#`` lines.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "throughput": ("1/s", "higher", 0.25),
    "lat_p50_ms": ("ms", "lower", 0.25),
    "ok_frac": ("frac", "higher", 0.03),
}

#: name -> (unit, better, end-to-end metric it should move)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "workloads.gen_s": ("s/instr", "lower", "throughput, setup_s"),
    "cpu.run_s": ("s/instr", "lower", "throughput"),
    "kernels.s": ("s/instr", "lower", "throughput"),
    "cache.s": ("s/instr", "lower", "throughput, setup_s"),
    "cache.l1d_misses": ("1/instr", "lower", "throughput"),
    "cache.l2_misses": ("1/instr", "lower", "throughput"),
    "schemes.s": ("s/instr", "lower", "throughput"),
    "schemes.miss_calls": ("1/instr", "lower", "throughput"),
    "schemes.wb_calls": ("1/instr", "lower", "throughput"),
    "layout.calls": ("1/instr", "lower", "throughput"),
    "layout.s": ("s/instr", "lower", "throughput"),
    "dram.s": ("s/instr", "lower", "throughput"),
    "dram.bytes": ("B/instr", "lower", "throughput"),
    "dram.hash_bytes": ("B/instr", "lower", "throughput"),
    "hashengine.s": ("s/instr", "lower", "throughput"),
    "hashengine.ops": ("1/instr", "lower", "throughput"),
    "stats.add_calls": ("1/instr", "lower", "throughput"),
    "system.restore_s": ("s/instr", "lower", "throughput"),
    "sim.other_s": ("s/instr", "lower", "throughput, lat_p50_ms"),
    "loadgen.late_p99_ms": ("ms", "lower", "none: generator validity"),
    "loadgen.backlog_growth_ms": ("ms", "lower", "none: generator validity"),
    "loadgen.open_loop_valid": ("bool", "higher", "none: generator validity"),
    "service.total_s": ("s/op", "lower", "throughput, lat_p50_ms"),
    "service.self_s": ("s/op", "lower", "throughput, lat_p50_ms"),
    "batch.wait_s": ("s/op", "lower", "lat_p50_ms"),
    "batch.combine_rate": ("frac", "higher", "lat_p50_ms"),
    "verifier.self_s": ("s/op", "lower", "lat_p50_ms"),
    "tree.self_s": ("s/op", "lower", "throughput"),
    "tree.cache_hit_rate": ("frac", "higher", "throughput"),
    "tree.evictions": ("1/op", "lower", "throughput"),
    "crypto.s": ("s/op", "lower", "throughput"),
    "crypto.digests": ("1/op", "lower", "throughput"),
    "memory.reads": ("1/op", "lower", "throughput"),
    "memory.read_bytes": ("B/op", "lower", "throughput"),
    "memory.write_bytes": ("B/op", "lower", "throughput"),
    "trace.overhead_frac": ("frac", "lower", "none: tracing cost"),
}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def result_object(result: dict, trace: bool) -> dict:
    """The benchmark's last output line: every metric of one kind."""
    table = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(table))
    if unknown:
        raise ValueError(f"metrics missing from metrics.py: {unknown}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": spec[0]}
                    for name, spec in table.items()},
    }
