"""Simulator workloads: warm once per (scheme, benchmark), measure many cells.

Every cell goes through the simulator's public entry points only:
:func:`repro.sim.system.prepare_warm_state` builds one warm state per
pair (this is the set-up), and :func:`run_from_warm_state` measures the
suffix at each of two Figure-6 hash throughputs.  Each round starts from
a fresh :class:`WarmState` over the same snapshot, so the first cell of a
pair regenerates the measured trace and the second reuses it through
``WarmState.measured_chunks``, as every figure grid does.

After the timed window, each distinct cell is run once more with
``REPRO_MEASURE=object`` (the per-instruction oracle) on the same warm
state; a cell fails if it raised or if its cycles or any statistic differ
from the oracle's, and any failed cell makes the run incorrect.

Host times are scaled to the reference host by the probe taken before
each round and around each set-up (see :mod:`hostspeed`).
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import time
from collections import Counter
from typing import Dict, List, Tuple

from repro.common.config import SchemeKind, table1_config
from repro.sim.sweep.figures import FIG6_THROUGHPUTS
from repro.sim.system import (MEASURE_PATH_ENV, WarmState,
                              prepare_warm_state, run_from_warm_state)

import layers
from hostspeed import Speed
from metrics import percentile

#: (scheme, benchmark) pairs per workload; see BENCHMARK.json for why.
PAIRS = {
    "sim-resident": (("base", "gzip"), ("chash", "gzip"), ("chash", "twolf")),
    "sim-missheavy": (("chash", "mcf"), ("ihash", "swim")),
}

#: two of Figure 6's hash throughputs (GB/s), measured from one warm state.
THROUGHPUTS = FIG6_THROUGHPUTS[1:3]

#: measured instructions per cell, as in the figure benchmarks.
INSTRUCTIONS = 12_000

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"sim-resident": 3, "sim-missheavy": 2}

#: cells per run at least, so the printed latency p90 has ten beyond it.
MIN_CELLS = 100


def _config(scheme: str, throughput: float):
    config = table1_config(SchemeKind(scheme))
    engine = dataclasses.replace(config.hash_engine,
                                 throughput_gb_per_s=throughput)
    return dataclasses.replace(config, hash_engine=engine)


def _fresh(state: WarmState) -> WarmState:
    """The same warm state with an empty measured-trace cache."""
    return WarmState(profile=state.profile, warmup=state.warmup,
                     seed=state.seed, protected_bytes=state.protected_bytes,
                     snapshot=state.snapshot, stream_state=state.stream_state)


def _fingerprint(result) -> Tuple:
    return (result.instructions, result.cycles,
            tuple(sorted(result.stats.items())))


def _setup(pairs, seed: int, speed: Speed) -> Tuple[
        float, float, Dict[Tuple[str, str], WarmState]]:
    """Warm every pair; returns raw seconds, seconds scaled to the
    reference host by probes just before and after, and the states."""
    states = {}
    before = speed.probe()
    start = time.perf_counter()
    for scheme, benchmark in pairs:
        states[(scheme, benchmark)] = prepare_warm_state(
            _config(scheme, THROUGHPUTS[0]), benchmark, seed=seed)
    elapsed = time.perf_counter() - start
    return elapsed, elapsed * (before + speed.probe()) / 2, states


class _Cells:
    """Timed cells of one run: host times and result fingerprints.

    The host is probed before each round; a round's rate and its cells'
    latencies are scaled to the reference host by that probe.
    """

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        #: cell key -> wall seconds of each of its cells, raw and scaled
        self.wall: Dict[Tuple, List[float]] = {}
        self.scaled: Dict[Tuple, List[float]] = {}
        #: per round: (measured instructions, CPU seconds, probe factor)
        self.rounds: List[Tuple[int, float, float]] = []
        self.cells = 0
        self.cpu = 0.0
        self.instructions = 0
        self.attempted = 0
        self.raised: List[str] = []
        #: cell key -> result fingerprint -> cells that produced it
        self.results: Dict[Tuple, Counter] = {}
        self.totals: Dict[str, float] = {}

    def run_round(self, pairs, states) -> None:
        factor = self.speed.probe()
        instructions, cpu = self.instructions, self.cpu
        for scheme, benchmark in pairs:
            state = _fresh(states[(scheme, benchmark)])
            for throughput in THROUGHPUTS:
                key = (scheme, benchmark, throughput)
                config = _config(scheme, throughput)
                self.attempted += 1
                cpu0 = time.process_time()
                wall0 = time.perf_counter()
                try:
                    result = run_from_warm_state(config, benchmark, state,
                                                 instructions=INSTRUCTIONS)
                except Exception as error:  # noqa: BLE001 - counted
                    self.raised.append(f"{key}: {type(error).__name__}: "
                                       f"{error}")
                    continue
                finally:
                    wall = time.perf_counter() - wall0
                    self.wall.setdefault(key, []).append(wall)
                    self.scaled.setdefault(key, []).append(wall * factor)
                    self.cells += 1
                    self.cpu += time.process_time() - cpu0
                self.instructions += result.instructions
                self.results.setdefault(key, Counter())[
                    _fingerprint(result)] += 1
                for name, value in result.stats.items():
                    self.totals[name] = self.totals.get(name, 0) + value
        self.rounds.append((self.instructions - instructions,
                            self.cpu - cpu, factor))

    def throughput(self, scaled: bool = True) -> float:
        """Median over rounds of measured instructions per CPU second."""
        return statistics.median(
            n / cpu / (factor if scaled else 1.0)
            for n, cpu, factor in self.rounds if cpu)

    def latency_ms(self, scaled: bool = True) -> Tuple[float, float]:
        """(median over cell kinds of each kind's median cell time, and
        the p90 of all cells), in milliseconds.

        Cell kinds differ in cost by design, so the median of all cells
        would sit on the boundary between two kinds and jump between
        them from run to run; the median of the kinds' medians does not.
        """
        walls = self.scaled if scaled else self.wall
        kinds = [statistics.median(times) for times in walls.values()]
        every = sorted(w for times in walls.values() for w in times)
        return (statistics.median(kinds) * 1e3,
                percentile(every, 0.9) * 1e3)


def _run_until(cells: _Cells, pairs, states, seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or cells.cells < MIN_CELLS:
        cells.run_round(pairs, states)


def _count_failures(cells: _Cells, states) -> int:
    """Failed cells: those that raised, and those whose result differs
    from the object-path oracle on the same warm state."""
    saved = os.environ.get(MEASURE_PATH_ENV)
    os.environ[MEASURE_PATH_ENV] = "object"
    wrong = 0
    try:
        for key, seen in sorted(cells.results.items()):
            scheme, benchmark, throughput = key
            oracle = run_from_warm_state(
                _config(scheme, throughput), benchmark,
                _fresh(states[(scheme, benchmark)]),
                instructions=INSTRUCTIONS)
            expected = _fingerprint(oracle)
            bad = sum(n for got, n in seen.items() if got != expected)
            if bad:
                wrong += bad
                print(f"# MISMATCH {key}: {bad} cell(s) differ from the "
                      f"object-path oracle")
    finally:
        if saved is None:
            del os.environ[MEASURE_PATH_ENV]
        else:
            os.environ[MEASURE_PATH_ENV] = saved
    for line in cells.raised[:5]:
        print(f"# RAISED {line}")
    return len(cells.raised) + wrong


def _layer_metrics(tracer, cells: _Cells) -> Dict[str, float]:
    per = 1.0 / max(cells.instructions, 1)
    spans = tracer.layers()
    counts = tracer.counts
    totals = cells.totals

    def self_s(layer: str) -> float:
        return spans.get(layer, {}).get("self_s", 0.0) * per

    def stat_sum(prefix: str, suffix: str) -> float:
        return sum(value for name, value in totals.items()
                   if name.startswith(prefix) and name.endswith(suffix))

    traced = sum(entry["self_s"] for entry in spans.values())
    wall = sum(sum(walls) for walls in cells.wall.values())
    return {
        "workloads.gen_s": self_s("workloads"),
        "cpu.run_s": self_s("cpu"),
        "kernels.s": self_s("kernels"),
        "cache.s": self_s("cache"),
        "cache.l1d_misses": stat_sum("l1d.", "_misses") * per,
        "cache.l2_misses": stat_sum("l2.", "_misses") * per,
        "schemes.s": self_s("schemes"),
        "schemes.miss_calls": counts["schemes.miss_calls"] * per,
        "schemes.wb_calls": counts["schemes.wb_calls"] * per,
        "layout.calls": spans.get("layout", {}).get("calls", 0) * per,
        "layout.s": self_s("layout"),
        "dram.s": self_s("dram"),
        "dram.bytes": totals.get("memory.bytes_total", 0) * per,
        "dram.hash_bytes": stat_sum("memory.", "_bytes_hash") * per,
        "hashengine.s": self_s("hashengine"),
        "hashengine.ops": counts["hashengine.ops"] * per,
        "stats.add_calls": counts["stats.add_calls"] * per,
        "system.restore_s": self_s("system.restore"),
        "sim.other_s": (wall - traced) * per,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pairs = PAIRS[workload]
    speed = Speed()
    if trace:
        return _run_traced(workload, pairs, seed, seconds, speed)
    setups, raw_setups = [], []
    states = {}
    for _ in range(SETUP_REPEATS[workload]):
        raw, scaled, states = _setup(pairs, seed, speed)
        raw_setups.append(raw)
        setups.append(scaled)
    cells = _Cells(speed)
    _run_until(cells, pairs, states, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = _count_failures(cells, states)
    lat_p50_ms, lat_p90_ms = cells.latency_ms()
    raw_p50_ms, raw_p90_ms = cells.latency_ms(scaled=False)
    lines = [
        f"# {workload}: {cells.attempted} cells ({len(pairs)} pairs x "
        f"{len(THROUGHPUTS)} throughputs x {len(cells.rounds)} rounds), "
        f"{cells.instructions} measured instructions",
        f"# throughput: median of {len(cells.rounds)} rounds; lat_p50: "
        f"median of {len(cells.wall)} cell kinds' medians; cell latency "
        f"p90 over {cells.cells} cells {lat_p90_ms:.2f} ms",
        f"# host speed factor {speed.factor():.3f} (median of "
        f"{len(speed.samples)} probes); raw: setup_s "
        f"{[round(value, 3) for value in raw_setups]}, throughput "
        f"{cells.throughput(scaled=False):.0f}/s, lat_p50 {raw_p50_ms:.2f} "
        f"ms, p90 {raw_p90_ms:.2f} ms",
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "throughput": cells.throughput(),
        "lat_p50_ms": lat_p50_ms,
        "ok_frac": 1 - failed / cells.attempted,
    }
    return {"attempted": cells.attempted, "failed": failed,
            "correct": failed == 0, "metrics": metrics, "lines": lines}


def _run_traced(workload: str, pairs, seed: int, seconds: float,
                speed: Speed) -> dict:
    """Half the window untraced, half traced; per-layer from the second."""
    _, _, states = _setup(pairs, seed, speed)
    plain = _Cells(speed)
    _run_until(plain, pairs, states, seconds / 2)
    tracer = layers.install_sim()
    traced = _Cells(speed)
    try:
        _run_until(traced, pairs, states, seconds / 2)
    finally:
        tracer.uninstall()
    failed = (_count_failures(plain, states)
              + _count_failures(traced, states))
    attempted = plain.attempted + traced.attempted
    metrics = _layer_metrics(tracer, traced)
    metrics["trace.overhead_frac"] = (plain.throughput()
                                      / traced.throughput() - 1)
    lines = [f"# {workload} traced: {traced.attempted} traced cells, "
             f"{plain.attempted} untraced cells"]
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0, "metrics": metrics, "lines": lines}
