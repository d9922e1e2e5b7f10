"""The benchmark's own checks: its definition, its output checks, exact
work counts for a seed, and its refusal to run without the program."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import metrics
import run
import servebench
import simbench
from conftest import BENCH, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: per-layer simulator metrics that are counts, so exact for a seed.
SIM_COUNTS = ("cache.l1d_misses", "cache.l2_misses", "schemes.miss_calls",
              "schemes.wb_calls", "layout.calls", "dram.bytes",
              "dram.hash_bytes", "hashengine.ops", "stats.add_calls")


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"])
                  for m in doc["end_to_end"]}
    assert end_to_end == metrics.END_TO_END
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in doc["end_to_end"])
    bounds = {name: spec[2] for name, spec in end_to_end.items()}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert end_to_end["setup_s"][:2] == ("s", "lower")
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    assert per_layer == {name: spec[:2]
                         for name, spec in metrics.PER_LAYER.items()}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [m["unit"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(UNIT.fullmatch(unit) for unit in units)


def _checker(workload):
    configs = servebench._configs(servebench.SHAPES[workload])
    patterns = {config.name: bytes(range(256)) * (config.data_bytes // 256)
                for config in configs}
    return servebench.Checker(configs, patterns, workload), patterns


def test_checker_sorts_errors_stale_bytes_and_wrong_answers():
    checker, patterns = _checker("serve-hot")
    name = "t0"
    ok = ("ok", patterns[name][:4])
    checker.op(("read", name, 0, 4), ok, ok)
    assert checker.correct()
    error = ("error", "IntegrityError")
    checker.op(("read", name, 0, 4), error, error)
    # stale bytes the library returns too: a failed op
    stale = ("ok", b"\0\0\0\0")
    checker.op(("read", name, 0, 4), stale, stale)
    # a failed write leaves its bytes unknown, so no read of them is stale
    checker.op(("write", name, 8, b"abcd"), error, error)
    checker.op(("read", name, 8, 4), ("ok", b"zzzz"), ("ok", b"zzzz"))
    checker.op(("write", name, 8, b"abcd"), ("ok", None), ("ok", None))
    # the service answering differently from the library is wrong
    checker.op(("read", name, 8, 4), ("ok", b"abcd"), ("ok", b"abce"))
    assert (checker.attempted, checker.failed, checker.stale,
            checker.wrong, checker.known) == (7, 4, 1, 1, 0)
    assert not checker.correct()


def test_every_failure_but_the_known_cold_defects_is_fatal():
    error = ("error", "IntegrityError")
    # serve-hot allows no failure on any tenant
    checker, _ = _checker("serve-hot")
    checker.op(("read", "t1", 0, 4), error, error)
    assert not checker.correct()
    # serve-cold: a false IntegrityError on chash is a known defect ...
    checker, patterns = _checker("serve-cold")
    for _ in range(99):
        ok = ("ok", patterns["t1"][:4])
        checker.op(("read", "t1", 0, 4), ok, ok)
    checker.op(("read", "t1", 0, 4), error, error)
    assert (checker.failed, checker.known, checker.correct()) == (1, 1, True)
    # ... but not on naive, and not an unexpected error kind
    for tenant, outcome in (("t0", error), ("t2", ("error", "ValueError"))):
        again, _ = _checker("serve-cold")
        again.op(("read", tenant, 0, 4), outcome, outcome)
        assert (again.failed, again.known, again.correct()) == (1, 0, False)
    # known defects past their share of the ops fail the run too
    for _ in range(3):
        checker.op(("write", "t3", 0, b"abcd"), error, error)
    assert checker.known == 4 > servebench.KNOWN_DEFECT_SHARE * 103
    assert not checker.correct()


def test_sim_oracle_check_counts_a_wrong_result():
    pairs = (("base", "gzip"),)
    _, _, states = simbench._setup(pairs, 1, simbench.Speed())
    cells = simbench._Cells(simbench.Speed())
    cells.run_round(pairs, states)
    assert simbench._count_failures(cells, states) == 0
    key = next(iter(cells.results))
    (right, count), = cells.results[key].items()
    cells.results[key] = Counter({right[:1] + (right[1] + 1,) + right[2:]:
                                  count})
    assert simbench._count_failures(cells, states) == count


def test_sim_counts_repeat_exactly_for_a_seed(monkeypatch):
    monkeypatch.setattr(simbench, "MIN_CELLS", 1)

    def counts(seed):
        result = simbench.run("sim-resident", seed, 0.01, trace=True)
        assert result["correct"]
        return {name: result["metrics"][name] for name in SIM_COUNTS}

    first = counts(3)
    assert counts(3) == first
    assert counts(4) != first


def test_serve_cold_work_repeats_exactly_for_a_seed():
    shape = servebench.SHAPES["serve-cold"]
    assert (servebench._op_lists("serve-cold", shape, 7, [40])
            != servebench._op_lists("serve-cold", shape, 8, [40]))
    first = servebench.run("serve-cold", ROOT, 7, 0.5, trace=True)
    again = servebench.run("serve-cold", ROOT, 7, 0.5, trace=True)
    other = servebench.run("serve-cold", ROOT, 8, 0.5, trace=True)
    assert set(first["work"]) == {"t0", "t1", "t2", "t3"}
    assert all(work["crypto.digests"] > 0 for work in first["work"].values())
    assert first["work"] == again["work"]
    assert (first["attempted"], first["failed"]) == (again["attempted"],
                                                     again["failed"])
    assert other["work"] != first["work"]
    assert first["correct"] and again["correct"] and other["correct"]
    # an untraced run sends the same ops, so it fails the same ones
    plain = servebench.run("serve-cold", ROOT, 7, 0.5, trace=False)
    assert (plain["attempted"], plain["failed"]) == (first["attempted"],
                                                     first["failed"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for workload in run.WORKLOADS:
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert result.returncode != 0
        assert result.stdout == ""
