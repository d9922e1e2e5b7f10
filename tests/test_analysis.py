"""Tests for the analysis tables and the experiment registry."""

import re

from repro.analysis import (
    EXPERIMENTS,
    experiment_index_markdown,
    format_table,
    ipc_table,
    metric_table,
    relative_ipc_table,
)
from repro.common import SchemeKind, table1_config
from repro.sim.results import SimResult


def fake_result(benchmark, scheme, ipc):
    cycles = 1000
    return SimResult(
        benchmark=benchmark,
        scheme=scheme,
        config=table1_config(SchemeKind(scheme) if scheme != "base"
                             else SchemeKind.BASE),
        instructions=int(ipc * cycles),
        cycles=cycles,
        stats={"l2.data_accesses": 100, "l2.data_misses": 10,
               "memory.reads": 20, "memory.bytes_total": 1280,
               "memory.read_bytes_data": 640},
    )


def fake_grid(benchmarks=("gzip", "mcf")):
    grid = {}
    for bench in benchmarks:
        grid[(bench, "base", "")] = fake_result(bench, "base", 2.0)
        grid[(bench, "chash", "")] = fake_result(bench, "chash", 1.8)
    return grid


class TestFormatTable:
    def test_contains_all_cells(self):
        text = format_table("T", ["a", "b"], [("row1", [1.0, 2.0])])
        assert "T" in text
        assert "row1" in text
        assert "1.000" in text and "2.000" in text

    def test_custom_format(self):
        text = format_table("T", ["a"], [("r", [0.123456])],
                            value_format="{:8.1f}")
        assert "0.1" in text

    def test_long_labels_stay_apart(self):
        labels = ["chash/ht=6.4", "chash", "chash/ht=1.6", "chash/ht=0.8"]
        text = format_table("T", labels, [("gzip", [1.0, 2.0, 3.0, 4.0])])
        header, rule, row = text.splitlines()[2:]
        assert header.split() == ["benchmark"] + labels
        assert len(rule) == len(header) == len(row)
        # each value ends where its label ends
        label_ends = [m.end() for m in re.finditer(r"\S+", header)]
        value_ends = [m.end() for m in re.finditer(r"\S+", row)]
        assert label_ends[1:] == value_ends[1:]

    def test_short_labels_keep_twelve_wide_columns(self):
        text = format_table("T", ["a", "b"], [("row1", [1.0, 2.0])])
        assert text.splitlines()[2] == f"{'benchmark':10s}{'a':>12s}{'b':>12s}"


class TestGridTables:
    def test_ipc_table(self):
        text = ipc_table(fake_grid(), ["base", "chash"],
                         benchmarks=["gzip", "mcf"])
        assert "gzip" in text and "mcf" in text
        assert "2.000" in text and "1.800" in text

    def test_relative_table_normalizes(self):
        text = relative_ipc_table(fake_grid(), ["chash"],
                                  benchmarks=["gzip"])
        assert "0.900" in text

    def test_metric_table(self):
        text = metric_table(fake_grid(), ["base"],
                            metric=lambda r: r.l2_data_miss_rate,
                            benchmarks=["gzip"])
        assert "0.100" in text


class TestSimResultMetrics:
    def test_ipc(self):
        assert fake_result("gzip", "base", 2.0).ipc == 2.0

    def test_miss_rate(self):
        assert fake_result("gzip", "base", 2.0).l2_data_miss_rate == 0.1

    def test_extra_reads_per_miss(self):
        result = fake_result("gzip", "chash", 1.0)
        # 20 reads total, 10 of them data (640/64), 10 misses -> 1 extra
        assert result.extra_reads_per_miss == 1.0

    def test_slowdown_and_overhead(self):
        base = fake_result("gzip", "base", 2.0)
        slow = fake_result("gzip", "chash", 1.0)
        assert slow.slowdown(base) == 2.0
        assert slow.overhead_percent(base) == 50.0

    def test_normalized_bandwidth(self):
        base = fake_result("gzip", "base", 2.0)
        other = fake_result("gzip", "chash", 1.0)
        other.stats["memory.bytes_total"] = 2560
        assert other.normalized_bandwidth(base) == 2.0

    def test_zero_division_guards(self):
        result = fake_result("gzip", "base", 2.0)
        result.stats = {}
        assert result.l2_data_miss_rate == 0.0
        assert result.extra_reads_per_miss == 0.0


class TestExperimentRegistry:
    def test_every_figure_present(self):
        for key in ("table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert key in EXPERIMENTS

    def test_bench_targets_exist(self):
        import os
        root = os.path.join(os.path.dirname(__file__), "..")
        for experiment in EXPERIMENTS.values():
            target = experiment.bench_target
            if target == "benchmarks/test_ablations.py":
                continue
            assert os.path.exists(os.path.join(root, target)), target

    def test_markdown_index(self):
        text = experiment_index_markdown()
        assert "Figure 3" in text
        assert "| Key |" in text


# --------------------------------------------------------------------------
# the perf trajectory and its ratchet
# --------------------------------------------------------------------------

class TestPerfTrajectory:
    #: tiny measurement geometry so ratchet tests run in milliseconds
    CELLS = {"chash/gzip": {"instructions": 400, "warmup": 300}}

    def test_host_fingerprint_is_short_and_stable(self):
        from repro.analysis import host_fingerprint
        first = host_fingerprint()
        assert first == host_fingerprint()
        assert len(first) == 12
        assert all(c in "0123456789abcdef" for c in first)

    def test_append_and_load_roundtrip(self, tmp_path):
        from repro.analysis import append_trajectory_row, load_trajectory
        path = str(tmp_path / "traj.json")
        row = append_trajectory_row(
            path, {"chash/gzip": {"instructions": 400, "warmup": 300,
                                  "seconds": 0.5}},
            backend="batched", host="aaaa", git_sha="sha1")
        assert row["backend"] == "batched"
        rows = load_trajectory(path)
        assert len(rows) == 1
        assert rows[0]["cells"]["chash/gzip"]["seconds"] == 0.5
        append_trajectory_row(path, {}, backend="serve-http", host="bbbb")
        assert len(load_trajectory(path)) == 2

    def test_unreadable_trajectory_is_empty(self, tmp_path):
        from repro.analysis import load_trajectory
        assert load_trajectory(str(tmp_path / "missing.json")) == []
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert load_trajectory(str(bad)) == []

    def test_baseline_filters_host_backend_and_geometry(self):
        from repro.analysis import trajectory_baseline
        cells = {"chash/gzip": {"instructions": 400, "warmup": 300}}
        mk = lambda host, backend, seconds, instructions=400: {
            "host": host, "backend": backend,
            "cells": {"chash/gzip": {"instructions": instructions,
                                     "warmup": 300, "seconds": seconds}}}
        rows = [
            mk("me", "batched", 2.0),
            mk("me", "batched", 1.0),         # the best matching row
            mk("me", "batched", 0.1, 800),    # wrong geometry: ignored
            mk("me", "retired", 0.2),         # other pipeline: ignored
            mk("other", "batched", 0.3),      # wrong host: ignored
        ]
        best = trajectory_baseline(rows, "me", "batched", cells)
        assert best == {"chash/gzip": 1.0}
        assert trajectory_baseline(rows, "nobody", "batched", cells) == {}

    def test_ratchet_seeds_a_fresh_trajectory(self, tmp_path):
        from repro.analysis import load_trajectory, ratchet_bench
        path = str(tmp_path / "traj.json")
        lines, ok = ratchet_bench(path, cells=self.CELLS, repeats=1)
        assert ok
        text = "\n".join(lines)
        assert "new baseline" in text
        assert "PASS" in text
        rows = load_trajectory(path)
        assert len(rows) == 1
        assert rows[0]["cells"]["chash/gzip"]["seconds"] > 0

    def test_ratchet_passes_against_a_slow_floor(self, tmp_path):
        from repro.analysis import (PIPELINE, append_trajectory_row,
                                    host_fingerprint, load_trajectory,
                                    ratchet_bench)
        path = str(tmp_path / "traj.json")
        append_trajectory_row(
            path, {"chash/gzip": {"instructions": 400, "warmup": 300,
                                  "seconds": 1000.0}},
            backend=PIPELINE, host=host_fingerprint())
        lines, ok = ratchet_bench(path, cells=self.CELLS, repeats=1)
        assert ok
        assert "improved" in "\n".join(lines)
        # the run appended its own (much faster) row: the new floor
        assert len(load_trajectory(path)) == 2

    def test_ratchet_fails_on_regression(self, tmp_path):
        from repro.analysis import (PIPELINE, append_trajectory_row,
                                    host_fingerprint, ratchet_bench)
        path = str(tmp_path / "traj.json")
        append_trajectory_row(
            path, {"chash/gzip": {"instructions": 400, "warmup": 300,
                                  "seconds": 1e-9}},
            backend=PIPELINE, host=host_fingerprint())
        lines, ok = ratchet_bench(path, cells=self.CELLS, repeats=1)
        assert not ok
        text = "\n".join(lines)
        assert "REGRESSION" in text
        assert "FAIL" in text

    def test_ratchet_record_false_leaves_file_alone(self, tmp_path):
        from repro.analysis import load_trajectory, ratchet_bench
        path = str(tmp_path / "traj.json")
        _lines, ok = ratchet_bench(path, cells=self.CELLS, repeats=1,
                                   record=False)
        assert ok
        assert load_trajectory(path) == []

    def test_other_hosts_rows_are_kept_not_compared(self, tmp_path):
        from repro.analysis import (PIPELINE, append_trajectory_row,
                                    ratchet_bench)
        path = str(tmp_path / "traj.json")
        # a blazing row from a different machine class must not gate us
        append_trajectory_row(
            path, {"chash/gzip": {"instructions": 400, "warmup": 300,
                                  "seconds": 1e-9}},
            backend=PIPELINE, host="somewhere-else")
        lines, ok = ratchet_bench(path, cells=self.CELLS, repeats=1)
        assert ok
        assert "new baseline" in "\n".join(lines)
