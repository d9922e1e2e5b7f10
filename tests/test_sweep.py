"""The sweep engine: cells, fingerprints, disk cache, parallel runner.

Every test here runs tiny cells (hundreds of instructions, short warm-up)
so the whole file is a fast smoke path through the real engine — cold run,
cache write, warm run, parallel fan-out — on every pytest invocation.
"""

import dataclasses
import json
import multiprocessing
import os
import threading

import pytest

from repro.common import KB, MB, SchemeKind, SystemConfig
from repro.sim.sweep import (
    CACHE_SCHEMA_VERSION,
    CELL_PARAMS,
    CellSpec,
    CostModel,
    DirectoryStore,
    HttpStore,
    TieredStore,
    WorkQueue,
    cell_fingerprint,
    cell_param_defaults,
    config_from_dict,
    config_to_dict,
    execute_cell,
    execute_group,
    figure_cells,
    make_store_server,
    open_store,
    resolve_jobs,
    result_from_dict,
    result_to_dict,
    results_grid,
    run_cells,
    warm_fingerprint,
)
from repro.sim.sweep.store import entry_for

# small enough that a cell takes tens of milliseconds
TINY = dict(instructions=400, warmup=300)


def tiny(benchmark="gzip", scheme=SchemeKind.CHASH, **overrides):
    params = {**TINY, **overrides}
    return CellSpec(benchmark, scheme, **params)


def assert_same_result(a, b):
    assert a.cycles == b.cycles
    assert a.stats == b.stats
    assert a.instructions == b.instructions
    assert a.benchmark == b.benchmark
    assert a.scheme == b.scheme


# --------------------------------------------------------------------------
# CellSpec normalization — the shared defaults table
# --------------------------------------------------------------------------

class TestNormalization:
    def test_defaults_table_matches_config(self):
        base = SystemConfig()
        defaults = cell_param_defaults()
        assert defaults["l2_size"] == base.l2.size_bytes
        assert defaults["l2_block"] == base.l2.block_bytes
        assert defaults["l1i_block"] == base.l1i.block_bytes
        assert defaults["hash_throughput"] == base.hash_engine.throughput_gb_per_s
        assert defaults["buffer_entries"] == base.hash_engine.read_buffer_entries
        assert defaults["blocks_per_chunk"] == base.blocks_per_chunk
        assert defaults["write_allocate_valid_bits"] == base.write_allocate_valid_bits
        assert set(defaults) == set(CELL_PARAMS)

    @pytest.mark.parametrize("param", CELL_PARAMS)
    def test_explicit_default_collapses_for_every_param(self, param):
        # the old benchmark-harness normalization only covered three of the
        # six parameters; the shared table must cover them all
        value = cell_param_defaults()[param]
        spec = tiny(**{param: value})
        assert spec.normalized() == tiny()
        assert spec.key() == tiny().key()

    def test_false_valued_default_would_collapse_symmetrically(self):
        # regression guard for the `is True` asymmetry: normalization must
        # key off the *table*, not a hard-coded truthy sentinel
        default = cell_param_defaults()["write_allocate_valid_bits"]
        spec = tiny(write_allocate_valid_bits=default)
        assert spec.normalized().write_allocate_valid_bits is None
        other = tiny(write_allocate_valid_bits=not default)
        assert other.normalized().write_allocate_valid_bits == (not default)

    def test_non_default_values_survive(self):
        spec = tiny(l2_size=256 * KB, blocks_per_chunk=4)
        normalized = spec.normalized()
        assert normalized.l2_size == 256 * KB
        assert normalized.blocks_per_chunk == 4

    def test_build_config_equal_for_equivalent_spellings(self):
        explicit = tiny(l2_size=cell_param_defaults()["l2_size"])
        assert explicit.build_config() == tiny().build_config()

    def test_l1i_block_reaches_the_built_config(self):
        config = tiny(l1i_block=64).build_config()
        assert config.l1i.block_bytes == 64
        base = tiny().build_config()
        assert config.l1i.size_bytes == base.l1i.size_bytes
        assert config.l1i.associativity == base.l1i.associativity

    def test_label_is_compact(self):
        spec = tiny(l2_size=256 * KB, l2_block=128)
        assert spec.label() == "gzip/chash/l2=256K/blk=128"


# --------------------------------------------------------------------------
# fingerprints
# --------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_calls(self):
        assert cell_fingerprint(tiny()) == cell_fingerprint(tiny())

    def test_equivalent_spellings_hash_identically(self):
        defaults = cell_param_defaults()
        explicit = tiny(l2_size=defaults["l2_size"],
                        hash_throughput=defaults["hash_throughput"])
        assert cell_fingerprint(explicit) == cell_fingerprint(tiny())

    @pytest.mark.parametrize("change", [
        dict(benchmark="twolf"),
        dict(scheme=SchemeKind.BASE),
        dict(l2_size=256 * KB),
        dict(l2_block=128),
        dict(l1i_block=64),
        dict(hash_throughput=0.8),
        dict(buffer_entries=4),
        dict(blocks_per_chunk=4),
        dict(write_allocate_valid_bits=False),
        dict(instructions=401),
        dict(warmup=301),
        dict(seed=1),
    ])
    def test_any_parameter_change_changes_fingerprint(self, change):
        base = tiny()
        benchmark = change.pop("benchmark", base.benchmark)
        scheme = change.pop("scheme", base.scheme)
        changed = dataclasses.replace(
            base, benchmark=benchmark, scheme=scheme, **change
        )
        assert cell_fingerprint(changed) != cell_fingerprint(base)

    def test_config_roundtrips_through_dict(self):
        config = tiny(l2_size=256 * KB, blocks_per_chunk=2,
                      scheme=SchemeKind.MHASH).build_config()
        assert config_from_dict(config_to_dict(config)) == config


# --------------------------------------------------------------------------
# the warm fingerprint — which cells may share a warm-up
# --------------------------------------------------------------------------

class TestWarmFingerprint:
    def test_stable_and_spelling_insensitive(self):
        defaults = cell_param_defaults()
        explicit = tiny(l2_size=defaults["l2_size"],
                        hash_throughput=defaults["hash_throughput"])
        assert warm_fingerprint(tiny()) == warm_fingerprint(tiny())
        assert warm_fingerprint(explicit) == warm_fingerprint(tiny())

    @pytest.mark.parametrize("change", [
        dict(hash_throughput=0.8),
        dict(buffer_entries=4),
        dict(instructions=800),
    ])
    def test_timing_only_changes_share_a_warm_key(self, change):
        # fig6 (throughput), fig7 (buffer depth) and measurement-window
        # sweeps redo identical warm-ups — that is the whole point
        assert (warm_fingerprint(dataclasses.replace(tiny(), **change))
                == warm_fingerprint(tiny()))

    @pytest.mark.parametrize("change", [
        dict(benchmark="twolf"),
        dict(scheme=SchemeKind.BASE),
        dict(l2_size=256 * KB),
        dict(l2_block=128),
        dict(l1i_block=64),
        dict(write_allocate_valid_bits=False),
        dict(warmup=301),
        dict(seed=1),
    ])
    def test_state_affecting_changes_split_warm_keys(self, change):
        base = tiny()
        benchmark = change.pop("benchmark", base.benchmark)
        scheme = change.pop("scheme", base.scheme)
        changed = dataclasses.replace(
            base, benchmark=benchmark, scheme=scheme, **change
        )
        assert warm_fingerprint(changed) != warm_fingerprint(base)

    def test_blocks_per_chunk_matters_only_when_tree_uses_it(self):
        # mhash's tree layout depends on the chunk geometry; chash ignores
        # blocks_per_chunk entirely, and base has no tree at all
        for scheme in (SchemeKind.CHASH, SchemeKind.BASE):
            assert (warm_fingerprint(tiny(scheme=scheme, blocks_per_chunk=4))
                    == warm_fingerprint(tiny(scheme=scheme)))
        assert (warm_fingerprint(tiny(scheme=SchemeKind.MHASH,
                                      blocks_per_chunk=4))
                != warm_fingerprint(tiny(scheme=SchemeKind.MHASH)))

    def test_default_warmup_resolves_before_hashing(self):
        # warmup=None and the explicitly resolved count must collide
        from repro.sim.system import default_warmup
        resolved = default_warmup(tiny().build_config())
        assert (warm_fingerprint(tiny(warmup=None))
                == warm_fingerprint(tiny(warmup=resolved)))


# --------------------------------------------------------------------------
# the disk cache
# --------------------------------------------------------------------------

class TestDiskCache:
    def test_roundtrip_returns_equal_result(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        spec = tiny()
        result = execute_cell(spec)
        fingerprint = cell_fingerprint(spec)
        cache.put(fingerprint, spec, result, 0.05)
        restored = cache.get(fingerprint)
        assert_same_result(restored, result)
        assert restored.config == result.config
        assert cache.hits == 1 and len(cache) == 1

    def test_result_serialization_roundtrip(self):
        result = execute_cell(tiny())
        assert_same_result(result_from_dict(result_to_dict(result)), result)

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_logged_miss(self, tmp_path, caplog):
        cache = DirectoryStore(tmp_path)
        fingerprint = cell_fingerprint(tiny())
        cache.path_for(fingerprint).parent.mkdir(exist_ok=True)
        cache.path_for(fingerprint).write_text("{not json at all")
        with caplog.at_level("WARNING"):
            assert cache.get(fingerprint) is None
        assert "unreadable cache entry" in caplog.text

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        cache.put(fingerprint, spec, execute_cell(spec), 0.0)
        path = cache.path_for(fingerprint)
        path.write_text(path.read_text()[: 40])
        assert cache.get(fingerprint) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        cache.put(fingerprint, spec, execute_cell(spec), 0.0)
        path = cache.path_for(fingerprint)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get(fingerprint) is None

    def test_embedded_fingerprint_mismatch_is_a_miss(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        cache.put(fingerprint, spec, execute_cell(spec), 0.0)
        other = "f" * 64
        cache.path_for(fingerprint).rename(cache.path_for(other))
        assert cache.get(other) is None


# --------------------------------------------------------------------------
# the runner — the engine's fast smoke path, exercised on every test run
# --------------------------------------------------------------------------

class TestRunner:
    CELLS = [
        tiny("gzip", SchemeKind.BASE),
        tiny("gzip", SchemeKind.CHASH),
        tiny("twolf", SchemeKind.CHASH, l2_size=256 * KB),
    ]

    def test_cold_then_warm_sweep(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        cold = run_cells(self.CELLS, cache=cache)
        assert len(cold.ran) == 3 and not cold.cached and not cold.failed
        warm = run_cells(self.CELLS, cache=cache)
        assert len(warm.cached) == 3 and not warm.ran
        for spec in cold.results:
            assert_same_result(warm.results[spec], cold.results[spec])
        assert "3 cached" in warm.summary()

    def test_fresh_bypasses_reads_but_overwrites(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        run_cells(self.CELLS, cache=cache)
        fresh = run_cells(self.CELLS, cache=cache, fresh=True)
        assert len(fresh.ran) == 3 and not fresh.cached
        warm = run_cells(self.CELLS, cache=cache)
        assert len(warm.cached) == 3

    def test_no_cache_runs_everything(self, tmp_path):
        report = run_cells(self.CELLS, cache=None)
        assert len(report.ran) == 3
        assert not list(tmp_path.iterdir())

    def test_duplicate_and_equivalent_cells_run_once(self):
        default_l2 = cell_param_defaults()["l2_size"]
        cells = [tiny(), tiny(), tiny(l2_size=default_l2)]
        report = run_cells(cells)
        assert len(report.outcomes) == 1

    def test_parallel_matches_sequential_bit_for_bit(self):
        sequential = run_cells(self.CELLS, jobs=1)
        parallel = run_cells(self.CELLS, jobs=4)
        assert sequential.results.keys() == parallel.results.keys()
        for spec in sequential.results:
            assert_same_result(parallel.results[spec],
                               sequential.results[spec])

    def test_failed_cell_is_isolated(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        cells = [tiny(), tiny(benchmark="no-such-benchmark")]
        report = run_cells(cells, cache=cache)
        assert len(report.ran) == 1
        assert len(report.failed) == 1
        assert report.failed[0].error
        assert "FAILED" in report.summary()
        # the failure is not cached
        assert len(cache) == 1

    def test_progress_callback_sees_every_cell(self):
        seen = []
        run_cells(self.CELLS, progress=lambda outcome: seen.append(outcome))
        assert len(seen) == 3

    def test_results_grid_keys(self):
        report = run_cells(self.CELLS)
        grid = results_grid(report, variant_params=("l2_size",))
        assert ("gzip", "base", None) in grid
        assert ("twolf", "chash", 256 * KB) in grid


# --------------------------------------------------------------------------
# warm-state sharing in the runner
# --------------------------------------------------------------------------

class TestWarmSharing:
    #: a fig6/fig7-style slice: one warm key, four timing variants
    TIMING_CELLS = [
        tiny(),
        tiny(hash_throughput=0.8),
        tiny(buffer_entries=4),
        tiny(hash_throughput=1.6, buffer_entries=2),
    ]

    def test_shared_matches_unshared_bit_for_bit(self):
        shared = run_cells(self.TIMING_CELLS, share_warm=True)
        unshared = run_cells(self.TIMING_CELLS, share_warm=False)
        assert shared.warm_groups == 1
        assert unshared.warm_groups == 0
        assert shared.results.keys() == unshared.results.keys()
        for spec in shared.results:
            assert_same_result(shared.results[spec], unshared.results[spec])

    def test_shared_parallel_matches_sequential(self):
        sequential = run_cells(self.TIMING_CELLS, jobs=1)
        parallel = run_cells(self.TIMING_CELLS, jobs=4)
        # jobs=4 splits the single warm group to keep workers busy...
        assert parallel.warm_groups > sequential.warm_groups
        # ...without changing a single bit of any result
        for spec in sequential.results:
            assert_same_result(parallel.results[spec],
                               sequential.results[spec])

    def test_exactly_one_warm_per_group(self):
        report = run_cells(self.TIMING_CELLS, share_warm=True)
        warmed = [o for o in report.ran if o.warm_s > 0]
        assert len(warmed) == 1
        assert all(o.measure_s > 0 for o in report.ran)
        assert "warm-up" in report.summary()
        assert "1 shared group" in report.summary()

    def test_execute_group_rows_match_execute_cell(self):
        rows = execute_group(self.TIMING_CELLS)
        assert [spec for spec, *_ in rows] == self.TIMING_CELLS
        for spec, result, _elapsed, _warm, _measure, error in rows:
            assert error is None
            assert_same_result(result, execute_cell(spec))

    def test_group_warm_failure_fails_every_cell(self):
        rows = execute_group([tiny(benchmark="no-such-benchmark"),
                              tiny(benchmark="also-missing")])
        assert all(result is None for _spec, result, *_rest in rows)
        assert all(row[-1] for row in rows)

    def test_failed_cell_isolated_within_group(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        cells = [tiny(), tiny(benchmark="no-such-benchmark")]
        report = run_cells(cells, cache=cache)
        assert len(report.ran) == 1 and len(report.failed) == 1
        assert len(cache) == 1


# --------------------------------------------------------------------------
# figure grids
# --------------------------------------------------------------------------

class TestFigures:
    def test_fig3_shape(self):
        cells = figure_cells("fig3", benchmarks=["gzip"])
        assert len(cells) == 3 * 2 * 3  # sizes x blocks x schemes
        assert all(cell.benchmark == "gzip" for cell in cells)

    def test_full_grid_counts(self):
        # 9 benchmarks each: fig3=18, fig4=4, fig5=3, fig6=4, fig7=6, fig8=5
        for figure, per_bench in [("fig3", 18), ("fig4", 4), ("fig5", 3),
                                  ("fig6", 4), ("fig7", 6), ("fig8", 5)]:
            assert len(figure_cells(figure)) == per_bench * 9, figure

    def test_figures_share_cells_after_dedupe(self):
        cells = figure_cells("all", benchmarks=["gzip"])
        unique = {cell.normalized() for cell in cells}
        # fig4 and fig5 are pure fig3 subsets; fig6/7/8 share their 1MB
        # chash column with fig3
        assert len(unique) < len(cells)

    def test_unknown_figure_raises(self):
        with pytest.raises(ValueError, match="unknown figure"):
            figure_cells("fig99")


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

class TestCli:
    def test_sweep_command(self, tmp_path, capsys):
        from repro.__main__ import main
        argv = ["sweep", "--figure", "fig5", "--benchmarks", "gzip",
                "--instructions", "400", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fig5: IPC" in out
        assert "3 run, 0 cached" in out
        # warm re-run hits the cache for every cell
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 run, 3 cached" in out

    def test_sweep_reports_warm_measure_split(self, tmp_path, capsys):
        from repro.__main__ import main
        argv = ["sweep", "--figure", "fig5", "--benchmarks", "gzip",
                "--instructions", "400", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # per-cell lines carry the split; the summary totals it
        assert "warm" in out and "measure" in out
        assert "shared group" in out

    def test_sweep_no_warm_share_flag(self, tmp_path, capsys):
        from repro.__main__ import main
        argv = ["sweep", "--figure", "fig5", "--benchmarks", "gzip",
                "--instructions", "400", "--cache-dir", str(tmp_path),
                "--no-warm-share"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 run, 0 cached" in out
        assert "shared group" not in out


# --------------------------------------------------------------------------
# the tiered store — local L1, shared L2
# --------------------------------------------------------------------------

def tiered(tmp_path):
    """A fresh TieredStore with distinct local and shared directories."""
    local = DirectoryStore(tmp_path / "local")
    shared = DirectoryStore(tmp_path / "shared", label="shared")
    return TieredStore(local, shared)


class TestTieredStore:
    def test_put_writes_both_tiers(self, tmp_path):
        store = tiered(tmp_path)
        spec = tiny()
        store.put(cell_fingerprint(spec), spec, execute_cell(spec), 0.05)
        assert len(store.local) == 1
        assert len(store.shared) == 1

    def test_l2_hit_hydrates_l1(self, tmp_path):
        store = tiered(tmp_path)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        result = execute_cell(spec)
        # populate only the shared tier, as another host would have
        store.shared.put(fingerprint, spec, result, 0.05)
        assert len(store.local) == 0
        fetched = store.fetch(fingerprint)
        assert fetched.tier == "shared"
        assert_same_result(fetched.result, result)
        # the hit was hydrated: the next fetch never leaves this host
        assert len(store.local) == 1
        assert store.fetch(fingerprint).tier == "local"

    def test_corrupt_shared_entry_degrades_to_miss(self, tmp_path, caplog):
        store = tiered(tmp_path)
        fingerprint = cell_fingerprint(tiny())
        store.shared.root.mkdir(parents=True)
        store.shared.path_for(fingerprint).write_text("{not json at all")
        with caplog.at_level("WARNING"):
            assert store.get(fingerprint) is None
        assert "unreadable cache entry" in caplog.text
        assert store.misses == 1
        assert len(store.local) == 0  # nothing bad was hydrated

    def test_truncated_shared_entry_degrades_to_miss(self, tmp_path):
        store = tiered(tmp_path)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        store.shared.put(fingerprint, spec, execute_cell(spec), 0.0)
        path = store.shared.path_for(fingerprint)
        path.write_text(path.read_text()[: 40])
        assert store.get(fingerprint) is None
        assert len(store.local) == 0

    def test_schema_mismatched_shared_entry_degrades_to_miss(self, tmp_path):
        store = tiered(tmp_path)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        store.shared.put(fingerprint, spec, execute_cell(spec), 0.0)
        path = store.shared.path_for(fingerprint)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(fingerprint) is None

    def test_second_sweep_against_populated_shared_runs_nothing(self,
                                                                tmp_path):
        cells = TestRunner.CELLS
        # host A populates the shared store...
        host_a = tiered(tmp_path / "a")
        shared_root = host_a.shared.root
        cold = run_cells(cells, cache=host_a)
        assert len(cold.ran) == 3
        # ...host B (cold local cache, same shared store) runs zero cells
        host_b = TieredStore(DirectoryStore(tmp_path / "b-local"),
                             DirectoryStore(shared_root, label="shared"))
        warm = run_cells(cells, cache=host_b)
        assert not warm.ran and len(warm.cached) == 3
        assert warm.cached_by_tier() == {"shared": 3}
        for spec in cold.results:
            assert_same_result(warm.results[spec], cold.results[spec])
        # every hit was hydrated into B's local tier...
        assert len(host_b.local) == 3
        # ...so a third sweep is pure L1
        third = run_cells(cells, cache=host_b)
        assert third.cached_by_tier() == {"local": 3}

    def test_bit_identity_across_tiers_and_jobs(self, tmp_path):
        cells = TestRunner.CELLS + TestWarmSharing.TIMING_CELLS
        baseline = run_cells(cells, jobs=1,
                             cache=DirectoryStore(tmp_path / "plain"))
        stolen = run_cells(cells, jobs=4, cache=tiered(tmp_path))
        assert baseline.results.keys() == stolen.results.keys()
        for spec in baseline.results:
            assert_same_result(stolen.results[spec], baseline.results[spec])

    def test_summary_reports_tier_split(self, tmp_path):
        store = tiered(tmp_path)
        spec = tiny()
        store.shared.put(cell_fingerprint(spec), spec, execute_cell(spec),
                         0.05)
        report = run_cells([spec, tiny(seed=9)], cache=store)
        summary = report.summary()
        assert "0 local (L1) hits" in summary
        assert "1 shared (L2) hits" in summary
        assert "1 misses" in summary

    def test_cost_history_merges_tiers(self, tmp_path):
        store = tiered(tmp_path)
        spec = tiny()
        store.put(cell_fingerprint(spec), spec, execute_cell(spec), 2.0)
        merged = store.cost_history()
        # the same cell was costed in both tiers; the merge sums them
        assert merged["gzip/chash"]["cells"] == 2
        assert merged["gzip/chash"]["total_s"] == pytest.approx(4.0)

    def test_open_store_picks_transport(self, tmp_path):
        assert isinstance(open_store(str(tmp_path)), DirectoryStore)
        assert isinstance(open_store("http://127.0.0.1:1"), HttpStore)
        assert isinstance(open_store("https://example.test/x"), HttpStore)


# --------------------------------------------------------------------------
# concurrent writers and failure cleanup
# --------------------------------------------------------------------------

def _hammer_store(root, fingerprint, entry, start, rounds=25):
    """Child-process body: race ``rounds`` writes of the same entry."""
    store = DirectoryStore(root)
    start.wait(timeout=10)
    for _ in range(rounds):
        store.write_entry(fingerprint, entry)


class TestConcurrentWriters:
    def test_racing_puts_leave_a_valid_entry(self, tmp_path):
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        result = execute_cell(spec)
        entry = entry_for(fingerprint, spec, result, 0.05)
        context = multiprocessing.get_context("fork")
        start = context.Event()
        writers = [
            context.Process(target=_hammer_store,
                            args=(tmp_path, fingerprint, entry, start))
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        start.set()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        # both writers survived and a reader sees one valid entry...
        store = DirectoryStore(tmp_path)
        assert_same_result(store.get(fingerprint), result)
        assert len(store) == 1
        # ...with no half-written temporary droppings left behind
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_failed_replace_cleans_up_tmp(self, tmp_path, monkeypatch,
                                          caplog):
        store = DirectoryStore(tmp_path)
        spec = tiny()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with caplog.at_level("WARNING"):
            store.put(cell_fingerprint(spec), spec, execute_cell(spec), 0.0)
        assert "could not write cache entry" in caplog.text
        monkeypatch.undo()
        # neither the entry nor its temporary file exists afterwards
        assert list(tmp_path.iterdir()) == []

    def test_tmp_names_are_unique_per_write(self, tmp_path, monkeypatch):
        store = DirectoryStore(tmp_path)
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        spec = tiny()
        result = execute_cell(spec)
        for _ in range(3):
            store.put(cell_fingerprint(spec), spec, result, 0.0)
        tmp_names = [name for name in seen if ".tmp-" in name]
        assert len(tmp_names) >= 3
        assert len(set(tmp_names)) == len(tmp_names)


# --------------------------------------------------------------------------
# pruning
# --------------------------------------------------------------------------

class TestPrune:
    def _populate(self, root):
        store = DirectoryStore(root)
        spec = tiny()
        store.put(cell_fingerprint(spec), spec, execute_cell(spec), 0.0)
        # a dropping from a killed writer, and a corrupt entry
        (root / ("e" * 64 + ".json.tmp-deadhost-1-0")).write_text("partial")
        (root / ("f" * 64 + ".json")).write_text("{broken")
        return store

    def test_prune_removes_droppings_and_bad_entries(self, tmp_path):
        store = self._populate(tmp_path)
        report = store.prune()
        assert report.removed == 2
        assert report.kept == 1
        assert report.reclaimed_bytes > 0
        assert "pruned 2 file(s)" in report.summary()
        # the good entry survived and still reads back
        assert len(store) == 1
        assert store.get(cell_fingerprint(tiny())) is not None

    def test_tmp_only_prune_keeps_bad_entries(self, tmp_path):
        store = self._populate(tmp_path)
        report = store.prune(remove_entries=False)
        assert report.removed == 1  # just the dropping
        assert (tmp_path / ("f" * 64 + ".json")).exists()
        assert not list(tmp_path.glob("*.tmp*"))
        assert report.kept == 2

    def test_costs_sidecar_is_not_an_entry(self, tmp_path):
        store = DirectoryStore(tmp_path)
        spec = tiny()
        store.put(cell_fingerprint(spec), spec, execute_cell(spec), 1.5)
        assert (tmp_path / "_costs.json").exists()
        # the sidecar is neither counted nor pruned
        assert len(store) == 1
        store.prune()
        assert (tmp_path / "_costs.json").exists()


# --------------------------------------------------------------------------
# the HTTP store pair — stdlib coordinator + client
# --------------------------------------------------------------------------

@pytest.fixture()
def store_server(tmp_path):
    server = make_store_server(tmp_path / "served", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestHttpStore:
    def test_roundtrip_and_miss(self, store_server):
        client = HttpStore(store_server)
        spec = tiny()
        fingerprint = cell_fingerprint(spec)
        assert client.get(fingerprint) is None
        assert client.misses == 1
        result = execute_cell(spec)
        client.put(fingerprint, spec, result, 0.05)
        assert_same_result(client.get(fingerprint), result)
        assert client.hits == 1

    def test_tiered_sweep_over_http(self, tmp_path, store_server):
        cells = TestRunner.CELLS
        host_a = TieredStore(DirectoryStore(tmp_path / "a"),
                             HttpStore(store_server))
        cold = run_cells(cells, cache=host_a)
        assert len(cold.ran) == 3
        host_b = TieredStore(DirectoryStore(tmp_path / "b"),
                             HttpStore(store_server))
        warm = run_cells(cells, cache=host_b)
        assert not warm.ran and warm.cached_by_tier() == {"shared": 3}
        for spec in cold.results:
            assert_same_result(warm.results[spec], cold.results[spec])

    def test_server_rejects_invalid_put(self, store_server, caplog):
        client = HttpStore(store_server)
        fingerprint = cell_fingerprint(tiny())
        bad = {"schema": CACHE_SCHEMA_VERSION + 1, "fingerprint": fingerprint}
        with caplog.at_level("WARNING"):
            client.submit_entry(fingerprint, bad)  # logged, never raised
        assert "could not write cache entry" in caplog.text
        assert client.get(fingerprint) is None  # nothing was poisoned

    def test_cost_history_over_http(self, store_server):
        client = HttpStore(store_server)
        spec = tiny()
        client.put(cell_fingerprint(spec), spec, execute_cell(spec), 2.5)
        history = client.cost_history()
        assert history["gzip/chash"]["cells"] == 1
        assert history["gzip/chash"]["total_s"] == pytest.approx(2.5)

    def test_unreachable_server_is_a_miss(self, caplog):
        client = HttpStore("http://127.0.0.1:9", timeout=0.5)
        spec = tiny()
        with caplog.at_level("WARNING"):
            assert client.get(cell_fingerprint(spec)) is None
        assert client.misses == 1
        assert "unreadable cache entry" in caplog.text
        # writes degrade the same way: logged, not raised
        client.put(cell_fingerprint(spec), spec, execute_cell(spec), 0.0)


# --------------------------------------------------------------------------
# cost model + work-stealing queue
# --------------------------------------------------------------------------

class TestSchedule:
    HISTORY = {
        "gzip/chash": {"total_s": 4.0, "cells": 2},    # 2.0 s/cell
        "twolf/chash": {"total_s": 12.0, "cells": 2},  # 6.0 s/cell
    }

    def test_cost_model_averages_history(self):
        model = CostModel(self.HISTORY)
        assert model.cell_cost(tiny()) == pytest.approx(2.0)
        assert model.cell_cost(tiny("twolf")) == pytest.approx(6.0)
        # unseen families get the global mean, in this machine's units
        assert model.cell_cost(tiny("mcf")) == pytest.approx(4.0)

    def test_cost_model_without_history_is_uniform(self):
        model = CostModel()
        assert model.cell_cost(tiny()) == model.cell_cost(tiny("twolf"))

    def test_cost_model_from_store_after_a_sweep(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        run_cells(TestRunner.CELLS, cache=cache)
        model = CostModel.from_store(cache)
        assert "gzip/base" in model.history
        assert "gzip/chash" in model.history
        assert all(cost > 0 for cost in model.history.values())

    def test_queue_dispatches_costliest_group_first(self):
        cheap, costly = [tiny()], [tiny("twolf")]
        queue = WorkQueue([cheap, costly], CostModel(self.HISTORY))
        assert queue.take(1) == costly
        assert queue.take(1) == cheap
        assert queue.take(1) is None
        assert queue.dispatched == 2 and queue.splits == 0

    def test_queue_splits_to_feed_idle_workers(self):
        cells = TestWarmSharing.TIMING_CELLS
        queue = WorkQueue([list(cells)])
        first = queue.take(4)  # 4 idle workers, 1 group: must split
        assert queue.splits >= 1
        dispatched = list(first)
        while True:
            group = queue.take(4)
            if group is None:
                break
            dispatched.extend(group)
        # splits shuffle grouping, never membership
        assert sorted(dispatched, key=str) == sorted(cells, key=str)

    def test_queue_never_splits_singletons(self):
        queue = WorkQueue([[tiny()], [tiny(seed=1)]])
        assert queue.take(8) is not None
        assert queue.take(8) is not None
        assert queue.take(8) is None
        assert queue.splits == 0

    def test_queue_dispatch_is_deterministic(self):
        def labels():
            queue = WorkQueue([list(TestWarmSharing.TIMING_CELLS),
                               [tiny(seed=9)], [tiny("twolf")]],
                              CostModel(self.HISTORY))
            sequence = []
            while True:
                group = queue.take(3)
                if group is None:
                    return sequence
                sequence.append([spec.label() for spec in group])
        assert labels() == labels()

    def test_sweep_reports_steals(self, tmp_path):
        report = run_cells(TestWarmSharing.TIMING_CELLS, jobs=4,
                           cache=DirectoryStore(tmp_path))
        assert report.steals >= 1
        assert "work stealing" in report.summary()

    def test_resolve_jobs(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(1) == 1
        assert resolve_jobs(-3) == 1
        assert run_cells([tiny()], jobs=0).jobs == (os.cpu_count() or 1)


# --------------------------------------------------------------------------
# CLI: stores, pruning, auto jobs
# --------------------------------------------------------------------------

class TestCliStore:
    def test_sweep_store_flag_pools_hosts(self, tmp_path, capsys):
        from repro.__main__ import main
        shared = tmp_path / "pool"
        base = ["sweep", "--figure", "fig5", "--benchmarks", "gzip",
                "--instructions", "400", "--store", str(shared)]
        assert main(base + ["--cache-dir", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "3 run, 0 cached" in out
        # a second host (cold local cache) is satisfied entirely by L2
        assert main(base + ["--cache-dir", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "0 run, 3 cached" in out
        assert "3 shared (L2) hits" in out
        assert "[cached L2 shared]" in out

    def test_sweep_reads_store_env(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "pool"))
        argv = ["sweep", "--figure", "fig5", "--benchmarks", "gzip",
                "--instructions", "400", "--cache-dir", str(tmp_path / "a")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "pool") in out  # the store counters name it

    def test_sweep_jobs_zero_means_auto(self, tmp_path, capsys):
        from repro.__main__ import main
        argv = ["sweep", "--figure", "fig5", "--benchmarks", "gzip",
                "--instructions", "400", "--cache-dir", str(tmp_path),
                "--jobs", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"({os.cpu_count() or 1} jobs)" in out

    def test_sweep_prune_tmp_flag(self, tmp_path, capsys):
        from repro.__main__ import main
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / ("e" * 64 + ".json.tmp-deadhost-1-0")).write_text("junk")
        argv = ["sweep", "--figure", "fig5", "--benchmarks", "gzip",
                "--instructions", "400", "--cache-dir", str(cache_dir),
                "--prune-tmp"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pruned 1 tmp dropping(s)" in out
        assert not list(cache_dir.glob("*.tmp*"))

    def test_cache_prune_command(self, tmp_path, capsys):
        from repro.__main__ import main
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / ("e" * 64 + ".json.tmp-deadhost-1-0")).write_text("junk")
        (cache_dir / ("f" * 64 + ".json")).write_text("{broken")
        assert main(["cache", "prune", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 file(s)" in out
        assert not list(cache_dir.iterdir())
