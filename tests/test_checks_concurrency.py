"""Injection tests for the concurrency and ordering passes and the
route table's self-consistency check, plus the ``--baseline``
record/diff machinery.

The proof that the checks bite on the *real* sweep engine rather than
only on fixtures: mutate ``store.py`` / ``dispatch.py`` the way a
careless refactor would — delete a lock guard, add an opposite-order
acquisition, drop a handler field — and assert the checker reports
exactly the injected defect (at its exact file and line, for the
passes).
"""

import dataclasses
import inspect
from pathlib import Path

from repro.checks import (
    collect_findings,
    diff_baseline,
    load_baseline,
    record_baseline,
)
from repro.checks.findings import Finding
from repro.common.wire import check_routes
from repro.sim.sweep import CoordinatorClient, HttpStore
from repro.sim.sweep.store import STORE_ROUTES

REPO = Path(__file__).resolve().parents[1]
SWEEP = REPO / "src" / "repro" / "sim" / "sweep"
STORE_PY = SWEEP / "store.py"
DISPATCH_PY = SWEEP / "dispatch.py"


def _line_of(text: str, needle: str, last: bool = False) -> int:
    index = text.rindex(needle) if last else text.index(needle)
    return text[:index].count("\n") + 1


def _check_pair(store_path: Path, dispatch_path: Path):
    return collect_findings(paths=[store_path, dispatch_path],
                            assume_sim=True)


def _located(findings, rule):
    return {(Path(f.path).name, f.line) for f in findings
            if f.rule == rule}


class TestRealSourcesClean:
    def test_store_and_dispatch_are_clean(self):
        findings = _check_pair(STORE_PY, DISPATCH_PY)
        assert findings == [], [f.text() for f in findings]


class TestLockGuardInjection:
    """Delete the ``with self._costs_lock:`` guard from
    ``DirectoryStore.flush_costs`` and the discipline pass must flag
    every access in the now-unguarded body at its exact line."""

    def _mutate(self, tmp_path):
        source = STORE_PY.read_text()
        anchor = ("    def flush_costs(self) -> None:\n"
                  "        with self._costs_lock:\n")
        assert anchor in source, "flush_costs guard moved"
        mutated = source.replace(
            anchor,
            "    def flush_costs(self) -> None:\n"
            "        if True:\n")
        store = tmp_path / "store.py"
        store.write_text(mutated)
        dispatch = tmp_path / "dispatch.py"
        dispatch.write_text(DISPATCH_PY.read_text())
        return mutated, store, dispatch

    def test_deleted_guard_caught_at_exact_lines(self, tmp_path):
        mutated, store, dispatch = self._mutate(tmp_path)
        findings = _check_pair(store, dispatch)
        assert findings, "deleted lock guard not caught"
        assert {f.rule for f in findings} == {"lock-unguarded-shared"}
        expected = {
            ("store.py", _line_of(
                mutated,
                "if self._costs_cache is not None and self._pending_costs")),
            ("store.py", _line_of(
                mutated, "self._write_costs(self._costs_cache)", last=True)),
            ("store.py", _line_of(
                mutated, "self._pending_costs = 0", last=True)),
        }
        assert _located(findings, "lock-unguarded-shared") == expected
        # the reads name the lock that guards the writes elsewhere; the
        # write-site finding names the class as a lock owner
        assert any("_costs_lock" in f.message for f in findings)
        assert any("no lock held" in f.message for f in findings)


class TestLockOrderInjection:
    """Add a pair of probe methods that take ``_costs_lock`` and
    ``_stats_lock`` in opposite orders: the ordering pass must flag both
    inner acquisitions as an ABBA cycle."""

    _PROBES = (
        "    def _ab_probe(self):\n"
        "        with self._costs_lock:\n"
        "            with self._stats_lock:\n"
        "                self.hits += 0\n"
        "\n"
        "    def _ba_probe(self):\n"
        "        with self._stats_lock:\n"
        "            with self._costs_lock:\n"
        "                self.misses += 0\n"
        "\n"
    )

    def test_inverted_order_caught_at_exact_lines(self, tmp_path):
        source = STORE_PY.read_text()
        # two-line anchor: only DirectoryStore.flush_costs opens with
        # the costs lock (the base and tiered stores also define one)
        anchor = ("    def flush_costs(self) -> None:\n"
                  "        with self._costs_lock:\n")
        assert anchor in source
        mutated = source.replace(anchor, self._PROBES + anchor)
        store = tmp_path / "store.py"
        store.write_text(mutated)
        dispatch = tmp_path / "dispatch.py"
        dispatch.write_text(DISPATCH_PY.read_text())
        findings = _check_pair(store, dispatch)
        cycles = [f for f in findings if f.rule == "lock-order-cycle"]
        assert cycles, "inverted acquisition order not caught"
        expected = {
            ("store.py", _line_of(
                mutated,
                "with self._stats_lock:\n                self.hits += 0")),
            ("store.py", _line_of(
                mutated,
                "with self._costs_lock:\n                self.misses += 0")),
        }
        assert _located(findings, "lock-order-cycle") == expected
        assert all("cycle" in f.message for f in cycles)
        # nothing but the injected cycle fires
        assert {f.rule for f in findings} == {"lock-order-cycle"}


class TestWireFieldInjection:
    """Drop ``fresh`` from the ``/work/seed`` handler's parameters: the
    route table's self-consistency check must name the declared field
    the handler no longer takes — and nothing else."""

    def test_dropped_handler_field_caught(self):
        seed = STORE_ROUTES["seed"]
        assert "fresh" in inspect.signature(seed.handler).parameters

        def seed_without_fresh(server, groups=(), ttl_s=None):
            return seed.handler(server, groups, ttl_s)

        routes = {**STORE_ROUTES,
                  "seed": dataclasses.replace(seed,
                                              handler=seed_without_fresh)}
        problems = check_routes(routes, [HttpStore, CoordinatorClient])
        assert len(problems) == 1, problems
        assert "'fresh'" in problems[0] and problems[0].startswith("seed:")
        assert check_routes(STORE_ROUTES, [HttpStore,
                                           CoordinatorClient]) == []


class TestBaseline:
    def _finding(self, line=10, rule="det-wallclock", message="m"):
        return Finding("src/x.py", line, rule, message)

    def test_record_then_diff_is_clean(self, tmp_path):
        path = tmp_path / "base.json"
        findings = [self._finding(), self._finding(line=20, message="n")]
        assert record_baseline(findings, path) == 2
        new, stale = diff_baseline(findings, path)
        assert new == [] and stale == []

    def test_new_finding_fails_diff(self, tmp_path):
        path = tmp_path / "base.json"
        record_baseline([self._finding()], path)
        extra = self._finding(line=30, rule="lock-unguarded-shared",
                              message="fresh defect")
        new, stale = diff_baseline([self._finding(), extra], path)
        assert new == [extra] and stale == []

    def test_fixed_finding_reported_stale(self, tmp_path):
        path = tmp_path / "base.json"
        record_baseline([self._finding()], path)
        new, stale = diff_baseline([], path)
        assert new == []
        assert stale == [("src/x.py", "det-wallclock", "m")]

    def test_line_shift_does_not_resurrect(self, tmp_path):
        """Matching is (path, rule, message) — unrelated edits that move
        a baselined finding up or down must not flag it as new."""
        path = tmp_path / "base.json"
        record_baseline([self._finding(line=10)], path)
        new, _stale = diff_baseline([self._finding(line=99)], path)
        assert new == []

    def test_load_ignores_malformed_entries(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"version": 1, "findings": '
                        '[{"path": "a", "rule": "r", "message": "m"}, 7]}')
        assert load_baseline(path) == {("a", "r", "m")}
