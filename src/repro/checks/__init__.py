"""``repro.checks`` — the AST-based static-analysis gate.

Six passes over ``src/repro/`` prove the invariants the sweep cache,
warm-state sharing and the distributed layer depend on:

1. determinism lint (no ambient randomness/clock/hash-seed sensitivity),
2. snapshot completeness (every warm-path mutation captured or
   allowlisted),
3. counter symmetry (warm twins mutate the same functional state as
   their counted counterparts),
4. scheme-API conformance (registry classes implement the full
   ``TimingScheme`` surface; no cross-module private calls),
5. lock discipline (thread-shared mutable attributes only touched under
   the lock that owns them),
6. lock ordering (no acquisition cycles, no blocking calls under a
   lock, no unjoined threads).

The HTTP protocols need no pass: both servers and their clients are
built from one route table (:mod:`repro.common.wire`), whose
self-consistency check :func:`~repro.common.wire.check_routes` runs in
the test suite.

The :mod:`.tsan` module is the runtime twin of passes 5–6: with
``REPRO_TSAN=1`` the sweep engine's locks are instrumented and guard /
ordering violations are recorded while the real test suite runs.

Run it with ``python -m repro check``; see ``docs/static_analysis.md``.
"""

from .baseline import diff_baseline, load_baseline, record_baseline
from .concurrency import build_class_model, check_lock_discipline
from .conformance import check_conformance
from .determinism import SIM_SCOPES, check_determinism
from .findings import Finding, RULES, format_findings
from .ordering import check_lock_ordering
from .runner import (
    build_index, collect_findings, default_root, fixtures_root,
    run_passes, run_selftest,
)
from .snapshots import SNAPSHOT_ALLOWLIST, check_snapshots
from .symmetry import COUNTER_ATTRS, check_symmetry
from .waivers import apply_waivers, scan_waivers

__all__ = [
    "COUNTER_ATTRS",
    "Finding",
    "RULES",
    "SIM_SCOPES",
    "SNAPSHOT_ALLOWLIST",
    "apply_waivers",
    "build_class_model",
    "build_index",
    "check_conformance",
    "check_determinism",
    "check_lock_discipline",
    "check_lock_ordering",
    "check_snapshots",
    "check_symmetry",
    "collect_findings",
    "default_root",
    "diff_baseline",
    "fixtures_root",
    "format_findings",
    "load_baseline",
    "record_baseline",
    "run_passes",
    "run_selftest",
    "scan_waivers",
]
