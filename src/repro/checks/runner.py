"""Driver for ``python -m repro check``: build the index, run the
passes, apply waivers, and self-test against the seeded fixtures.

Every source file is parsed exactly once (into the shared
:class:`~repro.checks.astutils.ProjectIndex`) and every pass runs over
that one index; ``--verbose`` prints a per-pass timing line so a pass
that regresses the gate's speed is visible."""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .astutils import ProjectIndex, iter_py_files, load_module
from .concurrency import check_lock_discipline
from .conformance import check_conformance
from .determinism import check_determinism
from .findings import Finding
from .ordering import check_lock_ordering
from .snapshots import check_snapshots
from .symmetry import check_symmetry
from .waivers import apply_waivers, scan_waivers

#: directories never scanned by the default run: the fixtures contain
#: violations on purpose, and the checker does not lint itself.
EXCLUDED_DIRS = ("checks", "fixtures", "__pycache__")


def default_root() -> Path:
    """The ``src/repro`` package directory this module lives in."""
    return Path(__file__).resolve().parents[1]


def fixtures_root() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def build_index(root: Optional[Path] = None,
                paths: Optional[Sequence[Path]] = None,
                exclude: Sequence[str] = EXCLUDED_DIRS) -> ProjectIndex:
    root = root or default_root()
    if paths is None:
        paths = iter_py_files(root, exclude)
    return ProjectIndex([load_module(p, root) for p in paths])


def run_passes(index: ProjectIndex,
               assume_sim: bool = False,
               timings: Optional[List[Tuple[str, float]]] = None
               ) -> List[Finding]:
    passes: List[Tuple[str, Callable[[], List[Finding]]]] = [
        ("determinism",
         lambda: check_determinism(index, assume_sim=assume_sim)),
        ("snapshots", lambda: check_snapshots(index)),
        ("symmetry", lambda: check_symmetry(index)),
        ("conformance", lambda: check_conformance(index)),
        ("lock-discipline", lambda: check_lock_discipline(index)),
        ("lock-ordering", lambda: check_lock_ordering(index)),
    ]
    findings: List[Finding] = []
    for name, run in passes:
        started = time.perf_counter()
        findings.extend(run())
        if timings is not None:
            timings.append((name, time.perf_counter() - started))

    suppressions: Dict[str, Dict[int, Set[str]]] = {}
    for module in index.modules.values():
        waived, waiver_findings = scan_waivers(module.display, module.lines)
        suppressions[module.display] = waived
        findings.extend(waiver_findings)
    return sorted(apply_waivers(findings, suppressions))


def collect_findings(root: Optional[Path] = None,
                     paths: Optional[Sequence[Path]] = None,
                     assume_sim: bool = False,
                     timings: Optional[List[Tuple[str, float]]] = None
                     ) -> List[Finding]:
    """The whole checker: every pass over the tree (or given files)."""
    started = time.perf_counter()
    index = build_index(root=root, paths=paths)
    if timings is not None:
        timings.append(("parse+index", time.perf_counter() - started))
    return run_passes(index, assume_sim=assume_sim, timings=timings)


# -- self-test against the seeded fixtures ---------------------------------------

_EXPECT_RE = re.compile(r"#\s*expect:\s*([\w,\- ]+)")


def _expected_findings(index: ProjectIndex) -> Set[Tuple[str, int, str]]:
    expected: Set[Tuple[str, int, str]] = set()
    for module in index.modules.values():
        for lineno, line in enumerate(module.lines, start=1):
            match = _EXPECT_RE.search(line)
            if match is None:
                continue
            for rule in match.group(1).split(","):
                rule = rule.strip()
                if rule:
                    expected.add((module.path.name, lineno, rule))
    return expected


def run_selftest() -> Tuple[bool, List[str]]:
    """Check the fixture files and compare against their ``# expect:``
    annotations — exact (file, line, rule) triples, no extras allowed."""
    root = fixtures_root()
    paths = iter_py_files(root, ("__pycache__",))
    index = ProjectIndex([load_module(p, root) for p in paths])
    findings = run_passes(index, assume_sim=True)
    triples = [(Path(f.path).name, f.line, f.rule) for f in findings]
    actual = set(triples)
    expected = _expected_findings(index)

    report: List[str] = []
    duplicates = sorted(t for t in actual if triples.count(t) > 1)
    for name, line, rule in duplicates:
        report.append(f"DUPLICATE  {name}:{line}: [{rule}] "
                      "reported more than once")
    missing = sorted(expected - actual)
    unexpected = sorted(actual - expected)
    for name, line, rule in missing:
        report.append(f"MISSING    {name}:{line}: [{rule}] "
                      "expected but not reported")
    for name, line, rule in unexpected:
        report.append(f"UNEXPECTED {name}:{line}: [{rule}] "
                      "reported but not expected")
    ok = not missing and not unexpected and not duplicates
    detail = (f"{len(missing)} missing, {len(unexpected)} unexpected, "
              f"{len(duplicates)} duplicated")
    report.append(
        f"selftest: {len(expected)} expected findings over "
        f"{len(paths)} fixture files -> {'OK' if ok else detail}"
    )
    return ok, report
