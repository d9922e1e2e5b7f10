"""Finding records and output formats for ``python -m repro check``.

Every pass emits :class:`Finding` values — one per violation, carrying a
stable rule id, the file and line, and a human message.  :data:`RULES` is
the single registry of rule ids: waiver validation, ``--list-rules`` and
the docs all read from it, so a pass cannot emit (and a waiver cannot
name) a rule that is not documented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

#: rule id -> one-line description (the full reference lives in
#: ``docs/static_analysis.md``).
RULES = {
    "det-global-random": (
        "call into the shared module-level random generator; draw from a "
        "seeded random.Random instance threaded through the constructor"
    ),
    "det-unseeded-rng": (
        "random.Random() constructed without a seed argument; results "
        "would differ across processes"
    ),
    "det-wallclock": (
        "wall-clock source (time.time, datetime.now, ...) in simulation "
        "code; only monotonic duration clocks (time.perf_counter / "
        "time.monotonic) are allowed, for cost accounting"
    ),
    "det-entropy": (
        "OS entropy source (os.urandom, secrets, uuid, SystemRandom) in "
        "simulation code"
    ),
    "det-builtin-hash": (
        "builtin hash() call; str/bytes hashes vary with PYTHONHASHSEED — "
        "use a stable hash (e.g. workloads.generators._stable_hash)"
    ),
    "det-set-iteration": (
        "iteration over a set, whose order varies with PYTHONHASHSEED; "
        "wrap in sorted(...) or restructure"
    ),
    "det-local-import": (
        "import of an RNG/entropy module inside a function body; import "
        "at module level so the dependency is visible to this checker"
    ),
    "snap-missing-field": (
        "attribute mutated on the warm path but neither captured by "
        "snapshot()/snapshot_state() nor on the counter-exclusion "
        "allowlist; warm-shared sweep cells would silently diverge"
    ),
    "snap-no-snapshot": (
        "class has warm-path entry points but no snapshot()/"
        "snapshot_state() method anywhere in its bases"
    ),
    "sym-counter-asymmetry": (
        "counter-free warm_* twin mutates a different functional-state "
        "attribute set than its counted counterpart (beyond the declared "
        "counter attributes)"
    ),
    "api-missing-method": (
        "scheme registered in repro.schemes does not implement the full "
        "SchemeAPI surface"
    ),
    "api-signature-mismatch": (
        "override signature differs from the SchemeAPI declaration "
        "(argument names, defaults, or arity)"
    ),
    "api-private-crossmodule": (
        "underscore-private method/function called across a module "
        "boundary; promote it to public API or move the caller"
    ),
    "lock-unguarded-shared": (
        "thread-shared mutable attribute accessed outside the lock that "
        "guards it elsewhere (or written with no lock at all in a "
        "lock-owning or thread-spawning class)"
    ),
    "lock-order-cycle": (
        "lock acquisition participates in a may-acquire cycle (two locks "
        "taken in opposite orders, or a non-reentrant lock re-acquired "
        "through a call chain) — a deadlock waiting for the right timing"
    ),
    "lock-blocking-call": (
        "blocking operation (HTTP round trip, thread join, subprocess, "
        "sleep, event wait) invoked while holding a lock; every other "
        "thread needing that lock stalls behind the I/O"
    ),
    "thread-unjoined": (
        "thread started but never joined on any shutdown path; daemon "
        "threads die mid-write on interpreter exit and non-daemon "
        "threads hang it"
    ),
    "waiver-missing-justification": (
        "repro-check waiver without a `-- <justification>` trailer; "
        "unjustified waivers do not suppress findings"
    ),
    "waiver-unknown-rule": (
        "repro-check waiver names a rule id that does not exist"
    ),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: where it is, which rule fired, and why."""

    path: str
    line: int
    rule: str
    message: str

    def text(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def github(self) -> str:
        """GitHub Actions workflow-command form (inline PR annotation)."""
        # the message payload must stay on one line for ::error parsing
        message = " ".join(self.message.split())
        return (f"::error file={self.path},line={self.line},"
                f"title={self.rule}::{message}")


def format_findings(findings: Iterable[Finding], fmt: str = "text") -> str:
    """Render findings for the CLI; ``fmt`` is ``text`` or ``github``."""
    rows: List[str] = []
    for finding in findings:
        rows.append(finding.github() if fmt == "github" else finding.text())
    return "\n".join(rows)
