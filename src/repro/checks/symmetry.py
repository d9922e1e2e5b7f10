"""Counter-symmetry checker — pass 3 of ``python -m repro check``.

Warm-up replays through counter-free twins of the hot-path methods:
``warm_access``/``access``, ``warm_fill``/``fill``,
``_warm_l1_miss``/``_l1_miss``, ...  The twins exist purely to skip
statistics bookkeeping, so they must perform the *same functional state
transitions* as their counted counterparts — otherwise a warmed cache is
not the cache the measured run would have produced, and the fast warm
path and the object warm path silently diverge.

The same discipline covers the fast path's twins: ``run_vec`` must
drive the hierarchy and core state exactly like ``run``, ``warm_vec``
like ``warm``, and ``take_packed`` must advance the generator exactly
like ``take`` —
anything less and the fast path stops being bit-identical to the object
oracle.

The pass pairs methods by naming convention (``warm_X`` ↔ ``X``,
``_warm_X`` ↔ ``_X``, ``X_packed`` ↔ ``X`` and ``X_vec`` ↔ ``X``; a
method without a twin is skipped), computes
each side's mutated-attribute set over its same-class call closure,
subtracts the declared counter attributes, and flags any remaining
difference.
"""

from __future__ import annotations

from typing import List

from .astutils import ProjectIndex, closure_mutations
from .findings import Finding

#: statistics-only attributes the counted path may touch and the warm
#: path may not (or vice versa) without breaking functional symmetry.
COUNTER_ATTRS = frozenset({"stats", "_counters", "_kind_keys"})


def _twin_names(name: str) -> List[str]:
    """Candidate counted-twin names for ``name``, most specific first.

    ``warm_access`` pairs with ``access``; ``_warm_l1_miss`` with
    ``_l1_miss``; ``take_packed`` with ``take``; ``run_vec`` with
    ``run``.
    ``warm_vec`` yields both ``vec`` (via the prefix rule) and ``warm``
    (via the suffix rule) — whichever exists on the class wins.
    """
    candidates: List[str] = []
    if name.startswith("warm_"):
        candidates.append(name[len("warm_"):])
    elif name.startswith("_warm_"):
        candidates.append("_" + name[len("_warm_"):])
    if name.endswith("_packed") and len(name) > len("_packed"):
        candidates.append(name[:-len("_packed")])
    if name.endswith("_vec") and len(name) > len("_vec"):
        candidates.append(name[:-len("_vec")])
    return [c for c in candidates if c and c != name]


def check_symmetry(index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    for cls in index.classes():
        # pair only methods defined directly on this class: inherited
        # pairs are checked on the defining class
        for warm_name, warm_fn in sorted(cls.methods.items()):
            twin = next((c for c in _twin_names(warm_name)
                         if index.find_method(cls, c) is not None), "")
            if not twin:
                continue  # orchestrator without a counted twin
            warm_set = set(closure_mutations(index, cls, [warm_name]))
            counted_set = set(closure_mutations(index, cls, [twin]))
            warm_only = sorted((warm_set - counted_set) - COUNTER_ATTRS)
            counted_only = sorted((counted_set - warm_set) - COUNTER_ATTRS)
            if not warm_only and not counted_only:
                continue
            details = []
            if counted_only:
                details.append(
                    f"{twin} also mutates {{{', '.join(counted_only)}}}")
            if warm_only:
                details.append(
                    f"{warm_name} also mutates {{{', '.join(warm_only)}}}")
            findings.append(Finding(
                cls.module.display, warm_fn.lineno, "sym-counter-asymmetry",
                f"{cls.name}.{warm_name} and {cls.name}.{twin} mutate "
                f"different functional state: {'; '.join(details)} "
                "(beyond the declared counter attributes)",
            ))
    return findings
