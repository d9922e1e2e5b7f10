"""Determinism lint — pass 1 of ``python -m repro check``.

Simulation results must be bit-identical across processes, worker
counts, and ``PYTHONHASHSEED`` values; the sweep cache and warm-state
sharing (PRs 1–2) silently corrupt figures otherwise.  This pass bans
the ambient nondeterminism sources at the AST level:

* ``det-global-random`` — ``random.random()`` and friends share one
  process-global Mersenne Twister; draws must come from a seeded
  ``random.Random`` instance threaded through constructors.
* ``det-unseeded-rng`` — ``random.Random()`` with no seed argument.
* ``det-wallclock`` — ``time.time``/``datetime.now`` etc.; monotonic
  duration clocks (``perf_counter``, ``monotonic``) stay legal because
  the sweep runner uses them for cost accounting that never reaches a
  ``SimResult``.
* ``det-entropy`` — ``os.urandom``, ``secrets``, ``uuid.uuid1/4``,
  ``random.SystemRandom``.
* ``det-builtin-hash`` — builtin ``hash()``; str/bytes hashes vary
  with ``PYTHONHASHSEED``.
* ``det-set-iteration`` — ``for``-loops and comprehensions over values
  the pass can see are sets; iteration order varies with the hash seed.
  ``sorted(...)`` wrappers are naturally exempt (the loop iterates the
  list).
* ``det-local-import`` — ``import random`` inside a function hides the
  dependency from this checker; imports of RNG/entropy modules must be
  module-level.

Scope: only *simulation* packages are linted (``SIM_SCOPES``); crypto
key generation legitimately wants OS entropy and the analysis/report
layer may format timestamps.  Fixture runs pass ``assume_sim=True``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .astutils import ModuleInfo, ProjectIndex, dotted_parts
from .findings import Finding

#: first path segment under ``src/repro/`` that makes a file sim code.
SIM_SCOPES = {
    "cache", "cpu", "dram", "hashengine", "kernels", "schemes", "sim",
    "workloads", "common", "analysis",
}

#: banned wall-clock attributes of the ``time`` module.
_WALLCLOCK_TIME = {
    "time", "time_ns", "ctime", "localtime", "gmtime", "asctime",
    "strftime", "mktime",
}
#: banned ``datetime.datetime`` / ``datetime.date`` constructors.
_WALLCLOCK_DATETIME = {"now", "today", "utcnow", "fromtimestamp"}

#: ``random`` module functions drawing from the shared global generator.
_GLOBAL_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "triangular", "vonmisesvariate", "getrandbits",
    "randbytes", "seed", "setstate", "getstate",
}

_ENTROPY_MODULES = {"secrets"}
_LOCAL_IMPORT_BAN = {"random", "secrets", "uuid"}

def _is_sim_module(module: ModuleInfo, assume_sim: bool) -> bool:
    if assume_sim:
        return True
    parts = module.relkey.split("/")
    return len(parts) > 1 and parts[0] in SIM_SCOPES


def _resolve_call(module: ModuleInfo, node: ast.Call
                  ) -> Optional[Tuple[str, str]]:
    """Resolve a call to ``(module_name, function_name)`` if the callee
    is a dotted chain rooted at an imported module, or a from-imported
    name.  ``self.rng.random()`` resolves to nothing (Name root ``self``
    is not an import alias) and is correctly skipped."""
    parts = dotted_parts(node.func)
    if parts is None:
        return None
    head = parts[0]
    if len(parts) == 1:
        imported = module.from_imports.get(head)
        if imported is not None:
            return imported
        return None
    if head in module.module_aliases:
        origin = module.module_aliases[head]
        # "datetime.datetime.now" -> module datetime, chain datetime.now
        return origin, ".".join(parts[1:])
    imported = module.from_imports.get(head)
    if imported is not None:
        # from datetime import datetime; datetime.now()
        return imported[0], ".".join((imported[1],) + parts[1:])
    return None


class _SetTracker:
    """Per-function-scope knowledge of which names hold sets."""

    def __init__(self, self_sets: Set[str]):
        self.local_sets: Set[str] = set()
        self.self_sets = self_sets

    @staticmethod
    def is_set_expr(node: ast.AST, known: "_SetTracker") -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name):
            return node.id in known.local_sets
        if isinstance(node, ast.Attribute):
            return (isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in known.self_sets)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            # set algebra: s1 | s2, s - t ... (only if either side is a set)
            return (_SetTracker.is_set_expr(node.left, known)
                    or _SetTracker.is_set_expr(node.right, known))
        return False


def _collect_self_sets(module: ModuleInfo) -> Dict[str, Set[str]]:
    """Class name -> self attributes assigned a set in ``__init__``."""
    out: Dict[str, Set[str]] = {}
    empty = _SetTracker(set())
    for cls in module.classes.values():
        attrs: Set[str] = set()
        init = cls.methods.get("__init__")
        if init is not None:
            for node in ast.walk(init):
                if isinstance(node, ast.Assign):
                    if _SetTracker.is_set_expr(node.value, empty):
                        for target in node.targets:
                            if (isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                attrs.add(target.attr)
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Attribute)
                      and isinstance(node.target.value, ast.Name)
                      and node.target.value.id == "self"):
                    annotation = node.annotation
                    if (isinstance(annotation, ast.Name)
                            and annotation.id in {"set", "Set"}):
                        attrs.add(node.target.attr)
                    elif (isinstance(annotation, ast.Subscript)
                          and isinstance(annotation.value, ast.Name)
                          and annotation.value.id in {"set", "Set",
                                                      "FrozenSet"}):
                        attrs.add(node.target.attr)
        out[cls.name] = attrs
    return out


def _scope_nodes(body):
    """Walk a statement list without descending into nested functions,
    so each scope is linted exactly once."""
    queue = list(body)
    while queue:
        node = queue.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        queue.extend(ast.iter_child_nodes(node))


def _scan_function_scope(module: ModuleInfo, fn: ast.AST,
                         self_sets: Set[str],
                         findings: List[Finding]) -> None:
    """Set-iteration lint for one function (or module) scope."""
    tracker = _SetTracker(self_sets)
    body = fn.body if isinstance(
        fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)) else []

    # prepass: names assigned a set literal/call anywhere in this scope
    for node in _scope_nodes(body):
        if isinstance(node, ast.Assign):
            if _SetTracker.is_set_expr(node.value, tracker):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tracker.local_sets.add(target.id)

    def flag(node: ast.AST, what: str) -> None:
        findings.append(Finding(
            module.display, node.lineno, "det-set-iteration",
            f"iteration over {what}; order varies with PYTHONHASHSEED — "
            "wrap in sorted(...)",
        ))

    for node in _scope_nodes(body):
        if isinstance(node, ast.For):
            if _SetTracker.is_set_expr(node.iter, tracker):
                flag(node, "a set")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                if _SetTracker.is_set_expr(comp.iter, tracker):
                    flag(comp.iter, "a set (in a comprehension)")


def check_determinism(index: ProjectIndex,
                      assume_sim: bool = False) -> List[Finding]:
    findings: List[Finding] = []
    for module in index.modules.values():
        if not _is_sim_module(module, assume_sim):
            continue
        self_sets_by_class = _collect_self_sets(module)
        _scan_module_calls(module, findings)
        _scan_local_imports(module, findings)
        # set-iteration: module scope plus every function scope, with
        # methods knowing their class's set-typed attributes
        _scan_function_scope(module, module.tree, set(), findings)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner: Set[str] = set()
            for cls in module.classes.values():
                if node in cls.methods.values():
                    owner = self_sets_by_class.get(cls.name, set())
                    break
            _scan_function_scope(module, node, owner, findings)
    return findings


def _scan_module_calls(module: ModuleInfo,
                       findings: List[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        # builtin hash()
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            findings.append(Finding(
                module.display, node.lineno, "det-builtin-hash",
                "builtin hash() varies with PYTHONHASHSEED for "
                "str/bytes; use a stable hash",
            ))
            continue
        resolved = _resolve_call(module, node)
        if resolved is None:
            continue
        origin, chain = resolved
        leaf = chain.split(".")[-1]
        if origin == "random":
            if leaf == "Random":
                if not node.args and not node.keywords:
                    findings.append(Finding(
                        module.display, node.lineno, "det-unseeded-rng",
                        "random.Random() without a seed; pass an "
                        "explicit seed so runs are reproducible",
                    ))
            elif leaf == "SystemRandom":
                findings.append(Finding(
                    module.display, node.lineno, "det-entropy",
                    "random.SystemRandom draws OS entropy",
                ))
            elif leaf in _GLOBAL_RANDOM:
                findings.append(Finding(
                    module.display, node.lineno, "det-global-random",
                    f"random.{leaf}() uses the process-global generator; "
                    "draw from a seeded random.Random instance",
                ))
        elif origin == "os" and leaf == "urandom":
            findings.append(Finding(
                module.display, node.lineno, "det-entropy",
                "os.urandom draws OS entropy",
            ))
        elif origin in _ENTROPY_MODULES:
            findings.append(Finding(
                module.display, node.lineno, "det-entropy",
                f"{origin}.{leaf} draws OS entropy",
            ))
        elif origin == "uuid" and leaf in {"uuid1", "uuid4"}:
            findings.append(Finding(
                module.display, node.lineno, "det-entropy",
                f"uuid.{leaf} is nondeterministic",
            ))
        elif origin == "time" and leaf in _WALLCLOCK_TIME:
            findings.append(Finding(
                module.display, node.lineno, "det-wallclock",
                f"time.{leaf}() reads the wall clock; use "
                "time.perf_counter for durations",
            ))
        elif origin == "datetime" and leaf in _WALLCLOCK_DATETIME:
            findings.append(Finding(
                module.display, node.lineno, "det-wallclock",
                f"datetime {leaf}() reads the wall clock",
            ))


def _scan_local_imports(module: ModuleInfo,
                        findings: List[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            names: List[str] = []
            if isinstance(inner, ast.Import):
                names = [alias.name.split(".")[0] for alias in inner.names]
            elif isinstance(inner, ast.ImportFrom) and inner.module:
                names = [inner.module.split(".")[0]]
            for name in names:
                if name in _LOCAL_IMPORT_BAN:
                    findings.append(Finding(
                        module.display, inner.lineno, "det-local-import",
                        f"function-level import of {name!r}; move to "
                        "module level so determinism rules can see it",
                    ))
