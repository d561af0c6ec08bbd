"""R3 — hot-path hygiene in ``sim/`` and ``prefetchers/``.

Four sub-checks, all motivated by the kernel work of PRs 3-8:

- **Slots in hot modules.**  The modules whose instances are created or
  touched per simulated access (caches, core model, batch kernel, the
  single- and multi-core drivers, driver glue, array tables, the shared
  spatial front end) must keep
  every self-contained class slotted: an accidental ``__dict__`` on a
  per-access type is an easy 2x memory/miss regression.  Classes whose
  bases live outside the module (ABCs, Enums, the dict-based
  ``Prefetcher`` hierarchy) are exempt — their layout is dictated by
  the base class.
- **Dataclass slots.**  Every ``@dataclass`` anywhere under ``sim/`` or
  ``prefetchers/`` must pass ``slots=True`` (table entries are created
  in the millions; there is no reason for any of them to carry a dict).
- **No module-level mutable state in ``sim/``.**  Simulator results
  must be a pure function of the job; a module-level dict/list/set is
  cross-job state by construction.  Lookup *tables* that are
  initialised once and never mutated can carry an explicit
  ``repro-lint: waive R3`` comment.
- **No unseeded randomness in ``sim/``.**  Module-level ``random.*``
  functions (and zero-argument ``random.Random()``) draw from global
  process state and break run-to-run determinism; simulator code must
  thread an explicitly seeded ``random.Random(seed)``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import LintContext
from repro.analysis.lint.rule_keys import _dataclass_decorator

#: Modules where every self-contained class must be slotted.
HOT_MODULES = frozenset(
    {
        "src/repro/sim/batch.py",
        "src/repro/sim/cache.py",
        "src/repro/sim/cpu.py",
        "src/repro/sim/dram.py",
        "src/repro/sim/driver.py",
        "src/repro/sim/hierarchy.py",
        "src/repro/sim/multicore.py",
        "src/repro/sim/prefetch_queue.py",
        "src/repro/sim/simulator.py",
        "src/repro/sim/stats.py",
        "src/repro/sim/types.py",
        "src/repro/prefetchers/tables.py",
        "src/repro/prefetchers/spatial_common.py",
        "src/repro/prefetchers/spp.py",
        "src/repro/prefetchers/ipcp.py",
    }
)

#: Builtin constructors whose module-level call creates mutable state.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)

#: ``random``-module functions that draw from the unseeded global RNG.
_RANDOM_OK = frozenset({"Random", "SystemRandom"})


def _has_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in statement.targets
            ):
                return True
        elif isinstance(statement, ast.AnnAssign):
            target = statement.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _dataclass_slots(node: ast.ClassDef) -> Optional[bool]:
    """None if not a dataclass, else whether it passes ``slots=True``."""
    decorator = _dataclass_decorator(node)
    if decorator is None:
        return None
    if isinstance(decorator, ast.Call):
        for keyword in decorator.keywords:
            if keyword.arg == "slots":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                )
    return False


def _self_contained(node: ast.ClassDef, local_classes: Set[str]) -> bool:
    """Whether every base of the class is local (or ``object``)."""
    for base in node.bases:
        if isinstance(base, ast.Name) and (
            base.id == "object" or base.id in local_classes
        ):
            continue
        return False
    return True


def _check_slots(context: LintContext, path: str, out: List[Diagnostic]) -> None:
    tree = context.tree(path)
    local_classes = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _self_contained(node, local_classes):
            continue
        slots = _dataclass_slots(node)
        if slots is None:
            if not _has_slots(node):
                out.append(
                    Diagnostic(
                        "R3", path, node.lineno,
                        f"class {node.name} lives in a hot module and must "
                        "define __slots__",
                    )
                )
        # slots=True dataclasses are handled by the dataclass sub-check
        # (which also covers non-hot modules), so nothing more here.


def _check_dataclasses(
    context: LintContext, path: str, out: List[Diagnostic]
) -> None:
    for node in ast.walk(context.tree(path)):
        if isinstance(node, ast.ClassDef) and _dataclass_slots(node) is False:
            out.append(
                Diagnostic(
                    "R3", path, node.lineno,
                    f"dataclass {node.name} must pass slots=True "
                    "(per-entry types must not carry an instance dict)",
                )
            )


def _check_module_state(
    context: LintContext, path: str, out: List[Diagnostic]
) -> None:
    for node in context.tree(path).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = [
            target.id for target in targets if isinstance(target, ast.Name)
        ]
        if not names or all(
            name.startswith("__") and name.endswith("__") for name in names
        ):
            continue
        mutable = isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        )
        if isinstance(value, ast.Call):
            func = value.func
            callee = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else ""
            )
            mutable = mutable or callee in _MUTABLE_CALLS
        if mutable:
            out.append(
                Diagnostic(
                    "R3", path, node.lineno,
                    f"module-level mutable state {names[0]!r} in sim/ "
                    "(simulation results must be a pure function of the "
                    "job; waive only for init-once lookup tables)",
                )
            )


def _check_randomness(
    context: LintContext, path: str, out: List[Diagnostic]
) -> None:
    tree = context.tree(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            imported = ", ".join(alias.name for alias in node.names)
            out.append(
                Diagnostic(
                    "R3", path, node.lineno,
                    f"'from random import {imported}' in sim/: thread an "
                    "explicitly seeded random.Random(seed) instead",
                )
            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr not in _RANDOM_OK:
                    out.append(
                        Diagnostic(
                            "R3", path, node.lineno,
                            f"unseeded randomness: random.{func.attr}() draws "
                            "from global RNG state; use a seeded "
                            "random.Random(seed)",
                        )
                    )
                elif func.attr == "Random" and not node.args and not node.keywords:
                    out.append(
                        Diagnostic(
                            "R3", path, node.lineno,
                            "unseeded randomness: random.Random() without a "
                            "seed argument",
                        )
                    )


def check(context: LintContext) -> List[Diagnostic]:
    """Run R3 over ``sim/`` and ``prefetchers/``."""
    diagnostics: List[Diagnostic] = []
    sim_files = context.py_files("src/repro/sim")
    prefetcher_files = context.py_files("src/repro/prefetchers")

    for path in sim_files + prefetcher_files:
        if path in HOT_MODULES:
            _check_slots(context, path, diagnostics)
        _check_dataclasses(context, path, diagnostics)
    for path in sim_files:
        _check_module_state(context, path, diagnostics)
        _check_randomness(context, path, diagnostics)
    return diagnostics
