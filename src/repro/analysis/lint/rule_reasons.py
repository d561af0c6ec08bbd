"""R5 — every decline path in ``sim/driver.py`` carries a reason.

The compiled driver's contract is *conservative with receipts*: when
``try_attach``/``_classify`` decline a configuration, the caller records
a human-readable ``kernel_decline_reason`` that surfaces in
``stats.extra``, engine rows and bench per-case tiers.  A decline branch
that returns ``None`` without a reason (or with an empty string) breaks
that contract silently — nothing crashes, the tier just becomes
undiagnosable.

Statically: every ``return`` of a tuple whose first element is the
literal ``None`` is a decline, and its *last* element is the reason
slot.  The reason must not be ``None``, an empty string, or any other
non-string literal; dynamic expressions (names, calls, f-strings) are
trusted — their sources are decline returns this rule checks, or the
literal reasons of :func:`repro.sim.simulator.batched_decline_reason`.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import LintContext

_DRIVER_PY = "src/repro/sim/driver.py"


def _reason_problem(node: ast.expr) -> str:
    """Why this reason expression is unacceptable ('' when fine)."""
    if isinstance(node, ast.Constant):
        if node.value is None:
            return "the reason slot is None"
        if node.value == "":
            return "the reason slot is an empty string"
        if not isinstance(node.value, str):
            return f"the reason slot is a non-string literal ({node.value!r})"
        return ""
    if isinstance(node, ast.JoinedStr):
        if not node.values:
            return "the reason slot is an empty f-string"
        return ""
    # Names, attributes, calls, concatenations: trusted dynamic reasons.
    return ""


def check(context: LintContext) -> List[Diagnostic]:
    """Run R5 over the decline returns of ``sim/driver.py``."""
    diagnostics: List[Diagnostic] = []
    if not context.exists(_DRIVER_PY):
        return diagnostics
    for node in ast.walk(context.tree(_DRIVER_PY)):
        if not isinstance(node, ast.Return):
            continue
        value = node.value
        if not isinstance(value, ast.Tuple) or len(value.elts) < 2:
            continue
        first = value.elts[0]
        if not (isinstance(first, ast.Constant) and first.value is None):
            continue
        problem = _reason_problem(value.elts[-1])
        if problem:
            diagnostics.append(
                Diagnostic(
                    "R5", _DRIVER_PY, node.lineno,
                    f"decline return without a recorded reason: {problem} "
                    "(every decline must explain itself — it surfaces as "
                    "kernel_decline_reason)",
                )
            )
    return diagnostics
