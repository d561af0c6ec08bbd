"""R2 — twin-constant drift between ``_kernels.c`` and its Python oracles.

The C kernels are bit-exact *twins* of Python reference implementations.
Most geometry and thresholds are computed in Python and passed in at
construction time (those cannot drift), but a handful of constants are
spelled on both sides and only reviewer memory kept them equal.  This
rule extracts each mirrored constant from both languages (regex on the C
source, AST on the Python source) and fails on any mismatch:

- ``ptype`` codes: ``driver.PF_*`` vs the C ``DRV_PF_*`` enum, including
  ``PF_PYTHON``, the Python-hosted train callback path
- cache-block flag bits: ``driver._F_*`` vs the C ``CB_*`` defines
- the Berti PC hash mask (``pc & 0xFFFF``): the C kernel vs ``berti.py``
- the block shift: every literal ``address >> s`` in C vs ``BLOCK_SIZE``
- Berti threshold-table length: the C ``!= 64`` check vs the
  ``[...] * 64`` table builders in ``compiled.py``
- geometry caps (history/deltas/blocks/degree <= 64): the C ``_init``
  guards vs the fallback gates in ``compiled.py``
- keyword-argument lists: each C ``kwlist`` vs the keyword names used at
  the Python construction sites (``compiled.py`` / ``sim/driver.py``)
- the extension ABI: the module's ``KERNELS_ABI`` constant in C vs the
  ``KERNELS_ABI`` a build must report to be used (``compiled.py``)

A missing anchor (file, pattern or call site) is itself a diagnostic:
if a refactor moves one of these constants, the rule must be told, not
silently stop checking.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import LintContext

_KERNELS_C = "src/repro/_kernels.c"
_DRIVER_PY = "src/repro/sim/driver.py"
_BERTI_PY = "src/repro/prefetchers/berti.py"
_TYPES_PY = "src/repro/sim/types.py"
_COMPILED_PY = "src/repro/prefetchers/compiled.py"

#: C ``_init`` function marker -> extension type name at Python call sites.
_KERNEL_INITS = (
    ("Berti_init", "BertiKernel"),
    ("Gaze_init", "GazeKernel"),
    ("PMP_init", "PMPKernel"),
    ("Triangel_init", "TriangelKernel"),
    ("Driver_init", "DriverKernel"),
)

#: C geometry-cap regex -> the gate attribute names in ``compiled.py``.
_GEOMETRY_CAPS = (
    (r"self->hist_cap > (\d+)", ("history_per_pc",)),
    (r"self->max_deltas > (\d+)", ("max_deltas_per_pc",)),
    (r"self->blocks > (\d+)", ("blocks_per_region", "blocks")),
    (r"self->degree > (\d+)", ("degree",)),
)


def _line_of(text: str, position: int) -> int:
    return text.count("\n", 0, position) + 1


def _const_int(node: ast.expr) -> Optional[int]:
    """Evaluate a small constant integer expression (``1 << 60`` etc.)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp):
        left, right = _const_int(node.left), _const_int(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.LShift):
            return left << right
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
    return None


def _module_int_constants(tree: ast.Module, prefix: str) -> Dict[str, Tuple[int, int]]:
    """Module-level ``NAME = <int>`` assignments matching a name prefix."""
    found: Dict[str, Tuple[int, int]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id.startswith(prefix):
                value = _const_int(node.value)
                if value is not None:
                    found[target.id] = (value, node.lineno)
    return found


def _require(
    context: LintContext, path: str, diagnostics: List[Diagnostic]
) -> bool:
    if context.exists(path):
        return True
    diagnostics.append(
        Diagnostic(
            "R2",
            _KERNELS_C,
            1,
            f"twin anchor file {path!r} is missing; update rule_twins.py "
            "if the constants moved",
        )
    )
    return False


def _anchor_failure(path: str, what: str) -> Diagnostic:
    return Diagnostic(
        "R2", path, 1,
        f"could not locate {what}; update rule_twins.py if it moved",
    )


def _check_enum_mirror(
    c_text: str,
    c_pattern: str,
    c_rename: str,
    py_constants: Dict[str, Tuple[int, int]],
    py_path: str,
    py_label: str,
    diagnostics: List[Diagnostic],
) -> None:
    """Diff ``NAME -> value`` maps extracted from C and Python."""
    c_values: Dict[str, Tuple[int, int]] = {}
    for match in re.finditer(c_pattern, c_text):
        c_values[c_rename + match.group(1)] = (
            int(match.group(2)),
            _line_of(c_text, match.start()),
        )
    if not c_values:
        diagnostics.append(_anchor_failure(_KERNELS_C, f"the {c_rename}* constants"))
        return
    if not py_constants:
        diagnostics.append(_anchor_failure(py_path, f"the {py_label}* constants"))
        return
    for name, (c_value, c_line) in sorted(c_values.items()):
        python = py_constants.get(name)
        if python is None:
            diagnostics.append(
                Diagnostic(
                    "R2", _KERNELS_C, c_line,
                    f"C constant {name} has no Python mirror in {py_path}",
                )
            )
        elif python[0] != c_value:
            diagnostics.append(
                Diagnostic(
                    "R2", _KERNELS_C, c_line,
                    f"twin drift: C {name} = {c_value} but {py_path} has "
                    f"{name} = {python[0]}",
                )
            )
    for name, (_value, line) in sorted(py_constants.items()):
        if name not in c_values:
            diagnostics.append(
                Diagnostic(
                    "R2", py_path, line,
                    f"Python constant {name} has no C mirror in {_KERNELS_C}",
                )
            )


def _gate_values(tree: ast.Module, attribute: str) -> Set[int]:
    """Constants N from every ``<x>.<attribute> > N`` comparison."""
    values: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        if not isinstance(node.ops[0], ast.Gt):
            continue
        left = node.left
        name = (
            left.attr if isinstance(left, ast.Attribute)
            else left.id if isinstance(left, ast.Name) else None
        )
        if name != attribute:
            continue
        value = _const_int(node.comparators[0])
        if value is not None:
            values.add(value)
    return values


def _c_kwlist(c_text: str, init_marker: str) -> Optional[Tuple[List[str], int]]:
    start = c_text.find(init_marker + "(")
    if start < 0:
        return None
    open_brace = c_text.find("kwlist[] = {", start)
    if open_brace < 0:
        return None
    close_brace = c_text.find("}", open_brace)
    if close_brace < 0:
        return None
    names = re.findall(r'"(\w+)"', c_text[open_brace:close_brace])
    return names, _line_of(c_text, open_brace)


def _python_call_sites(
    context: LintContext, class_name: str
) -> List[Tuple[str, int, Set[str], bool]]:
    """Every ``<x>.ClassName(...)`` call: path, line, kwargs, positional?"""
    sites: List[Tuple[str, int, Set[str], bool]] = []
    for path in (_COMPILED_PY, _DRIVER_PY):
        if not context.exists(path):
            continue
        for node in ast.walk(context.tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name != class_name:
                continue
            keywords = {
                keyword.arg for keyword in node.keywords if keyword.arg is not None
            }
            sites.append((path, node.lineno, keywords, bool(node.args)))
    return sites


def check(context: LintContext) -> List[Diagnostic]:
    """Run R2: diff every mirrored constant between C and Python."""
    diagnostics: List[Diagnostic] = []
    if not context.exists(_KERNELS_C):
        # Pure-Python checkout (no extension source): nothing to mirror.
        return diagnostics
    c_text = context.text(_KERNELS_C)

    # --- ptype codes and cache-block flag bits (driver.py) ------------- #
    if _require(context, _DRIVER_PY, diagnostics):
        driver_tree = context.tree(_DRIVER_PY)
        _check_enum_mirror(
            c_text,
            r"DRV_(PF_\w+) = (\d+)",
            "",
            _module_int_constants(driver_tree, "PF_"),
            _DRIVER_PY,
            "PF_",
            diagnostics,
        )
        _check_enum_mirror(
            c_text,
            r"#define CB_(\w+) (\d+)u",
            "_F_",
            _module_int_constants(driver_tree, "_F_"),
            _DRIVER_PY,
            "_F_",
            diagnostics,
        )

    # --- Berti PC mask (berti.py) -------------------------------------- #
    if _require(context, _BERTI_PY, diagnostics):
        py_masks = {
            match.group(1).upper()
            for match in re.finditer(
                r"\bpc & (0x[0-9A-Fa-f]+)", context.text(_BERTI_PY)
            )
        }
        c_masks = {
            (match.group(1).upper(), _line_of(c_text, match.start()))
            for match in re.finditer(r"\bpc & (0x[0-9A-Fa-f]+)", c_text)
        }
        if not py_masks:
            diagnostics.append(_anchor_failure(_BERTI_PY, "the Berti PC mask (pc & 0x...)"))
        elif not c_masks:
            diagnostics.append(_anchor_failure(_KERNELS_C, "the Berti PC mask (pc & 0x...)"))
        else:
            for mask, line in sorted(c_masks):
                if mask not in py_masks:
                    diagnostics.append(
                        Diagnostic(
                            "R2", _KERNELS_C, line,
                            f"twin drift: C Berti PC mask {mask} has no match "
                            f"in {_BERTI_PY} (Python uses {sorted(py_masks)})",
                        )
                    )

    # --- block shift vs BLOCK_SIZE (types.py) -------------------------- #
    if _require(context, _TYPES_PY, diagnostics):
        block_size = _module_int_constants(
            context.tree(_TYPES_PY), "BLOCK_SIZE"
        ).get("BLOCK_SIZE")
        if block_size is None:
            diagnostics.append(_anchor_failure(_TYPES_PY, "BLOCK_SIZE"))
        else:
            shifts = [
                (int(match.group(1)), _line_of(c_text, match.start()))
                for match in re.finditer(r"\baddress >> (\d+)", c_text)
            ]
            if not shifts:
                diagnostics.append(
                    _anchor_failure(_KERNELS_C, "the block shift (address >> s)")
                )
            for shift, line in shifts:
                if (1 << shift) != block_size[0]:
                    diagnostics.append(
                        Diagnostic(
                            "R2", _KERNELS_C, line,
                            f"twin drift: C shifts addresses by {shift} "
                            f"(block size {1 << shift}) but types.BLOCK_SIZE "
                            f"is {block_size[0]}",
                        )
                    )

    # --- threshold tables and geometry caps (compiled.py) -------------- #
    if _require(context, _COMPILED_PY, diagnostics):
        compiled_tree = context.tree(_COMPILED_PY)
        table_lengths: Dict[str, Tuple[int, int]] = {}
        for node in ast.walk(compiled_tree):
            if not isinstance(node, ast.Assign):
                continue
            named = {
                target.attr
                for target in node.targets
                if isinstance(target, ast.Attribute)
            }
            if not named & {"_l1_occ_thr", "_l2_occ_thr"}:
                continue
            if isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Mult):
                length = _const_int(node.value.right)
                if length is not None:
                    for name in named:
                        table_lengths[name] = (length, node.lineno)
        c_table = re.search(r"PySequence_Fast_GET_SIZE\(fast\) != (\d+)", c_text)
        if not table_lengths:
            diagnostics.append(
                _anchor_failure(_COMPILED_PY, "the _l1/_l2_occ_thr table builders")
            )
        elif c_table is None:
            diagnostics.append(
                _anchor_failure(_KERNELS_C, "the threshold-table length check")
            )
        else:
            c_length = int(c_table.group(1))
            for name, (length, line) in sorted(table_lengths.items()):
                if length != c_length:
                    diagnostics.append(
                        Diagnostic(
                            "R2", _COMPILED_PY, line,
                            f"twin drift: {name} is built with {length} entries "
                            f"but the C kernel requires {c_length}",
                        )
                    )

        for c_pattern, gate_names in _GEOMETRY_CAPS:
            c_caps = [
                (int(match.group(1)), _line_of(c_text, match.start()))
                for match in re.finditer(c_pattern, c_text)
            ]
            if not c_caps:
                diagnostics.append(
                    _anchor_failure(_KERNELS_C, f"the cap guard /{c_pattern}/")
                )
                continue
            for gate in gate_names:
                gate_values = _gate_values(compiled_tree, gate)
                if not gate_values:
                    diagnostics.append(
                        _anchor_failure(_COMPILED_PY, f"a '{gate} > N' fallback gate")
                    )
                    continue
                for cap, line in c_caps:
                    if gate_values != {cap}:
                        diagnostics.append(
                            Diagnostic(
                                "R2", _KERNELS_C, line,
                                f"twin drift: C caps at {cap} but "
                                f"{_COMPILED_PY} gates {gate} at "
                                f"{sorted(gate_values)}",
                            )
                        )

        c_abi = re.search(r'"KERNELS_ABI", (\d+)\)', c_text)
        py_abi = _module_int_constants(compiled_tree, "KERNELS_ABI").get(
            "KERNELS_ABI"
        )
        if c_abi is None:
            diagnostics.append(_anchor_failure(_KERNELS_C, "the KERNELS_ABI constant"))
        elif py_abi is None:
            diagnostics.append(_anchor_failure(_COMPILED_PY, "KERNELS_ABI"))
        elif int(c_abi.group(1)) != py_abi[0]:
            diagnostics.append(
                Diagnostic(
                    "R2", _KERNELS_C, _line_of(c_text, c_abi.start()),
                    f"twin drift: C KERNELS_ABI = {c_abi.group(1)} but "
                    f"{_COMPILED_PY} has KERNELS_ABI = {py_abi[0]}",
                )
            )

    # --- kwlists vs Python construction sites -------------------------- #
    for init_marker, class_name in _KERNEL_INITS:
        parsed = _c_kwlist(c_text, init_marker)
        if parsed is None:
            diagnostics.append(
                _anchor_failure(_KERNELS_C, f"the {init_marker} kwlist")
            )
            continue
        c_names, c_line = parsed
        sites = _python_call_sites(context, class_name)
        if not sites:
            diagnostics.append(
                _anchor_failure(
                    _COMPILED_PY, f"a {class_name}(...) construction site"
                )
            )
            continue
        for path, line, keywords, has_positional in sites:
            if has_positional:
                diagnostics.append(
                    Diagnostic(
                        "R2", path, line,
                        f"{class_name}(...) uses positional arguments; keyword"
                        " arguments are required so kwlist drift is checkable",
                    )
                )
                continue
            if keywords != set(c_names):
                missing = sorted(set(c_names) - keywords)
                extra = sorted(keywords - set(c_names))
                detail = []
                if missing:
                    detail.append(f"missing {missing}")
                if extra:
                    detail.append(f"unknown {extra}")
                diagnostics.append(
                    Diagnostic(
                        "R2", path, line,
                        f"twin drift: {class_name}(...) keywords disagree with "
                        f"the C kwlist at {_KERNELS_C}:{c_line} "
                        f"({'; '.join(detail)})",
                    )
                )
    return diagnostics
