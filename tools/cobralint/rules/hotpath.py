"""CL003 — allocation / Python-level iteration inside designated kernels.

The engine's speed rests on a handful of vectorised kernels; a stray
``.copy()`` or per-element Python loop inside one silently turns an
O(touched) pass into an O(everything) one.  The designated kernels are the
compiled-set matrix/delta evaluators in ``provenance/backends/numeric.py``
with their per-group helpers (contributions, segment fold, baseline state)
and each semiring's contribution function, the incremental-greedy
coarsening loop in ``core/kernel/greedy.py``, and the shared-delta
factoring loop in ``batch/factored.py``.

Inside a designated kernel this rule flags, **when executed under a loop**
(a one-off allocation at kernel entry is fine; one per scenario/segment is
not):

* ``.copy()`` / ``np.copy`` — a fresh array per iteration;
* dtype-converting constructors — ``np.asarray(..., dtype=...)``,
  ``np.array(...)``, ``np.ascontiguousarray(...)``, ``.astype(...)``;
* Python ``for`` loops iterating element-wise over ndarrays (directly, via
  ``enumerate``/``zip``, or via ``.flat``/``.tolist()``/``np.nditer``) —
  the definition of "the vectorisation stopped here".

Array-ness is tracked per function: names bound from ``np.*`` calls,
``.copy()``/``.astype()`` results, or subscripts thereof count as arrays.
Deliberate per-scenario copies (e.g. preserving the shared baseline row)
stay — with a ``# cobralint: disable=CL003 -- why`` justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from tools.cobralint.engine import (
    FileContext,
    Finding,
    Rule,
    call_name,
    enclosing_loops,
    iter_functions,
    register,
)

#: ``(path substring, function name)`` pairs naming the guarded kernels.
KERNELS: Tuple[Tuple[str, str], ...] = (
    ("provenance/backends/numeric.py", "evaluate_matrix"),
    ("provenance/backends/numeric.py", "_evaluate_values"),
    ("provenance/backends/numeric.py", "evaluate_deltas"),
    ("provenance/backends/numeric.py", "_delta_state"),
    ("provenance/backends/numeric.py", "_contributions"),
    ("provenance/backends/numeric.py", "_fold"),
    ("provenance/backends/numeric.py", "_real_contribute"),
    ("provenance/backends/numeric.py", "_tropical_contribute"),
    ("provenance/backends/numeric.py", "_bool_contribute"),
    ("core/kernel/greedy.py", "apply"),
    ("core/kernel/greedy.py", "run"),
    ("core/kernel/greedy.py", "_uncount_rows"),
    ("core/kernel/greedy.py", "_count_rows"),
    ("batch/factored.py", "factor_batch"),
    ("batch/factored.py", "prefix_statistics"),
)

DTYPE_CONSTRUCTORS = {
    "np.asarray",
    "np.array",
    "np.ascontiguousarray",
    "numpy.asarray",
    "numpy.array",
    "numpy.ascontiguousarray",
}

#: np helpers whose result is an ndarray (for loop-iteration taint).
_NP_PREFIXES = ("np.", "numpy.")


@register
class HotPathAllocationRule(Rule):
    id = "CL003"
    name = "hot-path-allocation"
    description = "per-iteration allocation or Python loop in a kernel"
    include = (
        "src/repro/provenance/backends/numeric.py",
        "src/repro/core/kernel/greedy.py",
        "src/repro/batch/factored.py",
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for _parent, func in iter_functions(context.tree):
            if not self._is_kernel(context.path, func.name):
                continue
            findings.extend(self._check_kernel(context, func))
        return findings

    def _is_kernel(self, path: str, func_name: str) -> bool:
        return any(
            fragment in path and func_name == name for fragment, name in KERNELS
        )

    # -- array taint ---------------------------------------------------------

    def _array_names(self, func: ast.AST) -> Set[str]:
        arrays: Set[str] = set()
        assignments: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assignments.append((node.target.id, node.value))
        changed = True
        while changed:
            changed = False
            for name, value in assignments:
                if name not in arrays and self._is_array_expr(value, arrays):
                    arrays.add(name)
                    changed = True
        return arrays

    def _is_array_expr(self, node: ast.AST, arrays: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in arrays
        if isinstance(node, ast.Subscript):
            return self._is_array_expr(node.value, arrays)
        if isinstance(node, ast.BinOp):
            return self._is_array_expr(node.left, arrays) or self._is_array_expr(
                node.right, arrays
            )
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is None:
                return False
            if name.startswith(_NP_PREFIXES) and not name.endswith(".at"):
                return True
            tail = name.split(".")[-1]
            if tail in ("copy", "astype", "ravel", "reshape", "view"):
                receiver = node.func
                if isinstance(receiver, ast.Attribute):
                    return self._is_array_expr(receiver.value, arrays) or True
            return False
        return False

    # -- the checks ----------------------------------------------------------

    def _check_kernel(self, context: FileContext, func: ast.AST) -> Iterable[Finding]:
        in_loop = enclosing_loops(func)
        arrays = self._array_names(func)

        for node in ast.walk(func):
            if isinstance(node, ast.Call) and in_loop.get(node, False):
                name = call_name(node)
                tail = name.split(".")[-1] if name else None
                if tail == "copy" and (
                    name in ("np.copy", "numpy.copy")
                    or isinstance(node.func, ast.Attribute)
                ):
                    yield context.finding(
                        self,
                        node,
                        ".copy() under a loop in a kernel — allocates per "
                        "iteration; hoist or reuse a scratch buffer",
                    )
                elif name in DTYPE_CONSTRUCTORS:
                    has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
                    if has_dtype or name.split(".")[-1] != "asarray":
                        yield context.finding(
                            self,
                            node,
                            f"{name}(...) under a loop in a kernel — "
                            "dtype-converting construction per iteration; "
                            "normalise once at the kernel boundary",
                        )
                elif tail == "astype":
                    yield context.finding(
                        self,
                        node,
                        ".astype() under a loop in a kernel — converts (and "
                        "copies) per iteration; convert once up front",
                    )
            elif isinstance(node, ast.For):
                target = self._loop_iterates_array(node.iter, arrays)
                if target:
                    yield context.finding(
                        self,
                        node,
                        f"Python-level loop over ndarray {target} in a kernel "
                        "— vectorise or move off the hot path",
                    )

    def _loop_iterates_array(self, iter_expr: ast.AST, arrays: Set[str]) -> str:
        """A short description of the ndarray iterated over, or ''."""
        if isinstance(iter_expr, ast.Name) and iter_expr.id in arrays:
            return repr(iter_expr.id)
        if isinstance(iter_expr, ast.Attribute) and iter_expr.attr == "flat":
            return "'.flat'"
        if isinstance(iter_expr, ast.Call):
            name = call_name(iter_expr)
            tail = name.split(".")[-1] if name else None
            if name in ("np.nditer", "numpy.nditer"):
                return "'np.nditer(...)'"
            if tail in ("tolist", "ravel", "flatten") and isinstance(
                iter_expr.func, ast.Attribute
            ):
                receiver = iter_expr.func.value
                if self._is_array_expr(receiver, arrays):
                    return f"'.{tail}()'"
            if tail in ("enumerate", "zip"):
                for arg in iter_expr.args:
                    inner = self._loop_iterates_array(arg, arrays)
                    if inner:
                        return inner
        return ""
