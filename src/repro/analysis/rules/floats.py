"""DSO3xx — float and sentinel comparison hazards.

Protocol v2 encodes a failed query's answer as NaN
(:data:`repro.serving.worker.QUERY_ERROR`).  NaN compares unequal to
everything *including itself*, so ``answer == QUERY_ERROR`` is always
``False`` — code that looks like an error check and never fires.  The
only correct tests are ``math.isnan`` or the sparse error list that
travels beside the answers.  Answers also travel in NumPy arrays
(the stitch plane's lanes), where the same bug wears two more
disguises:
``np.equal(arr, np.nan)`` (the call form of the constant-False
comparison) and the ``x != x`` self-comparison idiom — semantically a
NaN test, but elementwise sentinel checks in this codebase must spell
it ``np.isnan`` so intent survives review.  Distances are sums of
float edge weights; comparing them to non-integral literals with
``==`` is the classic representability trap (``0.1 + 0.2 != 0.3``).
Infinity is exempt: ``float("inf")`` is exact and the codebase uses
``INFINITY`` equality as the canonical unreachability test.
"""

from __future__ import annotations

import ast
import math

from repro.analysis.rules import Rule

_NAN_NAMES = frozenset({"QUERY_ERROR"})


def _is_nan_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id in _NAN_NAMES:
        return True
    if isinstance(node, ast.Attribute):
        if node.attr in _NAN_NAMES:
            return True
        if node.attr == "nan":  # math.nan / np.nan
            return True
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "float"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.strip().lower() in {"nan", "-nan", "+nan"}
        ):
            return True
    return False


def _is_inf_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id in {"INFINITY", "inf", "INF"}:
        return True
    if isinstance(node, ast.Attribute) and node.attr in {"inf", "infinity"}:
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "float"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.strip().lower().lstrip("+-") == "inf"
        ):
            return True
    return False


class NanSentinelComparisonRule(Rule):
    """DSO301: ``==``/``!=`` against NaN or the ``QUERY_ERROR``
    sentinel — the comparison is constant-False/True by IEEE-754 and
    the error check it implies never fires.  Use ``math.isnan`` (or
    read the per-query error channel).
    """

    rule_id = "DSO301"
    severity = "error"
    summary = "==/!= against NaN / QUERY_ERROR (always False/True)"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_nan_expr(left) or _is_nan_expr(right)
            ):
                self.report(
                    node,
                    "NaN never compares equal — this check cannot fire; "
                    "use math.isnan(...) or the error channel",
                )
                break
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # The call forms of the same constant comparison:
        # ``np.equal(x, np.nan)`` / ``np.not_equal(x, QUERY_ERROR)``.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in {"equal", "not_equal"}
            and any(_is_nan_expr(arg) for arg in node.args)
        ):
            self.report(
                node,
                "elementwise comparison against NaN is constant — "
                "use np.isnan(...)",
            )
        self.generic_visit(node)


class FloatLiteralEqualityRule(Rule):
    """DSO302: ``==``/``!=`` against a non-integral float literal.

    Computed distances are accumulated floats; exact equality with a
    decimal literal like ``0.3`` holds only when the arithmetic
    happens to round identically.  Compare with ``math.isclose`` (or
    restructure to avoid the comparison).  Integral literals
    (``0.0``, ``1.0``) and infinity are exact and exempt.
    """

    rule_id = "DSO302"
    severity = "warning"
    summary = "==/!= against a non-integral float literal (use isclose)"

    @staticmethod
    def _is_fractional_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and not math.isnan(node.value)  # NaN literals are DSO301's
            and node.value not in (float("inf"), float("-inf"))
            and node.value != int(node.value)
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_inf_expr(left) or _is_inf_expr(right):
                continue
            if self._is_fractional_literal(left) or self._is_fractional_literal(
                right
            ):
                self.report(
                    node,
                    "exact equality with a fractional float literal; "
                    "use math.isclose(...) for computed values",
                )
                break
        self.generic_visit(node)


class SelfComparisonNanRule(Rule):
    """DSO303: ``x == x`` / ``x != x`` — the NaN test in disguise.

    Self-comparison is the folklore NaN check (``x != x`` is ``True``
    exactly when ``x`` is NaN), and on a NumPy array it silently
    builds an elementwise NaN mask.  Both spellings hide intent and
    read as typos; sentinel handling in this codebase must use
    ``math.isnan`` / ``np.isnan``.  Only side-effect-free operands
    (names, attribute and subscript chains) are flagged — a repeated
    call could legitimately differ between evaluations.
    """

    rule_id = "DSO303"
    severity = "error"
    summary = "x == x / x != x self-comparison (use math.isnan/np.isnan)"

    _PURE_NODES = (
        ast.Name,
        ast.Attribute,
        ast.Subscript,
        ast.Constant,
        ast.Tuple,
        ast.Slice,
        ast.expr_context,
    )

    @classmethod
    def _is_pure(cls, node: ast.expr) -> bool:
        return all(
            isinstance(sub, cls._PURE_NODES) for sub in ast.walk(node)
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if not (self._is_pure(left) and self._is_pure(right)):
                continue
            if ast.dump(left) == ast.dump(right):
                self.report(
                    node,
                    "self-comparison is a hidden NaN test; spell it "
                    "math.isnan(...) / np.isnan(...)",
                )
                break
        self.generic_visit(node)
