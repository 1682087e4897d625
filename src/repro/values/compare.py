"""Comparison semantics: the ``RelOp``/``EqOp``/``GtOp`` rows of Figure 1.

Implements XPath 1.0 §3.4 comparisons, which Figure 1 of the paper
transcribes. The existential node-set cases are the interesting ones:
``S1 = S2`` holds iff *some* pair of nodes has equal string values, and
``S < v`` iff *some* node's numeric string value is below ``v``. A naive
implementation of ``nset × nset`` would enumerate all pairs; we use the
standard set-intersection / extremum tricks so each comparison stays
linear in the operand sizes, which keeps the evaluators inside the
theorems' bounds (each comparison result must be computable in
``O(|D|)``-ish time per context).

One deliberate spec-fidelity note: for relational operators (``<`` etc.)
with a node-set against a *string*, the W3C rule converts both sides to
numbers; the paper's Figure 1 abbreviates this case as a string
comparison. We follow the W3C rule (the paper itself defers to [18] for
precise semantics, and none of the paper's examples exercise the
difference).

Node-set operands are read through the member accessors of
:mod:`repro.values.coerce` (``strval`` / ``numval``): boxed nodes by
default, pre ints with a document's per-pre accessors on the pre plane.
"""

from __future__ import annotations

import math

from repro.values.coerce import node_numval, node_strval, to_boolean, to_number_value
from repro.values.numbers import to_number

EQUALITY_OPS = ("=", "!=")
RELATIONAL_OPS = ("<", "<=", ">", ">=")

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _scalar_compare(op: str, left: float | str, right: float | str) -> bool:
    """Compare two like-typed scalars; NaN makes everything false except
    ``NaN != x``."""
    if op == "=":
        return left == right
    if op == "!=":
        if isinstance(left, float) and math.isnan(left):
            return True
        if isinstance(right, float) and math.isnan(right):
            return True
        return left != right
    # Relational: IEEE semantics — any NaN operand yields false.
    if isinstance(left, float) and math.isnan(left):
        return False
    if isinstance(right, float) and math.isnan(right):
        return False
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ValueError(f"unknown comparison operator: {op}")


def _exists_numeric(op: str, values: list[float], bound: float) -> bool:
    """∃ v ∈ values : v op bound — via extremum instead of scanning pairs."""
    if math.isnan(bound):
        return op == "!=" and bool(values)
    finite = [v for v in values if not math.isnan(v)]
    if op == "=":
        return bound in finite
    if op == "!=":
        return any(v != bound for v in finite) or (len(finite) < len(values))
    if not finite:
        return False
    if op == "<":
        return min(finite) < bound
    if op == "<=":
        return min(finite) <= bound
    if op == ">":
        return max(finite) > bound
    if op == ">=":
        return max(finite) >= bound
    raise ValueError(f"unknown comparison operator: {op}")


def _nset_vs_nset(op: str, left, right, strval, numval) -> bool:
    if not left or not right:
        return False
    if op == "=":
        return not set(map(strval, left)).isdisjoint(map(strval, right))
    if op == "!=":
        left_distinct = set(map(strval, left))
        right_distinct = set(map(strval, right))
        if len(left_distinct) > 1 or len(right_distinct) > 1:
            return True
        return next(iter(left_distinct)) != next(iter(right_distinct))
    # Relational: ∃ pair of numeric string values ⇔ extrema comparison.
    left_numbers = [v for v in map(numval, left) if not math.isnan(v)]
    right_numbers = [v for v in map(numval, right) if not math.isnan(v)]
    if not left_numbers or not right_numbers:
        return False
    if op == "<":
        return min(left_numbers) < max(right_numbers)
    if op == "<=":
        return min(left_numbers) <= max(right_numbers)
    if op == ">":
        return max(left_numbers) > min(right_numbers)
    if op == ">=":
        return max(left_numbers) >= min(right_numbers)
    raise ValueError(f"unknown comparison operator: {op}")


def _nset_vs_scalar(op: str, members, value, value_type: str, strval, numval) -> bool:
    if value_type == "bool":
        # Boolean comparisons go through boolean(nset) even for the empty
        # set (false = false is true); the existential reading below only
        # applies to numbers and strings.
        return _scalar_compare(op, float(to_boolean(members, "nset")), float(value))
    if not members:
        return False
    if value_type == "num":
        return _exists_numeric(op, list(map(numval, members)), value)
    if value_type == "str":
        if op == "=":
            return value in map(strval, members)
        if op == "!=":
            return any(s != value for s in map(strval, members))
        # W3C: relational against a string converts both sides to number.
        return _exists_numeric(op, list(map(numval, members)), to_number(value))
    raise ValueError(f"unknown XPath type: {value_type}")


def compare_values(
    op: str,
    left,
    left_type: str,
    right,
    right_type: str,
    strval=node_strval,
    numval=node_numval,
) -> bool:
    """Full XPath 1.0 comparison dispatch (§3.4 / the paper's Figure 1).

    Args:
        op: one of ``= != < <= > >=``.
        left, right: runtime values; node sets are sized collections of
            members (boxed nodes by default).
        left_type, right_type: static type tags (``nset num str bool``).
        strval, numval: member accessors for node-set operands (see
            :mod:`repro.values.coerce`).
    """
    if left_type == "nset" and right_type == "nset":
        return _nset_vs_nset(op, left, right, strval, numval)
    if left_type == "nset":
        return _nset_vs_scalar(op, left, right, right_type, strval, numval)
    if right_type == "nset":
        return _nset_vs_scalar(_FLIPPED[op], right, left, left_type, strval, numval)
    # Neither side is a node-set.
    if op in EQUALITY_OPS:
        if left_type == "bool" or right_type == "bool":
            return _scalar_compare(
                op, float(to_boolean(left, left_type)), float(to_boolean(right, right_type))
            )
        if left_type == "num" or right_type == "num":
            return _scalar_compare(
                op, to_number_value(left, left_type), to_number_value(right, right_type)
            )
        return _scalar_compare(op, left, right)
    # Relational on scalars always compares numbers (Figure 1's GtOp row).
    return _scalar_compare(
        op, to_number_value(left, left_type), to_number_value(right, right_type)
    )
