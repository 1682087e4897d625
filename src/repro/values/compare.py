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

Every comparison ends in one :data:`COMPARE` operator on two like-typed
scalars. Python's float operators already follow IEEE 754 as XPath
does: a NaN operand makes ``!=`` true and every other operator false.

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
import operator

from repro.values.coerce import node_numval, node_strval, to_boolean, to_number_value
from repro.values.numbers import to_number

EQUALITY_OPS = ("=", "!=")
RELATIONAL_OPS = ("<", "<=", ">", ">=")

#: ``F[[RelOp]]`` on two like-typed scalars.
COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: ``a op b ⇔ b FLIPPED[op] a``: the operator with its operands swapped.
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def member_operands(op: str, value_type: str, strval, numval):
    """How ``S op s`` reads the members of a node set ``S`` against a
    ``num`` or ``str`` scalar ``s``: ``(read, coerce)`` with ``S op s``
    iff some member ``m`` has ``COMPARE[op](read(m), coerce(s))``.
    Equality against a string compares string values; everything else
    compares numbers (W3C: relational against a string converts both
    sides)."""
    if value_type == "str":
        if op in EQUALITY_OPS:
            return strval, str
        return numval, to_number
    if value_type == "num":
        return numval, float
    raise ValueError(f"unknown XPath type: {value_type}")


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
    if op in ("<", "<="):
        return COMPARE[op](min(left_numbers), max(right_numbers))
    return COMPARE[op](max(left_numbers), min(right_numbers))


def _nset_vs_scalar(op: str, members, value, value_type: str, strval, numval) -> bool:
    test = COMPARE[op]
    if value_type == "bool":
        # Boolean comparisons go through boolean(nset) even for the empty
        # set (false = false is true); the existential reading below only
        # applies to numbers and strings.
        return test(float(bool(members)), float(value))
    read, coerce = member_operands(op, value_type, strval, numval)
    bound = coerce(value)
    return any(test(read(member), bound) for member in members)


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
        return _nset_vs_scalar(FLIPPED[op], right, left, left_type, strval, numval)
    # Neither side is a node-set.
    if op in EQUALITY_OPS:
        if left_type == "bool" or right_type == "bool":
            left, right = float(to_boolean(left, left_type)), float(to_boolean(right, right_type))
        elif left_type == "num" or right_type == "num":
            left, right = to_number_value(left, left_type), to_number_value(right, right_type)
        return COMPARE[op](left, right)
    # Relational on scalars always compares numbers (Figure 1's GtOp row).
    return COMPARE[op](to_number_value(left, left_type), to_number_value(right, right_type))
