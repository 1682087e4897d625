"""Shared evaluation primitives used by every algorithm.

Every evaluator (:class:`Evaluator`) runs on the pre plane: a context
node is its pre number and a node set a collection of pres, its value a
:class:`NodeSet`, boxed only at the public edges (:func:`box_value`).
:func:`apply_operator` is Figure 1's ``F[[Op]]`` over already evaluated
child values, reading node-set members from the document, and
:func:`constant_pres` is the one rule for a node-set variable.

:func:`step_candidate_pres` (``χ(X) ∩ T(t)`` as a sorted pre array,
through the per-step gate of :mod:`repro.axes.vec`) and
:func:`step_relation_pres` (the per-origin relation ``x ↦ χ({x}) ∩
pool`` in proximity order, cut from the
:class:`~repro.xml.index.NodeIndex` columns for all origins at once) are
the set-at-a-time steps of MINCONTEXT, OPTMINCONTEXT and Core XPath. The
reference evaluators (``naive``, ``topdown``, ``bottomup``), the
differential oracle, never call them: they enumerate one origin at a time
with the Definition-1 dispatch :func:`repro.axes.axes.axis_test_pres`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro import stats
from repro.axes.vec import forward_step
from repro.core.context import Context
from repro.errors import EvaluationError
from repro.functions.library import apply_function
from repro.values.compare import COMPARE, compare_values
from repro.values.numbers import xpath_divide, xpath_modulo
from repro.xml.document import Document
from repro.xml.index import ATTR
from repro.xpath.ast import BinaryOp, ConstantNodeSet, Expr, FunctionCall, Negate, NodeTest

__all__ = [
    "Evaluator",
    "NodeSet",
    "apply_operator",
    "box_value",
    "constant_pres",
    "step_candidate_pres",
    "step_relation_pres",
]


def step_candidate_pres(
    document: Document, axis: str, pres: list[int], test: NodeTest
) -> list[int]:
    """``χ(X) ∩ T(t)`` as a sorted pre list — the set-at-a-time step of
    MINCONTEXT / OPTMINCONTEXT. ``pres`` must be sorted and
    duplicate-free. Routed through :func:`repro.axes.vec.forward_step`,
    the step a Core sweep runs: the axis's output-sensitive kernel, or
    the Definition-1 ``O(|D|)`` scan when the kernel predicts no saving
    (and under ``scan``) — identical either way."""
    out = forward_step(document, axis, pres, test)
    # following hands back a zero-copy view of its partition's tail.
    return out if isinstance(out, list) else list(out)


def step_relation_pres(
    document: Document, axis: str, origins: list[int], pool: list[int], test: NodeTest
) -> dict[int, list[int]]:
    """The per-origin step relation ``{x: χ({x}) ∩ pool}``, each list in
    proximity order (``<doc,χ``) — what the (cp, cs) loops rank and what
    ``eval_inner_locpath`` composes. Sparse: origins whose cut is empty
    have no entry.

    ``pool`` is a sorted pre list with ``pool ⊆ χ(origins) ∩ T(test)``
    (the step's candidate set, or its predicate-passing subset), so the
    relation is *cut from the pool* for all origins at once instead of
    enumerated per origin: a group-by on the parent column for
    ``child``/``attribute``, one probe per origin for ``self``/``parent``,
    two bisects into the pool for the interval axes (ascending pre is
    proximity order there, descending for ``preceding``), the parent
    chain for the ancestor axes, one filtered span of children per
    parent for the sibling axes (hopped out of the parent's interval
    until the document's hops have paid for the child table, see
    :meth:`~repro.xml.index.NodeIndex.sibling_table`), and an id → pre
    map deref per origin for ``id``.
    """
    stats.count("axis_single_calls", len(origins))
    if not pool:
        return {}
    index = document.index
    relation: dict[int, list[int]] = {}
    if axis == "child" or axis == "attribute":
        parent_pre = index.parent_pre
        for y in pool:
            parent = parent_pre[y]
            cut = relation.get(parent)
            if cut is None:
                relation[parent] = [y]
            else:
                cut.append(y)
        return relation
    if axis == "following":
        size = index.size
        total = len(pool)
        for x in origins:
            lo = bisect_left(pool, x + size[x])
            if lo < total:
                relation[x] = pool[lo:]
        return relation
    if axis == "preceding":
        size = index.size
        for x in origins:
            # The prefix before x, minus x's still-open ancestors.
            cut = [p for p in pool[: bisect_left(pool, x)] if p + size[p] <= x]
            if cut:
                cut.reverse()
                relation[x] = cut
        return relation
    members = set(pool)
    if axis == "self":
        return {x: [x] for x in origins if x in members}
    if axis == "parent":
        parent_pre = index.parent_pre
        return {x: [parent_pre[x]] for x in origins if parent_pre[x] in members}
    if axis == "descendant" or axis == "descendant-or-self":
        size = index.size
        or_self = axis == "descendant-or-self"
        if or_self and test.kind == "node":
            # Attribute origins are their own (only) or-self match; they
            # sit inside their element's interval but are nobody's
            # descendant, so the interval cut must not see them.
            kinds = index.kinds
            attribute_origins = {x for x in origins if kinds[x] == ATTR}
            if attribute_origins:
                pool = [y for y in pool if y not in attribute_origins]
        for x in origins:
            lo = bisect_left(pool, x + 1)
            cut = pool[lo : bisect_left(pool, x + size[x], lo)]
            if or_self and x in members:
                cut.insert(0, x)
            if cut:
                relation[x] = cut
        return relation
    if axis == "ancestor" or axis == "ancestor-or-self":
        parent_pre = index.parent_pre
        or_self = axis == "ancestor-or-self"
        for x in origins:
            cut = [x] if or_self and x in members else []
            parent = parent_pre[x]
            while parent >= 0:
                if parent in members:
                    cut.append(parent)
                parent = parent_pre[parent]
            if cut:
                relation[x] = cut
        return relation
    if axis == "following-sibling" or axis == "preceding-sibling":
        parent_pre = index.parent_pre
        # child_pres slices the child table once it is built, and hops
        # the parent's interval until then.
        hopping = index.sibling_table() is None
        forward = axis == "following-sibling"
        kinds = index.kinds
        spans: dict[int, list[int]] = {}
        hops = 0
        for x in origins:
            parent = parent_pre[x]
            if parent < 0 or kinds[x] == ATTR:  # attributes have no siblings
                continue
            span = spans.get(parent)
            if span is None:
                children = document.child_pres(parent)
                hops += len(children)
                span = spans[parent] = [s for s in children if s in members]
            if forward:
                cut = span[bisect_right(span, x) :]
            else:
                cut = span[: bisect_left(span, x)]
                cut.reverse()
            if cut:
                relation[x] = cut
        if hopping:
            index.count_sibling_hops(hops)
        return relation
    if axis == "id":
        strval = document.string_value_of_pre
        for x in origins:
            cut = sorted(members.intersection(document.deref_id_pres(strval(x))))
            if cut:
                relation[x] = cut
        return relation
    raise ValueError(f"unknown axis: {axis}")


@dataclass(frozen=True, slots=True)
class NodeSet:
    """A node-set value: ``document`` (``None`` for an empty binding) and
    its members' pres as a sorted, duplicate-free ``array('I')`` that
    nobody writes."""

    document: Document | None
    pres: array

    def __len__(self) -> int:
        return len(self.pres)


def box_value(document: Document, value, value_type: str):
    """The public read-out of a value: a :class:`NodeSet` (or sorted pres
    of ``document``) becomes a fresh document-ordered ``list[Node]``;
    scalars pass through. The one place a result is boxed."""
    if isinstance(value, NodeSet):
        # An empty binding names no document; any will box it.
        return (value.document or document).nodes_at(value.pres)
    if value_type == "nset":
        return document.nodes_at(value)
    return value


def constant_pres(document: Document, node: ConstantNodeSet) -> list[int]:
    """A node-set variable's nodes as a sorted pre list of ``document``.
    Pre numbers of ``document`` cannot name another document's nodes, so
    such a binding is refused here: an evaluator accepts it only as the
    whole query, which :meth:`Evaluator.value` returns as it is."""
    nodes = node.nodes
    if nodes.pres and nodes.document is not document:
        raise EvaluationError(
            "a node-set variable bound to nodes of another document can "
            "only be the whole query, not an operand"
        )
    return list(nodes.pres)


class Evaluator:
    """An evaluator: :meth:`evaluate` boxes :meth:`value`, which wraps a
    node set into a :class:`NodeSet`, and a subclass's
    ``pre_value(expr, (pre, position, size))`` computes it as sorted,
    duplicate-free pres."""

    def __init__(self, document: Document):
        self.document = document

    def evaluate(self, expr: Expr, context: Context):
        return box_value(self.document, self.value(expr, context), expr.value_type)

    def value(self, expr: Expr, context: Context):
        # A bare node-set binding is its own value, even one of another
        # document's nodes.
        if isinstance(expr, ConstantNodeSet):
            return expr.nodes
        value = self.pre_value(expr, (context.node.pre, context.position, context.size))
        if expr.value_type == "nset":
            return NodeSet(self.document, array("I", value))
        return value


def apply_operator(document: Document, expr: Expr, values: list, context_pre: int | None = None):
    """Apply the operator at ``expr`` to its children's values.

    This is ``F[[Op]]`` (Figure 1) for compound nodes: arithmetic,
    comparisons (dispatched on the children's *static* types, as Figure
    1's typed signatures do), boolean connectives, unary minus, and core
    library calls. ``position``/``last`` are context accessors and must
    be handled by the caller, never passed here. Node-set operands are
    collections of pres of ``document``; ``context_pre`` is the context
    node, read by ``lang()`` only.
    """
    stats.count("operator_applications")
    if isinstance(expr, BinaryOp):
        if expr.op in COMPARE:
            return compare_values(
                expr.op,
                values[0],
                expr.left.value_type,
                values[1],
                expr.right.value_type,
                document.string_value_of_pre,
                document.number_value_of_pre,
            )
        if expr.op == "and":
            return values[0] and values[1]
        if expr.op == "or":
            return values[0] or values[1]
        left, right = values
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if math.isnan(left) or math.isnan(right):
                return float("nan")
            return left * right
        if expr.op == "div":
            return xpath_divide(left, right)
        if expr.op == "mod":
            return xpath_modulo(left, right)
        raise EvaluationError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Negate):
        return -values[0]
    if isinstance(expr, FunctionCall):
        if expr.name in ("position", "last"):
            raise EvaluationError(
                f"{expr.name}() is a context accessor and cannot be applied as a value function"
            )
        return apply_function(document, expr.name, values, context_pre)
    raise EvaluationError(f"cannot apply operator node {expr!r}")
