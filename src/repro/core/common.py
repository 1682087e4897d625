"""Shared evaluation primitives used by every algorithm.

Node-test matching (the paper's ``T`` function generalized to node
kinds), per-step candidate enumeration, and the generic application of an
operator node ``Op(e1, ..., ek)`` to already-evaluated child values —
Figure 1's ``F[[Op]]`` dispatched over the AST.

The step primitives come in two planes:

* **boxed** — :func:`step_candidates` enumerates one context node's
  candidates as ``Node`` objects in proximity order. The reference
  evaluators (``naive``, ``topdown``, ``bottomup``) use it; they are the
  differential oracle and stay object-based.
* **pre plane** — :func:`step_candidate_pres` (``χ(X) ∩ T(t)`` as a
  sorted pre array, through the per-step gate of :mod:`repro.axes.vec`
  — the step all three pre-plane evaluators share) and
  :func:`step_relation_pres` (the per-origin relation ``x ↦ χ({x}) ∩ pool`` in proximity order, cut from the
  :class:`~repro.xml.index.NodeIndex` columns for all origins at once).
  MINCONTEXT, OPTMINCONTEXT and the Core XPath evaluator run here; on a
  lazy column document (:mod:`repro.xml.columns`) they box nothing but
  what leaves the evaluator (:func:`box_value`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from repro import stats
from repro.axes.axes import axis_test_nodes, matches_node_test
from repro.axes.vec import forward_step
from repro.errors import EvaluationError
from repro.functions.library import apply_function
from repro.values.coerce import node_numval, node_strval
from repro.values.compare import compare_values
from repro.values.numbers import xpath_divide, xpath_modulo
from repro.xml.document import Document, Node
from repro.xml.index import merge_intersection, node_index
from repro.xpath.ast import BinaryOp, Expr, FunctionCall, Negate, NodeTest

__all__ = [
    "apply_operator",
    "box_value",
    "matches_node_test",
    "step_candidate_pres",
    "step_candidates",
    "step_relation_pres",
]

_COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})


def step_candidates(document: Document, axis: str, node: Node, test: NodeTest) -> list[Node]:
    """``χ({x}) ∩ T(t)`` in proximity order — one context node's
    candidates, the list predicates assign positions over. Routed through
    the fused per-node dispatch (:func:`repro.axes.axes.axis_test_nodes`):
    interval-axis enumerations become singleton partition range queries
    when the predicted output is small, the enumerate-then-filter walk
    otherwise — identical candidates in identical proximity order either
    way, so positional predicates rank the same lists."""
    return axis_test_nodes(document, axis, node, test)


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
    chain for the ancestor axes, and one filtered child-table span per
    parent for the sibling axes. Only ``id`` boxes its origins.
    """
    stats.count("axis_single_calls", len(origins))
    if not pool:
        return {}
    index = node_index(document)
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
            attribute_origins = set(merge_intersection(origins, index.attributes))
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
        offsets, children = index.child_table()
        forward = axis == "following-sibling"
        # Attributes have a parent but no siblings.
        attribute_origins = set(merge_intersection(origins, index.attributes))
        spans: dict[int, list[int]] = {}
        for x in origins:
            parent = parent_pre[x]
            if parent < 0 or x in attribute_origins:
                continue
            span = spans.get(parent)
            if span is None:
                span = spans[parent] = [
                    s
                    for s in children[offsets[parent] : offsets[parent + 1]]
                    if s in members
                ]
            if forward:
                cut = span[bisect_right(span, x) :]
            else:
                cut = span[: bisect_left(span, x)]
                cut.reverse()
            if cut:
                relation[x] = cut
        return relation
    if axis == "id":
        strval = document.string_value_of_pre
        for x in origins:
            cut = sorted(
                target.pre
                for target in document.deref_ids(strval(x))
                if target.pre in members
            )
            if cut:
                relation[x] = cut
        return relation
    raise ValueError(f"unknown axis: {axis}")


def box_value(document: Document, value, value_type: str):
    """The boxed read-out of a pre-plane value: a node set (sorted pre
    list) becomes the document-ordered ``list[Node]``; scalars pass
    through. The one place the pre-plane evaluators materialize nodes."""
    if value_type == "nset":
        nodes = document.nodes
        return [nodes[pre] for pre in value]
    return value


def apply_operator(
    document: Document,
    expr: Expr,
    values: list,
    context_node: Node | None = None,
    strval=node_strval,
    numval=node_numval,
):
    """Apply the operator at ``expr`` to its children's values.

    This is ``F[[Op]]`` (Figure 1) for compound nodes: arithmetic,
    comparisons (dispatched on the children's *static* types, as Figure
    1's typed signatures do), boolean connectives, unary minus, and core
    library calls. ``position``/``last`` are context accessors and must
    be handled by the caller, never passed here. ``strval`` / ``numval``
    are the member accessors for node-set operands
    (:mod:`repro.values.coerce`): boxed nodes unless the caller works on
    pre numbers.
    """
    stats.count("operator_applications")
    if isinstance(expr, BinaryOp):
        if expr.op in _COMPARISON_OPS:
            return compare_values(
                expr.op,
                values[0],
                expr.left.value_type,
                values[1],
                expr.right.value_type,
                strval,
                numval,
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
        return apply_function(document, expr.name, values, context_node, strval, numval)
    raise EvaluationError(f"cannot apply operator node {expr!r}")
