"""Bottom-up evaluation of existential location paths (Section 4).

A location path ``π`` inside ``boolean(π)`` or ``π RelOp s`` has
∃-semantics: only *whether* some node is reachable matters, never which.
The paper exploits this to avoid materializing the ``dom × 2^dom``
relation of eval_inner_locpath: compute the *initial node set* ``Y`` of
admissible targets, then propagate it backwards through the inverse axis
functions ``χ⁻¹`` (Definition 1), node test by node test, predicate by
predicate. The resulting set ``X`` of start nodes yields the boolean
table directly. Space per step: one node set — linear. This is the
engine of Theorem 10's ``O(|D|·|Q|²)`` space bound for the Extended
Wadler Fragment, and (without position predicates) of Theorem 13's
linear time for Core XPath.

Two procedures, mapping onto the Section 6 pseudo-code:

* :func:`eval_bottomup_path` — builds the initial set from the RelOp
  comparison (or ``dom`` for ``boolean``) and fills ``table(N)``. The
  comparison is resolved once, not per node: the start set of
  ``π RelOp c`` is one pass over the last step's tested partition
  keeping ``numval(y) op c`` — ``strval(y) op s`` for a string ``s``
  under ``=`` / ``!=`` (:func:`repro.values.compare.member_operands`).
* :func:`propagate_path_backwards` — walks the steps last-to-first.

Like MINCONTEXT itself (:mod:`repro.core.mincontext`), everything here
runs on the pre plane: target sets are sorted pre lists, node tests are
intersections with the index's test partition
(:func:`repro.axes.vec.filter_step`), ``χ⁻¹`` is
:func:`repro.axes.vec.inverse_step` — the two halves of a Core sweep's
backward step — and the resulting boolean table over ``dom`` is a list
indexed by pre.

Soundness fixes relative to the *printed* pseudo-code:

* **Positions rank all candidates.** In the position-dependent branch,
  the printed code ranks candidates within ``Z = {z ∈ Y′ | xχz}`` — the
  propagated subset — but XPath positions count *all* test-passing
  candidates of ``x``. We compute positions over the full candidate list
  and intersect with the propagated set afterwards; on the paper's own
  Example 9 both readings give the same final answer, but on e.g.
  ``child::a[1] = 'v'`` the printed form would be wrong.
* **An absolute path needs the root.** At the top of an absolute path
  the printed code returns ``dom`` whenever the propagated set is
  nonempty; the root must actually be a member (``boolean(/child::b)``
  is false on an ``a``-rooted document even though ``child::b`` succeeds
  from other nodes).
"""

from __future__ import annotations

from repro import stats
from repro.axes.vec import filter_step, inverse_step
from repro.core.common import step_candidate_pres, step_relation_pres
from repro.core.context import WILDCARD
from repro.core.mincontext import MinContextEvaluator, position_free
from repro.errors import EvaluationError
from repro.values.compare import COMPARE, FLIPPED, member_operands
from repro.xpath.ast import BinaryOp, Expr, FunctionCall, Path, Step

_CONTEXT_FREE = (None, WILDCARD, WILDCARD)


def eval_bottomup_path(mc: MinContextEvaluator, node: Expr) -> None:
    """Fill ``table(node)`` for a ``boolean(π)`` / ``π RelOp s`` node.

    Afterwards the node's uid is in ``mc.precomputed``: MINCONTEXT's
    eval_by_cnode_only will not re-evaluate it (Algorithm 8's proviso).
    The table covers *all* of ``dom``, so any later lookup succeeds.
    """
    if node.uid in mc.precomputed:
        return
    dom = _dom(mc)
    when_reached, otherwise = True, False

    if isinstance(node, FunctionCall) and node.name == "boolean":
        start_nodes = propagate_path_backwards(mc, node.args[0], dom)
    elif isinstance(node, BinaryOp):
        path, op, scalar = _comparison_parts(node)
        mc.eval_by_cnode_only(scalar, [])
        scalar_value = mc.eval_single_context(scalar, _CONTEXT_FREE)
        if scalar.value_type == "bool":
            # "π RelOp s with s of type bool is treated like
            # boolean(π) RelOp s" (Section 6).
            start_nodes = propagate_path_backwards(mc, path, dom)
            when_reached = COMPARE[op](True, scalar_value)
            otherwise = COMPARE[op](False, scalar_value)
        else:
            # y is admissible iff read(y) test bound: the operator and
            # the member reading are resolved once for the whole sweep.
            read, coerce = member_operands(op, scalar.value_type, mc.strval, mc.numval)
            test, bound = COMPARE[op], coerce(scalar_value)
            # Only nodes passing the last step's node test can survive
            # the first inverse step, so only they are compared.
            last = path.steps[-1]
            tested = filter_step(mc.document, last.axis, dom, last.node_test)
            initial = [y for y in tested if test(read(y), bound)]
            if (
                not initial
                and stats.collecting()
                and any(test(read(y), bound) for y in dom)
            ):
                # The printed procedure starts from every admissible node
                # and loses them all to the first inverse step's node
                # test: that step ran, so it is counted.
                stats.count("bottomup_propagation_steps")
            start_nodes = propagate_path_backwards(mc, path, initial)
    else:
        raise EvaluationError(f"not a bottom-up-eligible node: {node!r}")

    truths = [otherwise] * len(dom)
    for x in start_nodes:
        truths[x] = when_reached
    mc.store_dom_table(node, truths)


def _dom(mc: MinContextEvaluator) -> list[int]:
    """All of ``dom`` as a sorted pre list."""
    return list(range(len(mc.document.nodes)))


def _comparison_parts(node: BinaryOp) -> tuple[Path, str, Expr]:
    """Split ``π RelOp s`` into (path, effective op, scalar), flipping the
    operator when the path is on the right."""
    if isinstance(node.left, Path) and node.left.steps:
        return node.left, node.op, node.right
    if isinstance(node.right, Path) and node.right.steps:
        return node.right, FLIPPED[node.op], node.left
    raise EvaluationError(f"no location-path side in {node!r}")


def propagate_path_backwards(
    mc: MinContextEvaluator, path: Expr, targets: list[int]
) -> list[int]:
    """Propagate a target set (sorted pres) backwards through ``π``: the
    returned sorted pre list is ``{x ∈ dom | some y ∈ targets is
    reachable from x via π}``."""
    if not isinstance(path, Path):
        raise EvaluationError(f"not a location path: {path!r}")
    current = targets
    for step in reversed(path.steps):
        if not current:
            return []
        current = _propagate_step(mc, step, current)
        stats.count("bottomup_propagation_steps")
    if path.primary is not None:
        # Context-free primary start (id('k')/...): the path succeeds from
        # *every* context node iff the primary's value meets the
        # propagated set — mirroring the absolute-path case below.
        mc.eval_by_cnode_only(path.primary, [])
        start_nodes = mc.eval_single_context(path.primary, _CONTEXT_FREE)
        if set(current).isdisjoint(start_nodes):
            return []
        return _dom(mc)
    if path.absolute:
        # '/' at the top: the path restarts at the root, so the answer is
        # context-independent — all of dom iff the root can start it (for
        # the empty absolute path '/', iff the root itself is a target).
        if current and current[0] == 0:
            return _dom(mc)
        return []
    return current


def _propagate_step(mc: MinContextEvaluator, step: Step, targets: list[int]) -> list[int]:
    """One inverse location step: filter targets by node test and
    predicates, then apply ``χ⁻¹``."""
    document = mc.document
    tested = filter_step(document, step.axis, targets, step.node_test)
    if not tested:
        return []
    if position_free(step):
        for predicate in step.predicates:
            mc.eval_by_cnode_only(predicate, tested)
        if step.predicates:  # a bare step evaluates no context
            tested = mc.filter_by_cnode(step.predicates, tested)
        return inverse_step(document, step.axis, tested)
    # Position-dependent predicates: loop over the candidate origins and
    # rank each origin's full candidate list (soundness fix, see module
    # docstring), keeping origins with a surviving candidate in `tested`.
    origins = inverse_step(document, step.axis, tested)
    pool = step_candidate_pres(document, step.axis, origins, step.node_test)
    for predicate in step.predicates:
        mc.eval_by_cnode_only(predicate, pool)
    relation = step_relation_pres(document, step.axis, origins, pool, step.node_test)
    wanted = set(tested)
    return sorted(
        x
        for x, candidates in relation.items()
        if not wanted.isdisjoint(mc.filter_by_position(step.predicates, candidates))
    )
