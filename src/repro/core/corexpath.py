"""Linear-time evaluation of the Core XPath fragment (Definition 12).

Core XPath — location paths whose predicates are and/or/not combinations
of location paths — admits ``O(|D|·|Q|)`` evaluation (Theorem 13, proved
in [11]): since ``position()``/``last()`` are absent, no per-origin
ranking loop is ever needed. The strategy:

* a path inside a predicate is ∃-quantified, so the set of context
  nodes where it is nonempty is computed by **backward propagation**
  through inverse axis functions, from all of ``dom``;
* the *main* path is then a forward sweep: ``X_{i+1} = χ(X_i) ∩ T(t_i) ∩
  pred-sets``, one set operation per step.

Every node set is a **sorted pre-order int array** (document order is
free). The connectives are a **candidate-set algebra**: a predicate is
only asked which members of a sorted block (a step's candidates) it
holds at — ``and`` narrows the block by its left side, then its right;
``or`` unions the left side's hits with the right side's hits over the
remainder; ``not(p)`` is the block minus ``p``'s hits, one C-level set
difference; ``boolean(π)`` intersects the block with π's backward
propagation. No complement of ``dom`` is ever built and each connective
costs ``O(|block|) ⊆ O(|D|)``; every backward propagation still runs
exactly once per ``boolean``, whatever the block, so the query costs
``O(|Q|)`` sweeps of ``O(|D|)`` (Theorem 13) and ``corexpath_steps`` is
a function of the query alone. Each step goes through the per-step
gate of :mod:`repro.axes.vec` — ``χ(X) ∩ T(t)`` is
:func:`~repro.axes.vec.forward_step`, a backward step
:func:`~repro.axes.vec.filter_step` then
:func:`~repro.axes.vec.inverse_step`: the axis's output-sensitive
NodeIndex kernel, or the paper's ``O(|D|)`` Definition-1 scan when a
narrow interval step predicts no saving — so a selective step costs
``O(|X|·log|D| + output)`` (the fallback rule lives in the kernels; see
:mod:`repro.axes`). OPTMINCONTEXT routes whole-query Core XPath here;
benchmark EXP-T13 verifies the linear scaling, EXP-AXIS the
output-sensitive fast path.

Because pres thread end-to-end — context in, set algebra through, pres
out — the only place this evaluator touches a boxed ``Node`` in
non-scan mode is the final ``nodes[pre]`` materialization of the
*result*. On a column-only document
(:class:`repro.xml.columns.ColumnDocument`) that means a whole Core
XPath query costs O(output) node objects; scan mode and the reference
evaluators (``naive``, ``topdown``, ``bottomup``) iterate
``document.nodes`` and simply materialize what they touch — the eager
fallback, byte-identical either way. MINCONTEXT / OPTMINCONTEXT share
this pre plane (:mod:`repro.core.mincontext`).
"""

from __future__ import annotations

from repro import stats
from repro.axes.vec import filter_step, forward_step, intersect, inverse_step
from repro.core.context import Context
from repro.errors import FragmentViolationError
from repro.xml.document import Document, Node
from repro.xpath.ast import BinaryOp, Expr, FunctionCall, Path, Step
from repro.xpath.fragments import core_xpath_violation


def _without(block, hits: list[int]) -> list[int]:
    """``block - hits`` for a sorted block and sorted ``hits ⊆ block``."""
    if not hits:
        return block if isinstance(block, list) else list(block)
    return sorted(set(block).difference(hits))


class CoreXPathEvaluator:
    """Forward/backward sorted-array evaluation for Core XPath queries."""

    def __init__(self, document: Document):
        self.document = document
        self._dom_pres: list[int] | None = None

    # ------------------------------------------------------------------

    def evaluate(self, expr: Expr, context: Context) -> list[Node]:
        """Evaluate a Core XPath query; raises
        :class:`repro.errors.FragmentViolationError` outside the fragment."""
        violation = core_xpath_violation(expr)
        if violation is not None:
            raise FragmentViolationError(f"not a Core XPath query: {violation}")
        assert isinstance(expr, Path)
        result = self._forward_path(expr, [context.node.pre])
        nodes = self.document.nodes
        return [nodes[pre] for pre in result]

    def forward_from_pres(self, steps: list[Step], pres: list[int]) -> list[int]:
        """Forward-sweep a *relative* step suffix from an
        already-materialized sorted pre array.

        The batch-shared step DAG (:mod:`repro.service.batchplan`) splits
        an absolute path at a step boundary and resumes here: each step
        is a pure set function of its origin set (per-origin candidates,
        unioned), so ``forward(suffix, forward(prefix, {root}))`` equals
        the unsplit sweep. Steps must be Core — a non-Core predicate
        raises :class:`~repro.errors.FragmentViolationError`, exactly as
        :meth:`evaluate` would (callers fall back to independent
        evaluation, keeping the paper's bounds).
        """
        return self._sweep(steps, list(pres))

    def _all_pres(self) -> list[int]:
        """``dom`` as a sorted pre array (built once; callers treat it as
        immutable, so sharing is safe)."""
        if self._dom_pres is None:
            self._dom_pres = list(range(len(self.document.nodes)))
        return self._dom_pres

    # ------------------------------------------------------------------

    def _forward_path(self, path: Path, start: list[int]) -> list[int]:
        current = [0] if path.absolute else list(start)
        return self._sweep(path.steps, current)

    def _sweep(self, steps: list[Step], current: list[int]) -> list[int]:
        """Forward-sweep a step chain: every step runs, even on an empty
        set."""
        for step in steps:
            stats.count("corexpath_steps")
            current = forward_step(self.document, step.axis, current, step.node_test)
            for predicate in step.predicates:
                if not current:
                    break
                current = self._within(predicate, current)
        return current if isinstance(current, list) else list(current)

    # ------------------------------------------------------------------

    def _within(self, predicate: Expr, block) -> list[int]:
        """The members of the sorted block ``block`` at which the
        predicate holds. Both sides of every connective are evaluated
        whatever the block, so the sweeps that run depend on the query
        alone."""
        if isinstance(predicate, BinaryOp) and predicate.op == "and":
            return self._within(predicate.right, self._within(predicate.left, block))
        if isinstance(predicate, BinaryOp) and predicate.op == "or":
            hits = self._within(predicate.left, block)
            more = self._within(predicate.right, _without(block, hits))
            return sorted(hits + more) if hits and more else hits or more
        if isinstance(predicate, FunctionCall) and predicate.name == "not":
            return _without(block, self._within(predicate.args[0], block))
        if isinstance(predicate, FunctionCall) and predicate.name == "boolean":
            return self._exists_within(predicate.args[0], block)
        raise FragmentViolationError(f"non-Core predicate: {predicate!r}")

    def _exists_within(self, path: Expr, block) -> list[int]:
        """``{cn ∈ block | path evaluates to a nonempty set at cn}``:
        backward propagation from all of ``dom`` (no positions in Core
        XPath, so one pass suffices), intersected with the block."""
        assert isinstance(path, Path)
        current = self._all_pres()
        for step in reversed(path.steps):
            stats.count("corexpath_steps")
            if not current:
                break
            tested = filter_step(self.document, step.axis, current, step.node_test)
            for predicate in step.predicates:
                tested = self._within(predicate, tested)
            current = inverse_step(self.document, step.axis, tested)
        if path.absolute:
            # pre 0 is the document node: the path holds everywhere or nowhere.
            holds = bool(current) and current[0] == 0
            return (block if isinstance(block, list) else list(block)) if holds else []
        return intersect(block, current)
