"""The naive evaluator: a faithful model of 2002-era XPath engines.

The paper's introduction rests on the experimental finding of [11] that
XALAN, XT, and IE6 take time *exponential in the query size*. The
mechanism identified there is per-context re-evaluation without sharing:
a location step maps a **list** of context nodes to the concatenation of
per-node result lists, so duplicates accumulate and every subexpression
is re-evaluated for every occurrence. On a two-``b`` document, the query

    //b/parent::a/child::b/parent::a/child::b/...

doubles the intermediate list at every ``parent/child`` pair — the
classic ``2^(|Q|/2)`` blow-up (benchmark EXP-X1 regenerates the curve).

This evaluator is *semantically correct* (the differential test suite
holds it to the same answers as MINCONTEXT): duplicates never change
node-set membership, per-context predicate groups see the right
positions, and the final node-set is deduplicated and document-ordered at
the boundary, exactly as real engines did. Only the *cost* is the
historical one.

Contexts are ``(pre, position, size)`` triples and node sets lists of
pres (:mod:`repro.core.common`); only the answer is boxed.
"""

from __future__ import annotations

from repro import stats
from repro.axes.axes import axis_test_pres
from repro.core.common import Evaluator, apply_operator, constant_pres
from repro.errors import EvaluationError
from repro.xpath.ast import (
    BinaryOp,
    ConstantNodeSet,
    Expr,
    FunctionCall,
    Negate,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    Union,
)


class NaiveEvaluator(Evaluator):
    """Recursive interpreter with list-based node-set semantics."""

    def pre_value(self, expr: Expr, triple: tuple):
        """The boundary value: a node set deduplicated, in document
        order."""
        value = self._eval(expr, triple)
        if expr.value_type == "nset":
            value = sorted(set(value))
        return value

    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, context: tuple):
        stats.count("naive_eval_calls")
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, ConstantNodeSet):
            return constant_pres(self.document, expr)
        if isinstance(expr, FunctionCall):
            if expr.name == "position":
                return float(context[1])
            if expr.name == "last":
                return float(context[2])
            values = [self._boundary(a, self._eval(a, context)) for a in expr.args]
            return apply_operator(self.document, expr, values, context[0])
        if isinstance(expr, (BinaryOp, Negate)):
            values = [self._boundary(c, self._eval(c, context)) for c in expr.children()]
            return apply_operator(self.document, expr, values, context[0])
        if isinstance(expr, Union):
            # Concatenation without deduplication: the naive hallmark.
            return self._eval(expr.left, context) + self._eval(expr.right, context)
        if isinstance(expr, Path):
            return self._eval_path(expr, context)
        raise EvaluationError(f"naive evaluator cannot handle {expr!r}")

    def _boundary(self, expr: Expr, value):
        """Deduplicate node-set values crossing into F[[Op]].

        Even 2002-era engines treated node-sets as *sets* at function
        boundaries (count/sum/string must not see duplicates); the
        historical blow-up lives purely in the per-context re-evaluation
        of location steps, which this method does not touch.
        """
        if expr.value_type == "nset":
            return list(dict.fromkeys(value))
        return value

    # ------------------------------------------------------------------

    def _eval_path(self, path: Path, context: tuple) -> list[int]:
        if path.absolute:
            current = [0]  # the document node
        elif path.primary is not None:
            primary_value = self._eval(path.primary, context)
            # Filter-expression predicates rank the primary's *set* in
            # document order, so duplicates must not distort positions.
            current = sorted(set(primary_value))
            for predicate in path.primary_predicates:
                current = self._filter_by_predicate(current, predicate)
        else:
            current = [context[0]]
        for step in path.steps:
            current = self._eval_step(step, current)
        return current

    def _eval_step(self, step: Step, origins: list[int]) -> list[int]:
        result: list[int] = []
        for origin in origins:
            stats.count("naive_step_contexts")
            candidates = axis_test_pres(self.document, step.axis, origin, step.node_test)
            for predicate in step.predicates:
                candidates = self._filter_by_predicate(candidates, predicate)
            result.extend(candidates)
        return result

    def _filter_by_predicate(self, candidates: list[int], predicate: Expr) -> list[int]:
        """One predicate pass: each survivor list re-ranks the next pass."""
        size = len(candidates)
        survivors: list[int] = []
        for position, candidate in enumerate(candidates, start=1):
            stats.count("naive_predicate_evaluations")
            if self._eval(predicate, (candidate, position, size)):
                survivors.append(candidate)
        return survivors
