"""The query planner: stage 1 of the two-stage compilation pipeline.

This module owns the *document-independent* half of compilation:

* :func:`compile_plan` — parse → normalize (variables substituted,
  conversions explicit) → relevance analysis → optional rewrite →
  fragment classification → trait extraction, producing a
  :class:`~repro.service.plan.LogicalPlan`;
* :func:`resolve_algorithm` — validate an algorithm name, apply the
  *static* ``auto`` fragment dispatch (Core XPath → Theorem 13's
  linear-time evaluator, everything else → OPTMINCONTEXT), and enforce
  fragment membership for forced choices;
* :func:`make_evaluator` — instantiate the chosen evaluator for a
  document.

Stage 2 — turning a logical plan into a per-document *physical* plan via
the cost-driven algorithm selector — lives in
:mod:`repro.service.specialize`; :func:`resolve_algorithm` is its
document-blind fallback (and the exact behavior of ``--no-specialize``).
:class:`XPathEngine <repro.engine.XPathEngine>` and
:class:`QueryService <repro.service.service.QueryService>` are both thin
clients of these functions.
"""

from __future__ import annotations

from repro import stats
from repro.core.bottomup import BottomUpEvaluator
from repro.core.corexpath import CoreXPathEvaluator
from repro.core.mincontext import MinContextEvaluator
from repro.core.naive import NaiveEvaluator
from repro.core.optmincontext import OptMinContextEvaluator
from repro.core.topdown import TopDownEvaluator
from repro.errors import FragmentViolationError, UnknownAlgorithmError, XPathSyntaxError
from repro.service.plan import CompiledPlan, LogicalPlan, PlanOptions, compute_traits
from repro.xml.document import Document
from repro.xpath.fragments import (
    core_xpath_violation,
    find_bottomup_paths,
    wadler_violation,
)
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance
from repro.xpath.rewrite import RewriteStats, rewrite

#: The selectable evaluation algorithms.
ALGORITHMS = (
    "auto",
    "naive",
    "bottomup",
    "topdown",
    "mincontext",
    "optmincontext",
    "corexpath",
)

_EVALUATOR_CLASSES = {
    "naive": NaiveEvaluator,
    "bottomup": BottomUpEvaluator,
    "topdown": TopDownEvaluator,
    "mincontext": MinContextEvaluator,
    "optmincontext": OptMinContextEvaluator,
    "corexpath": CoreXPathEvaluator,
}

#: Evaluators that keep no per-evaluation state: one instance per
#: document can serve any number of plans and contexts. The table-based
#: evaluators (bottomup, mincontext, optmincontext) are single-use per
#: evaluation, as their docstrings require.
REUSABLE_ALGORITHMS = frozenset({"naive", "topdown", "corexpath"})


def compile_plan(
    query: str,
    variables: dict[str, object] | None = None,
    optimize: bool = False,
) -> LogicalPlan:
    """Run the full stage-1 frontend pipeline on one query string.

    The passes after the parser recurse over the tree. The parser bounds
    the nesting it recurses into (:data:`repro.xpath.parser.MAX_DEPTH`),
    not the height of an operator chain, so a tree too tall for these
    passes (a chain of some five hundred terms) is refused here: an
    :class:`~repro.errors.XPathSyntaxError`, never a ``RecursionError``.
    """
    stats.count("plans_compiled")
    bindings = dict(variables or {})
    try:
        ast = normalize(parse_xpath(query), bindings)
        compute_relevance(ast)
        rewrite_stats = None
        if optimize:
            rewrite_stats = RewriteStats()
            ast = rewrite(ast, rewrite_stats)
            compute_relevance(ast)
        return LogicalPlan(
            source=query,
            ast=ast,
            result_type=ast.value_type or "nset",
            core_violation=core_xpath_violation(ast),
            wadler_violation=wadler_violation(ast),
            bottomup_path_count=len(find_bottomup_paths(ast)),
            variables=bindings,
            rewrite_stats=rewrite_stats,
            traits=compute_traits(ast),
            options=PlanOptions.make(bindings, optimize),
        )
    except RecursionError:
        raise XPathSyntaxError("query nested too deeply to compile") from None


class QueryPlanner:
    """Stateless compiler facade (kept as a class so services can swap in
    instrumented or restricted planners later)."""

    def compile(
        self,
        query: str,
        variables: dict[str, object] | None = None,
        optimize: bool = False,
    ) -> LogicalPlan:
        return compile_plan(query, variables, optimize)


def resolve_algorithm(plan: LogicalPlan, algorithm: str = "auto") -> str:
    """Validate and *statically* resolve an algorithm name for a plan
    (document-blind fragment dispatch — the stage-2 specializer refines
    ``auto`` per document profile when one is attached).

    Raises :class:`repro.errors.UnknownAlgorithmError` for names outside
    :data:`ALGORITHMS` and :class:`repro.errors.FragmentViolationError`
    when ``corexpath`` is forced onto a query outside Core XPath.
    """
    if algorithm not in ALGORITHMS:
        raise UnknownAlgorithmError(algorithm, ALGORITHMS)
    if algorithm == "auto":
        algorithm = plan.best_algorithm()
    if algorithm == "corexpath" and not plan.is_core_xpath:
        raise FragmentViolationError(
            f"query is not in Core XPath: {plan.core_violation}"
        )
    return algorithm


def make_evaluator(document: Document, algorithm: str):
    """Instantiate the evaluator for a resolved (non-``auto``) algorithm."""
    try:
        evaluator_class = _EVALUATOR_CLASSES[algorithm]
    except KeyError:
        raise UnknownAlgorithmError(algorithm, ALGORITHMS) from None
    return evaluator_class(document)
