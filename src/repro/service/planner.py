"""The query planner: compilation and the ``auto`` fragment dispatch.

This module owns the *document-independent* half of compilation:

* :func:`compile_plan` — parse, then one pass over the tree that
  normalizes it (variables substituted, conversions explicit) and, node
  by node, derives ``Relev``, the fragment verdicts, the bottom-up path
  count, the cost traits and each step's canonical key
  (:func:`repro.xpath.normalize.analyze`); with ``optimize``, a rewrite
  and one more such pass. The result is a
  :class:`~repro.service.plan.LogicalPlan`;
* :func:`resolve_algorithm` — validate an algorithm name, apply the
  *static* ``auto`` fragment dispatch (Core XPath → Theorem 13's
  linear-time evaluator, everything else → OPTMINCONTEXT), and enforce
  fragment membership for forced choices;
* :func:`make_evaluator` — instantiate the chosen evaluator for a
  document.

There is no per-document stage: :func:`resolve_algorithm` is what
``auto`` runs everywhere. :class:`XPathEngine <repro.engine.XPathEngine>` and
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
from repro.errors import FragmentViolationError, UnknownAlgorithmError
from repro.service.plan import CompiledPlan, LogicalPlan
from repro.xml.document import Document
from repro.xpath.normalize import analyze
from repro.xpath.parser import parse_xpath
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
    """Run the full frontend pipeline on one query string.

    The parser bounds the nesting it recurses into
    (:data:`repro.xpath.parser.MAX_DEPTH`), not the height of an operator
    chain; the pass after it refuses a tree taller than
    :data:`repro.xpath.normalize.MAX_HEIGHT` (a chain of some five
    hundred terms) with an :class:`~repro.errors.XPathSyntaxError`.
    """
    stats.count("plans_compiled")
    bindings = dict(variables or {})
    analysis = analyze(parse_xpath(query), bindings)
    rewrite_stats = None
    if optimize:
        rewrite_stats = RewriteStats()
        analysis = analyze(rewrite(analysis.ast, rewrite_stats), normalized=True)
    return LogicalPlan.from_analysis(query, analysis, bindings, rewrite_stats, optimize)


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
    """Validate an algorithm name for a plan and resolve ``auto`` to the
    plan's fragment dispatch (:meth:`LogicalPlan.best_algorithm`).

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
