"""The query planner: compilation and the ``auto`` fragment dispatch.

This module owns the *document-independent* half of compilation:

* :func:`compile_plan` — parse, then one pass over the tree that
  normalizes it (variables substituted, conversions explicit) and, node
  by node, derives ``Relev``, the fragment verdicts, the bottom-up path
  count, the cost traits and each step's canonical key
  (:func:`repro.xpath.normalize.analyze`). The result is a
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
clients of these functions, through a :class:`QueryPlanner` each.

**Three memos** (each a :class:`~repro.service.cache.Memo`, least
recently used out first), consulted in turn:

* the owner's plan cache, by exact text and bindings
  (:func:`~repro.service.plan.plan_key`);
* :attr:`QueryPlanner.templates`, for a query with a literal and only
  scalar bindings, by its template
  (:meth:`Lexer.template <repro.xpath.lexer.Lexer.template>`) and
  bindings: the plan of the template's first query, which a hit binds
  this query's literals into (:func:`_bind`) without a parse — a plan's
  fragment, evaluator and price never read a literal's value;
* :attr:`QueryPlanner.steps`, in every full compile (``plans_compiled``
  counts those): each normalized location step that begins with a name
  and has predicates without a ``$``, literal or number, and its
  :class:`~repro.xpath.normalize.StepSummary`, under its source text;
  the lexer cuts such a step as one *step group*, and on a hit the
  parser returns the stored step with none of its tokens typed and the
  pass after it skips its predicates, so six continuations of
  ``//book[P]`` lex and parse ``P`` once.

A compile cuts its query into lexemes once
(:class:`~repro.xpath.lexer.Lexer`): the template is keyed from the
lexemes the parser then types, and the parser records the nodes a bind
may share as it builds them. ``tokens_typed`` counts the tokens a
parsed query had typed.

:func:`compile_plan`, :func:`~repro.xpath.parser.parse_xpath` and
:func:`~repro.xpath.normalize.analyze` alone build every tree cold, and
so does the planner for a query long enough to pass ``MAX_HEIGHT``.
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
from repro.service.cache import Memo
from repro.service.plan import LogicalPlan, PlanTraits, freeze_variables
from repro.xml.document import Document
from repro.xpath.ast import Step, clone
from repro.xpath.lexer import Lexer
from repro.xpath.normalize import MAX_HEIGHT, StepSummary, analyze
from repro.xpath.parser import parse_xpath
from repro.xpath.unparse import step_to_string, unparse

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


def compile_plan(query: str, variables: dict[str, object] | None = None) -> LogicalPlan:
    """Run the full frontend pipeline on one query string.

    The parser bounds the nesting it recurses into
    (:data:`repro.xpath.parser.MAX_DEPTH`), not the height of an operator
    chain; the pass after it refuses a tree taller than
    :data:`repro.xpath.normalize.MAX_HEIGHT` (a chain of some five
    hundred terms) with an :class:`~repro.errors.XPathSyntaxError`.
    """
    stats.count("plans_compiled")
    bindings = dict(variables or {})
    lexer = Lexer(query)
    tree = parse_xpath(lexer)
    stats.count("tokens_typed", len(lexer.tokens) - 1 - lexer.groups)
    return LogicalPlan.from_analysis(query, analyze(tree, bindings), bindings)


class _StepView:
    """One compile's dealings with the step memo: the parser looks steps
    up through ``peek`` (a hit counts there), counting ``lookups``, and
    records each hit in ``hits`` and each step it parsed instead in
    ``misses``, ``(step, key, keys, tokens)``, ``keys`` being the memo
    keys of it and of the memo steps inside it (whether a later hit may
    be shared or must be cloned) and ``tokens`` the count of its tokens
    (what a hit leaves untyped); the pass leaves those steps' summaries
    in ``summaries``. ``keys`` are the memo keys already in the tree, in
    parse order."""

    __slots__ = ("memo", "peek", "lookups", "hits", "summaries", "keys", "misses")

    def __init__(self, memo: Memo):
        self.memo = memo
        self.peek = memo.peek
        self.lookups = 0
        self.hits: dict[Step, tuple] = {}
        self.summaries: dict[Step, StepSummary] = {}
        self.keys: list = []
        self.misses: list = []

    def settle(self) -> None:
        """Count the compile's misses and store the steps the pass
        summarized (all of them, unless the compile failed)."""
        misses = self.lookups - len(self.hits)
        if misses:
            self.memo.stats.tick("misses", misses)
        summaries = self.summaries
        for step, key, keys, tokens in self.misses:
            summary = summaries.get(step)
            if summary is not None:
                self.memo.put(key, (step, summary, keys, tokens))


def _bind(entry: tuple, query: str, values: dict, bindings: dict) -> LogicalPlan:
    """``query``'s plan from its template's ``(plan, free)``: its literals bound into a
    clone, the texts that render one rendered again, every other field the template's."""
    plan, free = entry
    keyed: list = []
    ast = clone(plan.ast, values, free, keyed)
    for path in keyed:
        path.key = unparse(path)
    traits, summaries = plan.traits, plan.step_summaries
    if summaries:
        summaries = tuple(
            summary if step is shared else summary._replace(key=step_to_string(step))
            for summary, step, shared in zip(summaries, ast.steps, plan.ast.steps)
        )
        keys = tuple(summary.key for summary in summaries)
        traits = PlanTraits(traits.ast_size, traits.uses_position, traits.positional_sibling, keys)
    return LogicalPlan(
        query, ast, plan.result_type, plan.core_violation, plan.wadler_violation,
        plan.bottomup_path_count, bindings, traits, summaries,
    )


class QueryPlanner:
    """The compiler a service or an engine owns: :func:`compile_plan`
    through its template and step memos (see the module docstring)."""

    def __init__(self):
        self.steps = Memo(name="step_memo")
        self.templates = Memo(name="template_memo")

    def compile(
        self, query: str, variables: dict[str, object] | None = None
    ) -> LogicalPlan:
        if 2 * len(query) > MAX_HEIGHT:
            # Only a query this long can pass MAX_HEIGHT (each character
            # makes at most two nodes): it compiles cold, and no hit
            # ever needs the height check.
            return compile_plan(query, variables)
        bindings = dict(variables or {})
        lexer = Lexer(query)
        key, found = None, lexer.template()
        if found is not None:
            signature = freeze_variables(bindings)
            # A node-set or object binding is keyed by id(): no template.
            if not (signature and any(item[1] in ("nset", "object") for item in signature)):
                key = (found[0], signature)
                hit = self.templates.get(key)
                if hit is not None:
                    return _bind(hit, query, found[1], bindings)
        stats.count("plans_compiled")
        view = _StepView(self.steps)
        free = None if key is None else {}
        try:
            tree = parse_xpath(lexer, view, free)
            stats.count("tokens_typed", len(lexer.tokens) - 1 - lexer.groups)
            analysis = analyze(tree, bindings, steps=view)
        finally:
            if view.lookups:
                view.settle()
        plan = LogicalPlan.from_analysis(query, analysis, bindings)
        if key is not None:
            self.templates.put(key, (plan, free))
        return plan


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
