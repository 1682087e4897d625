"""Logical query plans — stage 1 of the two-stage compilation pipeline.

A :class:`LogicalPlan` is everything the *document-independent* frontend
pipeline produces for one query string: the normalized (and optionally
rewritten) AST with ``value_type``/``Relev`` annotations, the fragment
classification (Definition 12 and Section 4 of the paper), the bottom-up
path count, and the :class:`PlanTraits` the cost model reads (AST size,
position dependence, sibling-positional steps, string-function count).
Building one costs a parse and one pass over the tree that normalizes
it and derives all of the above (:func:`repro.xpath.normalize.analyze`),
plus, with ``optimize``, a rewrite and one more pass; evaluating one is
pure — the plan never changes and may be shared freely across
documents, contexts, and threads of evaluation.
That asymmetry is the whole point of the service layer: compile once,
evaluate many times (Theorems 7/10/13 bound the *evaluation* cost; the
frontend cost is amortized away by
:class:`repro.service.cache.PlanCache`).

What a logical plan deliberately does *not* contain is an evaluator
choice: stage 2 (:mod:`repro.service.specialize`) turns a logical plan
plus a per-document :class:`~repro.service.specialize.DocumentProfile`
into a :class:`~repro.service.specialize.PhysicalPlan` naming the chosen
algorithm. :meth:`LogicalPlan.best_algorithm` remains the
document-independent *static* fragment dispatch (Core XPath →
``corexpath``, else ``optmincontext``) — the stage-2 fallback and the
``--no-specialize`` behavior.

:class:`PlanOptions` captures the compile-time knobs that change the
produced AST — the rewrite flag and the variable bindings — so the cache
key ``(query, options)`` never conflates distinct plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xpath.ast import Expr
from repro.xpath.normalize import Analysis, Counts, StepSummary
from repro.xpath.rewrite import RewriteStats


def freeze_variables(variables: dict[str, object] | None) -> tuple:
    """A hashable signature of a variable binding for plan-cache keys.

    Scalars key by value; node-set bindings key by member identity (two
    bindings to the same nodes are the same plan; the plan itself retains
    the real dict, so the signature only ever has to separate plans).
    """
    if not variables:
        return ()
    items = []
    for name in sorted(variables):
        value = variables[name]
        if isinstance(value, (str, float, int, bool)) or value is None:
            # type name included: True == 1 in Python, but string($v)
            # is 'true' vs '1' — they must be distinct plans.
            items.append((name, type(value).__name__, value))
        elif isinstance(value, (list, tuple, set, frozenset)):
            items.append((name, "nset", tuple(sorted(id(member) for member in value))))
        else:
            items.append((name, "object", id(value)))
    return tuple(items)


@dataclass(frozen=True)
class PlanOptions:
    """Compile-time options that select *which* plan a query maps to."""

    optimize: bool = False
    variables_signature: tuple = ()

    @classmethod
    def make(
        cls, variables: dict[str, object] | None = None, optimize: bool = False
    ) -> "PlanOptions":
        return cls(optimize=bool(optimize), variables_signature=freeze_variables(variables))


def plan_key(query: str, options: PlanOptions) -> tuple:
    """The plan-cache key: the exact query text plus its compile options."""
    return (query, options)


@dataclass(frozen=True)
class PlanTraits:
    """Document-independent cost features of one normalized AST.

    Read off the tree's :class:`~repro.xpath.normalize.Analysis` at
    compile time and read by the stage-2 cost model together with a
    :class:`DocumentProfile`:

    * ``ast_size`` — total AST node count, the ``|Q|`` of the paper's
      bounds;
    * ``uses_position`` — some subexpression's ``Relev`` touches
      ``cp``/``cs``, so evaluation runs (cp, cs) loops somewhere;
    * ``positional_sibling`` — a sibling-axis step carries a
      position-dependent predicate: the loop width then scales with the
      document's fanout (sibling-run length), not just ``|D|``;
    * ``string_op_count`` — string-library calls, whose cost scales with
      the document's text volume;
    * ``indexed_axis_steps`` — steps on the interval axes
      (descendant/descendant-or-self/following/preceding), the ones the
      fused NodeIndex kernels turn into partition range queries;
    * ``name_test_tags`` — the element tags those steps name-test (the
      *name-test selectivity hook*: combined with a profile's per-tag
      counts, stage 2 can predict how small the fused kernels' outputs
      are — see :func:`repro.service.specialize.name_test_selectivity`);
    * ``step_keys`` — the canonical per-step keys of the query's main
      path, when the query *is* a plain absolute location path: each
      normalized step's canonical text (its ``unparse``). Two plans
      whose chains share a prefix denote the same intermediate node-sets
      (``//a`` and
      ``/descendant-or-self::node()/child::a`` unify here because
      normalization expands abbreviations before unparsing), which is
      what the batch-shared step DAG (:mod:`repro.service.batchplan`)
      keys on. Empty for any other query shape — and deliberately empty
      when the AST embeds a :class:`~repro.xpath.ast.ConstantNodeSet`
      (bound node-set variables), whose unparse renders only its *size*:
      two different bindings would collide on the same key, so such
      plans are never shared.
    """

    ast_size: int = 1
    uses_position: bool = False
    positional_sibling: bool = False
    string_op_count: int = 0
    indexed_axis_steps: int = 0
    name_test_tags: tuple = ()
    step_keys: tuple = ()


@dataclass
class LogicalPlan:
    """A parsed, normalized, analyzed query, reusable across evaluations.

    Attributes:
        source: the original query string.
        ast: normalized AST with ``value_type`` and ``relev`` annotations.
        result_type: static type of the whole query.
        core_violation: why the query is outside Core XPath (None if in).
        wadler_violation: why it is outside the Extended Wadler Fragment.
        bottomup_path_count: number of subexpressions OPTMINCONTEXT will
            evaluate bottom-up.
        traits: the document-independent cost features the stage-2
            specializer reads (see :class:`PlanTraits`).
        options: the compile-time options this plan was built under.
        step_summaries: one :class:`~repro.xpath.normalize.StepSummary`
            per main-path step when ``traits.step_keys`` is non-empty: the
            batch planner describes any prefix of the path from them
            without walking it. Kept beside the traits, not in them:
            ``PlanTraits`` is the cost model's (and the golden corpus's)
            record of the whole query.
    """

    source: str
    ast: Expr
    result_type: str
    core_violation: str | None
    wadler_violation: str | None
    bottomup_path_count: int
    variables: dict[str, object] = field(default_factory=dict, repr=False)
    #: What the optimizer pass did (None when compiled with optimize=False).
    rewrite_stats: RewriteStats | None = None
    traits: PlanTraits = field(default_factory=PlanTraits)
    options: PlanOptions = field(default_factory=PlanOptions)
    step_summaries: tuple[StepSummary, ...] = field(default=(), repr=False)

    @classmethod
    def from_analysis(
        cls,
        source: str,
        analysis: Analysis,
        variables: dict[str, object] | None = None,
        rewrite_stats: RewriteStats | None = None,
        optimize: bool = False,
    ) -> "LogicalPlan":
        """The plan of an analyzed tree (see :class:`PlanTraits` for when
        a plan has step keys)."""
        counts = Counts.unpack(analysis.counts)
        steps = () if counts.constants else analysis.steps
        return cls(
            source=source,
            ast=analysis.ast,
            result_type=analysis.ast.value_type or "nset",
            core_violation=analysis.core,
            wadler_violation=analysis.wadler,
            bottomup_path_count=counts.bottomup,
            variables={} if variables is None else variables,
            rewrite_stats=rewrite_stats,
            traits=PlanTraits(
                ast_size=counts.size,
                uses_position=counts.positions > 0,
                positional_sibling=counts.siblings > 0,
                string_op_count=counts.string_ops,
                indexed_axis_steps=counts.indexed,
                name_test_tags=tuple(sorted(analysis.tags)),
                step_keys=tuple(step.key for step in steps),
            ),
            options=PlanOptions.make(variables, optimize),
            step_summaries=steps,
        )

    @property
    def is_core_xpath(self) -> bool:
        return self.core_violation is None

    @property
    def is_extended_wadler(self) -> bool:
        return self.wadler_violation is None

    def best_algorithm(self) -> str:
        """The *static* (document-independent) fragment dispatch ``auto``
        falls back to when no specializer is attached: Core XPath →
        Theorem 13's linear-time evaluator, everything else →
        OPTMINCONTEXT. The cost-driven per-document choice lives in
        :class:`repro.service.specialize.PlanSpecializer`."""
        if self.is_core_xpath:
            return "corexpath"
        return "optmincontext"

    @property
    def algorithm(self) -> str:
        """Alias for :meth:`best_algorithm` — derived, never stored, so it
        cannot drift from the fragment classification."""
        return self.best_algorithm()

    @property
    def cache_key(self) -> tuple:
        return plan_key(self.source, self.options)


#: Backward-compatible aliases — the class was named ``CompiledPlan``
#: before the two-stage split (and ``CompiledQuery`` in the engine facade
#: that predates the service layer). Both names remain importable;
#: ``LogicalPlan`` is the stage-1 name the architecture docs use.
CompiledPlan = LogicalPlan
CompiledQuery = LogicalPlan
