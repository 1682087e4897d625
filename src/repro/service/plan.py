"""Logical query plans — the compiled, document-independent form of a query.

A :class:`LogicalPlan` is everything the *document-independent* frontend
pipeline produces for one query string: the normalized AST with
``value_type``/``Relev`` annotations, the fragment
classification (Definition 12 and Section 4 of the paper), the bottom-up
path count, and the :class:`PlanTraits` the cost model reads (AST size,
position dependence, sibling-positional steps).
Building one costs a parse and one pass over the tree that normalizes
it and derives all of the above (:func:`repro.xpath.normalize.analyze`);
evaluating one is pure — the plan never changes and may be shared freely across
documents, contexts, and threads of evaluation.
That asymmetry is the whole point of the service layer: compile once,
evaluate many times (Theorems 7/10/13 bound the *evaluation* cost; the
frontend cost is amortized away by
the plan cache, a :class:`repro.service.cache.Memo`).

The evaluator a plan runs under ``auto`` follows from its fragment
classification alone: :meth:`LogicalPlan.best_algorithm` (Core XPath →
``corexpath``, else ``optmincontext``), the same for every document.

A plan is keyed by :func:`plan_key`, the query text and a signature of
its variable bindings — the only inputs that change the produced AST —
so the cache never conflates distinct plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xpath.ast import Expr
from repro.xpath.normalize import Analysis, Counts, StepSummary


def freeze_variables(variables: dict[str, object] | None) -> tuple:
    """A hashable signature of a variable binding for plan-cache keys.

    Scalars key by value; node-set and object bindings key by identity
    (two bindings to the same nodes are the same plan). An ``id()`` only
    names an object while it is alive, so whatever holds such a key also
    holds the bindings: the plan keeps its own copy of the dict
    (:attr:`LogicalPlan.variables`), and a session result-memo entry,
    which outlives the plan's cache slot, keeps that dict and not the
    plan.
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


def plan_key(query: str, variables: dict[str, object] | None = None) -> tuple:
    """The plan-cache key: the exact query text plus the signature of its
    variable bindings."""
    return (query, freeze_variables(variables))


@dataclass(frozen=True)
class PlanTraits:
    """Document-independent cost features of one normalized AST.

    Read off the tree's :class:`~repro.xpath.normalize.Analysis` at
    compile time and read by the admission cost model
    (:mod:`repro.service.cost`) together with a document's
    :class:`~repro.service.cost.DocumentProfile`:

    * ``ast_size`` — total AST node count, the ``|Q|`` of the paper's
      bounds;
    * ``uses_position`` — some subexpression's ``Relev`` touches
      ``cp``/``cs``, so evaluation runs (cp, cs) loops somewhere;
    * ``positional_sibling`` — a sibling-axis step carries a
      position-dependent predicate: the loop width then scales with the
      document's fanout (sibling-run length), not just ``|D|``;
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
        variables: the plan's private copy of its bindings — what keeps
            the objects :attr:`cache_key` names by ``id()`` alive.
        traits: the document-independent cost features admission
            prices (see :class:`PlanTraits`).
        step_summaries: one :class:`~repro.xpath.normalize.StepSummary`
            per main-path step when ``traits.step_keys`` is non-empty: the
            batch planner describes any prefix of the path from them
            without walking it. Kept beside the traits, not in them:
            ``PlanTraits`` is the cost model's (and the golden corpus's)
            record of the whole query.
        cache_key: :func:`plan_key` of the source and bindings this plan
            was built from, computed once; the plan cache, the result
            memo and the batch planner key on it. Only the plan cache
            holds the plan under it: the result memo keeps the key and
            :attr:`variables`, so an evicted plan is garbage.
    """

    source: str
    ast: Expr
    result_type: str
    core_violation: str | None
    wadler_violation: str | None
    bottomup_path_count: int
    variables: dict[str, object] = field(default_factory=dict, repr=False)
    traits: PlanTraits = field(default_factory=PlanTraits)
    step_summaries: tuple[StepSummary, ...] = field(default=(), repr=False)
    cache_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cache_key = plan_key(self.source, self.variables)

    @classmethod
    def from_analysis(
        cls,
        source: str,
        analysis: Analysis,
        variables: dict[str, object] | None = None,
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
            traits=PlanTraits(
                ast_size=counts.size,
                uses_position=counts.positions > 0,
                positional_sibling=counts.siblings > 0,
                step_keys=tuple(step.key for step in steps),
            ),
            step_summaries=steps,
        )

    @property
    def is_core_xpath(self) -> bool:
        return self.core_violation is None

    @property
    def is_extended_wadler(self) -> bool:
        return self.wadler_violation is None

    def best_algorithm(self) -> str:
        """What ``auto`` runs, the paper's fragment dispatch: Core XPath →
        Theorem 13's linear-time evaluator, everything else →
        OPTMINCONTEXT with Corollary 11's bounds."""
        if self.is_core_xpath:
            return "corexpath"
        return "optmincontext"
