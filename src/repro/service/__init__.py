"""The service layer: staged compilation, batch sharing, dispatch.

The paper's algorithms bound *evaluation* cost, one (query, document)
pair at a time; this package amortizes everything that happens before
evaluation. A batch flows through four layers — logical → batch →
dispatch → rows:

1. **logical planning (document-independent)** — each distinct
   ``(query, bindings)`` pair is compiled once (parse → normalize →
   relevance → fragment classification → trait extraction)
   into a :class:`LogicalPlan`, held in the plan cache, a
   :class:`Memo`. A logical plan deliberately names *no* evaluator:
   it carries the fragment classification that picks one and the cost
   features (:class:`~repro.service.plan.PlanTraits`) admission prices
   — including ``step_keys``, the canonical per-step rendering of plain
   absolute paths that the batch stage keys on.
2. **batch planning (per batch of queries)** — between logical planning
   and per-document work, :func:`repro.service.batchplan.build_batch_plan`
   unifies the batch's common step prefixes into a shared-step DAG
   (:class:`~repro.service.batchplan.BatchPlan`): each distinct
   (step-prefix, document) node-set is evaluated at most once — lazily,
   only when a consumer actually misses the per-document result memo —
   and every consumer plan resumes from its longest materialized prefix
   (Core residuals continue the sorted-pre-array sweep via
   :meth:`~repro.core.corexpath.CoreXPathEvaluator.forward_from_pres`;
   non-Core residuals evaluate a :class:`~repro.xpath.ast.ConstantNodeSet`-
   rooted residual plan). Sharing only ever removes work: any per-cell
   error falls back to independent evaluation of exactly that cell, so
   the paper's worst-case bounds are untouched, and ``share=False``
   (``--no-share``) reproduces independent evaluation byte-identically,
   stats included. Exact accounting lives on
   :data:`repro.stats.BatchPlanStats` family (``BatchResult.batch_plan``).
3. **dispatch (per plan)** — ``auto`` is the paper's fragment dispatch,
   :meth:`LogicalPlan.best_algorithm`: Core XPath runs Theorem 13's
   linear-time set sweep (``corexpath``), everything else OPTMINCONTEXT
   with Corollary 11's bounds. The choice reads no document and no
   history. The kernels under either evaluator keep a guarantee of
   their own: the axis dispatch (:func:`repro.axes.vec.forward_step`)
   reverts to the Definition-1 ``O(|D|)`` scans whenever predicted
   output is large. A price for the chosen evaluator — abstract units
   from :mod:`repro.service.cost` (plan traits × :class:`DocumentProfile`)
   times the observed seconds per unit on :attr:`QueryService.timings`
   — is what admission control reads.
4. **rows (per document)** — :meth:`QueryService.batch_rows` is the
   one batch loop: for each document in order it yields that document's
   row, through the DAG's ``evaluate_row`` when a prefix is shared, cell
   by cell through the session memo otherwise. Either way the session's
   ``corexpath`` instance reads the session's holds memo, so each
   Core XPath predicate path is propagated backwards once per document
   while its set stays in the memo, across queries, batches and
   requests.
   :meth:`QueryService.evaluate_many` consumes it whole into one
   :class:`BatchResult`; the serving daemon's ``BATCH`` steps it one row
   per worker-thread hop, so its first rows are ready before its last
   document is evaluated, and a deadline keeps the finished rows.

Modules:

* :mod:`repro.service.plan` — :class:`LogicalPlan` /
  :class:`PlanTraits` / :func:`plan_key`;
* :mod:`repro.service.planner` — the logical frontend pipeline and the
  static algorithm dispatch;
* :mod:`repro.service.batchplan` — the batch layer: :class:`BatchPlan` /
  :func:`build_batch_plan`, prefix unification and residual evaluation;
* :mod:`repro.service.cost` — :class:`DocumentProfile` and the
  admission price of a (plan, document, evaluator) cell;
* :mod:`repro.service.cache` — :class:`Memo`, the one store type of
  the layer: thread-safe, least recently used entries out first,
  bounded in cost units, exact counters. The plan cache, the session
  map, each session's result and holds memos and the planner's step
  memo are its instances;
* :mod:`repro.service.service` — :class:`QueryService` /
  :class:`DocumentSession` / :class:`BatchResult` (thread-safe: one
  service may be shared across concurrent drivers).

Quickstart::

    from repro import QueryService, parse_document

    service = QueryService(plan_capacity=128)
    docs = [parse_document(x) for x in sources]
    batch = service.evaluate_many(["//book/title", "//book[price > 20]"], docs)
    batch.value(0, 1)                      # doc 0, second query
    batch.batch_plan                       # shared-step DAG counters
    service.cache_stats()["plan_cache"]    # hits / misses / hit_rate
    service.cache_stats()["timings"]       # observed seconds per unit

Inspecting the stages — what runs where, and why::

    plan = service.plan("//book[price > 20]/title")   # logical (cached)
    plan.best_algorithm()              # what auto runs: 'optmincontext'
    from repro.service.cost import cost_units, document_profile
    cost_units(plan, document_profile(docs[0]), plan.best_algorithm())
    from repro.service.batchplan import build_batch_plan
    print(build_batch_plan([plan, service.plan("//book/title")]).describe())
    # CLI forms: repro-xpath plan --explain --file doc.xml QUERY
    #            repro-xpath plan --explain-batch QUERY QUERY...
"""

from repro.service.batchplan import BatchPlan, build_batch_plan
from repro.service.cache import Memo
from repro.service.cost import DocumentProfile, document_profile
from repro.service.plan import LogicalPlan, PlanTraits, plan_key
from repro.service.planner import (
    ALGORITHMS,
    QueryPlanner,
    compile_plan,
    make_evaluator,
    resolve_algorithm,
)
from repro.service.service import BatchResult, DocumentSession, QueryService

__all__ = [
    "ALGORITHMS",
    "BatchPlan",
    "BatchResult",
    "DocumentProfile",
    "DocumentSession",
    "LogicalPlan",
    "Memo",
    "PlanTraits",
    "QueryPlanner",
    "QueryService",
    "build_batch_plan",
    "compile_plan",
    "document_profile",
    "make_evaluator",
    "plan_key",
    "resolve_algorithm",
]
