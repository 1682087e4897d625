"""The service layer: staged compilation, batch sharing, scheduling.

The paper's algorithms bound *evaluation* cost; this package amortizes
everything that happens before evaluation, then keeps the evaluators
saturated. A batch flows through five layers — logical → batch →
physical → schedule → merge:

1. **logical planning (document-independent)** — each distinct
   ``(query, options)`` pair is compiled once (parse → normalize →
   rewrite → relevance → fragment classification → trait extraction)
   into a :class:`LogicalPlan`, held in the exact-accounting LRU
   :class:`PlanCache`. A logical plan deliberately names *no* evaluator:
   it carries the fragment classification and the cost features
   (:class:`~repro.service.plan.PlanTraits`) that the physical stage
   reads — including ``step_keys``, the canonical per-step rendering of
   plain absolute paths that the batch stage keys on.
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
   :class:`repro.stats.BatchPlanStats` (``BatchResult.batch_plan``).
3. **physical specialization (per document)** — a
   :class:`PlanSpecializer` combines a logical plan with a
   :class:`DocumentProfile` (node count, depth, fanout, text ratio,
   per-tag counts) and picks the evaluator via a small explicit cost
   model seeded from the paper's complexity bounds and refined online by
   observed per-algorithm timings (:class:`repro.stats.TimingStats`).
   Since PR 5 the model also prices the evaluators' *indexed* fast
   paths: every candidate's set sweeps run through the fused
   axis+name-test kernels of :mod:`repro.axes` (per-document
   :class:`~repro.xml.index.NodeIndex`, output-sensitive partition
   range queries), so a plan's name-tested interval-axis steps combined
   with the profile's tag counts shrink the sweep share of its estimate
   (:func:`repro.service.specialize.name_test_selectivity`). Candidates
   are restricted to the worst-case-bounded evaluators (``mincontext``,
   ``optmincontext``, and ``corexpath`` inside Core XPath), with
   guarantee clamps above a size threshold — so a mis-estimate costs
   constants, never asymptotics. The same shape of guarantee holds one
   layer down: the *fallback guarantee for the kernels themselves lives
   in the axis dispatch* (:func:`repro.axes.vec.forward_step`), which
   reverts to the Definition-1 ``O(|D|)`` scans whenever predicted
   output is large — evaluator choice and kernel choice can both be
   wrong and the paper's bounds still hold. Specializations are
   memoized in a profile-bucketed memo with exact counters
   (``specialize_cache``) whose eviction victimizes the globally-LRU
   entry of a *largest* profile bucket — one hot profile cannot evict
   every other profile's entries; ``specialize=False`` anywhere in the
   stack falls back to the static fragment dispatch
   (:func:`resolve_algorithm`).
4. **scheduling** — the pluggable middle layer
   (:mod:`repro.service.scheduler`): ``prepare`` plans document shards
   (LPT on node counts — or on *observed per-document seconds* once a
   :class:`~repro.service.shard.ShardTimingHistory` has seen the
   documents), ``dispatch`` evaluates them. Backends:
   :class:`SerialScheduler` (reference), :class:`ThreadScheduler`
   (``ThreadPoolExecutor`` overlap), :class:`ProcessScheduler` (true
   parallelism; documents rebuilt per worker, node-sets rebound by
   pre-order index), and :class:`AsyncScheduler` (asyncio
   coroutine-per-shard, bounded semaphore, thread offload — also the
   only backend that can *stream* shard outcomes as they complete).
   Batch sharing composes: each worker builds its own step DAG over its
   shard, so process workers stay self-contained.
5. **merge** — per-shard values reassembled into batch order, cache and
   batch-plan counters summed exactly (:func:`merge_stats_snapshots` /
   :func:`~repro.service.scheduler.merge_batch_plan_snapshots`;
   incremental form: :meth:`repro.stats.CacheStats.absorb_snapshot`),
   and each shard's wall time fed back into the timing history,
   producing one :class:`BatchResult` regardless of backend.

Modules:

* :mod:`repro.service.plan` — :class:`LogicalPlan` (aliases
  ``CompiledPlan``/``CompiledQuery``) / :class:`PlanTraits` /
  :class:`PlanOptions`;
* :mod:`repro.service.planner` — the logical frontend pipeline and the
  static algorithm dispatch;
* :mod:`repro.service.batchplan` — the batch layer: :class:`BatchPlan` /
  :func:`build_batch_plan`, prefix unification and residual evaluation;
* :mod:`repro.service.specialize` — the physical layer:
  :class:`DocumentProfile`, :class:`PhysicalPlan`,
  :class:`PlanSpecializer`, the cost model;
* :mod:`repro.service.cache` — the thread-safe, exact-accounting LRU
  :class:`PlanCache`;
* :mod:`repro.service.service` — :class:`QueryService` /
  :class:`DocumentSession` / :class:`BatchResult` (thread-safe: one
  service may be shared across concurrent drivers);
* :mod:`repro.service.shard` — deterministic shard planning +
  :class:`ShardTimingHistory` (adaptive weights from observed times);
* :mod:`repro.service.scheduler` — the :class:`Scheduler` seam and its
  four backends;
* :mod:`repro.service.executor` — :class:`ShardedExecutor`, the
  backward-compatible facade that selects a scheduler by backend name;
* :mod:`repro.service.async_service` — :class:`AsyncQueryService` /
  :class:`BatchStream`, the coroutine front end.

Quickstart::

    from repro import QueryService, parse_document

    service = QueryService(plan_capacity=128)    # specialization on
    docs = [parse_document(x) for x in sources]
    batch = service.evaluate_many(["//book/title", "//book[price > 20]"], docs)
    batch.value(0, 1)                      # doc 0, second query
    batch.batch_plan                       # shared-step DAG counters
    service.cache_stats()["plan_cache"]    # hits / misses / hit_rate
    service.cache_stats()["specialize_cache"]   # physical memo counters

Inspecting the stages — what runs where, and why::

    plan = service.plan("//book[price > 20]/title")   # logical (cached)
    plan.best_algorithm()              # static dispatch: 'optmincontext'
    from repro.service.specialize import document_profile
    physical = service.specializer.specialize(plan, document_profile(docs[0]))
    physical.algorithm                 # e.g. 'mincontext' on a small doc
    physical.rationale                 # the profile features that decided
    from repro.service.batchplan import build_batch_plan
    print(build_batch_plan([plan, service.plan("//book/title")]).describe())
    # CLI forms: repro-xpath plan --explain --file doc.xml QUERY
    #            repro-xpath plan --explain-batch QUERY QUERY...

Scaling out, same API — shard the batch across workers::

    batch = service.evaluate_many(queries, docs, workers=4,
                                  shard_by="size-balanced", backend="process")
    batch.workers        # shards actually used
    batch.shards         # per-shard documents, weights, wall times, stats
    batch.plan_stats     # exact sum of the per-shard counters
    # Repeat batches re-balance on the observed per-shard wall times
    # recorded in service.shard_history (adaptive LPT weighting).

Serving from an event loop — the async front end::

    from repro.service import AsyncQueryService

    async_service = AsyncQueryService(service)       # shares the caches
    value = await async_service.evaluate("//b", doc)
    batch = await async_service.evaluate_many(queries, docs, workers=4)
    stream = async_service.stream_many(queries, docs, workers=4,
                                       shard_by="size-balanced")
    async for item in stream:            # results as shards complete
        print(item.document_index, item.query, item.value)
    stream.batch()                       # merged BatchResult, exact stats
"""

from repro.service.async_service import AsyncQueryService, BatchStream, StreamItem
from repro.service.batchplan import BatchPlan, build_batch_plan
from repro.service.cache import PlanCache
from repro.service.executor import (
    EXECUTOR_BACKENDS,
    ShardedExecutor,
    merge_stats_snapshots,
)
from repro.service.plan import (
    CompiledPlan,
    CompiledQuery,
    LogicalPlan,
    PlanOptions,
    PlanTraits,
    plan_key,
)
from repro.service.planner import (
    ALGORITHMS,
    QueryPlanner,
    compile_plan,
    make_evaluator,
    resolve_algorithm,
)
from repro.service.scheduler import (
    SCHEDULER_BACKENDS,
    AsyncScheduler,
    PreparedBatch,
    ProcessScheduler,
    Scheduler,
    SerialScheduler,
    ThreadScheduler,
    make_scheduler,
)
from repro.service.service import BatchResult, DocumentSession, QueryService
from repro.service.shard import (
    SHARD_STRATEGIES,
    Shard,
    ShardTimingHistory,
    plan_shards,
)
from repro.service.specialize import (
    DocumentProfile,
    PhysicalPlan,
    PlanSpecializer,
    document_profile,
)

__all__ = [
    "ALGORITHMS",
    "AsyncQueryService",
    "AsyncScheduler",
    "BatchPlan",
    "BatchResult",
    "BatchStream",
    "CompiledPlan",
    "CompiledQuery",
    "DocumentProfile",
    "DocumentSession",
    "EXECUTOR_BACKENDS",
    "LogicalPlan",
    "PhysicalPlan",
    "PlanCache",
    "PlanOptions",
    "PlanSpecializer",
    "PlanTraits",
    "PreparedBatch",
    "ProcessScheduler",
    "QueryPlanner",
    "QueryService",
    "SCHEDULER_BACKENDS",
    "SHARD_STRATEGIES",
    "Scheduler",
    "SerialScheduler",
    "Shard",
    "ShardTimingHistory",
    "ShardedExecutor",
    "StreamItem",
    "ThreadScheduler",
    "build_batch_plan",
    "compile_plan",
    "document_profile",
    "make_evaluator",
    "make_scheduler",
    "merge_stats_snapshots",
    "plan_key",
    "plan_shards",
    "resolve_algorithm",
]
