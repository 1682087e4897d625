"""The query service: compile once, specialize per document, evaluate many.

:class:`QueryService` is the production-facing entry point this
reproduction grows toward (see ROADMAP.md): a long-lived object that

* compiles each distinct ``(query, options)`` pair exactly once into a
  stage-1 :class:`~repro.service.plan.LogicalPlan`, held in an LRU
  :class:`~repro.service.cache.PlanCache`;
* specializes ``auto`` evaluations per document through a shared
  :class:`~repro.service.specialize.PlanSpecializer` (stage 2: logical
  plan × :class:`~repro.service.specialize.DocumentProfile` → the
  cost-model-chosen evaluator, refined online by observed timings) —
  construct with ``specialize=False`` for the document-blind static
  fragment dispatch;
* keeps one :class:`DocumentSession` per served document, which reuses
  stateless evaluator instances and memoizes ``(plan, context)`` results
  — evaluation is pure, so repeated identical requests are dictionary
  lookups;
* exposes :meth:`QueryService.evaluate_many`, the batch API: all queries
  × all documents in one call, sharing the plan cache across documents
  and each document's session caches across queries; sharded batches
  feed their observed per-shard wall times into a persistent
  :class:`~repro.service.shard.ShardTimingHistory` that reweights the
  LPT partitioning of repeat batches.

The per-call frontend cost (parse → normalize → rewrite → relevance →
fragment classification) is exactly the overhead the paper's algorithms
do *not* bound — Theorems 7/10/13 speak about evaluation. The service
layer amortizes it away, which is what turns the worst-case-optimal
algorithms into a fast system.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.context import Context
from repro.errors import ReproError
from repro.service.cache import PlanCache
from repro.service.plan import CompiledPlan, PlanOptions, plan_key
from repro.service.planner import (
    QueryPlanner,
    REUSABLE_ALGORITHMS,
    make_evaluator,
    resolve_algorithm,
)
from repro.service.shard import ShardTimingHistory
from repro.service.specialize import PlanSpecializer, document_profile
from repro.stats import CacheStats
from repro.xml.document import Document, Node


def _copy_result(value):
    """Node-set results are lists; hand out a fresh list per call so
    callers can mutate their copy without corrupting the memo."""
    if isinstance(value, list):
        return list(value)
    return value


class DocumentSession:
    """Per-document evaluation state shared across queries.

    Holds reusable evaluator instances for the stateless algorithms and a
    ``(plan, algorithm, context) → result`` memo. Both caches are sound
    because documents are finalized (immutable) and plans are never
    mutated after compilation.

    Thread safety: memo lookups (with their hit accounting) and
    inserts run under one lock, while the evaluation itself runs outside
    it — so concurrent drivers of one session never lose a counter or
    corrupt the memo, but also never serialize the expensive work. Two
    threads that miss the same key both evaluate (pure, so both compute
    the same value) and the second insert is a harmless overwrite.
    """

    #: Default bound on the per-session result memo; when full the memo
    #: is flushed wholesale (results are recomputable, so a flush only
    #: costs time, and wholesale beats per-entry LRU bookkeeping on the
    #: hot path).
    DEFAULT_RESULT_CAPACITY = 1024

    def __init__(
        self,
        document: Document,
        result_capacity: int | None = None,
        specializer: PlanSpecializer | None = None,
    ):
        if not document.is_finalized:
            raise ReproError("document must be finalized before building a session")
        self.document = document
        self.result_capacity = (
            self.DEFAULT_RESULT_CAPACITY if result_capacity is None else result_capacity
        )
        if self.result_capacity < 1:
            raise ValueError(
                f"result capacity must be >= 1, got {self.result_capacity}"
            )
        #: Stage-2 selector (shared service-wide); ``None`` keeps the
        #: static document-blind fragment dispatch.
        self.specializer = specializer
        self._profile = None
        self._evaluators: dict[str, object] = {}
        self._results: dict[tuple, object] = {}
        self._lock = threading.RLock()
        self.result_stats = CacheStats(name="result_cache", capacity=self.result_capacity)

    # ------------------------------------------------------------------

    @property
    def profile(self):
        """This document's :class:`~repro.service.specialize.DocumentProfile`
        (computed lazily, cached process-wide by the specialize module)."""
        if self._profile is None:
            self._profile = document_profile(self.document)
        return self._profile

    def resolve(self, plan: CompiledPlan, algorithm: str = "auto") -> str:
        """Stage-2 resolution: specialize ``auto`` per this document's
        profile when a specializer is attached; static fragment dispatch
        otherwise (and for forced names, which need no profile)."""
        if algorithm == "auto" and self.specializer is not None:
            return self.specializer.specialize(plan, self.profile).algorithm
        return resolve_algorithm(plan, algorithm)

    def evaluator(self, algorithm: str):
        """An evaluator for a resolved algorithm; instances of stateless
        algorithms are reused, table-based ones are built fresh."""
        if algorithm in REUSABLE_ALGORITHMS:
            with self._lock:
                instance = self._evaluators.get(algorithm)
                if instance is None:
                    instance = make_evaluator(self.document, algorithm)
                    self._evaluators[algorithm] = instance
                return instance
        return make_evaluator(self.document, algorithm)

    def evaluate(
        self,
        plan: CompiledPlan,
        algorithm: str = "auto",
        context_node: Node | None = None,
        context_position: int = 1,
        context_size: int = 1,
        cached: bool = True,
    ):
        """Evaluate a compiled plan against this session's document.

        ``algorithm='auto'`` goes through :meth:`resolve` — per-document
        specialization when the session carries a specializer, static
        dispatch otherwise. ``cached=False`` bypasses the result memo
        (used by benchmarks to time real evaluation work).
        """
        node = context_node if context_node is not None else self.document.root
        if not cached:
            context = Context(node, context_position, context_size)
            return self._evaluate_timed(plan, self.resolve(plan, algorithm), context)

        def compute():
            context = Context(node, context_position, context_size)
            return self._evaluate_timed(plan, self.resolve(plan, algorithm), context)

        return self.evaluate_computed(
            plan, algorithm, compute, node, context_position, context_size
        )

    def evaluate_computed(
        self,
        plan: CompiledPlan,
        algorithm: str,
        compute,
        context_node: Node | None = None,
        context_position: int = 1,
        context_size: int = 1,
    ):
        """The memo protocol with a caller-supplied miss computation.

        Identical lookup/accounting/insert behavior to :meth:`evaluate`
        — same key, same hit/miss/eviction counting, ``compute()`` runs
        outside the lock exactly where the resolved evaluator would.
        This is the batch planner's hook
        (:mod:`repro.service.batchplan`): a shared-prefix residual
        evaluation is memoized under the *original* plan's key, so
        shared and independent runs (and repeat batches) populate and
        hit the same entries.
        """
        value = self.probe(
            plan, algorithm, context_node, context_position, context_size
        )
        if value is not self.MISS:
            return value
        self.result_stats.miss()
        value = compute()
        key = self._result_key(
            plan, algorithm, context_node, context_position, context_size
        )
        with self._lock:
            if len(self._results) >= self.result_capacity:
                self._results.clear()
                self.result_stats.eviction(self.result_capacity)
            self._results[key] = (plan, value)
        return _copy_result(value)

    #: What :meth:`probe` returns when the memo holds no entry.
    MISS = object()

    def probe(
        self,
        plan: CompiledPlan,
        algorithm: str = "auto",
        context_node: Node | None = None,
        context_position: int = 1,
        context_size: int = 1,
    ):
        """The memo's read half alone: the memoized value (counted as a
        hit, under the same key and lock as :meth:`evaluate_computed`)
        or :attr:`MISS` — which counts nothing, because the evaluation
        the caller goes on to request counts that miss itself. One
        dictionary read, so a caller that must not block (the serving
        daemon's event loop) can answer repeats without a worker."""
        key = self._result_key(
            plan, algorithm, context_node, context_position, context_size
        )
        with self._lock:
            entry = self._results.get(key)
            if entry is None:
                return self.MISS
            self.result_stats.hit()
            return _copy_result(entry[1])

    def _result_key(self, plan, algorithm, context_node, position, size) -> tuple:
        node = context_node if context_node is not None else self.document.root
        # Keyed by the plan's *stable* cache key, not the AST's identity:
        # a plan evicted from the LRU and recompiled gets a fresh AST (and
        # uid), but it is the same plan — its memo entries must stay
        # reachable, not leak until the wholesale flush. Each entry also
        # stores the plan itself: the key's variables signature identifies
        # node-set/object bindings by id(), which is only sound while the
        # bound objects are alive, so the entry pins them (via the plan's
        # variables dict) for exactly as long as the key can match.
        # Keyed by the *requested* algorithm, with resolution deferred to
        # the miss path: hits stay session-local dict lookups (no
        # specializer lock on the hot path), and an ``auto`` entry stays
        # reachable even if a later re-selection — after a specializer
        # memo flush with refined timing rates — would choose a different
        # evaluator (evaluation is pure, so the value is the same).
        return (plan.cache_key, algorithm, node, position, size)

    def _evaluate_timed(self, plan: CompiledPlan, resolved: str, context: Context):
        """Run one real evaluation, feeding its wall time back into the
        specializer's online cost refinement (when one is attached)."""
        if self.specializer is None:
            return self.evaluator(resolved).evaluate(plan.ast, context)
        started = time.perf_counter()
        value = self.evaluator(resolved).evaluate(plan.ast, context)
        self.specializer.observe(
            plan, self.profile, resolved, time.perf_counter() - started
        )
        return value

    def clear(self) -> None:
        with self._lock:
            self._evaluators.clear()
            self._results.clear()


def _stats_delta(before: dict, after: dict) -> dict:
    """Per-batch cache statistics: the difference of two cumulative
    snapshots, with the hit rate recomputed over the delta."""
    delta = dict(after)
    for key in ("hits", "misses", "evictions"):
        delta[key] = after[key] - before[key]
    lookups = delta["hits"] + delta["misses"]
    delta["hit_rate"] = delta["hits"] / lookups if lookups else 0.0
    return delta


@dataclass
class BatchResult:
    """The outcome of one :meth:`QueryService.evaluate_many` call.

    ``values[d][q]`` is the result of ``queries[q]`` on document ``d``;
    ``algorithms[q]`` is the *statically* resolved algorithm per query
    (the document-independent fragment dispatch — under specialization
    the evaluator actually run may differ per document, with identical
    values). ``plan_stats``/``result_stats`` cover *this batch only*
    (deltas, not service-lifetime totals — those live on
    :meth:`QueryService.cache_stats`).

    Sharded runs (``workers > 1``) additionally report ``workers`` (the
    number of shards actually used) and ``shards`` (per-shard document
    indices, weights, wall times, and unmerged stats snapshots); the
    top-level stats are then the exact sums of the per-shard counters.

    ``batch_plan`` is the batch-shared step DAG's exact counter snapshot
    (:class:`~repro.stats.BatchPlanStats`) when multi-query sharing ran
    — ``share=True`` (the default) with ``algorithm='auto'`` — and an
    empty dict otherwise, notably for every ``share=False`` call (which
    reproduces independent evaluation byte-identically, stats included).
    Sharded runs sum the per-shard snapshots.
    """

    queries: list[str]
    document_count: int
    values: list[list[object]]
    algorithms: list[str]
    plan_stats: dict = field(default_factory=dict)
    result_stats: dict = field(default_factory=dict)
    workers: int = 1
    shards: list = field(default_factory=list)
    batch_plan: dict = field(default_factory=dict)

    def value(self, document_index: int, query_index: int):
        return self.values[document_index][query_index]


class QueryService:
    """Compile-once, evaluate-many XPath service over the paper's algorithms.

    One instance is safe to share across threads (and across the async
    front end's offload threads): the plan cache, the session map, and
    every :class:`~repro.stats.CacheStats` counter are lock-protected, so
    concurrent drivers observe exact hit/miss/eviction totals and never
    lose an eviction. Evaluation itself runs outside the locks —
    documents and plans are immutable, so it needs no synchronization.

    One accounting caveat: the *per-batch* stats an unsharded
    :meth:`evaluate_many` reports are deltas of the service-lifetime
    counters, so two unsharded batches running concurrently on one
    shared service attribute each other's interleaved lookups (values
    are still correct, and the lifetime totals in :meth:`cache_stats`
    stay exact). Sharded and streamed batches are immune — each shard
    runs a fresh service and the merged stats are per-shard sums.
    """

    def __init__(
        self,
        plan_capacity: int = 256,
        session_capacity: int = 64,
        result_capacity: int | None = None,
        optimize: bool = False,
        variables: dict[str, object] | None = None,
        specialize: bool = True,
    ):
        self.planner = QueryPlanner()
        self.plans = PlanCache(plan_capacity)
        self.optimize = optimize
        self.variables = dict(variables or {})
        self.result_capacity = result_capacity
        self.specialize = bool(specialize)
        #: One specializer for the whole service: the memo is keyed by
        #: (plan, profile), so identically-shaped documents share
        #: specializations, and the timing model sees every evaluation.
        self.specializer = PlanSpecializer() if self.specialize else None
        #: Observed per-document evaluation times from sharded batches,
        #: fed back into LPT shard planning on repeat batches.
        self.shard_history = ShardTimingHistory()
        # Sessions are LRU-bounded too: a long-lived service must not
        # retain every document tree it has ever served. Evicting a
        # session drops its document reference and result memo; its
        # hit/miss counts are folded into _retired_result_stats so
        # aggregate statistics stay exact.
        self._sessions = PlanCache(session_capacity, name="session_cache")
        self._retired_result_stats = CacheStats(name="result_cache")
        # Guards the compound session-map operations (lookup + create +
        # evict must be atomic, or racing threads leak sessions and lose
        # retired counters). Re-entrant: clear() absorbs stats while held.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    def plan(
        self,
        query: str,
        variables: dict[str, object] | None = None,
        optimize: bool | None = None,
    ) -> CompiledPlan:
        """The compiled plan for a query, through the LRU cache."""
        bindings = self.variables if variables is None else variables
        wants_rewrite = self.optimize if optimize is None else optimize
        key = plan_key(query, PlanOptions.make(bindings, wants_rewrite))
        return self.plans.get_or_create(
            key, lambda: self.planner.compile(query, bindings, wants_rewrite)
        )

    def session(self, document: Document) -> DocumentSession:
        """The (lazily created, LRU-bounded) per-document session."""
        with self._lock:
            session = self._sessions.get(document)
            if session is None:
                session = DocumentSession(
                    document,
                    result_capacity=self.result_capacity,
                    specializer=self.specializer,
                )
                while len(self._sessions) >= self._sessions.capacity:
                    _, evicted = self._sessions.pop_lru()
                    self._retired_result_stats.absorb(evicted.result_stats)
                self._sessions.put(document, session)
            return session

    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: str | CompiledPlan,
        document: Document,
        context_node: Node | None = None,
        context_position: int = 1,
        context_size: int = 1,
        algorithm: str = "auto",
        cached: bool = True,
    ):
        """Evaluate one query against one document through both caches."""
        plan = self.plan(query) if isinstance(query, str) else query
        return self.session(document).evaluate(
            plan,
            algorithm=algorithm,
            context_node=context_node,
            context_position=context_position,
            context_size=context_size,
            cached=cached,
        )

    def evaluate_many(
        self,
        queries,
        documents,
        algorithm: str = "auto",
        workers: int = 1,
        shard_by: str = "round-robin",
        backend: str = "thread",
        share: bool = True,
    ) -> BatchResult:
        """Evaluate every query against every document.

        Plans are compiled (at most) once per distinct query; each
        document's session caches are shared across the whole batch, so
        duplicate queries cost one evaluation per document.

        With ``share=True`` (the default) and ``algorithm='auto'``, a
        batch-planning phase runs between compilation and evaluation: a
        shared-step DAG (:mod:`repro.service.batchplan`) unifies the
        batch's common absolute-path prefixes and evaluates each
        distinct (prefix, document) node-set at most once, feeding the
        shared results through the session memos. Values are identical
        either way; ``share=False`` takes exactly the independent
        per-cell path (byte-identical results *and* stats, with
        ``batch_plan`` empty). Forced algorithms never share — the
        requested evaluator must run as asked.

        With ``workers > 1`` the batch is sharded by document and
        delegated to a :class:`~repro.service.executor.ShardedExecutor`
        (``shard_by`` picks the partitioning strategy, ``backend`` picks
        the scheduler: ``serial``, ``thread``, ``process``, or ``async``
        — see :mod:`repro.service.scheduler`). Each worker runs a fresh
        service built from this service's configuration, so this
        service's own caches
        are neither consulted nor populated; the returned batch stats are
        the exact sums of the per-shard counters (see ``BatchResult``) —
        each shard builds its own DAG, so process workers stay
        self-contained.
        """
        if workers > 1:
            from repro.service.executor import ShardedExecutor

            executor = ShardedExecutor(
                workers=workers,
                backend=backend,
                shard_by=shard_by,
                history=self.shard_history,
                **self.config(),
            )
            return executor.execute(
                queries, documents, algorithm=algorithm, share=share
            )
        query_list = list(queries)
        document_list = list(documents)
        plan_stats_before = self.plans.stats.snapshot()
        result_stats_before = self.result_cache_stats()
        plans = [self.plan(query) for query in query_list]
        # Reported per-query algorithms are the static fragment dispatch
        # (document-independent by definition); the sessions re-resolve
        # ``auto`` per document below, so the evaluator actually run may
        # differ per (query, document) — values are identical either way.
        algorithms = [resolve_algorithm(plan, algorithm) for plan in plans]
        batch_plan = None
        if share and algorithm == "auto":
            from repro.service.batchplan import build_batch_plan

            batch_plan = build_batch_plan(plans)
        values: list[list[object]] = []
        for document in document_list:
            session = self.session(document)
            if batch_plan is not None and batch_plan.shared:
                values.append(batch_plan.evaluate_row(session))
            else:
                values.append(
                    [session.evaluate(plan, algorithm=algorithm) for plan in plans]
                )
        return BatchResult(
            queries=query_list,
            document_count=len(document_list),
            values=values,
            algorithms=algorithms,
            plan_stats=_stats_delta(plan_stats_before, self.plans.stats.snapshot()),
            result_stats=_stats_delta(result_stats_before, self.result_cache_stats()),
            batch_plan=batch_plan.stats.snapshot() if batch_plan is not None else {},
        )

    # ------------------------------------------------------------------

    def config(self) -> dict:
        """The constructor arguments that reproduce this service's
        configuration — used to build per-worker services for sharded
        execution (and handy for spawning read-replicas in general)."""
        return {
            "plan_capacity": self.plans.capacity,
            "session_capacity": self._sessions.capacity,
            "result_capacity": self.result_capacity,
            "optimize": self.optimize,
            "variables": dict(self.variables),
            "specialize": self.specialize,
        }

    def result_cache_stats(self) -> dict:
        """Aggregated result-memo statistics across all sessions, live and
        evicted."""
        merged = CacheStats(name="result_cache")
        with self._lock:
            merged.absorb(self._retired_result_stats)
            for session in self._sessions.values():
                merged.absorb(session.result_stats)
        return merged.snapshot()

    def cache_stats(self) -> dict:
        """One dict with every cache layer, for CLI/monitoring output.
        ``specialize_cache`` (the stage-2 memo) and ``timings`` (the
        online per-algorithm rates) appear only when specialization is
        enabled."""
        merged = {
            "plan_cache": self.plans.stats.snapshot(),
            "result_cache": self.result_cache_stats(),
            "sessions": len(self._sessions),
        }
        if self.specializer is not None:
            merged["specialize_cache"] = self.specializer.stats.snapshot()
            merged["timings"] = self.specializer.timings.snapshot()
        return merged

    def clear(self) -> None:
        """Drop all cached plans, sessions, and specializations
        (statistics are retained)."""
        self.plans.clear()
        if self.specializer is not None:
            self.specializer.clear()
        with self._lock:
            for session in self._sessions.values():
                self._retired_result_stats.absorb(session.result_stats)
                session.clear()
            self._sessions.clear()
