"""The query service: compile once, evaluate many.

:class:`QueryService` is the production-facing entry point this
reproduction grows toward (see ROADMAP.md): a long-lived object that

* compiles each distinct ``(query, bindings)`` pair exactly once into a
  :class:`~repro.service.plan.LogicalPlan`, held in the plan cache;
* runs ``auto`` as the paper's fragment dispatch
  (:meth:`~repro.service.plan.LogicalPlan.best_algorithm`: Theorem 13's
  sweep on Core XPath, OPTMINCONTEXT elsewhere) and feeds every
  uncached evaluation's wall time into :attr:`QueryService.timings`,
  the per-algorithm rates admission control prices with;
* keeps one :class:`DocumentSession` per served document, which reuses
  stateless evaluator instances, memoizes ``(plan, context)`` results
  — evaluation is pure, so repeated identical requests are dictionary
  lookups — and memoizes where each Core XPath predicate path holds,
  so every query, batch and request on the document runs each such
  backward propagation once while its set stays in the memo;
* exposes :meth:`QueryService.evaluate_many`, the batch API: all queries
  × all documents in one call, sharing the plan cache across documents
  and each document's session caches across queries. Its loop is
  :meth:`QueryService.batch_rows`, one row per document, which the
  serving daemon's ``BATCH`` steps one row at a time.

The per-call frontend cost (parse → normalize → relevance → fragment
classification) is exactly the overhead the paper's algorithms
do *not* bound — Theorems 7/10/13 speak about evaluation. The service
layer amortizes it away, which is what turns the worst-case-optimal
algorithms into a fast system.

Every one of those stores — the plan cache, the session map, each
session's result and holds memos, and the planner's step memo — is a
:class:`~repro.service.cache.Memo`: one lock, least recently used
entries out first, a bound in cost units, a
:data:`~repro.stats.CacheStats` family the service shares across its
sessions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.context import Context
from repro.core.corexpath import CoreXPathEvaluator
from repro.service.batchplan import BatchPlan, build_batch_plan
from repro.service.cache import Memo
from repro.service.cost import cost_units, document_profile
from repro.service.plan import LogicalPlan, plan_key
from repro.service.planner import (
    QueryPlanner,
    REUSABLE_ALGORITHMS,
    make_evaluator,
    resolve_algorithm,
)
from repro.stats import CacheStats, Counters, TimingStats
from repro.xml.document import Document, Node


def _copy_result(value):
    """Node-set results are lists; hand out a fresh list per call so
    callers can mutate their copy without corrupting the memo."""
    if isinstance(value, list):
        return list(value)
    return value


def _holds_cells(pres) -> int:
    """A holds-memo entry's cost: its pres, plus 16 cells for the
    array's header and the dictionary slot."""
    return len(pres) + 16


class DocumentSession:
    """Per-document evaluation state shared across queries.

    Holds reusable evaluator instances for the stateless algorithms and
    two memos (:class:`~repro.service.cache.Memo`): :attr:`results`,
    ``(plan key, algorithm, context) → result``, at most
    :attr:`result_capacity` entries, and :attr:`holds`, ``Path.key`` →
    the pres where that Core XPath predicate path holds as an
    ``array('i')``, which the session's ``corexpath`` instance reads for
    every ``boolean(π)`` — in a whole query and in the batch planner's
    residual sweeps alike — at most :attr:`HOLDS_CELLS` cells (4 MiB) of
    sets and headers. The memos are sound because documents are
    immutable and a plan's value is a function of its cache key. A
    result entry retains its value and the plan's node-set / object
    bindings (the key names them by ``id()``), never the plan: compiled
    plans live only in the service's plan cache. Everything goes with
    :meth:`clear` and with the session when its service evicts it.

    Thread safety: each memo's lookups and inserts run under its lock,
    the evaluation outside it, so concurrent drivers of one session
    never lose a counter but never serialize the expensive work either.
    """

    #: The result memo's bound unless told otherwise, in entries.
    DEFAULT_RESULT_CAPACITY = 1024
    #: The holds memo's bound, in cells (a cell is one 4-byte pre).
    HOLDS_CELLS = 1 << 20

    def __init__(
        self,
        document: Document,
        timings: TimingStats,
        result_capacity: int | None = None,
        result_stats: Counters | None = None,
        holds_stats: Counters | None = None,
    ):
        self.document = document
        self.result_capacity = (
            self.DEFAULT_RESULT_CAPACITY if result_capacity is None else result_capacity
        )
        #: Per-algorithm seconds-per-unit rates every uncached
        #: evaluation feeds; a :class:`QueryService` hands every session
        #: it makes the same instance, as it does the memos' counters.
        self.timings = timings
        self._profile = None
        self._evaluators: dict[str, object] = {}
        self._lock = threading.Lock()
        self.results = Memo(self.result_capacity, "result_cache", stats=result_stats)
        self.holds = Memo(self.HOLDS_CELLS, "holds_memo", _holds_cells, holds_stats)
        #: The result memo's counters.
        self.result_stats = self.results.stats

    # ------------------------------------------------------------------

    @property
    def profile(self):
        """This document's :class:`~repro.service.cost.DocumentProfile`
        (read off its index on first use)."""
        if self._profile is None:
            self._profile = document_profile(self.document)
        return self._profile

    def resolve(self, plan: LogicalPlan, algorithm: str = "auto") -> str:
        """The evaluator to run: ``auto`` is the plan's fragment
        dispatch, a forced name is validated against the plan's
        fragment (:func:`~repro.service.planner.resolve_algorithm`)."""
        return resolve_algorithm(plan, algorithm)

    def evaluator(self, algorithm: str):
        """An evaluator for a resolved algorithm; instances of stateless
        algorithms are reused (``corexpath`` reading the session's
        :attr:`holds`), table-based ones are built fresh."""
        if algorithm in REUSABLE_ALGORITHMS:
            with self._lock:
                instance = self._evaluators.get(algorithm)
                if instance is None:
                    if algorithm == "corexpath":
                        instance = CoreXPathEvaluator(self.document, self.holds)
                    else:
                        instance = make_evaluator(self.document, algorithm)
                    self._evaluators[algorithm] = instance
                return instance
        return make_evaluator(self.document, algorithm)

    def evaluate(
        self,
        plan: LogicalPlan,
        algorithm: str = "auto",
        context_node: Node | None = None,
        context_position: int = 1,
        context_size: int = 1,
        cached: bool = True,
    ):
        """Evaluate a compiled plan against this session's document.

        ``algorithm='auto'`` runs the plan's fragment dispatch (see
        :meth:`resolve`). ``cached=False`` bypasses the result memo
        (used by benchmarks to time real evaluation work).
        """
        node = context_node if context_node is not None else self.document.root

        def compute():
            context = Context(node, context_position, context_size)
            return self._evaluate_timed(plan, self.resolve(plan, algorithm), context)

        if not cached:
            return compute()
        return self.evaluate_computed(
            plan, algorithm, compute, node, context_position, context_size
        )

    def evaluate_computed(
        self,
        plan: LogicalPlan,
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
        key = self._result_key(
            plan, algorithm, context_node, context_position, context_size
        )
        entry = self.results.get(key)
        if entry is not None:
            return _copy_result(entry[1])
        value = compute()
        self.results.put(key, (plan.variables or None, value))
        return _copy_result(value)

    #: What :meth:`probe` returns when the memo holds no entry.
    MISS = object()

    def probe(
        self,
        plan: LogicalPlan,
        algorithm: str = "auto",
        context_node: Node | None = None,
        context_position: int = 1,
        context_size: int = 1,
    ):
        """The memo's read half alone (:meth:`Memo.peek
        <repro.service.cache.Memo.peek>`): the memoized value, counted as
        a hit, or :attr:`MISS` — which counts nothing, because the
        evaluation the caller goes on to request counts that miss
        itself. One dictionary read, so a caller that must not block
        (the serving daemon's event loop) can answer repeats without a
        worker."""
        entry = self.results.peek(
            self._result_key(plan, algorithm, context_node, context_position, context_size)
        )
        return self.MISS if entry is None else _copy_result(entry[1])

    def _result_key(self, plan, algorithm, context_node, position, size) -> tuple:
        node = context_node if context_node is not None else self.document.root
        # Keyed by the plan's *stable* cache key, not the AST's identity:
        # a plan evicted from the LRU and recompiled gets a fresh AST (and
        # uid), but it is the same plan — its memo entries must stay
        # reachable, not linger unreachable until evicted. An entry is
        # ``(bindings, value)`` and retains nothing else: the key's
        # variables signature names node-set and object bindings by id(),
        # which is only sound while the bound objects are alive, so the
        # entry pins them through the plan's private bindings dict (None
        # when the plan has none) for exactly as long as the key can
        # match. Texts, scalars and batch prefix plans are keyed by value,
        # so nothing else need live: the entry never keeps the plan
        # itself, and the plan cache is the only owner of compiled plans.
        # Keyed by the *requested* algorithm, with resolution deferred to
        # the miss path: a hit is one dict lookup. ``auto`` and a forced
        # name for the evaluator it dispatches to fill separate entries
        # holding the same value; the daemon admits and degrades alike
        # under ``auto``, so its loop-side probe finds every entry its
        # evaluations made.
        return (plan.cache_key, algorithm, node, position, size)

    def _evaluate_timed(self, plan: LogicalPlan, resolved: str, context: Context):
        """Run one real evaluation, feeding its wall time into the
        session's timing rates."""
        started = time.perf_counter()
        value = self.evaluator(resolved).evaluate(plan.ast, context)
        self.timings.observe(
            resolved, cost_units(plan, self.profile), time.perf_counter() - started
        )
        return value

    def clear(self) -> None:
        with self._lock:
            self._evaluators.clear()
        self.results.clear()
        self.holds.clear()


@dataclass
class BatchResult:
    """The outcome of one :meth:`QueryService.evaluate_many` call.

    ``values[d][q]`` is the result of ``queries[q]`` on document ``d``;
    ``algorithms[q]`` is the evaluator that ran ``queries[q]`` on every
    document (the fragment dispatch for ``auto``).
    ``plan_stats``/``result_stats``/``holds_stats``/``step_stats`` cover
    *this batch only* (deltas, not service-lifetime totals — those live
    on :meth:`QueryService.cache_stats`).

    ``batch_plan`` is the batch-shared step DAG's exact counter snapshot
    (:data:`~repro.stats.BatchPlanStats`) when multi-query sharing ran
    — ``share=True`` (the default) with ``algorithm='auto'`` — and an
    empty dict otherwise, notably for every ``share=False`` call (which
    reproduces independent evaluation byte-identically, stats included).
    """

    queries: list[str]
    document_count: int
    values: list[list[object]]
    algorithms: list[str]
    plan_stats: dict = field(default_factory=dict)
    result_stats: dict = field(default_factory=dict)
    holds_stats: dict = field(default_factory=dict)
    step_stats: dict = field(default_factory=dict)
    batch_plan: dict = field(default_factory=dict)

    def value(self, document_index: int, query_index: int):
        return self.values[document_index][query_index]


class QueryService:
    """Compile-once, evaluate-many XPath service over the paper's algorithms.

    One instance is safe to share across threads (the serving daemon's
    worker threads among them): the plan cache, the session map, and
    every :data:`~repro.stats.CacheStats` counter are lock-protected, so
    concurrent drivers observe exact hit/miss/eviction totals and never
    lose an eviction. Evaluation itself runs outside the locks —
    documents and plans are immutable, so it needs no synchronization.

    One accounting caveat: the *per-batch* stats :meth:`evaluate_many`
    reports are deltas of the service-lifetime counters, so two batches
    running concurrently on one shared service attribute each other's
    interleaved lookups (values are still correct, and the lifetime
    totals in :meth:`cache_stats` stay exact).
    """

    def __init__(
        self,
        plan_capacity: int = Memo.DEFAULT_CAPACITY,
        session_capacity: int = 64,
        result_capacity: int | None = None,
        variables: dict[str, object] | None = None,
    ):
        self.planner = QueryPlanner()
        self.plans = Memo(plan_capacity)
        self.variables = dict(variables or {})
        self.result_capacity = result_capacity
        #: Observed seconds per cost unit, per algorithm: every session's
        #: uncached evaluations feed it, admission control prices with it.
        self.timings = TimingStats(name="eval")
        # Sessions are bounded too: a long-lived service must not retain
        # every document tree it has ever served. Evicting a session
        # drops its document reference and its memos. Every session
        # counts into the one _result_stats and _holds_stats, so a lookup
        # on a session another thread has just evicted is still counted;
        # their capacities are per session.
        self._sessions = Memo(session_capacity, "session_cache")
        self._result_stats = CacheStats(
            name="result_cache",
            capacity=DocumentSession.DEFAULT_RESULT_CAPACITY
            if result_capacity is None
            else result_capacity,
        )
        self._holds_stats = CacheStats(
            name="holds_memo", capacity=DocumentSession.HOLDS_CELLS
        )

    # ------------------------------------------------------------------

    def plan(
        self,
        query: str,
        variables: dict[str, object] | None = None,
    ) -> LogicalPlan:
        """The compiled plan for a query, through the plan cache."""
        bindings = self.variables if variables is None else variables
        return self.plans.get_or_create(
            plan_key(query, bindings), lambda: self.planner.compile(query, bindings)
        )

    def session(self, document: Document) -> DocumentSession:
        """The (lazily created, bounded) per-document session."""
        return self._sessions.get_or_create(
            document,
            lambda: DocumentSession(
                document,
                result_capacity=self.result_capacity,
                timings=self.timings,
                result_stats=self._result_stats,
                holds_stats=self._holds_stats,
            ),
        )

    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: str | LogicalPlan,
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
        """
        query_list = list(queries)
        document_list = list(documents)
        plan_stats_before = self.plans.stats.snapshot()
        result_stats_before = self.result_cache_stats()
        holds_stats_before = self._holds_stats.snapshot()
        step_stats_before = self.planner.steps.stats.snapshot()
        plans = [self.plan(query) for query in query_list]
        algorithms = [resolve_algorithm(plan, algorithm) for plan in plans]
        batch_plan = build_batch_plan(plans, algorithm, share)
        values = list(self.batch_rows(plans, document_list, algorithm, batch_plan))
        return BatchResult(
            queries=query_list,
            document_count=len(document_list),
            values=values,
            algorithms=algorithms,
            plan_stats=self.plans.stats.delta(plan_stats_before),
            result_stats=self._result_stats.delta(result_stats_before),
            holds_stats=self._holds_stats.delta(holds_stats_before),
            step_stats=self.planner.steps.stats.delta(step_stats_before),
            batch_plan=batch_plan.stats.snapshot() if batch_plan is not None else {},
        )

    def batch_rows(
        self,
        plans: list[LogicalPlan],
        documents,
        algorithm: str = "auto",
        batch_plan: BatchPlan | None = None,
    ):
        """Yield each document's row, in order: every plan's value on
        that document. The one batch loop — :meth:`evaluate_many`
        consumes it whole, the serving daemon's ``BATCH`` steps it one
        row per worker-thread hop. A ``batch_plan`` (from
        :func:`~repro.service.batchplan.build_batch_plan`, built once
        per batch) that shares a prefix evaluates the row through its
        step DAG; otherwise each cell runs through the session memo."""
        shared = batch_plan is not None and batch_plan.shared
        for document in documents:
            session = self.session(document)
            if shared:
                yield batch_plan.evaluate_row(session)
            else:
                yield [session.evaluate(plan, algorithm=algorithm) for plan in plans]

    # ------------------------------------------------------------------

    def result_cache_stats(self) -> dict:
        """Result-memo statistics across all sessions, live and evicted."""
        return self._result_stats.snapshot()

    def cache_stats(self) -> dict:
        """One dict with every cache layer and the observed per-algorithm
        ``timings``, for CLI/monitoring output."""
        return {
            "plan_cache": self.plans.stats.snapshot(),
            "result_cache": self.result_cache_stats(),
            "holds_memo": self._holds_stats.snapshot(),
            "step_memo": self.planner.steps.stats.snapshot(),
            "sessions": len(self._sessions),
            # Always zero: no memo stands behind it. Kept because the
            # end-to-end harness indexes it (benchmarks/e2e/worker.py's
            # batch `deterministic` block and tracer.py's hit rate).
            "specialize_cache": CacheStats(name="specialize_cache").snapshot(),
            "timings": self.timings.snapshot(),
        }

    def clear(self) -> None:
        """Drop all cached plans and sessions (statistics are retained)."""
        self.plans.clear()
        for session in self._sessions.values():
            session.clear()
        self._sessions.clear()
