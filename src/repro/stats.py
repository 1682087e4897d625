"""Lightweight instrumentation for complexity experiments.

The benchmark harness validates the paper's complexity *claims* (Theorems
7, 10, 13) not only with wall-clock measurements but also with abstract
operation counts, which are immune to interpreter noise:

* ``count(name)`` — bump a named counter (axis calls, contexts evaluated,
  predicate loop iterations, ...).
* ``table_cells_allocated`` / ``table_cells_freed`` — track the number of
  live context-value-table cells, maintaining a peak. This is the space
  measure in the paper's space bounds (each table entry is one unit;
  Theorem 7's ``O(|D|^2·|Q|^2)`` counts exactly these).
* :class:`CacheStats` — hit/miss/eviction accounting for the service
  layer's plan and result caches (:mod:`repro.service`). Every event is
  mirrored into the active collectors as ``<name>_hits`` /
  ``<name>_misses`` / ``<name>_evictions`` counters, so one
  :func:`collect` block sees evaluation work and cache traffic together.
* :class:`StoreStats` — puts, fsyncs, partition passes and structural
  checks of the document store and the snapshot codec, with the
  identities that tie them together.

Collection is opt-in and nestable::

    with stats.collect() as s:
        engine.evaluate(query)
    print(s.counters["contexts_evaluated"], s.peak_table_cells)

When no collector is active the hooks are near-free (one truthiness check
on a module-level list).
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field


@dataclass
class Stats:
    """Counters gathered during one :func:`collect` block."""

    counters: dict[str, int] = field(default_factory=dict)
    live_table_cells: int = 0
    peak_table_cells: int = 0

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def cells_allocated(self, amount: int) -> None:
        self.live_table_cells += amount
        if self.live_table_cells > self.peak_table_cells:
            self.peak_table_cells = self.live_table_cells

    def cells_freed(self, amount: int) -> None:
        self.live_table_cells -= amount

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """Counters plus the space gauges, as a plain dict."""
        merged = dict(self.counters)
        merged["live_table_cells"] = self.live_table_cells
        merged["peak_table_cells"] = self.peak_table_cells
        return merged


@dataclass
class CacheStats:
    """Hit/miss/eviction bookkeeping for one cache instance.

    The counters are exact (every lookup is either a hit or a miss, every
    capacity overflow is an eviction) — the plan-cache tests assert on
    them literally. Exactness must survive concurrent drivers (one
    :class:`~repro.service.QueryService` shared across threads, or the
    async front end offloading to a thread pool), so every counter update
    happens inside the instance's lock; ``+=`` on a shared int is a
    read-modify-write that loses increments under interleaving.
    """

    name: str = "cache"
    capacity: int | None = None
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def hit(self, amount: int = 1) -> None:
        with self._lock:
            self.hits += amount
        count(f"{self.name}_hits", amount)

    def miss(self, amount: int = 1) -> None:
        with self._lock:
            self.misses += amount
        count(f"{self.name}_misses", amount)

    def eviction(self, amount: int = 1) -> None:
        with self._lock:
            self.evictions += amount
        count(f"{self.name}_evictions", amount)

    def absorb_snapshot(self, snapshot: dict) -> None:
        """Fold a counter snapshot (a :meth:`snapshot` dict, or a shard's
        merged stats) into this instance — the incremental form of the
        scheduler layer's barrier merge. The streaming front end calls
        this once per completed shard and reaches totals identical to
        merging all snapshots at the end: addition is associative and
        each shard's counters are folded exactly once.
        """
        with self._lock:
            self.hits += snapshot.get("hits", 0)
            self.misses += snapshot.get("misses", 0)
            self.evictions += snapshot.get("evictions", 0)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, object]:
        """A consistent point-in-time copy of the counters (taken under
        the lock, so a concurrent hit/miss can't tear the dict)."""
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        lookups = hits + misses
        return {
            "name": self.name,
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": hits / lookups if lookups else 0.0,
        }


@dataclass
class TimingStats:
    """Observed wall-clock timings, keyed by name (one key per algorithm).

    The physical-plan specializer (:mod:`repro.service.specialize`) seeds
    its cost model from the paper's complexity bounds and then *refines*
    it online: every uncached evaluation reports ``(key, units, seconds)``
    — the abstract cost units the model predicted and the seconds the
    evaluation actually took — and the per-key exponentially-weighted
    seconds-per-unit rate corrects systematic constant-factor error in
    the seed model. Counters are lock-protected for the same reason
    :class:`CacheStats` counters are: concurrent drivers must not lose
    observations. Every observation is also mirrored into the active
    :func:`collect` collectors as ``<name>_<key>_observations`` /
    ``<name>_<key>_ns`` counters.
    """

    name: str = "timings"
    #: EMA smoothing: weight of the newest observation.
    smoothing: float = 0.2
    _rates: dict = field(default_factory=dict, repr=False)
    _counts: dict = field(default_factory=dict, repr=False)
    _totals: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def observe(self, key: str, units: float, seconds: float) -> None:
        """Record one evaluation: ``units`` predicted cost units took
        ``seconds`` of wall clock. Non-positive units are clamped so a
        degenerate estimate can never poison the rate with an infinity."""
        per_unit = seconds / max(units, 1.0)
        with self._lock:
            previous = self._rates.get(key)
            if previous is None:
                self._rates[key] = per_unit
            else:
                self._rates[key] = (
                    previous + self.smoothing * (per_unit - previous)
                )
            self._counts[key] = self._counts.get(key, 0) + 1
            self._totals[key] = self._totals.get(key, 0.0) + seconds
        count(f"{self.name}_{key}_observations")
        count(f"{self.name}_{key}_ns", int(seconds * 1e9))

    def rate(self, key: str) -> float | None:
        """The observed seconds-per-unit EMA for a key, or ``None`` when
        the key has never been observed (callers must not mix observed
        rates with made-up defaults — see the specializer)."""
        with self._lock:
            return self._rates.get(key)

    def observation_count(self, key: str) -> int:
        with self._lock:
            return self._counts.get(key, 0)

    def snapshot(self) -> dict[str, dict]:
        """Per-key ``{rate, observations, total_seconds}``, copied under
        the lock."""
        with self._lock:
            return {
                key: {
                    "rate": self._rates[key],
                    "observations": self._counts.get(key, 0),
                    "total_seconds": self._totals.get(key, 0.0),
                }
                for key in self._rates
            }


@dataclass
class KernelStats:
    """Exact accounting for the output-sensitive axis kernels.

    Seven counters, each updated under the instance lock (the same
    exactness contract as :class:`CacheStats` — the thread-safety hammer
    asserts them with ``==``):

    * ``index_builds`` — :class:`repro.xml.index.NodeIndex` constructions
      (at most one per document, ever: the index cache builds under its
      lock);
    * ``index_adoptions`` — prebuilt indexes seeded into the cache by
      snapshot loads (:func:`repro.xml.index.adopt_node_index`); kept
      apart from ``index_builds`` so the one-build-per-document
      exactness stays assertable;
    * ``fused_hits`` — axis-step dispatches served by an
      output-sensitive kernel over fewer than
      :data:`repro.axes.vec.VECTOR_MIN_BLOCK` origins, or on an axis
      whose kernel has no whole-column form (the sibling axes, ``id``);
    * ``fallback_scans`` — dispatches that ran the paper's ``O(|D|)``
      Definition-1 scan instead (predicted output too large, or scan
      mode forced);
    * ``lazy_documents`` — column-only documents constructed, by the
      parser or the snapshot decoder
      (:class:`repro.xml.columns.ColumnDocument`);
    * ``nodes_materialized`` — boxed ``Node`` objects actually built on
      those documents, each pre counted exactly once ever (the
      materialization runs under the per-document lock). A lazy batch's
      delta is the O(output) the column path promises;
    * ``vector_ops`` — step ops run by a kernel over a block of at least
      ``VECTOR_MIN_BLOCK`` members in whole-column operations: an axis
      step on one of :data:`repro.axes.vec.FORWARD_VECTOR_AXES` /
      ``INVERSE_VECTOR_AXES``, or the name-test filter of a backward
      step.

    Every dispatch of :func:`repro.axes.vec.forward_step` /
    ``inverse_step`` ticks exactly one of ``fused_hits``,
    ``fallback_scans`` and ``vector_ops``, so the three partition the
    axis-step work exactly — the invariant the EXP-AXIS counter gate
    checks. Events are mirrored into active :func:`collect` collectors
    as ``axis_index_builds`` / ``axis_index_adoptions`` /
    ``axis_fused_kernels`` / ``axis_fallback_scans`` /
    ``axis_vector_ops``.
    """

    name: str = "axis_kernels"
    index_builds: int = 0
    index_adoptions: int = 0
    fused_hits: int = 0
    fallback_scans: int = 0
    lazy_documents: int = 0
    nodes_materialized: int = 0
    vector_ops: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def index_build(self, amount: int = 1) -> None:
        with self._lock:
            self.index_builds += amount
        count("axis_index_builds", amount)

    def index_adoption(self, amount: int = 1) -> None:
        with self._lock:
            self.index_adoptions += amount
        count("axis_index_adoptions", amount)

    def fused(self, amount: int = 1) -> None:
        with self._lock:
            self.fused_hits += amount
        count("axis_fused_kernels", amount)

    def fallback(self, amount: int = 1) -> None:
        with self._lock:
            self.fallback_scans += amount
        count("axis_fallback_scans", amount)

    def lazy_document(self, amount: int = 1) -> None:
        with self._lock:
            self.lazy_documents += amount
        count("axis_lazy_documents", amount)

    def node_materialized(self, amount: int = 1) -> None:
        with self._lock:
            self.nodes_materialized += amount
        count("axis_nodes_materialized", amount)

    def vector_op(self, amount: int = 1) -> None:
        with self._lock:
            self.vector_ops += amount
        count("axis_vector_ops", amount)

    def snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy of the counters."""
        with self._lock:
            return {
                "index_builds": self.index_builds,
                "index_adoptions": self.index_adoptions,
                "fused_hits": self.fused_hits,
                "fallback_scans": self.fallback_scans,
                "lazy_documents": self.lazy_documents,
                "nodes_materialized": self.nodes_materialized,
                "vector_ops": self.vector_ops,
            }


#: The process-wide kernel counters: the node-index cache and the fused
#: axis dispatch are process-global (indexes are per *document*, not per
#: service), so their exact accounting is too. CLI ``batch --stats``
#: prints this; the thread-safety hammer asserts it.
axis_kernel_stats = KernelStats()


@dataclass
class BatchPlanStats:
    """Exact accounting for one batch-shared step DAG
    (:mod:`repro.service.batchplan`).

    One instance per :meth:`~repro.service.QueryService.evaluate_many`
    call with sharing on, so the counters need no delta arithmetic. The
    same exactness contract as :class:`CacheStats` holds, with two
    reconciliation identities the tests and the EXP-MQO counter gate
    assert literally:

    * ``cells == memo_hits + shared_evaluations + fallback_cells`` —
      every shared (plan, document) cell is either served by the session
      memo, evaluated as a residual over a materialized prefix, or (on a
      per-cell error) fell back to an independent evaluation;
    * ``steps_saved == steps_independent - steps_shared >= 0`` whenever
      ``fallback_cells == 0`` — prefixes are materialized lazily (only
      when a consumer actually misses the memo) and each is computed as
      a residual of its longest materialized proper prefix, so the
      telescoped prefix work assigned to a miss cell never exceeds the
      steps independent evaluation would have spent on that cell.
      Sharing only ever removes work.

    ``steps_independent`` counts, for each shared evaluation, the
    location steps an independent evaluation of that cell would have
    applied; ``steps_shared`` counts the residual steps actually applied
    plus every materialized-prefix step (each prefix computed at most
    once per document, through the memo). Plan-level fields
    (``sharable_plans``/``shared_plans``/``independent_plans``/
    ``prefix_nodes``) describe the DAG built for the batch; merged
    sharded snapshots sum them across shards.
    """

    name: str = "batch_plan"
    sharable_plans: int = 0
    shared_plans: int = 0
    independent_plans: int = 0
    prefix_nodes: int = 0
    cells: int = 0
    memo_hits: int = 0
    shared_evaluations: int = 0
    fallback_cells: int = 0
    prefix_evaluations: int = 0
    prefix_memo_hits: int = 0
    steps_independent: int = 0
    steps_shared: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def plan_counts(
        self, sharable: int, shared: int, independent: int, prefixes: int
    ) -> None:
        """Record the DAG shape chosen at build time."""
        with self._lock:
            self.sharable_plans += sharable
            self.shared_plans += shared
            self.independent_plans += independent
            self.prefix_nodes += prefixes

    def cell(self, amount: int = 1) -> None:
        with self._lock:
            self.cells += amount
        count(f"{self.name}_cells", amount)

    def memo_hit(self, amount: int = 1) -> None:
        with self._lock:
            self.memo_hits += amount
        count(f"{self.name}_memo_hits", amount)

    def shared_evaluation(self, total_steps: int, residual_steps: int) -> None:
        """One miss cell evaluated as a residual: independent evaluation
        would have applied ``total_steps``; sharing applied only the
        ``residual_steps`` past the materialized base prefix."""
        with self._lock:
            self.shared_evaluations += 1
            self.steps_independent += total_steps
            self.steps_shared += residual_steps
        count(f"{self.name}_shared_evaluations")

    def fallback(self, amount: int = 1) -> None:
        with self._lock:
            self.fallback_cells += amount
        count(f"{self.name}_fallbacks", amount)

    def prefix_evaluation(self, steps: int) -> None:
        """One materialized prefix actually computed (memo miss), as a
        residual of ``steps`` location steps over its parent prefix."""
        with self._lock:
            self.prefix_evaluations += 1
            self.steps_shared += steps
        count(f"{self.name}_prefix_evaluations")

    def prefix_memo_hit(self, amount: int = 1) -> None:
        with self._lock:
            self.prefix_memo_hits += amount
        count(f"{self.name}_prefix_memo_hits", amount)

    @property
    def steps_saved(self) -> int:
        with self._lock:
            return self.steps_independent - self.steps_shared

    def absorb_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict (e.g. one shard's batch-plan
        stats) into this instance; derived fields are recomputed, never
        summed."""
        if not snapshot:
            return
        with self._lock:
            for key in (
                "sharable_plans",
                "shared_plans",
                "independent_plans",
                "prefix_nodes",
                "cells",
                "memo_hits",
                "shared_evaluations",
                "fallback_cells",
                "prefix_evaluations",
                "prefix_memo_hits",
                "steps_independent",
                "steps_shared",
            ):
                setattr(self, key, getattr(self, key) + snapshot.get(key, 0))

    def snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy of the counters, including the
        derived ``steps_saved``."""
        with self._lock:
            merged = {
                "sharable_plans": self.sharable_plans,
                "shared_plans": self.shared_plans,
                "independent_plans": self.independent_plans,
                "prefix_nodes": self.prefix_nodes,
                "cells": self.cells,
                "memo_hits": self.memo_hits,
                "shared_evaluations": self.shared_evaluations,
                "fallback_cells": self.fallback_cells,
                "prefix_evaluations": self.prefix_evaluations,
                "prefix_memo_hits": self.prefix_memo_hits,
                "steps_independent": self.steps_independent,
                "steps_shared": self.steps_shared,
            }
        merged["steps_saved"] = (
            merged["steps_independent"] - merged["steps_shared"]
        )
        return merged


class ServeStats:
    """Exact accounting for the serving daemon (:mod:`repro.serve`).

    The daemon keeps one instance per client plus one global instance
    and bumps both on every event, so the global counters are the exact
    per-client sums at all times (the EXP-SERVE gate asserts this with
    ``==``). The same exactness contract as :class:`CacheStats` holds —
    every update happens under the instance lock — with two
    reconciliation identities the tests and the benchmark gate assert
    literally against protocol-level request counts:

    * ``queries == admitted + rejected_overload + rejected_rate +
      rejected_quota + rejected_draining + request_errors`` — every
      query that reached the admission pipeline was admitted, rejected
      (with a typed reason), or failed request validation *before*
      admission (unknown document, unparsable query);
    * ``admitted == completed + deadlined + failed`` — every admitted
      query produced exactly one response: its value, a typed
      ``DEADLINE`` marker, or a typed evaluation error. Nothing is ever
      admitted and then lost — the zero-lost-responses drain gate is
      this identity plus a client-side response count.

    ``degraded`` counts admissions that were priced over budget and
    downgraded (cheapest admissible algorithm, batch sharing dropped)
    instead of rejected — a subset of ``admitted``. ``drained`` counts
    responses (completed, deadlined, or failed) delivered while the
    daemon was draining — a subset of the outcome counters, never a
    separate outcome. ``memo_hits`` counts queries answered from the
    result memo on the event loop, with no pricing and no evaluation —
    admitted and completed like any other answer, so a subset of
    ``completed``.
    """

    #: Every counter, declared once: the attributes, :meth:`snapshot`'s
    #: keys (in this order) and what :meth:`absorb_snapshot` folds.
    COUNTERS = (
        "requests",
        "malformed",
        "queries",
        "admitted",
        "degraded",
        "rejected_overload",
        "rejected_rate",
        "rejected_quota",
        "rejected_draining",
        "request_errors",
        "completed",
        "deadlined",
        "failed",
        "drained",
        "memo_hits",
    )

    def __init__(self, name: str = "serve"):
        self.name = name
        self._lock = threading.Lock()
        for key in self.COUNTERS:
            setattr(self, key, 0)

    def request(self, amount: int = 1) -> None:
        with self._lock:
            self.requests += amount
        count(f"{self.name}_requests", amount)

    def malformed_frame(self, amount: int = 1) -> None:
        with self._lock:
            self.malformed += amount
        count(f"{self.name}_malformed", amount)

    def query(self, amount: int = 1) -> None:
        """One query reached the admission pipeline."""
        with self._lock:
            self.queries += amount
        count(f"{self.name}_queries", amount)

    def admit(self, degraded: bool = False) -> None:
        with self._lock:
            self.admitted += 1
            if degraded:
                self.degraded += 1
        count(f"{self.name}_admitted")

    def reject(self, reason: str) -> None:
        """One typed pre-evaluation rejection: ``overload`` (admission),
        ``rate`` (token bucket), ``quota`` (in-flight cap), or
        ``draining`` (shutdown in progress)."""
        field_name = f"rejected_{reason}"
        with self._lock:
            setattr(self, field_name, getattr(self, field_name) + 1)
        count(f"{self.name}_{field_name}")

    def request_error(self, amount: int = 1) -> None:
        """One query refused before admission for a request-shape error
        (unknown document, unparsable query, bad arguments)."""
        with self._lock:
            self.request_errors += amount
        count(f"{self.name}_request_errors", amount)

    def complete(self, drained: bool = False, memo: bool = False) -> None:
        with self._lock:
            self.completed += 1
            if drained:
                self.drained += 1
            if memo:
                self.memo_hits += 1
        count(f"{self.name}_completed")

    def deadline(self, drained: bool = False) -> None:
        with self._lock:
            self.deadlined += 1
            if drained:
                self.drained += 1
        count(f"{self.name}_deadlined")

    def fail(self, drained: bool = False) -> None:
        with self._lock:
            self.failed += 1
            if drained:
                self.drained += 1
        count(f"{self.name}_failed")

    def absorb_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this instance (derived
        fields recomputed, never summed)."""
        with self._lock:
            for key in self.COUNTERS:
                setattr(self, key, getattr(self, key) + snapshot.get(key, 0))

    def snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy, including the derived
        ``rejected`` total."""
        with self._lock:
            merged = {key: getattr(self, key) for key in self.COUNTERS}
        merged["rejected"] = sum(
            merged[key] for key in self.COUNTERS if key.startswith("rejected_")
        )
        return merged


class StoreStats:
    """Exact accounting for the document store and the snapshot codec
    (:mod:`repro.xml.store`, :mod:`repro.xml.snapshot`,
    :mod:`repro.xml.index`). Each counter is ticked where its event
    happens — ``fsyncs`` at the ``os.fsync`` call, ``files_written`` at
    the ``os.replace`` — never derived from another, so the identities
    are checks, not definitions:

    * ``files_written == puts`` — a put is one file, and nothing else
      writes one;
    * ``fsyncs == 2 × puts + deletes + directories_created`` — a put
      fsyncs its file and the store directory, a delete the directory
      after the unlink, and creating the store directory fsyncs its
      parent, once per store.

    ``opens`` counts :meth:`~repro.xml.store.DocumentStore.load` calls
    that returned a document, ``bytes_written`` the blob bytes of the
    puts, ``partition_passes`` the ``O(|D|)`` runs of
    :meth:`~repro.xml.index.NodeIndex._build_partitions` (one per parse
    or boxed-tree index, one inside each full structural check, none on
    a store load) and ``structural_checks`` the runs of the full
    ``O(|D|)`` check (:func:`~repro.xml.snapshot.check_snapshot`: one
    per :func:`~repro.xml.snapshot.decode_snapshot`, none on a store
    load).
    """

    #: Every counter, declared once: the attributes and
    #: :meth:`snapshot`'s keys (in this order).
    COUNTERS = (
        "puts",
        "deletes",
        "opens",
        "files_written",
        "fsyncs",
        "bytes_written",
        "directories_created",
        "partition_passes",
        "structural_checks",
    )

    def __init__(self, name: str = "store"):
        self.name = name
        self._lock = threading.Lock()
        for key in self.COUNTERS:
            setattr(self, key, 0)

    def tick(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``key`` (one of :attr:`COUNTERS`)."""
        if key not in self.COUNTERS:
            raise KeyError(key)
        with self._lock:
            setattr(self, key, getattr(self, key) + amount)
        count(f"{self.name}_{key}", amount)

    def snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy of the counters."""
        with self._lock:
            return {key: getattr(self, key) for key in self.COUNTERS}


#: The process-wide store counters — process-global for the reason
#: :data:`axis_kernel_stats` is: the partition pass and the structural
#: check belong to documents, not to a store instance.
store_stats = StoreStats()


# Active collectors; almost always empty, occasionally one deep.
_active: list[Stats] = []


def collecting() -> bool:
    """Whether any collector is active — lets a caller skip work whose
    only purpose is to feed the counters (e.g. weighing table rows)."""
    return bool(_active)


def count(name: str, amount: int = 1) -> None:
    """Bump a counter on every active collector."""
    if _active:
        for collector in _active:
            collector.bump(name, amount)


def table_cells_allocated(amount: int) -> None:
    """Record allocation of ``amount`` context-value-table cells."""
    if _active:
        for collector in _active:
            collector.cells_allocated(amount)


def table_cells_freed(amount: int) -> None:
    """Record release of ``amount`` context-value-table cells."""
    if _active:
        for collector in _active:
            collector.cells_freed(amount)


def cell_weight(value) -> int:
    """Space weight of one table entry: node-set values occupy one cell
    per member (plus the row itself) — this is what makes an inner-path
    relation ``⊆ dom × 2^dom`` cost ``Θ(|D|²)`` in the paper's space
    accounting, while a boolean/number row costs ``O(1)``."""
    if isinstance(value, (set, frozenset, list, tuple)):
        return 1 + len(value)
    return 1


@contextlib.contextmanager
def collect():
    """Context manager that gathers stats for its dynamic extent."""
    collector = Stats()
    _active.append(collector)
    try:
        yield collector
    finally:
        _active.remove(collector)
