"""Exact counters, and the collectors that watch them.

The benchmark harness validates the paper's complexity *claims* (Theorems
7, 10, 13) not only with wall-clock measurements but also with abstract
operation counts, which are immune to interpreter noise. Two mechanisms
keep them:

* **Collectors.** ``count(name)`` bumps a named counter on every active
  :func:`collect` block (axis calls, contexts evaluated, predicate loop
  iterations, ...); ``table_cells_allocated`` / ``table_cells_freed``
  track the live context-value-table cells and their peak — the space
  measure of the paper's bounds (each table entry is one unit; Theorem
  7's ``O(|D|^2·|Q|^2)`` counts exactly these).
* **Counter families.** Every layer that promises exact accounting (the
  caches, the axis kernels, the batch planner, the daemon, the document
  store, the fault seam) keeps it in one :class:`Counters` instance: a
  declared ``COUNTERS`` tuple, ticked under one lock, with its derived
  totals and its reconciliation identities stated as data — linear
  forms over the counters that :meth:`Counters.residuals` evaluates on
  any snapshot, live, delta or off the wire. Every tick is mirrored into
  the active collectors as ``<name>_<counter>``, so one :func:`collect`
  block sees evaluation work and counter traffic together.

Collection is opt-in and nestable::

    with stats.collect() as s:
        engine.evaluate(query)
    print(s.counters["contexts_evaluated"], s.peak_table_cells)

When no collector is active the hooks are near-free (one truthiness check
on a module-level list).
"""

from __future__ import annotations

import bisect
import contextlib
import math
import threading
from dataclasses import dataclass, field


# Collectors compare by identity: two open blocks with equal counts are
# still two blocks, and closing one must not remove the other.
@dataclass(eq=False)
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


def _value(form: dict[str, int], counts: dict) -> int:
    """A linear form ``{counter: coefficient}`` evaluated on counts."""
    return sum(coefficient * counts[key] for key, coefficient in form.items())


class Counters:
    """One family of exact counters.

    A family declares its ``name``, its ``COUNTERS`` and, as linear forms
    ``{counter: coefficient}``:

    * ``derived`` totals — ``{total: form}``, computed into every
      snapshot after the counters (``rejected = Σ rejected_*``);
    * ``identities`` — ``{counter: form}``, each a claim that the counter
      equals its form, checked (never computed) by :meth:`residuals`;
    * ``ratios`` — ``{ratio: (numerator, denominator form)}``, 0.0 over
      a zero denominator (``hit_rate``).

    ``labels`` name values that lead every snapshot (``name``, and the
    ``capacity`` a cache instance is given). ``aliases`` rename a
    counter's collector mirror (``<family>_<alias>`` instead of
    ``<family>_<counter>``).

    Every update runs under the instance lock — ``+=`` on a shared int
    is a read-modify-write that loses increments under interleaving, and
    one instance is shared by concurrent drivers (the daemon's worker
    threads) — and an :meth:`add` moves all of its counters under one
    acquisition, so no snapshot ever sees half of an event.

    A declaration is itself an instance (never ticked) and calling it
    makes a fresh, zeroed instance of the same family, so
    ``CacheStats(name="plan_cache", capacity=256)`` reads as it always
    did.
    """

    __slots__ = ("name", "COUNTERS", "derived", "identities", "ratios", "aliases", "labels",
                 "_mirrors", "_counts", "_declared", "_lock")

    def __init__(
        self,
        name: str,
        counters: tuple[str, ...],
        *,
        derived: dict | None = None,
        identities: dict | None = None,
        ratios: dict | None = None,
        aliases: dict | None = None,
        labels: tuple[str, ...] = (),
        **values,
    ):
        self.COUNTERS = tuple(counters)
        self.derived = dict(derived or {})
        self.identities = dict(identities or {})
        self.ratios = dict(ratios or {})
        self.aliases = dict(aliases or {})
        #: The declared keys: :meth:`add` checks an event against them.
        self._declared = frozenset(self.COUNTERS)
        self._start(name, labels, values)

    def __call__(self, name: str | None = None, **values) -> Counters:
        """A fresh, zeroed instance of this family, sharing the declaration's
        tables (counters, forms, aliases), which nothing changes."""
        fresh = object.__new__(Counters)
        fresh.COUNTERS, fresh._declared = self.COUNTERS, self._declared
        fresh.derived, fresh.identities = self.derived, self.identities
        fresh.ratios, fresh.aliases = self.ratios, self.aliases
        fresh._start(self.name if name is None else name, self.labels, values)
        return fresh

    def _start(self, name: str, labels, values: dict) -> None:
        self.name = name
        self.labels = {key: name if key == "name" else values.pop(key, None) for key in labels}
        if values:
            raise TypeError(f"{name}: undeclared labels {sorted(values)}")
        self._mirrors: dict | None = None  # made at the first mirrored event
        self._counts = dict.fromkeys(self.COUNTERS, 0)
        self._lock = threading.Lock()

    def mirrors(self) -> dict[str, str]:
        """Each counter's collector mirror, ``<name>_<counter or alias>``."""
        if self._mirrors is None:
            self._mirrors = {k: f"{self.name}_{self.aliases.get(k, k)}" for k in self.COUNTERS}
        return self._mirrors

    def tick(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``key``; ``KeyError`` when the
        family does not declare it."""
        with self._lock:
            self._counts[key] += amount
        if _active:
            mirror = self.mirrors()[key]
            for collector in _active:
                collector.bump(mirror, amount)

    def add(self, amounts: dict[str, int]) -> None:
        """One event that moves several counters: every amount lands
        under one lock acquisition (all of them, or — on an undeclared
        key — none)."""
        if not amounts.keys() <= self._declared:
            raise KeyError(next(key for key in amounts if key not in self._declared))
        with self._lock:
            for key, amount in amounts.items():
                self._counts[key] += amount
        if _active:
            mirrors = self.mirrors()
            for key, amount in amounts.items():
                count(mirrors[key], amount)

    def absorb(self, snapshot: dict) -> None:
        """Fold another instance's snapshot into this one (derived
        totals are recomputed, never summed; nothing is mirrored — the
        events were mirrored when they happened)."""
        with self._lock:
            for key in self.COUNTERS:
                self._counts[key] += snapshot.get(key, 0)

    def snapshot(self) -> dict:
        """A consistent point-in-time copy: labels, counters, derived
        totals, ratios."""
        with self._lock:
            counts = dict(self._counts)
        return self._render(counts)

    def delta(self, before: dict) -> dict:
        """What moved since ``before`` (an earlier :meth:`snapshot`),
        shaped like a snapshot, derived totals and ratios recomputed
        over the difference."""
        with self._lock:
            counts = {key: value - before[key] for key, value in self._counts.items()}
        return self._render(counts)

    def _render(self, counts: dict) -> dict:
        merged = dict(self.labels)
        merged.update(counts)
        for key, form in self.derived.items():
            merged[key] = _value(form, counts)
        for key, (numerator, denominator) in self.ratios.items():
            total = _value(denominator, counts)
            merged[key] = counts[numerator] / total if total else 0.0
        return merged

    def residuals(self, snapshot: dict) -> dict[str, int]:
        """Each identity's counter minus its form, and each derived total
        the snapshot carries minus its form, over any snapshot-shaped
        dict (a live snapshot, a :meth:`delta`, a wire ``STATS`` reply):
        every value is 0 exactly when the counters reconcile."""
        checks = dict(self.identities)
        checks.update(
            (key, form) for key, form in self.derived.items() if key in snapshot
        )
        return {key: snapshot[key] - _value(form, snapshot) for key, form in checks.items()}


#: One :class:`~repro.service.cache.Memo`'s lookups (the plan cache, the
#: result memo, the holds memo, the step memo, the session map): every
#: lookup is exactly one ``hits`` or one ``misses``, every entry dropped
#: past the bound one ``evictions``. ``hit_rate`` is hits over lookups.
CacheStats = Counters(
    "cache",
    ("hits", "misses", "evictions"),
    ratios={"hit_rate": ("hits", {"hits": 1, "misses": 1})},
    labels=("name", "capacity"),
)

#: The output-sensitive axis kernels, process-wide (indexes belong to
#: documents, not to a service; a document's index is built with it, so
#: the partition passes are counted by ``store_stats.partition_passes``
#: and the documents by ``lazy_documents``):
#:
#: * ``fused_hits`` — axis-step dispatches served by an output-sensitive
#:   kernel over fewer than :data:`repro.axes.vec.VECTOR_MIN_BLOCK`
#:   origins, or on an axis whose kernel has no whole-column form (the
#:   sibling axes, ``id``); mirrored as ``axis_fused_kernels``;
#: * ``fallback_scans`` — dispatches that ran the paper's ``O(|D|)``
#:   Definition-1 scan instead (predicted output too large, or scan mode
#:   forced);
#: * ``lazy_documents`` — documents constructed
#:   (:class:`repro.xml.document.Document`: parser, builders, snapshot
#:   decoder);
#: * ``nodes_materialized`` — ``Node`` objects created on them, each pre
#:   exactly once ever (creation runs under the per-document lock): a
#:   batch's delta is the O(output) the column path promises, a served
#:   one's none but the root. Boxing a result at a public edge
#:   (:func:`~repro.core.common.box_value`) is one event of the nodes it
#:   made, none when every node already existed;
#: * ``vector_ops`` — step ops run over a block of at least
#:   ``VECTOR_MIN_BLOCK`` members in whole-column operations (an axis
#:   step on :data:`repro.axes.vec.FORWARD_VECTOR_AXES` /
#:   ``INVERSE_VECTOR_AXES``, or a backward step's name-test filter).
#:
#: Every dispatch of :func:`repro.axes.vec.forward_step` /
#: ``inverse_step`` ticks exactly one of ``fused_hits``,
#: ``fallback_scans`` and ``vector_ops``: the three partition the
#: axis-step work (the EXP-AXIS counter gate checks it).
axis_kernel_stats = Counters(
    "axis",
    (
        "fused_hits",
        "fallback_scans",
        "lazy_documents",
        "nodes_materialized",
        "vector_ops",
    ),
    aliases={"fused_hits": "fused_kernels"},
)

#: One batch-shared step DAG (:mod:`repro.service.batchplan`), one
#: instance per shared :meth:`~repro.service.QueryService.evaluate_many`.
#: ``sharable_plans`` / ``shared_plans`` / ``independent_plans`` /
#: ``prefix_nodes`` describe the DAG built. Every shared (plan, document)
#: cell is one of ``cells``, served by the session memo (``memo_hits``),
#: evaluated as a residual over a materialized prefix
#: (``shared_evaluations``) or, on a per-cell error, evaluated
#: independently (``fallback_cells``, mirrored as
#: ``batch_plan_fallbacks``). ``prefix_evaluations`` are prefixes
#: actually computed (a memo miss), ``prefix_memo_hits`` the rest.
#: ``steps_independent`` counts the location steps independent
#: evaluation would have applied for each shared evaluation,
#: ``steps_shared`` the residual steps applied plus every
#: materialized-prefix step. ``steps_saved`` is their difference, and
#: ``>= 0`` whenever ``fallback_cells == 0``: prefixes materialize
#: lazily, each as a residual of its longest materialized proper prefix,
#: so sharing only ever removes work.
BatchPlanStats = Counters(
    "batch_plan",
    (
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
    ),
    derived={"steps_saved": {"steps_independent": 1, "steps_shared": -1}},
    identities={"cells": {"memo_hits": 1, "shared_evaluations": 1, "fallback_cells": 1}},
    aliases={"fallback_cells": "fallbacks"},
)

_SERVE_COUNTERS = (
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
_REJECTED = {key: 1 for key in _SERVE_COUNTERS if key.startswith("rejected_")}

#: The serving daemon (:mod:`repro.serve`): one global instance and one
#: per client, both ticked by every client event, so the global counters
#: are the per-client sums plus the frames of no client (undecodable
#: lines, ``BYE``). ``requests`` counts frames, ``malformed``
#: the undecodable ones, ``queries`` those that reached the admission
#: pipeline. Each query is ``admitted``, rejected with a typed reason —
#: ``rejected_overload`` (admission), ``rejected_rate`` (token bucket),
#: ``rejected_quota`` (in-flight cap), ``rejected_draining`` (shutdown) —
#: or refused before admission for a request-shape error
#: (``request_errors``: unknown document, unparsable query). Each
#: admitted query gets exactly one response: ``completed``,
#: ``deadlined`` or ``failed`` — nothing admitted is ever lost. Three
#: subsets are not outcomes: ``degraded`` ⊆ admitted (admitted past the
#: degrade watermark with the plan's evaluator forced and batch sharing
#: dropped), ``drained`` ⊆ outcomes (delivered while draining) and
#: ``memo_hits`` ⊆ completed (answered from the result memo on the event
#: loop, no pricing, no evaluation).
ServeStats = Counters(
    "serve",
    _SERVE_COUNTERS,
    derived={"rejected": _REJECTED},
    identities={
        "queries": {"admitted": 1, **_REJECTED, "request_errors": 1},
        "admitted": {"completed": 1, "deadlined": 1, "failed": 1},
    },
)

#: The document store and the snapshot codec (:mod:`repro.xml.store`,
#: :mod:`repro.xml.snapshot`, :mod:`repro.xml.index`), process-wide: the
#: partition pass and the structural check belong to documents, not to a
#: store. Each counter is ticked where its event happens — ``fsyncs`` at
#: the ``os.fsync`` call, ``files_written`` at the ``os.replace`` — so
#: the identities are checks, not definitions: a put is one file, and it
#: fsyncs its file and the store directory, a delete the directory after
#: the unlink, and creating the store directory its parent, once per
#: store. ``opens`` counts loads that returned a document,
#: ``bytes_written`` the blob bytes of the puts, ``partition_passes`` the
#: ``O(|D|)`` runs of :meth:`~repro.xml.index.NodeIndex._build_partitions`
#: (one per parse or build, one inside each full structural check, none
#: on a store load) and ``structural_checks`` the runs of the full check
#: (:func:`~repro.xml.snapshot.check_snapshot`: one per
#: :func:`~repro.xml.snapshot.decode_snapshot`, none on a store load).
store_stats = Counters(
    "store",
    (
        "puts",
        "deletes",
        "opens",
        "files_written",
        "fsyncs",
        "bytes_written",
        "directories_created",
        "partition_passes",
        "structural_checks",
    ),
    identities={
        "files_written": {"puts": 1},
        "fsyncs": {"puts": 2, "deletes": 1, "directories_created": 1},
    },
)

#: The daemon's fault seam (:class:`repro.serve.faults.FaultInjector`):
#: ``evaluations_started`` — the proof that a rejected request never
#: reached evaluation — and ``faults_injected``.
FaultStats = Counters("faults", ("evaluations_started", "faults_injected"))

#: Every family, declared once.
FAMILIES = (CacheStats, axis_kernel_stats, BatchPlanStats, ServeStats, store_stats, FaultStats)


@dataclass
class TimingStats:
    """Observed wall-clock timings, keyed by name (one key per algorithm).

    :attr:`QueryService.timings <repro.service.service.QueryService.timings>`
    holds one: every uncached evaluation reports ``(key, units,
    seconds)`` — the abstract cost units :mod:`repro.service.cost`
    predicted and the seconds the evaluation actually took — and the
    per-key seconds-per-unit rate is what admission control
    (:mod:`repro.serve.admission`) prices with once a key has
    :attr:`WARMUP` observations. Until then the rate is the lower median
    of the seconds-per-unit values seen so far, so one outlier among
    the first few cannot seed it. From there on it is an
    exponentially-weighted average of the *log* of seconds per unit,
    starting from that median, each step clamped so that one observation
    moves it by at most a factor of 2: one mispriced evaluation cannot
    make the next price jump, and equal observations leave the rate
    exactly where it is. Its maps are lock-protected for the
    reason :class:`Counters` are: concurrent drivers must not lose
    observations. Every observation is also mirrored into the active
    :func:`collect` collectors as ``<name>_<key>_observations`` /
    ``<name>_<key>_ns`` counters.
    """

    #: Observations a key's rate is the median of, before the EMA takes
    #: over (and before admission trusts the rate at all).
    WARMUP = 3

    name: str = "timings"
    #: EMA smoothing: weight of the newest observation's log rate.
    smoothing: float = 0.2
    _rates: dict = field(default_factory=dict, repr=False)
    _counts: dict = field(default_factory=dict, repr=False)
    #: The sorted seconds-per-unit values of keys still warming up.
    _early: dict = field(default_factory=dict, repr=False)
    _totals: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def observe(self, key: str, units: float, seconds: float) -> None:
        """Record one evaluation: ``units`` predicted cost units took
        ``seconds`` of wall clock. Non-positive units are clamped so a
        degenerate estimate can never poison the rate with an infinity;
        a zero-second observation counts as a full step down."""
        per_unit = seconds / max(units, 1.0)
        bound = math.log(2.0) / self.smoothing  # one step moves at most 2×
        with self._lock:
            seen = self._counts.get(key, 0) + 1
            self._counts[key] = seen
            if seen <= self.WARMUP:
                early = self._early.setdefault(key, [])
                bisect.insort(early, per_unit)
                self._rates[key] = early[(seen - 1) // 2]
                if seen == self.WARMUP:
                    del self._early[key]
            elif not (previous := self._rates[key]):  # a zero rate
                self._rates[key] = per_unit
            else:
                step = math.log(per_unit / previous) if per_unit > 0.0 else -bound
                self._rates[key] = previous * math.exp(
                    self.smoothing * min(max(step, -bound), bound)
                )
            self._totals[key] = self._totals.get(key, 0.0) + seconds
        count(f"{self.name}_{key}_observations")
        count(f"{self.name}_{key}_ns", int(seconds * 1e9))

    def rate(self, key: str) -> float | None:
        """The observed seconds-per-unit EMA for a key, or ``None`` when
        the key has never been observed."""
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
