"""Physical-plan specialization — stage 2 of the two-stage compilation.

Stage 1 (:mod:`repro.service.planner`) is document-independent: it turns
a query string into a :class:`~repro.service.plan.LogicalPlan` held in
the :class:`~repro.service.cache.PlanCache`. This module is the
document-*dependent* half: a :class:`PlanSpecializer` combines a logical
plan with a :class:`DocumentProfile` (node count, depth, fanout, text
ratio — the shape the index persists) and produces a
:class:`PhysicalPlan` naming the evaluator to run, chosen by a small
explicit cost model.

Why per (query, document) and not per query
-------------------------------------------

The paper's headline result is that *which* algorithm you run dominates
cost, and the constants hiding inside the bounds are document-shape
facts. Measured on this implementation (re-measured when the table
evaluators' set steps moved onto the block kernels and their context
loops were compiled; forced algorithms, best of 15, book catalogs of
0.35k–8.8k nodes, ``balanced_tree`` and ``numbered_line``; the seed
constants below predate it and are the specializer item's to redo):

* MINCONTEXT's demand-driven tables beat OPTMINCONTEXT by 1.3–2.8× when
  an earlier step has already narrowed the candidates
  (``//book[@id = 'bk3']/chapter[pages > 20]/heading``: 0.44 against
  1.16 ms at 3.5k nodes): the bottom-up pass precomputes the predicate's
  table over the *whole* document where the top-down pass touches a few
  candidate nodes. With the predicate on the wide step itself
  (``//book[price > 20]/title``) both evaluate it once per book and are
  level (0.45 / 0.42 ms), OPTMINCONTEXT slightly ahead on small
  documents.
* The Core XPath evaluator runs 1.2–4.3× below MINCONTEXT on Core queries
  *with predicates* (sorted pre arrays and set algebra against one table
  row per candidate) and level with it on predicate-free paths, where
  all three now run the same block kernels; OPTMINCONTEXT, whose
  bottom-up pass turns Core predicates into the same backward sweeps,
  stays within 0.95–1.5× of it.
* OPTMINCONTEXT wins by 1.2–1.4× when position-dependent predicates
  sit on sibling axes *and* an existential comparison sits inside them on
  a document with long sibling runs (``wadler_family(2)`` on a 200-item
  line: 6.2 against 8.3 ms): the (cp, cs) loops then re-enter the same
  subexpression ``Θ(fanout)`` times, which is what the bottom-up
  precomputation amortizes. With positional arithmetic alone
  (``wadler_family(1)``) the two are level.

Since the fused axis kernels (:mod:`repro.axes`, PR 5) landed, the cost
model also prices the *indexed* variants of those candidates: a plan's
name-tested interval-axis steps (``PlanTraits.name_test_tags``) combined
with the profile's per-tag element counts predict how small the fused
kernels' outputs are (:func:`name_test_selectivity`), shrinking the
sweep share of each candidate's estimate — the Core XPath sweep in full
(it is set operations end to end), the table evaluators' by
:data:`SET_SWEEP_SHARE`. Hand-built profiles without tag counts
neutralize the term, so the pinned seed decisions are unchanged.

The candidate pool is deliberately restricted to the paper's
worst-case-bounded evaluators — ``mincontext``, ``optmincontext``, and
(inside Core XPath) ``corexpath``. ``naive`` is exponential and
``bottomup``/``topdown`` have no useful bounds on positional predicates,
so a cost-model mis-estimate over this pool costs constant factors,
never asymptotics. Two *guarantee clamps* keep even the constant-factor
risk bounded: above ``guarantee_nodes`` the selector defers to the
strongest fragment guarantee available (Theorem 13's linear time for
Core XPath, Corollary 11's bounds for the Extended Wadler Fragment)
regardless of what the constants say.

Online refinement
-----------------

The seed constants were measured on one interpreter and one machine.
Every uncached evaluation reports its wall time to a
:class:`~repro.stats.TimingStats` (``observe``), which maintains a
per-algorithm seconds-per-cost-unit rate; once every candidate of a
selection has enough observations, estimates are scaled by the observed
rates, correcting systematic constant error. Selections are memoized per
``(plan, profile)`` with exact hit/miss/eviction accounting
(``specialize_cache`` in :meth:`QueryService.cache_stats
<repro.service.service.QueryService.cache_stats>`), so a pinned choice
never flips mid-workload — refinement affects future (plan, profile)
pairs, not past ones.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

from repro import stats
from repro.axes.vec import VECTOR_MIN_BLOCK
from repro.service.plan import LogicalPlan
from repro.service.planner import resolve_algorithm
from repro.stats import CacheStats, TimingStats
from repro.xml.document import Document
from repro.xml.index import node_index


# ----------------------------------------------------------------------
# Document profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DocumentProfile:
    """The document-shape features the cost model reads.

    Attributes:
        total_nodes: ``|dom|`` — the size every paper bound is stated in.
        max_depth: deepest element nesting (ancestor/descendant work).
        max_fanout: longest run of element siblings (the width of
            positional-sibling loops).
        text_ratio: text characters per node (string-function cost).
        tag_counts: sorted ``(tag, element count)`` pairs — the name-test
            selectivity side of the fused-kernel cost term (a
            ``descendant::a`` kernel touches the ``a`` partition, not
            ``dom``). Empty when unknown (hand-built profiles), which
            neutralizes the term.
    """

    total_nodes: int
    max_depth: int
    max_fanout: int
    text_ratio: float
    tag_counts: tuple = ()

    @classmethod
    def of(cls, document: Document) -> "DocumentProfile":
        """Profile a document: its index's persisted
        :class:`~repro.xml.index.DocumentShape` and tag partition
        lengths — nothing per node, no string decoded."""
        index = node_index(document)
        shape = index.shape
        return cls(
            total_nodes=index.total,
            max_depth=shape.max_depth,
            max_fanout=shape.max_fanout,
            text_ratio=shape.text_chars / max(1, index.total),
            tag_counts=tuple(sorted((tag, len(pres)) for tag, pres in index.by_tag.items())),
        )

    @property
    def key(self) -> tuple:
        """Hashable memo key; identically-shaped documents share
        specializations. Tag counts are part of the shape — two documents
        that differ only in tag distribution specialize separately (their
        fused-kernel selectivities differ)."""
        return (
            self.total_nodes,
            self.max_depth,
            self.max_fanout,
            round(self.text_ratio, 3),
            self.tag_counts,
        )

    @cached_property
    def _tag_count_map(self) -> dict:
        """``tag_counts`` as a dict, built once per profile (profiles are
        weak-cached and immutable; cost_units reads this per candidate)."""
        return dict(self.tag_counts)

    def name_test_fraction(self, tags) -> float:
        """Mean fraction of ``dom`` under the named tag partitions — the
        predicted relative output of a fused name-test kernel. 1.0 when
        either side lacks the information (no tags, no counts)."""
        if not tags or not self.tag_counts:
            return 1.0
        counts = self._tag_count_map
        total = max(1, self.total_nodes)
        return sum(counts.get(tag, 0) / total for tag in tags) / len(tags)

    def describe(self) -> str:
        return (
            f"|dom|={self.total_nodes} depth={self.max_depth} "
            f"fanout={self.max_fanout} text-ratio={self.text_ratio:.2f} "
            f"tags={len(self.tag_counts)}"
        )


#: Profiles are immutable facts about immutable documents; cache them
#: process-wide so fresh sessions over the same document skip the
#: statistics pass. Weak keys: the cache never pins a document.
_PROFILE_CACHE: "weakref.WeakKeyDictionary[Document, DocumentProfile]" = (
    weakref.WeakKeyDictionary()
)
_PROFILE_LOCK = threading.Lock()


def document_profile(document: Document) -> DocumentProfile:
    """The (process-wide, weakly cached) profile of a document."""
    with _PROFILE_LOCK:
        profile = _PROFILE_CACHE.get(document)
    if profile is None:
        profile = DocumentProfile.of(document)
        with _PROFILE_LOCK:
            _PROFILE_CACHE[document] = profile
    return profile


#: Representative profiles ``repro-xpath plan --explain`` specializes
#: against when no document is given: one typical small served document,
#: one large one (past the guarantee threshold).
REPRESENTATIVE_PROFILES = (
    ("small document", DocumentProfile(total_nodes=64, max_depth=5, max_fanout=8, text_ratio=2.0)),
    ("large document", DocumentProfile(total_nodes=8192, max_depth=12, max_fanout=32, text_ratio=2.0)),
)


# ----------------------------------------------------------------------
# The cost model
# ----------------------------------------------------------------------

#: Seed constants, in abstract cost units (1 unit ≈ one node×AST-node
#: touch of MINCONTEXT's demand-driven pass). Measured on the paper's
#: query families over catalog / line / wide-tree workload documents;
#: the online timing rates correct residual machine-specific error.

#: Theorem 13's sweep, re-measured after the PR 6 flat-column rewrite
#: (packed ``array('q')`` columns behind memoryviews; kernels bisect
#: machine integers instead of boxed lists): the Core XPath evaluator's
#: constants now run 1.3–15× *below* MINCONTEXT's demand-driven pass on
#: Core queries, median ≈ 4× across the catalog / wide-tree workload —
#: wider than the 2–5× measured after PR 5's sorted-array rewrite,
#: because the end-to-end set sweeps gain the most from unboxing. The
#: factor drops 0.5 → 0.4 to track the median shift; the online timing
#: rates still absorb per-machine residue. Re-measured after the vector
#: tier landed: the block programs shift the wide-sweep end further
#: (2–4× on the EXP-VEC workload) but leave selective queries at the
#: scalar-kernel constants, so the median factor keeps 0.4 and the
#: vector gain is priced separately (:data:`VECTOR_SWEEP_DISCOUNT`).
CORE_SWEEP_FACTOR = 0.4
#: Multiplier on the Core sweep estimate for documents wide enough that
#: sweep steps reach the block side of the axis kernels
#: (``repro.axes.vec``): whole-column ops cut the per-node
#: interpreter constant, but only once blocks amortize their setup —
#: below the block threshold the discount must not apply, or tiny
#: documents would over-prefer corexpath on mispredicted gains.
#: Measured ≈ 0.6–0.8 on wide sweeps; 0.75 keeps the discount
#: conservative and monotone (applied uniformly above the threshold).
VECTOR_SWEEP_DISCOUNT = 0.75
#: Per-unit cost of the (cp, cs) loop work when position is relevant.
POSITIONAL_LOOP_FACTOR = 1.0
#: OPTMINCONTEXT re-enters positional loops with precomputed tables, so
#: its loop constant is lower than MINCONTEXT's.
OPT_LOOP_DISCOUNT = 0.9
#: Cost of bottom-up precomputation: one full-document table per
#: bottom-up path, built whether or not the top-down pass needs it.
#: Together with the loop discount this puts the sibling-loop crossover
#: near fanout ≈ 100·(bottom-up paths), where the measurements flip.
BOTTOMUP_SETUP_FACTOR = 10.0
#: Loop width for position-dependent queries without sibling-positional
#: steps (descendant/child positional loops span candidate sets, not
#: sibling runs).
POSITION_BASE_WIDTH = 2.0
#: Extra per-string-op weight, scaled by the profile's text ratio.
STRING_OP_FACTOR = 0.125
#: Floor on the fused-kernel selectivity discount: even a kernel whose
#: partition is empty still pays dispatch, bisection, and table costs.
INDEX_DISCOUNT_FLOOR = 0.05
#: Share of the table evaluators' (MINCONTEXT/OPTMINCONTEXT) unit cost
#: that is candidate-set sweeps (the part the fused kernels shrink);
#: the rest is table bookkeeping the index cannot touch. The Core XPath
#: evaluator is *all* set sweeps, so its discount applies in full.
SET_SWEEP_SHARE = 0.5

#: Algorithms the cost model can estimate *and* ``auto`` may select.
SELECTABLE = ("mincontext", "optmincontext", "corexpath")

#: Floor on the residual share of a plan's sweep when a step prefix is
#: already materialized (:meth:`PlanSpecializer.specialize_residual`):
#: even a one-step residual still pays per-evaluation setup — dispatch,
#: context construction, and (for the table evaluators) table priming.
RESIDUAL_SWEEP_FLOOR = 0.1


def residual_cost_units(
    plan: LogicalPlan,
    profile: DocumentProfile,
    algorithm: str,
    covered: int,
    total: int,
) -> float:
    """Estimated cost of evaluating ``plan`` when ``covered`` of its
    ``total`` main-path steps are already materialized as a sorted pre
    array (the batch-shared step DAG's residual evaluation): the full
    estimate scaled by the floored residual step share. Degenerate step
    counts neutralize the scaling rather than extrapolating."""
    if total <= 0 or covered <= 0 or covered > total:
        return cost_units(plan, profile, algorithm)
    fraction = max(RESIDUAL_SWEEP_FLOOR, (total - covered) / total)
    return cost_units(plan, profile, algorithm) * fraction


def name_test_selectivity(plan: LogicalPlan, profile: DocumentProfile) -> float:
    """The indexed-kernel cost term: predicted fraction of ``dom`` the
    plan's fused name-test kernels touch on this profile (floored — see
    :data:`INDEX_DISCOUNT_FLOOR`). 1.0 (no effect) when the plan has no
    name-tested interval-axis steps or the profile carries no tag counts
    — so hand-built profiles and pre-index decisions are unchanged."""
    fraction = profile.name_test_fraction(plan.traits.name_test_tags)
    if fraction >= 1.0:
        return 1.0
    return max(INDEX_DISCOUNT_FLOOR, fraction)


def positional_loop_width(plan: LogicalPlan, profile: DocumentProfile) -> float:
    """The width of the (cp, cs) loops the evaluators run for this
    (plan, profile): sibling-run length for positional sibling steps,
    a thin per-node band otherwise, zero for position-free queries."""
    if plan.traits.positional_sibling:
        return float(profile.total_nodes * max(1, profile.max_fanout))
    if plan.traits.uses_position:
        return POSITION_BASE_WIDTH * profile.total_nodes
    return 0.0


def cost_units(plan: LogicalPlan, profile: DocumentProfile, algorithm: str) -> float:
    """Estimated abstract cost of evaluating ``plan`` on a document of
    ``profile``'s shape with ``algorithm``.

    Only the :data:`SELECTABLE` algorithms have real models; the other
    evaluators get the base sweep estimate so forced-algorithm timings
    can still be normalized into per-unit rates.
    """
    n = profile.total_nodes
    base = float(n) * plan.traits.ast_size
    base += STRING_OP_FACTOR * plan.traits.string_op_count * profile.text_ratio * n
    loop = positional_loop_width(plan, profile)
    selectivity = name_test_selectivity(plan, profile)
    if algorithm == "corexpath":
        # The Core sweep is set operations end to end: every name-tested
        # interval step is now a fused partition query, so the whole
        # estimate scales with the predicted kernel output. Documents
        # past the block threshold run the sweep's wide steps as
        # whole-column ops — cheaper per step, priced by the discount.
        estimate = CORE_SWEEP_FACTOR * base * selectivity
        if n >= VECTOR_MIN_BLOCK:
            estimate *= VECTOR_SWEEP_DISCOUNT
        return estimate
    # The table evaluators' candidate-set sweeps ride the same kernels;
    # their table bookkeeping does not.
    sweep_blend = (1.0 - SET_SWEEP_SHARE) + SET_SWEEP_SHARE * selectivity
    if algorithm == "mincontext":
        return base * sweep_blend + POSITIONAL_LOOP_FACTOR * loop
    if algorithm == "optmincontext":
        return (
            base * sweep_blend
            + OPT_LOOP_DISCOUNT * loop
            + BOTTOMUP_SETUP_FACTOR * plan.bottomup_path_count * n
        )
    return base


# ----------------------------------------------------------------------
# Physical plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalPlan:
    """A logical plan bound to a document profile and an evaluator.

    Attributes:
        logical: the stage-1 plan (shared, immutable).
        profile: the document shape this specialization is for.
        algorithm: the evaluator to run.
        requested: what the caller asked for (``auto`` or a forced name).
        estimates: per-candidate ``(algorithm, estimated cost)`` pairs,
            in candidate order (empty for forced requests) — exactly the
            numbers the selection compared: seed model units, or units ×
            observed seconds-per-unit rates once every candidate has
            enough observations (the rationale notes which).
        clamped: True when a guarantee clamp overrode the cost model.
        rationale: one human-readable line explaining the choice.
    """

    logical: LogicalPlan
    profile: DocumentProfile
    algorithm: str
    requested: str = "auto"
    estimates: tuple = ()
    clamped: bool = False
    rationale: str = ""

    def describe(self) -> str:
        """Multi-line explanation for ``repro-xpath plan --explain``."""
        lines = [
            f"profile:          {self.profile.describe()}",
            f"chosen algorithm: {self.algorithm}",
        ]
        if self.estimates:
            ranked = ", ".join(
                f"{name}={cost:.3g}" for name, cost in self.estimates
            )
            lines.append(f"estimated cost:   {ranked} (lower wins)")
        lines.append(f"rationale:        {self.rationale}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The specializer
# ----------------------------------------------------------------------


class PlanSpecializer:
    """Cost-driven algorithm selection with memoized, exactly counted
    specializations and online timing refinement.

    Thread safety follows the service layer's conventions: the memo
    (with its hit/miss accounting) mutates under one lock, and the
    selection computation — pure and cheap — runs inside it, so racing
    callers of one (plan, profile) see one miss and then hits, exactly.
    """

    #: Bound on the specialization memo; enforced by *profile-bucketed*
    #: LRU eviction: entries live in per-profile buckets under one
    #: global capacity, a hit refreshes recency, and an insert past
    #: capacity evicts exactly one entry — the globally
    #: least-recently-used entry *of a largest bucket*. One hot document
    #: profile churning through thousands of plans can therefore only
    #: evict its own entries once its bucket is the largest; other
    #: profiles' specializations survive the burst. When all buckets tie
    #: (e.g. one entry each) this degenerates to plain global LRU, which
    #: keeps the eviction order deterministic.
    DEFAULT_MEMO_CAPACITY = 4096
    #: Observations every candidate needs before observed rates replace
    #: the seed constants in a selection.
    MIN_OBSERVATIONS = 3

    def __init__(
        self,
        memo_capacity: int | None = None,
        guarantee_nodes: int = 4096,
        timings: TimingStats | None = None,
    ):
        self.memo_capacity = (
            self.DEFAULT_MEMO_CAPACITY if memo_capacity is None else memo_capacity
        )
        if self.memo_capacity < 1:
            raise ValueError(
                f"memo capacity must be >= 1, got {self.memo_capacity}"
            )
        #: Above this many nodes, fragment guarantees override constants.
        self.guarantee_nodes = guarantee_nodes
        self.timings = timings if timings is not None else TimingStats(name="eval")
        self.stats = CacheStats(name="specialize_cache", capacity=self.memo_capacity)
        # Global recency order (key → bucket key) plus per-profile-key
        # buckets holding the actual entries; see DEFAULT_MEMO_CAPACITY
        # for the eviction policy the split implements.
        self._order: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._buckets: dict[tuple, dict[tuple, PhysicalPlan]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    def specialize(
        self,
        plan: LogicalPlan,
        profile: DocumentProfile,
        algorithm: str = "auto",
    ) -> PhysicalPlan:
        """The physical plan for (plan, profile, requested algorithm),
        through the memo. Forced names are validated (fragment violations
        raise exactly as in static resolution) and passed through."""
        bucket_key = profile.key
        key = (plan.cache_key, bucket_key, algorithm)
        with self._lock:
            bucket = self._buckets.get(bucket_key)
            cached = bucket.get(key) if bucket is not None else None
            if cached is not None:
                self._order.move_to_end(key)
                self.stats.hit()
                return cached
            self.stats.miss()
            physical = self._select(plan, profile, algorithm)
            while len(self._order) >= self.memo_capacity:
                self._evict_one()
            self._buckets.setdefault(bucket_key, {})[key] = physical
            self._order[key] = bucket_key
            return physical

    def _evict_one(self) -> None:
        """Evict the globally-LRU entry of a largest profile bucket
        (caller holds the lock). Scanning the recency order from oldest
        and taking the first entry whose bucket is maximal makes the
        choice deterministic and reduces to plain LRU on all-tied
        buckets."""
        largest = max(len(bucket) for bucket in self._buckets.values())
        victim = next(
            key
            for key, bucket_key in self._order.items()
            if len(self._buckets[bucket_key]) == largest
        )
        bucket_key = self._order.pop(victim)
        bucket = self._buckets[bucket_key]
        del bucket[victim]
        if not bucket:
            del self._buckets[bucket_key]
        self.stats.eviction()

    def _select(
        self, plan: LogicalPlan, profile: DocumentProfile, algorithm: str
    ) -> PhysicalPlan:
        if algorithm != "auto":
            # Forced names go through the static resolver purely for its
            # validation (unknown names, fragment violations).
            resolved = resolve_algorithm(plan, algorithm)
            return PhysicalPlan(
                logical=plan,
                profile=profile,
                algorithm=resolved,
                requested=algorithm,
                rationale=f"algorithm forced to {resolved!r} by the caller",
            )
        candidates = ["mincontext", "optmincontext"]
        if plan.is_core_xpath:
            candidates.append("corexpath")
        estimates = tuple(
            (name, cost_units(plan, profile, name)) for name in candidates
        )
        scaled = self._apply_observed_rates(estimates)
        chosen = min(scaled, key=lambda pair: pair[1])[0]
        clamped = False
        traits = plan.traits
        reasons = [
            f"|dom|={profile.total_nodes}",
            f"|Q|={traits.ast_size}",
            f"fanout={profile.max_fanout}",
            f"bottomup-paths={plan.bottomup_path_count}",
            "positional="
            + (
                "sibling"
                if traits.positional_sibling
                else ("yes" if traits.uses_position else "no")
            ),
        ]
        selectivity = name_test_selectivity(plan, profile)
        if selectivity < 1.0:
            reasons.append(
                f"name-test selectivity={selectivity:.3g} "
                f"(fused kernels over {len(traits.name_test_tags)} "
                "indexed name tests)"
            )
        if profile.total_nodes > self.guarantee_nodes:
            # Past the guarantee threshold the constants stop being the
            # story: defer to the strongest fragment bound available.
            if plan.is_core_xpath and chosen != "corexpath":
                chosen, clamped = "corexpath", True
                reasons.append(
                    f"guarantee clamp: Core XPath + |dom| > {self.guarantee_nodes} "
                    "→ Theorem 13 linear time"
                )
            elif (
                not plan.is_core_xpath
                and plan.is_extended_wadler
                and chosen != "optmincontext"
            ):
                chosen, clamped = "optmincontext", True
                reasons.append(
                    f"guarantee clamp: Wadler fragment + |dom| > {self.guarantee_nodes} "
                    "→ Corollary 11 bounds"
                )
        if scaled is not estimates:
            reasons.append("estimates scaled by observed per-algorithm rates")
        return PhysicalPlan(
            logical=plan,
            profile=profile,
            algorithm=chosen,
            requested="auto",
            # Report the numbers the selection actually compared.
            estimates=scaled,
            clamped=clamped,
            rationale="; ".join(reasons),
        )

    def _apply_observed_rates(self, estimates: tuple) -> tuple:
        """Scale unit estimates by observed seconds-per-unit rates — but
        only when *every* candidate has enough observations; mixing a
        measured rate with a made-up default would systematically favor
        whichever algorithm happened to run first."""
        rates = {}
        for name, _ in estimates:
            if self.timings.observation_count(name) < self.MIN_OBSERVATIONS:
                return estimates
            rates[name] = self.timings.rate(name)
        return tuple((name, units * rates[name]) for name, units in estimates)

    # ------------------------------------------------------------------

    def observe(
        self,
        plan: LogicalPlan,
        profile: DocumentProfile,
        algorithm: str,
        seconds: float,
    ) -> None:
        """Feed one evaluation's wall time back into the timing model
        (called by :class:`~repro.service.service.DocumentSession` after
        every uncached evaluation)."""
        self.timings.observe(algorithm, cost_units(plan, profile, algorithm), seconds)
        stats.count(f"specialized_evaluations_{algorithm}")

    # ------------------------------------------------------------------

    def specialize_residual(
        self,
        plan: LogicalPlan,
        profile: DocumentProfile,
        covered: int,
        total: int,
    ) -> PhysicalPlan:
        """Price ``plan`` given an already-materialized step prefix.

        The batch-shared step DAG (:mod:`repro.service.batchplan`) calls
        this to pick the evaluator for a *residual* evaluation: the
        first ``covered`` of ``total`` main-path steps are done (a
        sorted pre array), only the remaining steps run. Candidates are
        the table evaluators — a residual plan is rooted at a
        ``ConstantNodeSet`` primary, which is outside Core XPath — with
        estimates scaled to the residual share of the work
        (:func:`residual_cost_units`), refined by observed rates, and
        clamped to OPTMINCONTEXT's Corollary 11 guarantee past the
        guarantee threshold exactly like a full selection. Not memoized:
        ``covered`` varies per DAG node and the selection is a handful
        of float comparisons."""
        candidates = ("mincontext", "optmincontext")
        estimates = tuple(
            (name, residual_cost_units(plan, profile, name, covered, total))
            for name in candidates
        )
        scaled = self._apply_observed_rates(estimates)
        chosen = min(scaled, key=lambda pair: pair[1])[0]
        clamped = False
        reasons = [
            f"residual {max(0, total - covered)}/{total} step(s) past a "
            "materialized prefix",
            f"|dom|={profile.total_nodes}",
        ]
        if profile.total_nodes > self.guarantee_nodes and chosen != "optmincontext":
            chosen, clamped = "optmincontext", True
            reasons.append(
                f"guarantee clamp: |dom| > {self.guarantee_nodes} "
                "→ Corollary 11 bounds"
            )
        if scaled is not estimates:
            reasons.append("estimates scaled by observed per-algorithm rates")
        return PhysicalPlan(
            logical=plan,
            profile=profile,
            algorithm=chosen,
            requested="auto",
            estimates=scaled,
            clamped=clamped,
            rationale="; ".join(reasons),
        )

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop memoized specializations (statistics are retained)."""
        with self._lock:
            self._order.clear()
            self._buckets.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)
