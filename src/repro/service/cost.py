"""The price of a (query, document) cell, in abstract cost units.

Admission control (:mod:`repro.serve.admission`) is this module's only
reader: it multiplies :func:`cost_units` by the observed seconds-per-unit
rate of the evaluator that will run (:class:`repro.stats.TimingStats`,
fed by every uncached evaluation through
:attr:`QueryService.timings <repro.service.service.QueryService.timings>`)
to refuse or degrade work *before* evaluation starts. Which evaluator
runs is not priced here: ``auto`` is the paper's fragment dispatch
(:meth:`~repro.service.plan.LogicalPlan.best_algorithm` — Theorem 13's
sweep on Core XPath, OPTMINCONTEXT with Corollary 11's bounds
elsewhere).

A price combines a plan's document-independent
:class:`~repro.service.plan.PlanTraits` with a :class:`DocumentProfile`
— node count, depth, fanout, text ratio and per-tag element counts, the
shape the index persists. A plan's name-tested interval-axis steps
(``PlanTraits.name_test_tags``) together with the profile's tag counts
predict how small the fused axis kernels' outputs are
(:func:`name_test_selectivity`), shrinking the sweep share of an
estimate — the Core XPath sweep in full (it is set operations end to
end), the table evaluators' by :data:`SET_SWEEP_SHARE`. Hand-built
profiles without tag counts neutralize the term.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import cached_property

from repro.axes.vec import VECTOR_MIN_BLOCK
from repro.service.plan import LogicalPlan
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

    @cached_property
    def _tag_count_map(self) -> dict:
        """``tag_counts`` as a dict, built once per profile (profiles are
        weak-cached and immutable; cost_units reads this per price)."""
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


# ----------------------------------------------------------------------
# The cost model
# ----------------------------------------------------------------------

#: Seed constants, in abstract cost units (1 unit ≈ one node×AST-node
#: touch of MINCONTEXT's demand-driven pass). Measured on the paper's
#: query families over catalog / line / wide-tree workload documents;
#: the observed per-algorithm rates absorb machine-specific error.

#: Theorem 13's sweep against MINCONTEXT's demand-driven pass on Core
#: queries: 1.3–15× cheaper on flat ``array('q')`` columns, median ≈ 4×
#: across the catalog / wide-tree workload. The vector tier's gain on
#: wide sweeps is priced separately (:data:`VECTOR_SWEEP_DISCOUNT`).
CORE_SWEEP_FACTOR = 0.4
#: Multiplier on the Core sweep estimate for documents wide enough that
#: sweep steps reach the block side of the axis kernels
#: (``repro.axes.vec``): whole-column ops cut the per-node
#: interpreter constant, but only once blocks amortize their setup.
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


def name_test_selectivity(plan: LogicalPlan, profile: DocumentProfile) -> float:
    """The indexed-kernel cost term: predicted fraction of ``dom`` the
    plan's fused name-test kernels touch on this profile (floored — see
    :data:`INDEX_DISCOUNT_FLOOR`). 1.0 (no effect) when the plan has no
    name-tested interval-axis steps or the profile carries no tag
    counts."""
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

    ``corexpath``, ``optmincontext`` and ``mincontext`` have real models;
    the other evaluators get the base sweep estimate so forced-algorithm
    timings can still be normalized into per-unit rates.
    """
    n = profile.total_nodes
    base = float(n) * plan.traits.ast_size
    base += STRING_OP_FACTOR * plan.traits.string_op_count * profile.text_ratio * n
    loop = positional_loop_width(plan, profile)
    selectivity = name_test_selectivity(plan, profile)
    if algorithm == "corexpath":
        # The Core sweep is set operations end to end: every name-tested
        # interval step is a fused partition query, so the whole
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
