"""The price of a (query, document) cell, in abstract cost units.

Admission control (:mod:`repro.serve.admission`) is this module's only
reader: it multiplies :func:`cost_units` by the observed seconds-per-unit
rate of the evaluator that will run (:class:`repro.stats.TimingStats`,
fed by every uncached evaluation through
:attr:`QueryService.timings <repro.service.service.QueryService.timings>`)
to refuse or degrade work *before* evaluation starts.

A price is the paper's bound for the cell, the same formula for every
evaluator: ``|D|·|Q|`` (Theorem 13 puts Core XPath there) plus the
width of the (cp, cs) loops a positional query runs (Theorem 7,
Corollary 11), which is 0 on Core XPath (it has no ``position()``,
Definition 12). An evaluator's constant factor is not priced here: the
rates are kept per evaluator, so a factor on its units would be
divided back out of its rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.plan import LogicalPlan
from repro.xml.document import Document


@dataclass(frozen=True)
class DocumentProfile:
    """The document-shape features the price reads.

    Attributes:
        total_nodes: ``|dom|`` — the size every paper bound is stated in.
        max_fanout: longest run of element siblings (the width of
            positional-sibling loops).
    """

    total_nodes: int
    max_fanout: int

    def describe(self) -> str:
        return f"|dom|={self.total_nodes} fanout={self.max_fanout}"


def document_profile(document: Document) -> DocumentProfile:
    """A document's profile: two numbers off its index,
    nothing per node, no string decoded."""
    index = document.index
    return DocumentProfile(index.total, index.shape.max_fanout)


#: Loop width, per node, for position-dependent queries without
#: sibling-positional steps (descendant/child positional loops span
#: candidate sets, not sibling runs).
POSITION_BASE_WIDTH = 2.0


def positional_loop_width(plan: LogicalPlan, profile: DocumentProfile) -> float:
    """The width of the (cp, cs) loops the evaluators run for this
    (plan, profile): sibling-run length for positional sibling steps,
    a thin per-node band otherwise, zero for position-free queries."""
    if plan.traits.positional_sibling:
        return float(profile.total_nodes * max(1, profile.max_fanout))
    if plan.traits.uses_position:
        return POSITION_BASE_WIDTH * profile.total_nodes
    return 0.0


def cost_units(plan: LogicalPlan, profile: DocumentProfile) -> float:
    """The cell's bound, ``|D|·|Q|`` plus the positional-loop width."""
    units = profile.total_nodes * plan.traits.ast_size
    return units + positional_loop_width(plan, profile)
