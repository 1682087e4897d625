"""The per-step gate: one dispatch for every pre-plane axis step.

An evaluator's set step is ``χ(X) ∩ T(t)`` (forward), ``χ⁻¹(Y)``
(inverse) or ``Y ∩ T(t)`` (the name-test filter an inverse step applies
first) over a sorted duplicate-free pre block. :func:`forward_step`,
:func:`inverse_step` and :func:`filter_step` are the only way any
pre-plane evaluator runs one: the forward and backward sweeps of Core
XPath (:mod:`repro.core.corexpath`), the set steps of MINCONTEXT /
OPTMINCONTEXT (:func:`repro.core.common.step_candidate_pres`) and the
bottom-up path propagation (:mod:`repro.core.bottomup_paths`).

Each step function chooses between two implementations of the same set:

* the axis's pre-plane kernel (:func:`repro.axes.axes.forward_pres` /
  :func:`~repro.axes.axes.inverse_pres`, a partition intersect for the
  filter) — under ``auto``, the production policy;
* the Definition-1 ``O(|D|)`` scan (:func:`repro.axes.axes.axis_set` /
  :func:`~repro.axes.axes.inverse_axis_set`, a per-member node test for
  the filter) — when the kernel declines (a narrow interval step whose
  predicted cost exceeds the scan bound, the ``id`` inverse), and for
  every step while :func:`repro.axes.axes.set_kernel_mode` forces
  ``scan``, under which no step function reads the index.

Every dispatch ticks exactly one of three counters on
:data:`repro.stats.axis_kernel_stats`: ``fallback_scans`` for a scan,
``vector_ops`` for a kernel run over a block of at least
:data:`VECTOR_MIN_BLOCK` members on an axis whose kernel then works in
whole-column operations (:data:`FORWARD_VECTOR_AXES` /
:data:`INVERSE_VECTOR_AXES`), ``fused_hits`` for any other kernel run.
The filter ticks ``vector_ops`` on a block and nothing otherwise. The
kernels are built from the standard library's C-speed blocks only:
``array``/``memoryview`` slice gathers, ``bisect``, bulk ``set``
algebra, one ``sort`` per gather that needs it.
"""

from __future__ import annotations

from repro import stats
from repro.axes.axes import (
    AXIS_PRINCIPAL_ATTRIBUTE,
    INTERVAL_AXES,
    INVERSE_INTERVAL_AXES,
    VECTOR_MIN_BLOCK,
    axis_set,
    forward_pres,
    intersect,
    inverse_axis_set,
    inverse_pres,
    kernel_mode,
    matches_node_test,
)
from repro.xml.index import node_index

#: Forward axes whose kernel runs a block in whole-column operations
#: (interval joins, pointer/child-span/attribute-run gathers, frontier
#: ancestor walks). The sibling axes cut one span per parent and ``id``
#: boxes its origins: they count as ``fused_hits`` at every width.
FORWARD_VECTOR_AXES = (
    frozenset({"self", "child", "parent", "attribute", "ancestor", "ancestor-or-self"})
    | INTERVAL_AXES
)

#: The same for the inverse kernels (range emits, pointer gathers,
#: frontier walks).
INVERSE_VECTOR_AXES = (
    frozenset({"self", "child", "parent", "attribute", "descendant", "descendant-or-self"})
    | INVERSE_INTERVAL_AXES
)


def _count_kernel_run(block, columnar: bool) -> None:
    if columnar and len(block) >= VECTOR_MIN_BLOCK:
        stats.axis_kernel_stats.vector_op()
    else:
        stats.axis_kernel_stats.fused()


def forward_step(document, axis, block, test):
    """``χ(block) ∩ T(test)`` over a sorted duplicate-free pre block, as
    a sorted pre array (``following`` hands back a zero-copy view of its
    partition's tail)."""
    if not isinstance(block, list):
        block = list(block)
    if kernel_mode() != "scan":
        out = forward_pres(document, axis, block, test)
        if out is not None:
            _count_kernel_run(block, axis in FORWARD_VECTOR_AXES)
            return out
    stats.axis_kernel_stats.fallback()
    nodes = document.nodes
    scanned = axis_set(document, axis, [nodes[p] for p in block])
    return sorted(y.pre for y in scanned if matches_node_test(y, test, axis))


def inverse_step(document, axis, block):
    """``χ⁻¹(block)`` as a sorted pre list."""
    if not isinstance(block, list):
        block = list(block)
    if kernel_mode() != "scan":
        out = inverse_pres(document, axis, block)
        if out is not None:
            _count_kernel_run(block, axis in INVERSE_VECTOR_AXES)
            return out
    stats.axis_kernel_stats.fallback()
    nodes = document.nodes
    scanned = inverse_axis_set(document, axis, [nodes[p] for p in block])
    return sorted(y.pre for y in scanned)


def filter_step(document, axis, block, test):
    """``block ∩ T(test)`` for a step on ``axis`` — the name-test filter
    an inverse step applies before ``χ⁻¹``: one intersect with the test's
    partition, or the per-member node test under ``scan``. A block of
    |D| members is all of ``dom`` (blocks are sorted and duplicate-free),
    and the answer is the partition itself: every backward sweep starts
    there."""
    if kernel_mode() == "scan":
        nodes = document.nodes
        return [p for p in block if matches_node_test(nodes[p], test, axis)]
    if len(block) >= VECTOR_MIN_BLOCK:
        stats.axis_kernel_stats.vector_op()
    index = node_index(document)
    partition = index.filter_partition(
        test, attribute_principal=axis in AXIS_PRINCIPAL_ATTRIBUTE
    )
    if partition is None:  # node() matches every kind
        return block if isinstance(block, list) else list(block)
    if len(block) == len(index.size):
        return list(partition)
    return intersect(block, partition)


__all__ = [
    "FORWARD_VECTOR_AXES",
    "INVERSE_VECTOR_AXES",
    "VECTOR_MIN_BLOCK",
    "filter_step",
    "forward_step",
    "intersect",
    "inverse_step",
]
