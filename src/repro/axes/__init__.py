"""Axis relations of the XPath data model — one semantics, two policies.

**The Definition-1 scans.** Every axis ``χ`` is available as a per-node
iterator (:func:`axis_nodes`) and as a set function ``χ : 2^dom →
2^dom`` (:func:`axis_set`) with an inverse ``χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠
∅}`` (:func:`inverse_axis_set`). These run in ``O(|D|)`` time regardless
of ``|X|`` — the bound the paper's complexity theorems rely on (see the
remark below Definition 1) — and are the test oracle and the fallback
of everything below.

**The pre-plane kernels.** Each axis, fused with its node test, has one
forward and one inverse kernel over the per-document
:class:`repro.xml.index.NodeIndex` (name-partitioned sorted pre-order
arrays): a ``descendant::a`` step costs ``O(|X|·log|D| + output)`` via
binary search over the ``a`` partition; ``following``/``preceding`` are
partition suffix/prefix slices; the pointer axes gather the parent
column, child spans and attribute runs; inverse interval axes emit pre
ranges directly. Where the cheaper algorithm depends on the number of
origins (``child``: a semi-join or child-table spans for a block, size
hops below it) the kernel branches on the block's width at
``VECTOR_MIN_BLOCK``. They are built from the standard library's
C-speed blocks alone.

**One gate.** The three pre-plane evaluators — Core XPath sweeps,
MINCONTEXT's and OPTMINCONTEXT's set steps
(:func:`repro.core.common.step_candidate_pres`, whose per-origin
candidate lists :func:`repro.core.common.step_relation_pres` cuts from
the same columns) and the bottom-up path propagation — run every step
through :func:`forward_step` / :func:`inverse_step` /
:func:`filter_step` (:mod:`repro.axes.vec`). Under ``auto``, the only
production policy, a step takes its kernel unless the kernel declines —
a narrow interval step whose predicted cost (computed exactly from
partition bisections) exceeds the ``O(|D|)`` scan bound, or the ``id``
inverse — and then runs the Definition-1 scan verbatim; under ``scan``
(:func:`kernel_mode_forced`, the oracle tests and benchmarks compare
against) every step does, and none reads the index. Results are
byte-identical under both. The per-node
:func:`repro.axes.axes.axis_test_nodes` the reference evaluators rank
candidates with applies the same rule to ``Node`` objects. Outcomes are
counted exactly on :data:`repro.stats.axis_kernel_stats`
(``fused_hits`` / ``vector_ops`` for kernel runs below and from
``VECTOR_MIN_BLOCK`` origins, ``fallback_scans`` for scans).
"""

from repro.axes.axes import (
    ALL_AXES,
    FORWARD_AXES,
    INTERVAL_AXES,
    INVERSE_INTERVAL_AXES,
    KERNEL_MODES,
    REVERSE_AXES,
    AXIS_PRINCIPAL_ATTRIBUTE,
    axis_nodes,
    axis_set,
    inverse_axis_set,
    is_forward_axis,
    kernel_mode,
    kernel_mode_forced,
    matches_node_test,
    set_kernel_mode,
)
from repro.axes.order import axis_order_key, index_in_axis_order, sort_in_axis_order
from repro.axes.vec import (
    FORWARD_VECTOR_AXES,
    INVERSE_VECTOR_AXES,
    VECTOR_MIN_BLOCK,
    filter_step,
    forward_step,
    inverse_step,
)

__all__ = [
    "ALL_AXES",
    "FORWARD_AXES",
    "INTERVAL_AXES",
    "INVERSE_INTERVAL_AXES",
    "KERNEL_MODES",
    "REVERSE_AXES",
    "AXIS_PRINCIPAL_ATTRIBUTE",
    "axis_nodes",
    "axis_set",
    "inverse_axis_set",
    "is_forward_axis",
    "kernel_mode",
    "kernel_mode_forced",
    "matches_node_test",
    "set_kernel_mode",
    "axis_order_key",
    "index_in_axis_order",
    "sort_in_axis_order",
    "FORWARD_VECTOR_AXES",
    "INVERSE_VECTOR_AXES",
    "VECTOR_MIN_BLOCK",
    "filter_step",
    "forward_step",
    "inverse_step",
]
