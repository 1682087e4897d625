"""Axis relations of the XPath data model — three tiers, one semantics.

**Tier 0 — Definition-1 scans.** Every axis ``χ`` is available as a
per-node iterator (:func:`axis_nodes`) and as a set function
``χ : 2^dom → 2^dom`` (:func:`axis_set`) with an inverse ``χ⁻¹(Y) =
{x | χ({x}) ∩ Y ≠ ∅}`` (:func:`inverse_axis_set`). These run in
``O(|D|)`` time regardless of ``|X|`` — the bound the paper's
complexity theorems rely on (see the remark below Definition 1) — and
are the guaranteed fallback of everything below.

**Tier 1 — indexed scalar kernels.** Each axis fused with its node test
over the per-document :class:`repro.xml.index.NodeIndex`
(name-partitioned sorted pre-order arrays). The sorted pre-array
interface — :func:`axis_test_pres` / :func:`inverse_axis_test_pres` —
is what the evaluators run on when a block is too narrow for tier 2:
the Core XPath sweeps, and every set-at-a-time step of MINCONTEXT /
OPTMINCONTEXT (whose per-origin candidate lists are cut from the same
columns by :func:`repro.core.common.step_relation_pres`). The per-node
:func:`repro.axes.axes.axis_test_nodes` the reference evaluators rank
candidates with is the same dispatch over ``Node`` objects. A
``descendant::a`` dispatch costs
``O(|X|·log|D| + output)`` via binary search over the ``a`` partition;
``following``/``preceding`` are partition suffix/prefix slices; the
pointer axes gather the parent column; inverse interval axes emit pre
ranges directly. Output-sensitive, but iterating context nodes one pre at a
time in Python.

**Tier 2 — vector column primitives** (:mod:`repro.axes.vec`). One
step over a whole block of context nodes — interval joins, pointer
gathers, child-span/attribute-run gathers, partition intersects — with
no per-node Python dispatch in the loop body, built from the standard
library's C-speed blocks alone. Tier 2 serves the set steps of all three
pre-plane evaluators through one per-step gate
(:func:`repro.axes.vec.forward_step` / ``inverse_step`` /
``filter_step``): a Core XPath sweep compiled to a linear IR and run
step by step, MINCONTEXT's outermost and inner set steps and
OPTMINCONTEXT's candidate pools
(:func:`repro.core.common.step_candidate_pres`), and the bottom-up path
propagation. A block of at least ``VECTOR_MIN_BLOCK`` members runs
vectorized in ``auto``; narrower blocks, axes without a columnar form
and the ``indexed`` / ``scan`` modes take tier 1 / tier 0.

**The fallback guarantee lives in the dispatch**: every fused call whose
predicted cost (computed exactly from partition bisections) exceeds the
``O(|D|)`` scan bound — or every call while :func:`set_kernel_mode`
forces ``scan`` — runs the Definition-1 implementation verbatim, and the
vector primitives are forced-kernel forms of the same tier-1 code paths,
so results are byte-identical in every mode and worst-case
asymptotics never regress. Dispatch outcomes are counted exactly on
:data:`repro.stats.axis_kernel_stats` (``fused_hits``/``fallback_scans``
for scalar dispatches, ``vector_program_runs``/``vector_ops`` for the
vector tier).
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
    axis_test_pres,
    inverse_axis_set,
    inverse_axis_test_pres,
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
    compile_backward_steps,
    compile_forward_steps,
    run_program,
    sweep_engaged,
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
    "axis_test_pres",
    "inverse_axis_set",
    "inverse_axis_test_pres",
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
    "compile_backward_steps",
    "compile_forward_steps",
    "run_program",
    "sweep_engaged",
]
