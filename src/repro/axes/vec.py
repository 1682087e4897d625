"""Tier 2 — block-vectorized column programs over the flat NodeIndex.

A Core XPath sweep (Definition 12 / Theorem 13) is a chain of whole-set
steps ``X_{i+1} = χ(X_i) ∩ T(t_i) ∩ pred-sets``. The scalar kernels of
:mod:`repro.axes.axes` already compute each step output-sensitively, but
they iterate the context block one pre at a time in Python — per-element
interpreter dispatch on exactly the loop the paper says should be a bulk
pass. This module removes that dispatch: a sweep's step chain is
compiled once into a small linear IR (a :class:`VectorProgram` of
:class:`CompiledStep` records) and executed batch-at-a-time, each step a
handful of whole-column operations — partition loads, interval joins
(bisects over maximal subtree intervals), parent-pointer gathers,
contiguous child-span / attribute-run gathers, sorted-merge
union/intersect, name-test partition intersects — with no per-node
Python dispatch in the loop body.

The primitives are built from the standard library's C-speed blocks
only: ``array``/``memoryview`` slice gathers, ``bisect`` over whole
blocks, bulk ``set`` algebra, one ``sort`` per gather that needs it.

Dispatch is per step, in one place: :func:`forward_step`,
:func:`inverse_step` and :func:`filter_step` run their op vectorized when
the axis has a columnar form and the block passes the gate — always in
the ``vector`` mode of :func:`repro.axes.axes.set_kernel_mode`, from
:data:`VECTOR_MIN_BLOCK` members up in ``auto``, never in ``indexed`` /
``scan`` — and otherwise delegate to the tier-1 scalar kernels, whose
``fused_hits``/``fallback_scans`` accounting then applies verbatim. Axes
with no columnar form (the sibling axes, ``id``) always delegate. The
three step functions serve every pre-plane evaluator: a Core sweep's
program (:func:`run_program`, engaged per document by
:func:`sweep_engaged`), the set steps of MINCONTEXT / OPTMINCONTEXT
(:func:`repro.core.common.step_candidate_pres`) and the bottom-up path
propagation (:mod:`repro.core.bottomup_paths`). Every program run ticks
``vector_program_runs`` and every vectorized primitive ticks
``vector_ops`` on :data:`repro.stats.axis_kernel_stats` — together with
the scalar counters this partitions a program's step work exactly.

The fallback guarantee is inherited, not re-proved: every vector
primitive computes the same set as a forced tier-1 kernel (most *are*
the forced kernels, applied to whole blocks), and the step functions
only replace one ``χ(X) ∩ T(t)`` / ``χ⁻¹(Y)`` call of an evaluator whose
worst-case bound (Theorems 7, 10, 13) is preserved by the tier-0/1
dispatch underneath.
"""

from __future__ import annotations

from repro import stats
from repro.axes.axes import (
    AXIS_PRINCIPAL_ATTRIBUTE,
    INTERVAL_AXES,
    INVERSE_INTERVAL_AXES,
    _interval_axis_pres,
    _inverse_interval_pres,
    _inverse_pointer_pres,
    axis_test_pres,
    inverse_axis_test_pres,
    kernel_mode,
)
from repro.xml.index import merge_intersection, node_index

#: Narrowest block (and smallest document) worth a vectorized op: below
#: this, program/array setup costs more than the scalar loop it saves
#: (measured in benchmarks/bench_vector.py; see EXP-VEC).
VECTOR_MIN_BLOCK = 16

#: Forward axes with a columnar form (interval joins, pointer/child/
#: attribute-run gathers, frontier ancestor walks). Siblings and ``id``
#: delegate to the scalar kernels per-op.
FORWARD_VECTOR_AXES = (
    frozenset({"self", "child", "parent", "attribute", "ancestor", "ancestor-or-self"})
    | INTERVAL_AXES
)

#: Inverse axes with a columnar form (range emits, pointer gathers,
#: frontier walks). Sibling inverses and ``id`` delegate.
INVERSE_VECTOR_AXES = (
    frozenset({"self", "child", "parent", "attribute", "descendant", "descendant-or-self"})
    | INVERSE_INTERVAL_AXES
)


# ----------------------------------------------------------------------
# Column primitives
# ----------------------------------------------------------------------
#
# Each takes a sorted duplicate-free pre block and returns a sorted
# duplicate-free pre array — the same contract as the tier-1 pre-plane
# kernels (most primitives *are* those kernels, forced, so identity is
# by construction rather than by reimplementation).


def forward_block(document, index, axis, block, test):
    """``χ(block) ∩ T(test)`` for a forward vector axis."""
    if axis in INTERVAL_AXES:
        if not isinstance(block, list):
            block = list(block)
        out = _interval_axis_pres(document, axis, block, test, True)
        if out is not None:
            return out
        return axis_test_pres(document, axis, block, test)
    if axis == "self":
        return filter_block(index, block, test, False)
    if axis == "parent":
        parent_pre = index.parent_pre
        candidates = sorted({parent_pre[p] for p in block if p != 0})
        return filter_block(index, candidates, test, False)
    if axis == "child":
        partition = index.filter_partition(test, attribute_principal=False)
        target = index.non_attributes if partition is None else partition
        if len(target) <= 8 * len(block):
            # Partition-side semi-join: one pass over the test
            # partition keeping members whose parent lands in the
            # block — already sorted, no gather, no merge.
            parent_pre = index.parent_pre
            members = set(block)
            return [p for p in target if parent_pre[p] in members]
        offsets, children = index.child_table()
        spans = memoryview(children)
        out: list[int] = []
        extend = out.extend
        for p in block:
            lo, hi = offsets[p], offsets[p + 1]
            if lo < hi:
                extend(spans[lo:hi])
        out.sort()  # spans of nested origins interleave in pre order
        if partition is None:
            return out
        return intersect(out, partition)
    if axis == "attribute":
        counts = index.attribute_counts()
        out = []
        extend = out.extend
        for p in block:
            n = counts[p]
            if n:
                extend(range(p + 1, p + 1 + n))
        # Runs across an ascending block are disjoint ascending (a
        # block member inside another's run is an attribute, whose
        # own run is empty) — no sort needed.
        return filter_block(index, out, test, True)
    # ancestor / ancestor-or-self: level-synchronous parent-column
    # walk — the whole frontier hops one generation per iteration,
    # deduplicated before each hop.
    seen = _frontier_ancestors(index, block)
    if axis == "ancestor-or-self":
        seen.update(block)
    return filter_block(index, sorted(seen), test, False)


def inverse_block(document, axis, block):
    """``χ⁻¹(block)`` for an inverse vector axis."""
    if not isinstance(block, list):
        block = list(block)
    if axis in INVERSE_INTERVAL_AXES:
        out = _inverse_interval_pres(document, axis, block, True)
    else:
        out = _inverse_pointer_pres(document, axis, block)
    return out if out is not None else []


def filter_block(index, block, test, attribute_principal):
    """``block ∩ T(test)`` via one partition intersect (``None``
    partition means ``node()`` — matches everything)."""
    partition = index.filter_partition(test, attribute_principal=attribute_principal)
    if partition is None:
        return block if isinstance(block, list) else list(block)
    return intersect(block, partition)


def intersect(a, b):
    """Intersection of two sorted duplicate-free pre arrays (the
    predicate-merge primitive) — ``merge_intersection`` semantics at
    block speed: galloping merge when one side is much smaller (bisects
    beat any full pass), bulk C-level set intersection when the sides
    are comparable (the regime where the Python merge loop pays
    per-element interpreter cost)."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if min(la, lb) * 16 < max(la, lb):
        return merge_intersection(a, b)
    return sorted(set(a).intersection(b))


def _frontier_ancestors(index, block) -> set[int]:
    """All proper ancestors of the block, by level-synchronous walk."""
    parent_pre = index.parent_pre
    frontier = {parent_pre[p] for p in block}
    frontier.discard(-1)
    seen: set[int] = set()
    while frontier:
        seen |= frontier
        frontier = {parent_pre[a] for a in frontier}
        frontier.difference_update(seen)
        frontier.discard(-1)
    return seen


# ----------------------------------------------------------------------
# Program IR
# ----------------------------------------------------------------------


class CompiledStep:
    """One sweep step of a program: axis, node test, predicates.

    Which tier runs it is decided per block by the step functions;
    predicates stay as expressions — they recurse into arbitrary
    sub-sweeps, so the executor evaluates them through a callback and
    intersects the resulting sorted pre arrays.
    """

    __slots__ = ("axis", "test", "predicates")

    def __init__(self, axis, test, predicates):
        self.axis = axis
        self.test = test
        self.predicates = predicates

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{self.axis}::{self.test!r} +{len(self.predicates)}pred>"


class VectorProgram:
    """A compiled sweep: direction plus the resolved step records (in
    execution order — backward programs store the steps reversed)."""

    __slots__ = ("direction", "steps")

    def __init__(self, direction, steps):
        self.direction = direction
        self.steps = steps

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<VectorProgram {self.direction} {list(self.steps)!r}>"


def compile_forward_steps(steps) -> VectorProgram:
    """Compile a main-path step chain into a forward program."""
    return VectorProgram(
        "forward",
        tuple(
            CompiledStep(step.axis, step.node_test, tuple(step.predicates))
            for step in steps
        ),
    )


def compile_backward_steps(steps) -> VectorProgram:
    """Compile a predicate path into a backward (χ⁻¹) program; steps are
    stored reversed, the order the propagation executes them."""
    return VectorProgram(
        "backward",
        tuple(
            CompiledStep(step.axis, step.node_test, tuple(step.predicates))
            for step in reversed(steps)
        ),
    )


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


def sweep_engaged(document) -> bool:
    """Whether Core sweeps over this document route through programs:
    always in ``vector`` mode, in ``auto`` once the document can yield
    blocks wide enough to amortize program setup, never otherwise."""
    mode = kernel_mode()
    if mode == "vector":
        return True
    return mode == "auto" and len(document.nodes) >= VECTOR_MIN_BLOCK


def _wide(block) -> bool:
    """The per-op gate: does this block run vectorized? Always in
    ``vector`` mode, in ``auto`` from :data:`VECTOR_MIN_BLOCK` members
    up, never in ``indexed`` / ``scan``."""
    mode = kernel_mode()
    return mode == "vector" or (mode == "auto" and len(block) >= VECTOR_MIN_BLOCK)


def forward_step(document, axis, block, test):
    """``χ(block) ∩ T(test)`` over a sorted duplicate-free pre block, on
    the tier the block earns: the column primitive when the axis has one
    and the block is wide, the tier-1 dispatch
    (:func:`repro.axes.axes.axis_test_pres`, tier 0 underneath) otherwise.
    The set step of every pre-plane evaluator: a Core sweep's program
    steps and MINCONTEXT / OPTMINCONTEXT's candidate sets
    (:func:`repro.core.common.step_candidate_pres`). A vectorized op
    ticks ``vector_ops``; a delegated one ticks ``fused_hits`` /
    ``fallback_scans`` through the dispatch it lands in."""
    if axis in FORWARD_VECTOR_AXES and _wide(block):
        stats.axis_kernel_stats.vector_op()
        return forward_block(document, node_index(document), axis, block, test)
    if not isinstance(block, list):
        block = list(block)
    return axis_test_pres(document, axis, block, test)


def inverse_step(document, axis, block):
    """``χ⁻¹(block)``, tiered like :func:`forward_step`."""
    if axis in INVERSE_VECTOR_AXES and _wide(block):
        stats.axis_kernel_stats.vector_op()
        return inverse_block(document, axis, block)
    if not isinstance(block, list):
        block = list(block)
    return inverse_axis_test_pres(document, axis, block)


def filter_step(document, axis, block, test):
    """``block ∩ T(test)`` for a step on ``axis`` — the name-test filter
    an inverse step applies before ``χ⁻¹``: one partition intersect
    (:func:`filter_block`), counted as a ``vector_ops`` tick when the
    block is wide."""
    if _wide(block):
        stats.axis_kernel_stats.vector_op()
    return filter_block(
        node_index(document), block, test, axis in AXIS_PRINCIPAL_ATTRIBUTE
    )


def run_program(document, program, block, predicate_pres, on_step=None):
    """Execute a compiled program over a sorted pre block.

    ``predicate_pres(expr)`` must return the sorted pre array where the
    predicate holds (the evaluator's recursive entry point — an inner
    sweep may itself run a program). ``on_step`` is called once per step
    executed, mirroring the scalar sweeps' per-step accounting exactly:
    a forward sweep runs every step (even on an empty block), a backward
    sweep counts the step *then* stops on an empty frontier.

    Counters: one ``vector_program_runs`` tick per call; one
    ``vector_ops`` tick per primitive run vectorized (the step op, and
    in backward steps the name-test filter). An op delegated to a scalar
    kernel — narrow block in ``auto``, or an axis with no columnar form —
    ticks ``fused_hits``/``fallback_scans`` through that kernel's own
    dispatch instead, so the two counter families partition a program's
    step work exactly.
    """
    stats.axis_kernel_stats.vector_run()
    current = block
    if program.direction == "forward":
        for step in program.steps:
            if on_step is not None:
                on_step()
            current = forward_step(document, step.axis, current, step.test)
            for predicate in step.predicates:
                if not current:
                    break
                current = intersect(current, predicate_pres(predicate))
        return current if isinstance(current, list) else list(current)
    for step in program.steps:
        if on_step is not None:
            on_step()
        if not current:
            return []
        tested = filter_step(document, step.axis, current, step.test)
        for predicate in step.predicates:
            tested = intersect(tested, predicate_pres(predicate))
        current = inverse_step(document, step.axis, tested)
    return current if isinstance(current, list) else list(current)


__all__ = [
    "FORWARD_VECTOR_AXES",
    "INVERSE_VECTOR_AXES",
    "VECTOR_MIN_BLOCK",
    "CompiledStep",
    "VectorProgram",
    "compile_backward_steps",
    "compile_forward_steps",
    "filter_step",
    "forward_step",
    "inverse_step",
    "run_program",
    "sweep_engaged",
]
