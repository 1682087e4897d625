"""Axis functions ``χ`` and inverse axis functions ``χ⁻¹`` (Definition 1).

Two implementations of one semantics, byte-identical:

* **The Definition-1 scans** (:func:`axis_set` / :func:`inverse_axis_set`,
  plus :func:`axis_nodes` for proximity-order per-node enumeration): the
  set functions ``χ(X)`` / ``χ⁻¹(Y)`` of Definition 1, each computed in
  ``O(|D|)`` regardless of ``|X|`` (the bound the paper's complexity
  theorems depend on; see the remark below Definition 1 citing [11]).
  They never consult an index; they are the test oracle and the
  fallback of everything below.
* **The pre-plane kernels** (:func:`forward_pres` / :func:`inverse_pres`,
  over sorted pre arrays): one output-sensitive kernel per axis and
  direction over the per-document :class:`repro.xml.index.NodeIndex`.
  ``descendant::a`` is a binary-search range query over the sorted ``a``
  partition (``O(|X|·log|D| + output)``), ``following``/``preceding`` are
  partition suffix/prefix slices, the pointer axes gather the parent-pre
  column, child spans and attribute runs, and the inverse interval axes
  emit pre-number ranges directly. Where the cheaper algorithm depends
  on how many origins a step has, the kernel branches on the block's
  width (:data:`VECTOR_MIN_BLOCK`). Evaluators reach the kernels only
  through the step functions of :mod:`repro.axes.vec`; the per-node
  proximity-order form is :func:`axis_test_nodes`.

**Where the fallback guarantee lives:** a narrow interval step whose
predicted cost (context size × log |D| + predicted output, computed
exactly from partition bisects) exceeds the ``O(|D|)`` scan bound is
declined by its kernel, and the step function then runs
:func:`axis_set` verbatim — as it does for every step while
:func:`set_kernel_mode` forces ``scan``. The kernels can therefore only
improve constants and output-sensitivity. Every outcome is counted
exactly on :data:`repro.stats.axis_kernel_stats` (``fused_hits`` /
``fallback_scans`` / ``vector_ops``).

Linear-time techniques of the Definition-1 scans, keyed to the pre-order
numbering of :mod:`repro.xml.document`:

* ``descendant(X)`` — interval stabbing with a difference array over
  ``pre`` numbers (each ``x`` contributes the interval
  ``(pre(x), pre(x)+size(x))``), one prefix-sum pass.
* ``following(X)`` — the pre-order suffix starting at
  ``min_{x∈X}(pre(x)+size(x))``; ``preceding(X)`` — all nodes whose
  subtree ends at or before ``max_{x∈X} pre(x)``.
* sibling axes — group ``X`` by parent and take one suffix/prefix of each
  parent's child list.

Attribute nodes follow the W3C data model: they are reached only via the
``attribute`` axis, have no siblings, and are excluded from
``descendant``/``following``/``preceding`` results.

The ``id`` pseudo-axis of Section 4 of the paper (``x id→ y`` iff the id
of ``y`` occurs as a whitespace token in ``strval(x)``) is also provided,
with its inverse computed from the document's cached token index.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from repro import stats
from repro.axes.order import FORWARD_AXES, INTERVAL_AXES, REVERSE_AXES, is_forward_axis
from repro.xml.document import Document, Node, NodeKind
from repro.xml.index import ATTR, merge_intersection, merge_union, node_index
from repro.xpath.ast import NodeTest

#: Every axis this library supports. ``id`` is the pseudo-axis of
#: Section 4; the paper's eleven named axes plus ``attribute``.
ALL_AXES = frozenset(FORWARD_AXES | REVERSE_AXES)

#: Axes whose principal node type is attribute (name tests select
#: attribute nodes); all others select elements.
AXIS_PRINCIPAL_ATTRIBUTE = frozenset({"attribute"})

# ----------------------------------------------------------------------
# Per-node enumeration (proximity order)
# ----------------------------------------------------------------------


def axis_nodes(document: Document, axis: str, node: Node) -> Iterator[Node]:
    """Yield ``χ({node})`` in proximity order (``<doc,χ``)."""
    stats.count("axis_single_calls")
    if axis == "self":
        yield node
    elif axis == "child":
        yield from node.children
    elif axis == "parent":
        if node.parent is not None:
            yield node.parent
    elif axis == "descendant":
        yield from _descendants(node)
    elif axis == "descendant-or-self":
        yield node
        yield from _descendants(node)
    elif axis == "ancestor":
        yield from node.ancestors()
    elif axis == "ancestor-or-self":
        yield node
        yield from node.ancestors()
    elif axis == "following-sibling":
        if node.parent is not None and node.child_index is not None:
            yield from node.parent.children[node.child_index + 1 :]
    elif axis == "preceding-sibling":
        if node.parent is not None and node.child_index is not None:
            yield from reversed(node.parent.children[: node.child_index])
    elif axis == "following":
        start = node.pre + node.size
        for candidate in document.nodes[start:]:
            if not candidate.is_attribute:
                yield candidate
    elif axis == "preceding":
        limit = node.pre
        # Proximity order for preceding is reverse document order.
        for candidate in reversed(document.nodes[:limit]):
            if candidate.pre + candidate.size <= limit and not candidate.is_attribute:
                yield candidate
    elif axis == "attribute":
        yield from node.attributes
    elif axis == "id":
        yield from document.in_document_order(document.deref_ids(node.string_value))
    else:
        raise ValueError(f"unknown axis: {axis}")


def _descendants(node: Node) -> Iterator[Node]:
    for child in node.children:
        yield child
        yield from _descendants(child)


def axis_test_nodes(
    document: Document, axis: str, node: Node, test: NodeTest
) -> list[Node]:
    """``χ({node}) ∩ T(t)`` in proximity order (``<doc,χ``) — the fused
    per-node form of :func:`axis_nodes`.

    The per-context evaluators' positional loops rank candidates by
    proximity position, so their enumerations must stay in ``<doc,χ``
    order — which is exactly what the interval-axis partition kernels
    emit for free: ascending pre *is* proximity order for
    ``descendant``/``descendant-or-self``/``following`` (and its reverse
    for ``preceding``), so a singleton interval query plus the slice
    direction replaces a full-document walk with filtering. The
    predicted-cost rule of :func:`_interval_axis_pres` applies (a
    declined kernel falls back to the enumerate-then-filter scan; one
    ``fused_hits``/``fallback_scans`` tick per interval-axis dispatch in
    ``auto``, none otherwise — ``scan`` and the non-interval axes never
    consult the index here, so they are not dispatches).
    """
    if _kernel_mode != "scan" and axis in INTERVAL_AXES:
        out = _interval_axis_pres(document, axis, [node.pre], test)
        if out is not None:
            stats.axis_kernel_stats.fused()
            nodes = document.nodes
            if axis == "preceding":
                return [nodes[p] for p in reversed(out)]
            return [nodes[p] for p in out]
        stats.axis_kernel_stats.fallback()
    return [
        candidate
        for candidate in axis_nodes(document, axis, node)
        if matches_node_test(candidate, test, axis)
    ]


# ----------------------------------------------------------------------
# Set functions (Definition 1), each O(|D|)
# ----------------------------------------------------------------------


def axis_set(document: Document, axis: str, node_set: Iterable[Node]) -> set[Node]:
    """The axis function ``χ(X) = {y | ∃x ∈ X : x χ y}``."""
    stats.count("axis_set_calls")
    X = node_set if isinstance(node_set, (set, frozenset, list, tuple)) else list(node_set)
    if axis == "self":
        return set(X)
    if axis == "child":
        result: set[Node] = set()
        for x in X:
            result.update(x.children)
        return result
    if axis == "parent":
        return {x.parent for x in X if x.parent is not None}
    if axis == "descendant":
        return _descendant_set(document, X, include_self=False)
    if axis == "descendant-or-self":
        result = _descendant_set(document, X, include_self=False)
        result.update(X)
        return result
    if axis == "ancestor":
        return _ancestor_set(X, include_self=False)
    if axis == "ancestor-or-self":
        result = _ancestor_set(X, include_self=False)
        result.update(X)
        return result
    if axis == "following":
        return _following_set(document, X)
    if axis == "preceding":
        return _preceding_set(document, X)
    if axis == "following-sibling":
        return _sibling_set(X, forward=True)
    if axis == "preceding-sibling":
        return _sibling_set(X, forward=False)
    if axis == "attribute":
        result = set()
        for x in X:
            result.update(x.attributes)
        return result
    if axis == "id":
        result = set()
        for x in X:
            result.update(document.deref_ids(x.string_value))
        return result
    raise ValueError(f"unknown axis: {axis}")


def inverse_axis_set(document: Document, axis: str, node_set: Iterable[Node]) -> set[Node]:
    """Definition 1's ``χ⁻¹(Y) = {x | χ({x}) ∩ Y ≠ ∅}``, in ``O(|D|)``.

    For most tree axes this is the converse axis's set function
    (``child⁻¹ = parent`` etc.). Attribute nodes make four corners
    asymmetric — an attribute has ancestors/following/preceding but is
    nobody's descendant/following/preceding, and it has a parent without
    being a child — so those cases are computed directly from the
    definition rather than via the converse axis. ``id⁻¹(Y)`` uses the
    cached per-node string-value token index (the ``F[[Op]]⁻¹`` of
    Section 4, shown linear-time in [11]).
    """
    stats.count("axis_inverse_calls")
    Y = node_set if isinstance(node_set, (set, frozenset)) else set(node_set)
    if axis == "self":
        return set(Y)
    if axis == "child":
        # x has a child in Y — attribute members of Y are nobody's child.
        return {y.parent for y in Y if not y.is_attribute and y.parent is not None}
    if axis == "parent":
        # x's parent is in Y — children of Y plus attributes of Y.
        result = axis_set(document, "child", Y)
        result |= axis_set(document, "attribute", Y)
        return result
    if axis == "descendant":
        return _ancestor_set((y for y in Y if not y.is_attribute), include_self=False)
    if axis == "descendant-or-self":
        result = _ancestor_set((y for y in Y if not y.is_attribute), include_self=False)
        result.update(Y)
        return result
    if axis == "ancestor":
        # x has an ancestor in Y: everything strictly inside Y's subtree
        # intervals, attributes included (an attribute's ancestors are its
        # element's ancestor-or-self chain).
        return _interval_cover(document, Y, include_self=False, include_attributes=True)
    if axis == "ancestor-or-self":
        result = _interval_cover(document, Y, include_self=False, include_attributes=True)
        result.update(Y)
        return result
    if axis == "following":
        # following(x) ∩ Y ≠ ∅ ⟺ some non-attribute y ∈ Y starts at or
        # after x's subtree end. x itself may be any kind, attributes too.
        cutoff = None
        for y in Y:
            if not y.is_attribute and (cutoff is None or y.pre > cutoff):
                cutoff = y.pre
        if cutoff is None:
            return set()
        return {x for x in document.nodes if x.pre + x.size <= cutoff}
    if axis == "preceding":
        cutoff = None
        for y in Y:
            if not y.is_attribute:
                end = y.pre + y.size
                if cutoff is None or end < cutoff:
                    cutoff = end
        if cutoff is None:
            return set()
        return set(document.nodes[cutoff:])
    if axis == "following-sibling":
        return _sibling_set(Y, forward=False)
    if axis == "preceding-sibling":
        return _sibling_set(Y, forward=True)
    if axis == "attribute":
        return {y.parent for y in Y if y.is_attribute and y.parent is not None}
    if axis == "id":
        ids = {y.xml_id for y in Y}
        ids.discard(None)
        if not ids:
            return set()
        return {node for node, tokens in document.id_tokens() if not ids.isdisjoint(tokens)}
    raise ValueError(f"unknown axis: {axis}")


def _interval_cover(
    document: Document, X: Iterable[Node], include_self: bool, include_attributes: bool
) -> set[Node]:
    """Nodes covered by the subtree intervals of ``X`` (difference-array
    sweep like :func:`_descendant_set`, optionally keeping attributes)."""
    nodes = document.nodes
    total = len(nodes)
    delta = [0] * (total + 1)
    any_interval = False
    for x in X:
        lo = x.pre if include_self else x.pre + 1
        hi = x.pre + x.size
        if lo < hi:
            delta[lo] += 1
            delta[hi] -= 1
            any_interval = True
    if not any_interval:
        return set()
    result: set[Node] = set()
    coverage = 0
    for pre, node in enumerate(nodes):
        coverage += delta[pre]
        if coverage > 0 and (include_attributes or not node.is_attribute):
            result.add(node)
    return result


def _descendant_set(document: Document, X: Iterable[Node], include_self: bool) -> set[Node]:
    """Union of subtree intervals via a difference array: O(|D| + |X|)."""
    nodes = document.nodes
    total = len(nodes)
    delta = [0] * (total + 1)
    any_interval = False
    for x in X:
        lo = x.pre if include_self else x.pre + 1
        hi = x.pre + x.size
        if lo < hi:
            delta[lo] += 1
            delta[hi] -= 1
            any_interval = True
    if not any_interval:
        return set()
    result: set[Node] = set()
    coverage = 0
    for pre, node in enumerate(nodes):
        coverage += delta[pre]
        if coverage > 0 and not node.is_attribute:
            result.add(node)
    return result


def _ancestor_set(X: Iterable[Node], include_self: bool) -> set[Node]:
    """Union of ancestor chains with sharing: O(|D|) total."""
    visited: set[Node] = set()
    result: set[Node] = set()
    for x in X:
        if include_self:
            result.add(x)
        node = x.parent
        while node is not None and node not in visited:
            visited.add(node)
            result.add(node)
            node = node.parent
    return result


def _following_set(document: Document, X: Iterable[Node]) -> set[Node]:
    cutoff = None
    for x in X:
        end = x.pre + x.size
        if cutoff is None or end < cutoff:
            cutoff = end
    if cutoff is None:
        return set()
    return {node for node in document.nodes[cutoff:] if not node.is_attribute}


def _preceding_set(document: Document, X: Iterable[Node]) -> set[Node]:
    cutoff = None
    for x in X:
        if cutoff is None or x.pre > cutoff:
            cutoff = x.pre
    if cutoff is None:
        return set()
    return {
        node
        for node in document.nodes[:cutoff]
        if node.pre + node.size <= cutoff and not node.is_attribute
    }


def _sibling_set(X: Iterable[Node], forward: bool) -> set[Node]:
    """Group by parent, then one suffix (or prefix) per parent: O(|D|)."""
    extremes: dict[int, tuple[Node, int]] = {}
    for x in X:
        if x.parent is None or x.child_index is None:
            continue  # document node and attributes have no siblings
        key = id(x.parent)
        current = extremes.get(key)
        if current is None:
            extremes[key] = (x.parent, x.child_index)
        else:
            parent, index = current
            if (forward and x.child_index < index) or (not forward and x.child_index > index):
                extremes[key] = (parent, x.child_index)
    result: set[Node] = set()
    for parent, index in extremes.values():
        result.update(parent.children[index + 1 :] if forward else parent.children[:index])
    return result


# ----------------------------------------------------------------------
# Node tests (the paper's ``T`` function, generalized to node kinds)
# ----------------------------------------------------------------------


def matches_node_test(node: Node, test: NodeTest, axis: str) -> bool:
    """Does ``node`` pass node test ``t`` on the given axis?

    Name tests and ``*`` select the axis's *principal node type*
    (attributes on the attribute axis, elements elsewhere) — this is how
    the paper's ``T(*) = dom`` specializes once non-element node kinds
    exist; on the paper's element-only examples the two coincide.
    """
    if test.kind == "node":
        return True
    if test.kind == "text":
        return node.kind is NodeKind.TEXT
    if test.kind == "comment":
        return node.kind is NodeKind.COMMENT
    if test.kind == "pi":
        if node.kind is not NodeKind.PROCESSING_INSTRUCTION:
            return False
        return test.name is None or node.name == test.name
    principal = (
        NodeKind.ATTRIBUTE if axis in AXIS_PRINCIPAL_ATTRIBUTE else NodeKind.ELEMENT
    )
    if node.kind is not principal:
        return False
    if test.kind == "wildcard":
        return True
    return node.name == test.name


# ----------------------------------------------------------------------
# Kernel modes
# ----------------------------------------------------------------------

#: The two policies: ``auto`` (the output-sensitive kernels, with the
#: predicted-cost fallback to the scans — the only production policy)
#: and ``scan`` (always run the Definition-1 scans: the oracle that
#: tests, EXP-AXIS and the traced end-to-end probe compare against).
KERNEL_MODES = ("auto", "scan")

_kernel_mode = "auto"


def kernel_mode() -> str:
    """The active policy (see :data:`KERNEL_MODES`)."""
    return _kernel_mode


def set_kernel_mode(mode: str) -> str:
    """Set the policy process-wide; returns the previous one.

    A benchmarking/testing knob (not synchronized with in-flight
    evaluations): results are byte-identical in both modes, only the
    fused/fallback split changes.
    """
    global _kernel_mode
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown kernel mode: {mode!r} (pick from {KERNEL_MODES})")
    previous = _kernel_mode
    _kernel_mode = mode
    return previous


@contextlib.contextmanager
def kernel_mode_forced(mode: str):
    """Context manager form of :func:`set_kernel_mode`."""
    previous = set_kernel_mode(mode)
    try:
        yield
    finally:
        set_kernel_mode(previous)


# ----------------------------------------------------------------------
# Pre-plane kernels (output-sensitive fast path)
# ----------------------------------------------------------------------
#
# Each takes a sorted duplicate-free pre array and returns one; none
# touches a boxed node except ``id``.

#: Axes whose *inverse* kernels emit pre-number ranges directly.
INVERSE_INTERVAL_AXES = frozenset(
    {"ancestor", "ancestor-or-self", "following", "preceding"}
)

#: From this many origins up a step counts as a block
#: (``vector_ops``), and a kernel whose cheaper algorithm depends on the
#: number of origins takes its whole-column side: per-document setup — a
#: child table, a pass over a partition — that a narrower step would not
#: earn back.
VECTOR_MIN_BLOCK = 16


def forward_pres(
    document: Document, axis: str, pres: list[int], test: NodeTest
) -> list[int] | None:
    """``χ(X) ∩ T(t)`` over sorted pre arrays (document order in,
    document order out), or ``None`` when the kernel declines and the
    caller owes the Definition-1 scan.

    Interval axes ride :func:`_interval_axis_pres`, every other tree
    axis :func:`_pointer_axis_pres`, so a step stays in the pre plane
    (on a column document, no node is materialized). Only ``id`` boxes
    its origins."""
    if axis in INTERVAL_AXES:
        return _interval_axis_pres(document, axis, pres, test)
    if axis == "id":
        nodes = document.nodes
        targets = set()
        for p in pres:
            targets.update(document.deref_ids(nodes[p].string_value))
        return sorted(y.pre for y in targets if matches_node_test(y, test, axis))
    return _pointer_axis_pres(document, axis, pres, test)


def inverse_pres(document: Document, axis: str, pres: list[int]) -> list[int] | None:
    """``χ⁻¹(Y)`` over sorted pre arrays, or ``None`` for ``id``, whose
    inverse is the boxed Definition-1 form.

    Interval axes ride :func:`_inverse_interval_pres`; every other tree
    axis rides :func:`_inverse_pointer_pres` — parent-column gathers,
    interval child hops, sibling runs, ancestor chains."""
    if axis in INVERSE_INTERVAL_AXES:
        return _inverse_interval_pres(document, axis, pres)
    return _inverse_pointer_pres(document, axis, pres)


def intersect(a, b):
    """Intersection of two sorted duplicate-free pre arrays —
    ``merge_intersection`` semantics at block speed: galloping merge
    when one side is much smaller (bisects beat any full pass), bulk
    C-level set intersection when the sides are comparable (the regime
    where the Python merge loop pays per-element interpreter cost)."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if min(la, lb) * 16 < max(la, lb):
        return merge_intersection(a, b)
    return sorted(set(a).intersection(b))


def _interval_axis_pres(
    document: Document, axis: str, pres: list[int], test: NodeTest
) -> list[int] | None:
    """Partition kernel for a forward interval axis, or ``None`` when the
    predicted cost exceeds the ``O(|D|)`` scan bound (caller falls back).

    ``pres`` must be sorted ascending and duplicate-free. The returned
    array is sorted (interval slices are emitted over disjoint ascending
    ranges).
    """
    index = node_index(document)
    partition = index.partition(test, axis)
    if partition is None:
        return None
    if not pres or not partition:
        # An empty partition settles it: only node() matches attribute
        # selves, and its partition (non_attributes) is never empty.
        return []
    size = index.size
    if axis == "following":
        # One suffix of the partition: every partition member at or past
        # the earliest subtree end is a following of that context node.
        # The slice stays a zero-copy view of the packed partition:
        # callers bisect/iterate/merge pre arrays, never mutate them, so
        # there is no reason to materialize the partition tail.
        cutoff = min(p + size[p] for p in pres)
        return partition[bisect_left(partition, cutoff):]
    if axis == "preceding":
        # One prefix, minus the ≤ depth ancestors of the cutoff node
        # (the only prefix members whose subtree is still open there).
        cutoff = pres[-1]
        stop = bisect_left(partition, cutoff)
        return [p for p in partition[:stop] if p + size[p] <= cutoff]
    include_self = axis == "descendant-or-self"
    spans: list[tuple[int, int]] = []
    max_end = -1
    output = 0
    for p in pres:
        if p < max_end:
            continue  # nested inside the previous maximal interval
        lo = p if include_self else p + 1
        hi = p + size[p]
        max_end = hi
        if lo >= hi:
            continue
        lo_idx = bisect_left(partition, lo)
        hi_idx = bisect_left(partition, hi, lo_idx)
        if lo_idx < hi_idx:
            spans.append((lo_idx, hi_idx))
            output += hi_idx - lo_idx
    if len(pres) < VECTOR_MIN_BLOCK:
        # The dispatch rule: predicted kernel cost (bisections + exact
        # output, both already known) must beat the scan's |D| bound. A
        # block is not priced: nested origins were skipped above, so it
        # pays one bisect pair per maximal interval plus its output, and
        # the scan it would trade that for boxes every node it visits.
        predicted = output + len(pres) * max(1, index.total.bit_length())
        if predicted > index.total:
            return None
    result: list[int] = []
    for lo_idx, hi_idx in spans:
        result.extend(partition[lo_idx:hi_idx])
    if include_self and test.kind == "node":
        # Attribute context nodes match node() but live in no partition
        # the interval query reads; or-self must still return them. The
        # membership test reads the kind byte — a lazy column document
        # must not materialize nodes here.
        kinds = index.kinds
        attribute_selves = [p for p in pres if kinds[p] == ATTR]
        if attribute_selves:
            result = merge_union(result, attribute_selves)
    return result


def _pointer_axis_pres(
    document: Document, axis: str, pres: list[int], test: NodeTest
) -> list[int]:
    """Column-plane ``χ(X) ∩ T(t)`` for the pointer axes (self, child,
    parent, attribute, the sibling and the ancestor axes).

    Candidates come from parent-column gathers (``parent``, the ancestor
    axes), attribute runs (``attribute`` — element ``p``'s attributes
    are the contiguous pres ``p+1 .. p+attribute_counts[p]``), child
    spans (:func:`_child_pres`) or per-parent sibling spans; the node
    test is then one intersection with the matching partition.
    Output-sensitive, no boxed nodes.
    """
    index = node_index(document)
    if axis == "child":
        return _child_pres(index, pres, test)
    if axis == "self":
        candidates = pres
    elif axis == "parent":
        parent_pre = index.parent_pre
        candidates = sorted({parent_pre[p] for p in pres if p != 0})
    elif axis == "attribute":
        counts = index.attribute_counts()
        candidates = []
        for p in pres:
            n = counts[p]
            if n:
                candidates.extend(range(p + 1, p + 1 + n))
        # Runs across ascending origins are disjoint and ascending (an
        # origin inside another's run is an attribute, whose own run is
        # empty) — no sort needed.
    elif axis == "following-sibling" or axis == "preceding-sibling":
        candidates = _sibling_pres(index, pres, forward=axis == "following-sibling")
    elif axis == "ancestor" or axis == "ancestor-or-self":
        candidates = _ancestor_pres(
            index, pres, pres if axis == "ancestor-or-self" else ()
        )
    else:
        raise ValueError(f"unknown axis: {axis}")
    partition = index.filter_partition(
        test, attribute_principal=axis in AXIS_PRINCIPAL_ATTRIBUTE
    )
    if partition is None:  # node() matches every kind
        return list(candidates)
    return intersect(candidates, partition)


def _child_pres(index, pres: list[int], test: NodeTest) -> list[int]:
    """``child(X) ∩ T(t)``. A block reads whichever is shorter, the test
    partition (semi-join on the parent column) or its members' spans of
    the child table; a narrow step hops ``child += size[child]`` across
    each origin's subtree interval and builds no table."""
    partition = index.filter_partition(test)
    if len(pres) >= VECTOR_MIN_BLOCK:
        target = index.non_attributes if partition is None else partition
        if len(target) <= 8 * len(pres):
            # One pass over the partition keeping members whose parent
            # lands in the block — already sorted, no gather, no merge.
            parent_pre = index.parent_pre
            members = set(pres)
            return [p for p in target if parent_pre[p] in members]
        offsets, children = index.child_table()
        spans = memoryview(children)
        candidates: list[int] = []
        extend = candidates.extend
        for p in pres:
            lo, hi = offsets[p], offsets[p + 1]
            if lo < hi:
                extend(spans[lo:hi])
    else:
        size = index.size
        counts = index.attribute_counts()
        candidates = []
        for p in pres:
            end = p + size[p]
            child = p + 1 + counts[p]  # past the origin's attribute run
            while child < end:
                candidates.append(child)
                child += size[child]
    candidates.sort()  # runs of nested origins interleave in pre order
    if partition is None:  # node() matches every kind
        return candidates
    return intersect(candidates, partition)


def _sibling_pres(index, pres: list[int], forward: bool) -> list[int]:
    """Following (``forward``) or preceding siblings of any member of
    ``pres`` (sorted): per parent, the slice of its child span past its
    earliest member (before its latest). Attribute members and the
    document node have no siblings."""
    parent_pre = index.parent_pre
    offsets, children = index.child_table()
    parents = [parent_pre[p] for p in pres]
    if forward:
        # pres ascend: walking them backwards leaves the earliest member.
        extremes = dict(zip(reversed(parents), reversed(pres)))
    else:
        extremes = dict(zip(parents, pres))
    extremes.pop(-1, None)
    out: list[int] = []
    for parent, extreme in extremes.items():
        lo, hi = offsets[parent], offsets[parent + 1]
        if forward:
            at = bisect_right(children, extreme, lo, hi)
            if at == lo and lo < hi:
                # Only an attribute sorts before every child: it hid the
                # parent's earliest child member, if there is one.
                kinds = index.kinds
                return _sibling_pres(index, [p for p in pres if kinds[p] != ATTR], forward)
            out.extend(children[at:hi])
        else:
            # An attribute as latest member cuts an empty prefix.
            out.extend(children[lo : bisect_left(children, extreme, lo, hi)])
    out.sort()  # spans of nested parents interleave in pre order
    return out


def _ancestor_pres(index, pres, selves) -> list[int]:
    """Proper ancestors of the members of ``pres``, plus ``selves``.
    Level-synchronous parent-column walk: hop the whole frontier one
    generation at a time, deduplicating *before* each hop, so shared
    ancestor prefixes are gathered once for the block instead of once per
    chain — the union costs its own size, not chains × depth."""
    parent_pre = index.parent_pre
    frontier = {parent_pre[p] for p in pres}
    frontier.discard(-1)
    seen: set[int] = set()
    while frontier:
        seen |= frontier
        frontier = {parent_pre[a] for a in frontier}
        frontier.difference_update(seen)
        frontier.discard(-1)
    seen.update(selves)
    return sorted(seen)


def _inverse_pointer_pres(
    document: Document, axis: str, pres: list[int]
) -> list[int] | None:
    """Column-plane inverses for the pointer axes, or ``None`` for the
    one axis that has no columnar form (``id``).

    ``self⁻¹`` is the identity; ``child⁻¹``/``attribute⁻¹`` are parent-
    column gathers (children of Y's members never duplicate, attributes
    are nobody's child and filtered by their kind byte); ``parent⁻¹`` — children plus attributes of Y — is the
    per-member run ``pre+1, +size, ...`` to the subtree's first grand-
    child boundary, i.e. every node whose ``parent_pre`` lands in Y;
    the sibling inverses are the converse sibling runs
    (:func:`_sibling_pres`), the descendant inverses ancestor chains
    (:func:`_ancestor_pres`). All output-sensitive, none touches a boxed
    node.
    """
    if axis == "self":
        return list(pres)
    index = node_index(document)
    if axis == "following-sibling" or axis == "preceding-sibling":
        # x has a following sibling in Y ⟺ x is a preceding sibling of a
        # member of Y, and vice versa.
        return _sibling_pres(index, pres, forward=axis == "preceding-sibling")
    kinds = index.kinds
    if axis in ("descendant", "descendant-or-self"):
        # descendant⁻¹ = strict ancestors of Y's non-attribute members
        # (attributes are nobody's descendant); or-self adds Y itself.
        return _ancestor_pres(
            index,
            [p for p in pres if kinds[p] != ATTR],
            pres if axis == "descendant-or-self" else (),
        )
    if axis == "child":
        parent_pre = index.parent_pre
        return sorted({parent_pre[p] for p in pres if p != 0 and kinds[p] != ATTR})
    if axis == "attribute":
        parent_pre = index.parent_pre
        return sorted({parent_pre[p] for p in pres if kinds[p] == ATTR})
    if axis != "parent":
        return None
    size = index.size
    result: list[int] = []
    for p in pres:
        end = p + size[p]
        child = p + 1
        while child < end:
            result.append(child)
            child += size[child]
    result.sort()  # runs of nested origins interleave in pre order
    return result


def _inverse_interval_pres(
    document: Document, axis: str, pres: list[int]
) -> list[int]:
    """Range-emitting kernel for an inverse interval axis. ``pres`` must
    be sorted ascending."""
    if not pres:
        return []
    index = node_index(document)
    size = index.size
    kinds = index.kinds
    if axis == "following":
        # following(x) ∩ Y ≠ ∅ ⟺ x's subtree ends at or before the
        # latest non-attribute member of Y: every pre below the cutoff
        # except the cutoff node's (still-open) ancestors. Attribute
        # membership is the kind byte, never a node touch (a lazy column
        # document must stay lazy here).
        cutoff = None
        for p in pres:
            if kinds[p] != ATTR:
                cutoff = p  # pres ascend: the last non-attribute wins
        if cutoff is None:
            return []
        excluded = set(index.ancestors_of(cutoff))
        return [p for p in range(cutoff) if p not in excluded]
    if axis == "preceding":
        # The pre-order suffix from the earliest subtree end of Y.
        cutoff = None
        for p in pres:
            end = p + size[p]
            if kinds[p] != ATTR and (cutoff is None or end < cutoff):
                cutoff = end
        if cutoff is None:
            return []
        return list(range(cutoff, index.total))
    # ancestor / ancestor-or-self inverses: the (strict) interior of Y's
    # subtree intervals, attributes included. Maximal intervals emit
    # disjoint ascending pre ranges — output cost, at most |D|, no scan.
    include_self = axis == "ancestor-or-self"
    result: list[int] = []
    max_end = -1
    for p in pres:
        if p < max_end:
            continue
        max_end = p + size[p]
        result.extend(range(p if include_self else p + 1, max_end))
    return result
