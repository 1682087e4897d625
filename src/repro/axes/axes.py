"""Axis functions ``χ`` and inverse axis functions ``χ⁻¹`` (Definition 1).

Two implementations of one semantics, byte-identical, both over pre
numbers:

* **The Definition-1 scans** (:func:`axis_set` / :func:`inverse_axis_set`,
  plus :func:`axis_nodes` for proximity-order per-node enumeration): the
  set functions ``χ(X)`` / ``χ⁻¹(Y)`` of Definition 1, each computed in
  ``O(|D|)`` regardless of ``|X|`` (the bound the paper's complexity
  theorems depend on; see the remark below Definition 1 citing [11]).
  They read only the ``kinds`` / ``parent_pre`` / ``size`` / ``names``
  columns and string values — never an index partition, the child table
  or a ``Node`` — and are the test oracle and the fallback of
  everything below.
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
  proximity-order form is :func:`axis_test_pres`.

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
from typing import Iterable

from repro import stats
from repro.axes.order import FORWARD_AXES, INTERVAL_AXES, REVERSE_AXES, is_forward_axis
from repro.xml.columns import ATTR, COMMENT, ELEM, PI, TEXT
from repro.xml.document import Document
from repro.xml.index import merge_intersection, merge_union
from repro.xpath.ast import NodeTest

#: Every axis this library supports. ``id`` is the pseudo-axis of
#: Section 4; the paper's eleven named axes plus ``attribute``.
ALL_AXES = frozenset(FORWARD_AXES | REVERSE_AXES)

#: Axes whose principal node type is attribute (name tests select
#: attribute nodes); all others select elements.
AXIS_PRINCIPAL_ATTRIBUTE = frozenset({"attribute"})

# ----------------------------------------------------------------------
# The Definition-1 scans, over pre numbers
# ----------------------------------------------------------------------
#
# They read the document's kind / parent / size / name columns and its
# string values and nothing else — no index partition, no child table,
# no Node — so the scan oracle shares no code with the kernels it checks.


def _children_of(columns, pre: int) -> list[int]:
    """Child pres of ``pre``: past its attribute run, one subtree hop
    (``c += size[c]``) at a time to the end of its interval."""
    kinds, size = columns.kinds, columns.size
    end = pre + size[pre]
    child = pre + 1
    while child < end and kinds[child] == ATTR:
        child += 1
    out = []
    while child < end:
        out.append(child)
        child += size[child]
    return out


def _attributes_of(columns, pre: int) -> range:
    """The attribute run ``pre + 1 ..`` of element ``pre`` (maybe empty)."""
    kinds = columns.kinds
    end = pre + columns.size[pre]
    stop = pre + 1
    while stop < end and kinds[stop] == ATTR:
        stop += 1
    return range(pre + 1, stop)


def _ancestors_of(parent_pre, pre: int) -> list[int]:
    out = []
    parent = parent_pre[pre]
    while parent >= 0:
        out.append(parent)
        parent = parent_pre[parent]
    return out


def axis_nodes(document: Document, axis: str, pre: int) -> list[int]:
    """``χ({pre})`` in proximity order (``<doc,χ``), as pre numbers."""
    stats.count("axis_single_calls")
    columns = document.columns
    if axis == "child":
        return _children_of(columns, pre)
    kinds, parent_pre, size = columns.kinds, columns.parent_pre, columns.size
    if axis == "self":
        return [pre]
    if axis == "parent":
        return [] if pre == 0 else [parent_pre[pre]]
    if axis == "descendant" or axis == "descendant-or-self":
        out = [p for p in range(pre + 1, pre + size[pre]) if kinds[p] != ATTR]
        return [pre, *out] if axis == "descendant-or-self" else out
    if axis == "ancestor":
        return _ancestors_of(parent_pre, pre)
    if axis == "ancestor-or-self":
        return [pre, *_ancestors_of(parent_pre, pre)]
    if axis == "following-sibling" or axis == "preceding-sibling":
        if pre == 0 or kinds[pre] == ATTR:
            return []  # the document node and attributes have no siblings
        siblings = _children_of(columns, parent_pre[pre])
        at = siblings.index(pre)
        if axis == "following-sibling":
            return siblings[at + 1 :]
        return siblings[:at][::-1]
    if axis == "following":
        return [p for p in range(pre + size[pre], len(kinds)) if kinds[p] != ATTR]
    if axis == "preceding":
        # Proximity order for preceding is reverse document order.
        return [
            p for p in range(pre - 1, -1, -1) if p + size[p] <= pre and kinds[p] != ATTR
        ]
    if axis == "attribute":
        return list(_attributes_of(columns, pre)) if kinds[pre] == ELEM else []
    if axis == "id":
        return sorted(document.deref_id_pres(document.string_value_of_pre(pre)))
    raise ValueError(f"unknown axis: {axis}")


def axis_test_pres(document: Document, axis: str, pre: int, test: NodeTest) -> list[int]:
    """``χ({pre}) ∩ T(t)`` in proximity order (``<doc,χ``) — the fused
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
        out = _interval_axis_pres(document, axis, [pre], test)
        if out is not None:
            stats.axis_kernel_stats.tick("fused_hits")
            return out[::-1] if axis == "preceding" else list(out)
        stats.axis_kernel_stats.tick("fallback_scans")
    return select_node_test(document, axis_nodes(document, axis, pre), test, axis)


def axis_set(document: Document, axis: str, pres: Iterable[int]) -> set[int]:
    """The axis function ``χ(X) = {y | ∃x ∈ X : x χ y}``, in ``O(|D|)``."""
    stats.count("axis_set_calls")
    X = pres if isinstance(pres, (set, frozenset, list, tuple, range)) else list(pres)
    columns = document.columns
    if axis == "self":
        return set(X)
    if axis == "child":
        result: set[int] = set()
        for x in X:
            result.update(_children_of(columns, x))
        return result
    if axis == "parent":
        parent_pre = columns.parent_pre
        return {parent_pre[x] for x in X if x != 0}
    if axis == "descendant":
        return _interval_cover(columns, X, include_attributes=False)
    if axis == "descendant-or-self":
        return _interval_cover(columns, X, include_attributes=False).union(X)
    if axis == "ancestor":
        return _ancestor_set(columns.parent_pre, X)
    if axis == "ancestor-or-self":
        return _ancestor_set(columns.parent_pre, X).union(X)
    if axis == "following":
        return _following_set(columns, X)
    if axis == "preceding":
        return _preceding_set(columns, X)
    if axis == "following-sibling":
        return _sibling_set(columns, X, forward=True)
    if axis == "preceding-sibling":
        return _sibling_set(columns, X, forward=False)
    if axis == "attribute":
        kinds = columns.kinds
        result = set()
        for x in X:
            if kinds[x] == ELEM:
                result.update(_attributes_of(columns, x))
        return result
    if axis == "id":
        strval = document.string_value_of_pre
        result = set()
        for x in X:
            result |= document.deref_id_pres(strval(x))
        return result
    raise ValueError(f"unknown axis: {axis}")


def inverse_axis_set(document: Document, axis: str, pres: Iterable[int]) -> set[int]:
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
    Y = pres if isinstance(pres, (set, frozenset)) else set(pres)
    columns = document.columns
    kinds, parent_pre, size = columns.kinds, columns.parent_pre, columns.size
    if axis == "self":
        return set(Y)
    if axis == "child":
        # x has a child in Y — attribute members of Y are nobody's child.
        return {parent_pre[y] for y in Y if y != 0 and kinds[y] != ATTR}
    if axis == "parent":
        # x's parent is in Y — children of Y plus attributes of Y.
        return axis_set(document, "child", Y) | axis_set(document, "attribute", Y)
    if axis == "descendant" or axis == "descendant-or-self":
        result = _ancestor_set(parent_pre, [y for y in Y if kinds[y] != ATTR])
        return result.union(Y) if axis == "descendant-or-self" else result
    if axis == "ancestor" or axis == "ancestor-or-self":
        # x has an ancestor in Y: everything strictly inside Y's subtree
        # intervals, attributes included (an attribute's ancestors are its
        # element's ancestor-or-self chain).
        result = _interval_cover(columns, Y, include_attributes=True)
        return result.union(Y) if axis == "ancestor-or-self" else result
    if axis == "following":
        # following(x) ∩ Y ≠ ∅ ⟺ some non-attribute y ∈ Y starts at or
        # after x's subtree end. x itself may be any kind, attributes too.
        cutoff = max((y for y in Y if kinds[y] != ATTR), default=None)
        if cutoff is None:
            return set()
        return {x for x in range(cutoff) if x + size[x] <= cutoff}
    if axis == "preceding":
        cutoff = min((y + size[y] for y in Y if kinds[y] != ATTR), default=None)
        if cutoff is None:
            return set()
        return set(range(cutoff, len(kinds)))
    if axis == "following-sibling":
        return _sibling_set(columns, Y, forward=False)
    if axis == "preceding-sibling":
        return _sibling_set(columns, Y, forward=True)
    if axis == "attribute":
        return {parent_pre[y] for y in Y if kinds[y] == ATTR}
    if axis == "id":
        names, values = columns.names, columns.values
        ids = set()
        for y in Y:
            if kinds[y] == ELEM:
                for attribute in _attributes_of(columns, y):
                    if names[attribute] == document.id_attribute:
                        ids.add(values[attribute])
                        break
        if not ids:
            return set()
        tokens = document.id_tokens()
        return {x for x in range(len(kinds)) if not ids.isdisjoint(tokens[x])}
    raise ValueError(f"unknown axis: {axis}")


def _interval_cover(columns, X: Iterable[int], include_attributes: bool) -> set[int]:
    """Pres strictly inside the subtree intervals of ``X`` — a difference
    array over pre numbers (each ``x`` contributes ``(x, x + size(x))``),
    one prefix-sum pass: ``O(|D| + |X|)``."""
    kinds, size = columns.kinds, columns.size
    total = len(kinds)
    delta = [0] * (total + 1)
    any_interval = False
    for x in X:
        hi = x + size[x]
        if x + 1 < hi:
            delta[x + 1] += 1
            delta[hi] -= 1
            any_interval = True
    if not any_interval:
        return set()
    result: set[int] = set()
    coverage = 0
    for pre in range(total):
        coverage += delta[pre]
        if coverage > 0 and (include_attributes or kinds[pre] != ATTR):
            result.add(pre)
    return result


def _ancestor_set(parent_pre, X: Iterable[int]) -> set[int]:
    """Union of proper ancestor chains with sharing: O(|D|) total."""
    result: set[int] = set()
    for x in X:
        parent = parent_pre[x]
        while parent >= 0 and parent not in result:
            result.add(parent)
            parent = parent_pre[parent]
    return result


def _following_set(columns, X: Iterable[int]) -> set[int]:
    size, kinds = columns.size, columns.kinds
    cutoff = min((x + size[x] for x in X), default=None)
    if cutoff is None:
        return set()
    return {p for p in range(cutoff, len(kinds)) if kinds[p] != ATTR}


def _preceding_set(columns, X: Iterable[int]) -> set[int]:
    size, kinds = columns.size, columns.kinds
    cutoff = max(X, default=None)
    if cutoff is None:
        return set()
    return {p for p in range(cutoff) if p + size[p] <= cutoff and kinds[p] != ATTR}


def _sibling_set(columns, X: Iterable[int], forward: bool) -> set[int]:
    """Group by parent, then one suffix (or prefix) of each parent's
    children: O(|D|). Among siblings pre order is child order, so the
    earliest (latest) member of a group is its least (greatest) pre."""
    kinds, parent_pre, size = columns.kinds, columns.parent_pre, columns.size
    extremes: dict[int, int] = {}
    for x in X:
        parent = parent_pre[x]
        if parent < 0 or kinds[x] == ATTR:
            continue  # the document node and attributes have no siblings
        current = extremes.get(parent)
        if current is None or (x < current if forward else x > current):
            extremes[parent] = x
    result: set[int] = set()
    for parent, extreme in extremes.items():
        if forward:
            sibling, end = extreme + size[extreme], parent + size[parent]
            while sibling < end:
                result.add(sibling)
                sibling += size[sibling]
        else:
            for sibling in _children_of(columns, parent):
                if sibling == extreme:
                    break
                result.add(sibling)
    return result


# ----------------------------------------------------------------------
# Node tests (the paper's ``T`` function, generalized to node kinds)
# ----------------------------------------------------------------------


def select_node_test(
    document: Document, pres: Iterable[int], test: NodeTest, axis: str
) -> list[int]:
    """The members of ``pres`` (in their order) that pass node test
    ``t`` on the given axis, read off the kind and name columns.

    Name tests and ``*`` select the axis's *principal node type*
    (attributes on the attribute axis, elements elsewhere) — this is how
    the paper's ``T(*) = dom`` specializes once non-element node kinds
    exist; on the paper's element-only examples the two coincide.
    """
    kind = test.kind
    if kind == "node" or not pres:
        return list(pres)
    kinds = document.columns.kinds
    if kind == "text":
        return [p for p in pres if kinds[p] == TEXT]
    if kind == "comment":
        return [p for p in pres if kinds[p] == COMMENT]
    if kind == "pi":
        code = PI
    else:
        code = ATTR if axis in AXIS_PRINCIPAL_ATTRIBUTE else ELEM
    name = None if kind == "wildcard" else test.name
    if name is None:
        return [p for p in pres if kinds[p] == code]
    names = document.columns.names
    return [p for p in pres if kinds[p] == code and names[p] == name]


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
# creates a node.

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
    axis :func:`_pointer_axis_pres`, and ``id`` derefs each origin's
    string value through the document's id → pre map, so a step stays in
    the pre plane and no node is created."""
    if axis in INTERVAL_AXES:
        return _interval_axis_pres(document, axis, pres, test)
    if axis == "id":
        strval = document.string_value_of_pre
        targets: set[int] = set()
        for p in pres:
            targets |= document.deref_id_pres(strval(p))
        return select_node_test(document, sorted(targets), test, axis)
    return _pointer_axis_pres(document, axis, pres, test)


def inverse_pres(document: Document, axis: str, pres: list[int]) -> list[int] | None:
    """``χ⁻¹(Y)`` over sorted pre arrays, or ``None`` for ``id``, whose
    inverse is the Definition-1 scan.

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
    index = document.index
    partition = index.filter_partition(test)
    if partition is None:
        # node(): every non-attribute node (the interval kernels never
        # reach attribute nodes).
        partition = index.non_attributes
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
        # the scan it would trade that for visits every node.
        predicted = output + len(pres) * max(1, index.total.bit_length())
        if predicted > index.total:
            return None
    result: list[int] = []
    for lo_idx, hi_idx in spans:
        result.extend(partition[lo_idx:hi_idx])
    if include_self and test.kind == "node":
        # Attribute context nodes match node() but live in no partition
        # the interval query reads; or-self must still return them. The
        # membership test reads the kind byte, so no node is created.
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
    Output-sensitive, no nodes.
    """
    index = document.index
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
    earliest member (before its latest) — or, until the document's
    sibling hops have paid for the child table
    (:meth:`~repro.xml.index.NodeIndex.sibling_table`), the same run
    hopped out of the parent's interval. Attribute members and the
    document node have no siblings."""
    table = index.sibling_table()
    if table is None:
        return _hopped_sibling_pres(index, pres, forward)
    parent_pre = index.parent_pre
    offsets, children = table
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


def _hopped_sibling_pres(index, pres: list[int], forward: bool) -> list[int]:
    """:func:`_sibling_pres` without the child table: per parent, hop
    ``c += size[c]`` from past its earliest member to the end of its
    interval (from past its attribute run up to its latest member)."""
    kinds, parent_pre, size = index.kinds, index.parent_pre, index.size
    members = [p for p in pres if kinds[p] != ATTR]
    parents = [parent_pre[p] for p in members]
    if forward:
        extremes = dict(zip(reversed(parents), reversed(members)))
    else:
        extremes = dict(zip(parents, members))
    extremes.pop(-1, None)
    out: list[int] = []
    for parent, extreme in extremes.items():
        if forward:
            sibling, end = extreme + size[extreme], parent + size[parent]
        else:
            sibling, end = parent + 1, extreme
            while kinds[sibling] == ATTR:
                sibling += 1
        while sibling < end:
            out.append(sibling)
            sibling += size[sibling]
    index.count_sibling_hops(len(out))
    out.sort()  # runs of nested parents interleave in pre order
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
    (:func:`_ancestor_pres`). All output-sensitive, none creates a node.
    """
    if axis == "self":
        return list(pres)
    index = document.index
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
    index = document.index
    size = index.size
    kinds = index.kinds
    if axis == "following":
        # following(x) ∩ Y ≠ ∅ ⟺ x's subtree ends at or before the
        # latest non-attribute member of Y: every pre below the cutoff
        # except the cutoff node's (still-open) ancestors. Attribute
        # membership is the kind byte, never a node.
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
