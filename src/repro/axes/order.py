"""Document order utilities: ``<doc``, ``<doc,χ``, and ``idx_χ``.

The paper (Section 2.1) defines ``<doc,χ`` as standard document order for
the forward axes (self, child, descendant, descendant-or-self,
following-sibling, following) and reverse document order for the others,
and ``idx_χ(x, S)`` as the 1-based index of ``x`` in ``S`` w.r.t.
``<doc,χ`` — this is what gives ``position()`` its meaning per axis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.xml.document import Node

#: Axes whose proximity order follows document order. The paper lists the
#: six tree axes; we add ``attribute`` and the ``id`` pseudo-axis (both
#: enumerate targets in document order).
FORWARD_AXES = frozenset(
    {
        "self",
        "child",
        "descendant",
        "descendant-or-self",
        "following-sibling",
        "following",
        "attribute",
        "id",
    }
)

#: Axes whose proximity order is reverse document order.
REVERSE_AXES = frozenset(
    {
        "parent",
        "ancestor",
        "ancestor-or-self",
        "preceding",
        "preceding-sibling",
    }
)


#: Axes whose forward kernels are NodeIndex partition queries
#: (binary-search ranges / suffix slices over sorted pre arrays).
INTERVAL_AXES = frozenset(
    {"descendant", "descendant-or-self", "following", "preceding"}
)


def is_forward_axis(axis: str) -> bool:
    """True if ``<doc,χ`` for this axis is standard document order."""
    if axis in FORWARD_AXES:
        return True
    if axis in REVERSE_AXES:
        return False
    raise ValueError(f"unknown axis: {axis}")


def axis_order_key(axis: str):
    """Sort key realizing ``<doc,χ``."""
    if is_forward_axis(axis):
        return lambda node: node.pre
    return lambda node: -node.pre


def sort_in_axis_order(nodes: Iterable[Node], axis: str) -> list[Node]:
    """Sort nodes by ``<doc,χ`` (proximity order for the axis)."""
    return sorted(nodes, key=axis_order_key(axis))


def index_in_axis_order(node: Node, nodes: Sequence[Node] | Iterable[Node], axis: str) -> int:
    """The paper's ``idx_χ(x, S)``: 1-based index of ``x`` in ``S``.

    Raises ``ValueError`` if ``node`` is not in ``nodes``.
    """
    ordered = sort_in_axis_order(nodes, axis)
    for position, candidate in enumerate(ordered, start=1):
        if candidate is node:
            return position
    raise ValueError("node is not a member of the given set")
