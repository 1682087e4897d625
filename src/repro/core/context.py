"""Evaluation contexts: the ``⟨cn, cp, cs⟩`` triples of Section 2.2.

The domain of contexts is ``C = {⟨cn, cp, cs⟩ | cn ∈ dom, 1 ≤ cp ≤ cs ≤
|dom|}``. MINCONTEXT additionally uses *wildcard* components (the "∗" of
the Section 6 pseudo-code) for context parts a subexpression provably
does not depend on; :data:`WILDCARD` is that marker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xml.document import Node

#: The "∗" of the pseudo-code: a context component that is irrelevant for
#: the expression being evaluated.
WILDCARD = "*"


@dataclass(frozen=True)
class Context:
    """One evaluation context as the public entry points take it; every
    evaluator reads it as the triple ``(node.pre, position, size)``."""

    node: Node
    position: int = 1
    size: int = 1

    def __post_init__(self):
        if not (1 <= self.position <= self.size):
            raise ValueError(
                f"invalid context: position {self.position} not in 1..size {self.size}"
            )
