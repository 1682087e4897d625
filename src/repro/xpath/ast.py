"""Abstract syntax tree for XPath 1.0 expressions.

The AST *is* the paper's parse tree ``T``: the evaluation algorithms hang
context-value tables off parse-tree nodes (``table(N)``), look up
``Relev(N)``, and navigate via ``expr(N)``/``node(e)``. Every AST node
(including each location :class:`Step`, which the paper treats as its own
parse-tree node — see Figure 3 where N2 is the second step) therefore
carries a unique ``uid`` to key those side tables, plus two annotation
slots filled by later passes:

* ``value_type`` — the static XPath type (``nset num str bool``), set by
  :func:`repro.xpath.normalize.normalize`;
* ``relev`` — the relevant-context set ``Relev(N) ⊆ {'cn','cp','cs'}``,
  set by :func:`repro.xpath.relevance.compute_relevance`.

Paths are normalized to a single shape: :class:`Path` with an optional
start (absolute root / filter-expression primary) and a list of
:class:`Step`. The paper's grammar cases ``/π``, ``π1/π2``, ``π1|π2``
map to absolute paths, step concatenation, and :class:`Union`.
"""

from __future__ import annotations

import itertools
from typing import Iterator

_uid_counter = itertools.count(1)


class AstNode:
    """Base for everything appearing in the parse tree."""

    __slots__ = ("uid", "value_type", "relev")

    def __init__(self):
        self.uid: int = next(_uid_counter)
        self.value_type: str | None = None
        self.relev: frozenset[str] | None = None

    def children(self) -> list["AstNode"]:
        """Direct parse-tree children (expressions and steps)."""
        return []

    def walk(self) -> Iterator["AstNode"]:
        """Pre-order traversal of the parse tree rooted here."""
        yield self
        for child in self.children():
            yield from child.walk()


class Expr(AstNode):
    """Base class for expression nodes (everything except Step/NodeTest)."""

    __slots__ = ()


class NumberLiteral(Expr):
    """A numeric constant, e.g. ``0.5`` in Figure 3's node N7."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        super().__init__()
        self.value = float(value)

    def __repr__(self) -> str:
        return f"NumberLiteral({self.value})"


class StringLiteral(Expr):
    """A string constant (``'...'`` or ``"..."``)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        return f"StringLiteral({self.value!r})"


class VariableRef(Expr):
    """``$name`` — replaced by its binding during normalization
    (Section 2.2: "each variable is replaced by the (constant) value of
    the input variable binding")."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __repr__(self) -> str:
        return f"VariableRef(${self.name})"


class FunctionCall(Expr):
    """A core-library function call ``name(arg, ...)``.

    After normalization, the explicit conversions ``boolean()``,
    ``number()``, ``string()`` required by Section 2.2 also appear as
    FunctionCall nodes.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[Expr]):
        super().__init__()
        self.name = name
        self.args = list(args)

    def children(self) -> list[AstNode]:
        return list(self.args)

    def __repr__(self) -> str:
        return f"FunctionCall({self.name}, {self.args!r})"


#: Binary operator → precedence, low to high: the one table the parser
#: folds by and ``unparse`` parenthesizes by (unary minus binds tighter,
#: then ``|``).
BINARY_PRECEDENCE = {
    op: level
    for level, ops in enumerate(("or", "and", "= !=", "< <= > >=", "+ -", "* div mod"), 1)
    for op in ops.split()
}


class BinaryOp(Expr):
    """``left op right`` for op in ``or and = != <= < >= > + - * div mod``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        super().__init__()
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> list[AstNode]:
        return [self.left, self.right]

    def __repr__(self) -> str:
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


class Negate(Expr):
    """Unary minus. Normalization guarantees the operand is ``num``."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        super().__init__()
        self.operand = operand

    def children(self) -> list[AstNode]:
        return [self.operand]

    def __repr__(self) -> str:
        return f"Negate({self.operand!r})"


class Union(Expr):
    """``π1 | π2`` — both operands must be node-set typed."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        super().__init__()
        self.left = left
        self.right = right

    def children(self) -> list[AstNode]:
        return [self.left, self.right]

    def __repr__(self) -> str:
        return f"Union({self.left!r}, {self.right!r})"


class ConstantNodeSet(Expr):
    """A literal node-set, produced when a variable bound to a node-set is
    substituted during normalization (Section 2.2). Holds a frozenset of
    :class:`repro.xml.document.Node`."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        super().__init__()
        self.nodes = frozenset(nodes)

    def __repr__(self) -> str:
        return f"ConstantNodeSet({len(self.nodes)} nodes)"


class NodeTest:
    """The ``t`` of a location step ``χ::t`` (the paper's ``T`` function).

    Kinds: ``name`` (element/attribute name), ``wildcard`` (``*`` —
    matches the axis's principal node type), ``node`` (``node()``),
    ``text``, ``comment``, ``pi`` (``processing-instruction()``, with an
    optional target literal).
    """

    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str | None = None):
        if kind not in ("name", "wildcard", "node", "text", "comment", "pi"):
            raise ValueError(f"unknown node test kind: {kind}")
        self.kind = kind
        self.name = name

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NodeTest) and self.kind == other.kind and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.name))

    def __repr__(self) -> str:
        return f"NodeTest({self.kind}, {self.name!r})"


class Step(AstNode):
    """One location step ``χ::t[e1]...[em]``.

    A parse-tree node in its own right (Figure 3's N2), so it carries a
    uid for ``table(N)`` bookkeeping. ``axis`` may also be the ``id``
    pseudo-axis introduced by the Section 4 rewrite of ``id(π)``.
    """

    __slots__ = ("axis", "node_test", "predicates")

    def __init__(self, axis: str, node_test: NodeTest, predicates: list[Expr] | None = None):
        super().__init__()
        self.axis = axis
        self.node_test = node_test
        self.predicates = list(predicates or [])

    def children(self) -> list[AstNode]:
        return list(self.predicates)

    def __repr__(self) -> str:
        return f"Step({self.axis}::{self.node_test!r}, preds={self.predicates!r})"


class Path(Expr):
    """A location path, possibly rooted at a filter expression.

    * ``absolute`` — starts at the document root (``/π``).
    * ``primary`` — a FilterExpr start: ``primary[p1]...[pk]/step/...``;
      ``primary_predicates`` filter the primary's node-set in document
      order (the W3C rule for predicates outside location steps).
    * ``steps`` — the location steps.

    A relative location path has ``absolute=False, primary=None``. The
    parser never produces a Path with both ``absolute`` and ``primary``.
    """

    __slots__ = ("absolute", "primary", "primary_predicates", "steps")

    def __init__(
        self,
        absolute: bool = False,
        primary: Expr | None = None,
        primary_predicates: list[Expr] | None = None,
        steps: list[Step] | None = None,
    ):
        super().__init__()
        if absolute and primary is not None:
            raise ValueError("a path cannot be both absolute and primary-rooted")
        self.absolute = absolute
        self.primary = primary
        self.primary_predicates = list(primary_predicates or [])
        self.steps = list(steps or [])

    def children(self) -> list[AstNode]:
        result: list[AstNode] = []
        if self.primary is not None:
            result.append(self.primary)
        result.extend(self.primary_predicates)
        result.extend(self.steps)
        return result

    def __repr__(self) -> str:
        root = "/" if self.absolute else (repr(self.primary) if self.primary else "")
        return f"Path({root}, steps={self.steps!r})"
