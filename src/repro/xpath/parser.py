"""Parser for the full XPath 1.0 grammar: precedence climbing over one
binary-operator table, on the token list of one tokenizer pass.

Accepts both the unabbreviated syntax the paper uses
(``/descendant::*[position() > last()*0.5]``) and the abbreviated one
(``//c[@id='12']``). Abbreviations are expanded during parsing, per the
W3C rules:

* ``//``   →  ``/descendant-or-self::node()/``
* ``.``    →  ``self::node()``
* ``..``   →  ``parent::node()``
* ``@n``   →  ``attribute::n``
* no axis  →  ``child::``

The tokens come from :func:`repro.xpath.lexer.scan`, which reads the
whole query first (a lexical error anywhere wins over a syntax error
before it). :meth:`_Parser.expr` folds binary operators left-
associatively on an explicit operator stack ranked by
:data:`repro.xpath.ast.BINARY_PRECEDENCE` — one loop for all six levels,
no recursion per operator. An operand is unary minus over a ``|`` union
of path expressions: location paths, or filter expressions (primary,
predicates, ``/`` tail).

**Nesting depth.** The parser recurses only into a parenthesized
expression, a predicate and a function call's arguments, and at most
:data:`MAX_DEPTH` of them may be open at once: the ``(``, ``[`` or
function name that opens one more is an :class:`XPathSyntaxError` at
its offset, before the parser recurses into it. Operator chains, ``|``
unions and unary minus runs are loops here and stay unbounded, as they
always were. The normalizer, the analyses and all six evaluators recurse
over the tree. The costliest nesting (predicates in predicates, whose
step keys ``compute_traits`` unparses) compiles up to about 95 levels
and the other shapes to about 235, so every evaluator runs a query at
the limit. An operator chain compiles up to about 470 terms and
evaluates up to about 235 (``topdown``); a tree taller than the later
passes can walk is refused by :func:`repro.service.planner.compile_plan`.
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    BINARY_PRECEDENCE,
    BinaryOp,
    Expr,
    FunctionCall,
    Negate,
    NodeTest,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    Union,
    VariableRef,
)
from repro.xpath.lexer import NODE_TYPES, TokenType, scan

#: The deepest nesting a query may have (see the module docstring).
MAX_DEPTH = 80

_AXES = frozenset(
    "self child parent descendant ancestor descendant-or-self ancestor-or-self "
    "following preceding following-sibling preceding-sibling attribute namespace".split()
)

_OPERATOR = TokenType.OPERATOR
_NAME = TokenType.NAME
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_LBRACKET = TokenType.LBRACKET
#: Token types that begin a location step.
_STEP_STARTS = (
    _NAME, TokenType.STAR, TokenType.AXIS_NAME, TokenType.AT, TokenType.DOT, TokenType.DOTDOT
)


def _descendant_or_self() -> Step:
    return Step("descendant-or-self", NodeTest("node"))


class _Parser:
    """One query's tokens and the cursor over them."""

    __slots__ = ("tokens", "pos", "open")

    def __init__(self, source: str):
        self.tokens = scan(source)
        self.pos = 0
        self.open = 0  # parentheses, predicates and calls open at the cursor

    def expect(self, token_type: TokenType) -> None:
        token = self.tokens[self.pos]
        if token[0] is not token_type:
            raise XPathSyntaxError(
                f"expected {token_type.value!r}, found {token[1]!r}", token[2]
            )
        self.pos += 1

    def enter(self, offset: int) -> None:
        """Open a level, refusing level ``MAX_DEPTH + 1`` before the
        parser recurses into it."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise XPathSyntaxError(f"query nested deeper than {MAX_DEPTH} levels", offset)

    def parse(self) -> Expr:
        expr = self.expr()
        trailing = self.tokens[self.pos]
        if trailing[0] is not TokenType.END:
            raise XPathSyntaxError(
                f"unexpected trailing input {trailing[1]!r}", trailing[2]
            )
        return expr

    def expr(self) -> Expr:
        """Expr: operands and binary operators, folded by precedence."""
        tokens = self.tokens
        first = self.operand()
        token = tokens[self.pos]
        if token[0] is not _OPERATOR or token[1] not in BINARY_PRECEDENCE:
            return first
        operands = [first]
        pending = []  # (precedence, operator), precedences rising
        while True:
            token = tokens[self.pos]
            precedence = BINARY_PRECEDENCE.get(token[1]) if token[0] is _OPERATOR else None
            while pending and (precedence is None or pending[-1][0] >= precedence):
                operator = pending.pop()[1]
                right = operands.pop()
                operands.append(BinaryOp(operator, operands.pop(), right))
            if precedence is None:
                return operands[0]
            pending.append((precedence, token[1]))
            self.pos += 1
            operands.append(self.operand())

    def operand(self) -> Expr:
        """UnaryExpr: ``-``* over PathExprs joined by ``|``."""
        tokens = self.tokens
        token = tokens[self.pos]
        minuses = 0
        while token[0] is _OPERATOR and token[1] == "-":
            minuses += 1
            self.pos += 1
            token = tokens[self.pos]
        node = self.path()
        token = tokens[self.pos]
        while token[0] is _OPERATOR and token[1] == "|":
            self.pos += 1
            node = Union(node, self.path())
            token = tokens[self.pos]
        for _ in range(minuses):
            node = Negate(node)
        return node

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def path(self) -> Expr:
        """PathExpr: a location path, or a filter expression optionally
        followed by '/' RelativeLocationPath."""
        tokens = self.tokens
        token = tokens[self.pos]
        if token[0] is _OPERATOR and (token[1] == "/" or token[1] == "//"):
            self.pos += 1
            if token[1] == "//":
                steps = self.steps([_descendant_or_self()])
            elif tokens[self.pos][0] in _STEP_STARTS:
                steps = self.steps([])
            else:
                steps = []
            return Path(absolute=True, steps=steps)
        if token[0] in _STEP_STARTS:
            return Path(steps=self.steps([]))
        primary = self.primary()
        predicates = self.predicates()
        token = tokens[self.pos]
        if token[0] is _OPERATOR and (token[1] == "/" or token[1] == "//"):
            self.pos += 1
            steps = self.steps([_descendant_or_self()] if token[1] == "//" else [])
        elif not predicates:
            return primary
        else:
            steps = []
        return Path(primary=primary, primary_predicates=predicates, steps=steps)

    def steps(self, steps: list) -> list:
        """RelativeLocationPath, appended to ``steps``."""
        tokens = self.tokens
        while True:
            steps.append(self.step())
            token = tokens[self.pos]
            if token[0] is not _OPERATOR or (token[1] != "/" and token[1] != "//"):
                return steps
            self.pos += 1
            if token[1] == "//":
                steps.append(_descendant_or_self())

    def step(self) -> Step:
        tokens = self.tokens
        pos = self.pos
        token = tokens[pos]
        kind = token[0]
        if kind is TokenType.DOT or kind is TokenType.DOTDOT:
            self.pos = pos + 1
            return Step("self" if kind is TokenType.DOT else "parent", NodeTest("node"))
        axis = "child"
        if kind is TokenType.AXIS_NAME:
            axis = token[1]
            if axis not in _AXES:
                raise XPathSyntaxError(f"unknown axis {axis!r}", token[2])
            if axis == "namespace":
                raise XPathSyntaxError(
                    "the namespace axis is not supported (see DESIGN.md)", token[2]
                )
            self.pos = pos + 1
            self.expect(TokenType.COLONCOLON)
            pos = self.pos
        elif kind is TokenType.AT:
            axis = "attribute"
            pos += 1
        token = tokens[pos]
        if token[0] is _NAME:
            name = token[1]
            pos += 1
            if name in NODE_TYPES and tokens[pos][0] is _LPAREN:
                self.pos = pos + 1
                node_test = self.node_type(name)
                pos = self.pos
            else:
                node_test = NodeTest("name", name)
        elif token[0] is TokenType.STAR:
            pos += 1
            node_test = NodeTest("wildcard")
        else:
            raise XPathSyntaxError(
                f"expected a node test, found {token[1]!r}", token[2]
            )
        self.pos = pos
        if tokens[pos][0] is _LBRACKET:
            return Step(axis, node_test, self.predicates())
        return Step(axis, node_test)

    def node_type(self, name: str) -> NodeTest:
        """The rest of ``node()``, ``text()``, ``comment()`` or
        ``processing-instruction(['target'])`` after its ``(``."""
        target = None
        if name == "processing-instruction":
            literal = self.tokens[self.pos]
            if literal[0] is TokenType.LITERAL:
                target = literal[1]
                self.pos += 1
        self.expect(_RPAREN)
        if name == "processing-instruction":
            return NodeTest("pi", target)
        return NodeTest(name)

    def predicates(self) -> list:
        """Zero or more ``[expr]``."""
        tokens = self.tokens
        predicates = []
        token = tokens[self.pos]
        while token[0] is _LBRACKET:
            self.pos += 1
            self.enter(token[2])
            predicates.append(self.expr())
            self.expect(TokenType.RBRACKET)
            self.open -= 1
            token = tokens[self.pos]
        return predicates

    # ------------------------------------------------------------------
    # Primaries
    # ------------------------------------------------------------------

    def primary(self) -> Expr:
        token = self.tokens[self.pos]
        kind = token[0]
        if kind is TokenType.NUMBER:
            self.pos += 1
            return NumberLiteral(float(token[1]))
        if kind is TokenType.LITERAL:
            self.pos += 1
            return StringLiteral(token[1])
        if kind is TokenType.VARIABLE:
            self.pos += 1
            return VariableRef(token[1])
        if kind is _LPAREN:
            self.pos += 1
            self.enter(token[2])
            inner = self.expr()
            self.expect(_RPAREN)
            self.open -= 1
            return inner
        if kind is TokenType.FUNCTION_NAME:
            self.pos += 1
            self.expect(_LPAREN)
            self.enter(token[2])
            args = []
            if self.tokens[self.pos][0] is not _RPAREN:
                while True:
                    args.append(self.expr())
                    if self.tokens[self.pos][0] is not TokenType.COMMA:
                        break
                    self.pos += 1
            self.expect(_RPAREN)
            self.open -= 1
            return FunctionCall(token[1], args)
        raise XPathSyntaxError(f"unexpected token {token[1]!r}", token[2])


def parse_xpath(source: str) -> Expr:
    """Parse an XPath 1.0 expression string into an AST.

    The result is *raw*: run :func:`repro.xpath.normalize.normalize` to
    substitute variables, insert the explicit type conversions the paper
    assumes, and annotate static types before handing it to an evaluator
    (the engine does this for you).
    """
    return _Parser(source).parse()
