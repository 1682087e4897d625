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

The tokens come from a :class:`repro.xpath.lexer.Lexer`. A lexical
error anywhere wins over a syntax error before it: the parser has the
step groups after the cursor typed before it raises one
(:meth:`_Parser.fail`). :meth:`_Parser.expr` folds binary operators left-
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
always were. All six evaluators recurse over the tree, and every
evaluator runs a query at the limit. The pass after the parser
(:func:`repro.xpath.normalize.analyze`) walks the tree on an explicit
stack and refuses one taller than
:data:`repro.xpath.normalize.MAX_HEIGHT` nodes: an operator chain
compiles up to about 500 terms and evaluates up to about 235
(``topdown``).

**The step memo.** Only :meth:`QueryPlanner.compile
<repro.service.planner.QueryPlanner.compile>` passes ``steps``, its
compile's view of the planner's step memo, and its lexer cuts the query
by step groups (see :mod:`repro.xpath.lexer`): a step that begins with
a name and whose predicates the memo keys (no ``$``, literal or number:
what differs between otherwise equal queries) is one token, looked up
by its text. On a hit the parser returns the memo's step, *normalized*
already, and the group stays untyped. A group that could pass
:data:`MAX_DEPTH` where it sits (each level takes two of its characters)
is parsed.

A number or string literal records its token's index in the whole
query as its ``slot`` (a ``processing-instruction('t')`` target is no
literal): a planner's template memo binds another query's literals
there. Given ``free``, the parser also records in it each step, path and
function call with no slot below it, by id: what such a bind shares (and
any step without predicates).
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
    clone,
)
from repro.xpath.lexer import NODE_TYPES, Lexer, TokenType

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
_GROUP = TokenType.STEP_GROUP
#: Token types that begin a location step.
_STEP_STARTS = (
    _NAME, TokenType.STAR, TokenType.AXIS_NAME, TokenType.AT, TokenType.DOT, TokenType.DOTDOT,
    _GROUP,
)


def _descendant_or_self() -> Step:
    return Step("descendant-or-self", NodeTest("node"))


class _Parser:
    """One query's tokens and the cursor over them."""

    __slots__ = ("lexer", "tokens", "pos", "open", "memo", "free", "slots")

    def __init__(self, lexer: Lexer, steps=None, free: dict | None = None):
        self.lexer = lexer
        self.tokens = lexer.type(steps is not None)
        self.pos = 0
        self.open = 0  # parentheses, predicates and calls open at the cursor
        self.memo = steps
        self.free = free
        self.slots = 0  # literals parsed

    def fail(self, message: str, offset: int) -> XPathSyntaxError:
        """The syntax error to raise, once the step groups after the cursor
        are typed: a lexical error in one is raised instead."""
        self.lexer.check(self.tokens[self.pos :])
        return XPathSyntaxError(message, offset)

    def expect(self, token_type: TokenType) -> None:
        token = self.tokens[self.pos]
        if token[0] is not token_type:
            if token[0] is _GROUP:
                self.lexer.expand(self.pos)
                return self.expect(token_type)
            raise self.fail(f"expected {token_type.value!r}, found {token[1]!r}", token[2])
        self.pos += 1

    def enter(self, offset: int) -> None:
        """Open a level, refusing level ``MAX_DEPTH + 1`` before the
        parser recurses into it."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise self.fail(f"query nested deeper than {MAX_DEPTH} levels", offset)

    def parse(self) -> Expr:
        expr = self.expr()
        trailing = self.tokens[self.pos]
        if trailing[0] is not TokenType.END:
            raise self.fail(f"unexpected trailing input {trailing[1]!r}", trailing[2])
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
        tokens, slots = self.tokens, self.slots
        token = tokens[self.pos]
        if token[0] is _OPERATOR and (token[1] == "/" or token[1] == "//"):
            self.pos += 1
            if token[1] == "//":
                steps = self.steps([_descendant_or_self()])
            elif tokens[self.pos][0] in _STEP_STARTS:
                steps = self.steps([])
            else:
                steps = []
            path = Path(absolute=True, steps=steps)
        elif token[0] in _STEP_STARTS:
            path = Path(steps=self.steps([]))
        else:
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
            path = Path(primary=primary, primary_predicates=predicates, steps=steps)
        if self.free is not None and self.slots == slots:
            self.free[id(path)] = path
        return path

    def steps(self, steps: list) -> list:
        """RelativeLocationPath, appended to ``steps``."""
        tokens, free = self.tokens, self.free
        while True:
            slots = self.slots
            step = self.step()
            if free is not None and self.slots == slots:
                free[id(step)] = step
            steps.append(step)
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
        if kind is _GROUP:
            step = self.group_step(token[1])
            if step is not None:
                return step
            token = tokens[pos]
            kind = token[0]
        if kind is TokenType.DOT or kind is TokenType.DOTDOT:
            self.pos = pos + 1
            return Step("self" if kind is TokenType.DOT else "parent", NodeTest("node"))
        axis = "child"
        if kind is TokenType.AXIS_NAME:
            axis = token[1]
            if axis not in _AXES:
                raise self.fail(f"unknown axis {axis!r}", token[2])
            if axis == "namespace":
                raise self.fail("the namespace axis is not supported (see DESIGN.md)", token[2])
            self.pos = pos + 1
            self.expect(TokenType.COLONCOLON)
            pos = self.pos
        elif kind is TokenType.AT:
            axis = "attribute"
            pos += 1
        token = tokens[pos]
        if token[0] is _GROUP:  # after '@' or '::'
            self.lexer.expand(pos)
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
            raise self.fail(f"expected a node test, found {token[1]!r}", token[2])
        self.pos = pos
        if tokens[pos][0] is _LBRACKET:
            return Step(axis, node_test, self.predicates())
        return Step(axis, node_test)

    def group_step(self, text: str) -> Step | None:
        """The step of the step group ``text`` at the cursor, through the
        step memo (see the module docstring); ``None``: its tokens are
        typed now, parse them."""
        lexer, memo = self.lexer, self.memo
        cut = text.index("[")
        axis, named, test = text[:cut].partition("::")
        axis, test = (axis.strip(), test.strip()) if named else ("child", axis.strip())
        deep = self.open + (len(text) - cut) // 2 > MAX_DEPTH
        if deep or axis not in _AXES or axis == "namespace":
            lexer.expand(self.pos)
            return None
        whole, keys = self.pos + lexer.skipped, memo.keys
        memo.lookups += 1
        entry = memo.peek(text)
        if entry is not None:
            step, _, inner, tokens = entry
            if keys and not set(keys).isdisjoint(inner):
                step = clone(step)  # one object at two positions of one tree
            keys += inner
            memo.hits[step] = entry
            self.pos += 1
            lexer.skipped += tokens - 1
            return step
        lexer.expand(self.pos, 3 if named else 1)  # the head stays untyped
        mark = len(keys)
        node_test = NodeTest("wildcard") if test == "*" else NodeTest("name", test)
        step = Step(axis, node_test, self.predicates())
        memo.misses.append((step, text, (*keys[mark:], text), self.pos + lexer.skipped - whole))
        keys.append(text)
        return step

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
        if kind is TokenType.NUMBER or kind is TokenType.LITERAL:
            self.slots += 1
            self.pos += 1
            slot = self.pos - 1 + self.lexer.skipped
            if kind is TokenType.NUMBER:
                return NumberLiteral(float(token[1]), slot)
            return StringLiteral(token[1], slot)
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
            slots = self.slots
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
            call = FunctionCall(token[1], args)
            if self.free is not None and self.slots == slots:
                self.free[id(call)] = call
            return call
        raise self.fail(f"unexpected token {token[1]!r}", token[2])


def parse_xpath(source: str | Lexer, steps=None, free: dict | None = None) -> Expr:
    """Parse an XPath 1.0 expression string into an AST.

    The result is *raw*: run :func:`repro.xpath.normalize.normalize` to
    substitute variables, insert the explicit type conversions the paper
    assumes, and annotate static types before handing it to an evaluator
    (the engine does this for you).
    ``source`` may be the query's :class:`~repro.xpath.lexer.Lexer`
    (nothing typed yet). With ``steps`` (a planner's step memo; see the
    module docstring) a step may come back normalized already; ``free``
    collects the nodes a template bind shares.
    """
    lexer = source if type(source) is Lexer else Lexer(source)
    return _Parser(lexer, steps, free).parse()
