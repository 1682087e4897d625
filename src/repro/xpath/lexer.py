"""XPath 1.0 tokenizer: one compiled master regex, one typing pass.

:data:`_TOKEN` cuts a query into lexemes with one ``findall``: whitespace
runs, ``Number`` (``Digits`` are ``[0-9]``, as the grammar says),
``Literal``, the two-character symbols, ``$QName``, ``QName``, and any
other single character — every position in exactly one lexeme, so
offsets are running sums of lengths. A :class:`Lexer` types each
lexeme by its text (:data:`_FIXED`) or first character
(:data:`_CLASS`); a character outside the XPath alphabet, an
unterminated literal or a ``$`` with no name is an
:class:`XPathSyntaxError` at its offset. Typing applies the two
disambiguation rules of §3.7, from one flag saying whether the previous
token leaves us in *operator position* (there is one and it is not
``@``, ``::``, ``(``, ``[``, ``,`` or an operator):

* in operator position ``*`` is the multiplication operator and an
  NCName must be an operator name (``and or div mod``); otherwise ``*``
  is a wildcard name test;
* otherwise a name followed (past whitespace) by ``::`` is an axis
  name, one followed by ``(`` a function name unless it is a node type
  (``node text comment processing-instruction``), and any other name a
  name test.

A planner's parser cuts by :data:`_GROUPED` instead: a step its step
memo may hold is then one token, never typed on a hit. A lexical error
anywhere still wins over a syntax error, as the parser has the step
groups after it typed before it raises one. :func:`scan` returns a
:class:`Lexer`'s ``(type, value, offset)`` tuples, what the parser
reads, :func:`tokenize_xpath` the same as :class:`Token` named tuples;
both end with an ``END`` token.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import XPathSyntaxError


class TokenType(enum.Enum):
    NUMBER = "number"
    LITERAL = "literal"
    NAME = "name"  # name test component ('*' is STAR)
    FUNCTION_NAME = "function-name"
    AXIS_NAME = "axis-name"
    OPERATOR = "operator"  # and or div mod = != <= < >= > + - * | /  //
    VARIABLE = "variable"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    AT = "@"
    DOT = "."
    DOTDOT = ".."
    COLONCOLON = "::"
    STAR = "star"  # wildcard name test
    STEP_GROUP = "step-group"  # a step and its predicates (see Lexer)
    END = "end"


class Token(NamedTuple):
    type: TokenType
    value: str
    offset: int


_QNAME = r"[A-Za-z_][A-Za-z0-9_.\-]*(?::[A-Za-z_][A-Za-z0-9_.\-]*)?"

#: The master regex: every lexeme, longest forms first where two share a
#: first character; the final ``.`` takes whatever else there is.
_TOKEN = re.compile(
    r"[ \t\r\n]+"
    r"|[0-9]+(?:\.[0-9]*)?|\.[0-9]+"
    r"|\"[^\"]*\"|'[^']*'"
    r"|\.\.|::|//|!=|<=|>=|\$" + _QNAME
    + r"|" + _QNAME
    + r"|.",
    re.DOTALL,
)

# Lexical classes of a lexeme, by its first character.
_SPACE, _DIGIT, _LETTER, _PERIOD, _QUOTE, _DOLLAR, _ASTERISK = range(7)

#: First character → lexical class of a lexeme not in :data:`_FIXED`.
#: Characters missing here are outside the alphabet.
_CLASS: dict = {".": _PERIOD, '"': _QUOTE, "'": _QUOTE, "$": _DOLLAR, "*": _ASTERISK}
_CLASS.update(dict.fromkeys(" \t\r\n", _SPACE))
_CLASS.update(dict.fromkeys("0123456789", _DIGIT))
_CLASS.update(
    dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", _LETTER)
)
#: A lexeme typed by its text alone → its type and whether operator
#: position follows it.
_FIXED = {text: (TokenType.OPERATOR, False) for text in "/ // | + - = != < <= > >=".split()}
_FIXED.update({token.value: (token, token.value in (")", "]", ".", "..")) for token in TokenType
               if token.value in ("(", ")", "[", "]", ",", "@", "::", ".", "..")})

_OPERATOR_NAMES = frozenset({"and", "or", "div", "mod"})
#: Names that stay name tests before ``(`` (node-type tests).
NODE_TYPES = frozenset({"node", "text", "comment", "processing-instruction"})

_OPERATOR = TokenType.OPERATOR
_NAME = TokenType.NAME
_NUMBER = TokenType.NUMBER
_GROUP = TokenType.STEP_GROUP
_END = TokenType.END
_PI_OPEN = ["processing-instruction", "("]
_SLOTTED = re.compile(r"[0-9'\"]")

_SPACES = r"[ \t\r\n]*+"
_FLAT = r"[^\[\]$'\"0-9]*+"  # no bracket, and nothing a step memo does not key
_NESTED = r"\[" + _FLAT + r"\]"
for _ in range(2):
    _NESTED = r"\[" + _FLAT + r"(?:" + _NESTED + _FLAT + r")*+\]"
_NAME_TEST = _QNAME.replace("*", "*+").replace(")?", ")?+")  # possessive
#: :data:`_TOKEN` with one more lexeme first: a *step group*, a location
#: step that begins with a name (an axis name and ``::``, or a name test)
#: and its predicates when a step memo keys them (no ``$``, literal or
#: number; brackets nested at most three deep; no ``[`` after them).
#: Possessive, so nothing backtracks.
_GROUPED = re.compile(
    r"(?:" + _NAME_TEST + _SPACES + r"::" + _SPACES + r"(?:" + _NAME_TEST + r"|\*)|"
    + _NAME_TEST + r")" + _SPACES + _NESTED + r"(?:" + _SPACES + _NESTED + r")*+(?!"
    + _SPACES + r"\[)|" + _TOKEN.pattern,
    re.DOTALL,
)


class Lexer:
    """One query's lexemes, cut once, and its tokens. :meth:`type` types
    them all, a step group (:data:`_GROUPED`) in name position as one
    untyped ``STEP_GROUP`` token: on a step memo hit the parser steps
    over it and adds its other tokens to ``skipped`` (a token's index in
    the whole query is its index in ``tokens`` plus the tokens skipped
    before it), on a miss it has it typed in its place (:meth:`expand`)."""

    __slots__ = ("source", "tokens", "skipped", "groups", "_lexemes")

    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple] = []
        self.skipped = 0
        self.groups = 0  # STEP_GROUP tokens in ``tokens``
        self._lexemes: list[str] | None = None

    def type(self, grouped: bool = False) -> list[tuple]:
        """The query's tokens through ``END``, step groups kept whole if
        ``grouped`` (or if :meth:`template` cut the query)."""
        lexemes = self._lexemes
        if lexemes is None:
            lexemes = (_GROUPED if grouped else _TOKEN).findall(self.source)
        self.tokens = self._type(lexemes, 0)
        self.tokens.append((_END, "", len(self.source)))
        return self.tokens

    def expand(self, at: int, head: int = -1) -> None:
        """Type the step group ``tokens[at]`` in its place: its predicates
        (steps of these may be groups again), after its head's tokens or,
        given ``head`` (their count), instead of them."""
        _, text, start = self.tokens[at]
        cut = text.index("[")
        lexemes = _GROUPED.findall(text, cut)
        if head < 0:
            lexemes[:0] = _TOKEN.findall(text, 0, cut)
        else:
            start += cut
            self.skipped += head
        self.groups -= 1
        self.tokens[at : at + 1] = self._type(lexemes, start)

    def check(self, tokens: list[tuple]) -> None:
        """Raise the first lexical error in the step groups of ``tokens``,
        if there is one."""
        for _, text, start in [token for token in tokens if token[0] is _GROUP]:
            self._type(_TOKEN.findall(text), start)

    def _type(self, lexemes: list[str], offset: int) -> list[tuple]:
        """The tokens of ``lexemes``, the first at ``offset`` and in name
        position; a step group in operator position is split."""
        tokens: list[tuple] = []
        error = None
        append = tokens.append
        operator_position = False
        count = len(lexemes)
        for index, text in enumerate(lexemes):
            start = offset
            offset += len(text)
            fixed = _FIXED.get(text)
            if fixed is not None:
                append((fixed[0], text, start))
                operator_position = fixed[1]
                continue
            kind = _CLASS.get(text[0])
            if kind is _LETTER:
                if text[-1] == "]":  # a step group
                    if not operator_position:
                        append((_GROUP, text, start))
                        self.groups += 1
                        operator_position = True
                        continue
                    offset = start  # its lexemes come next
                    lexemes[index + 1 : index + 1] = _TOKEN.findall(text)
                    count = len(lexemes)
                    continue
                if operator_position:
                    if text not in _OPERATOR_NAMES:
                        error = f"unexpected name {text!r} in operator position"
                        break
                    append((_OPERATOR, text, start))
                    operator_position = False
                    continue
                follow = lexemes[index + 1] if index + 1 < count else ""
                if follow and _CLASS.get(follow[0]) is _SPACE:
                    follow = lexemes[index + 2] if index + 2 < count else ""
                if follow == "::":
                    append((TokenType.AXIS_NAME, text, start))
                elif follow == "(" and text not in NODE_TYPES:
                    append((TokenType.FUNCTION_NAME, text, start))
                else:
                    append((_NAME, text, start))
                operator_position = True
            elif kind is _SPACE:
                continue
            elif kind is _DIGIT or kind is _PERIOD:  # '.' and '..' are fixed
                append((_NUMBER, text, start))
                operator_position = True
            elif kind is _ASTERISK:
                append((_OPERATOR if operator_position else TokenType.STAR, text, start))
                operator_position = not operator_position
            elif kind is _QUOTE and len(text) > 1:
                append((TokenType.LITERAL, text[1:-1], start))
                operator_position = True
            elif kind is _DOLLAR and len(text) > 1:
                append((TokenType.VARIABLE, text[1:], start))
                operator_position = True
            else:
                error = {_QUOTE: "unterminated string literal",
                         _DOLLAR: "'$' must be followed by a variable name"}.get(kind)
                error = error or f"unexpected character {text!r}"
                break
        if error is not None:
            self.check(tokens)  # one in an earlier step group comes first
            raise XPathSyntaxError(error, start)
        return tokens

    def template(self) -> tuple[tuple, dict] | None:
        """The query's lexemes without whitespace (a step group's split),
        each number the slot ``#n`` and each string literal (not a
        ``processing-instruction('t')`` target) the slot ``#s``, and the
        slots' values by token index; ``None``: no slot. Lexemes fix the
        token types, so two queries share a template exactly when their
        tokens differ in literal values only. Call it before any typing:
        the parser then types these lexemes."""
        source = self.source
        if _SLOTTED.search(source) is None:
            return None
        key: list = []
        values = {}
        self._lexemes = lexemes = _GROUPED.findall(source)
        for text in lexemes:
            kind = _CLASS.get(text[0])
            if kind is _SPACE:
                continue
            if kind is _DIGIT or kind is _PERIOD and len(text) > 1 and text != "..":
                values[len(key)] = text
                text = "#n"
            elif kind is _QUOTE and len(text) > 1 and key[-2:] != _PI_OPEN:
                values[len(key)] = text[1:-1]
                text = "#s"
            elif kind is _LETTER and text[-1] == "]":
                key += [part for part in _TOKEN.findall(text) if part[0] not in " \t\r\n"]
                continue
            key.append(text)
        return (tuple(key), values) if values else None


def scan(source: str) -> list[tuple]:
    """The tokens of ``source`` as ``(type, value, offset)`` tuples,
    ending with ``(END, "", len(source))``."""
    return Lexer(source).type()


def tokenize_xpath(source: str) -> list[Token]:
    """Tokenize an XPath expression; appends a sentinel END token."""
    return [tuple.__new__(Token, token) for token in scan(source)]
