"""XPath 1.0 tokenizer: one compiled master regex, one pass.

:data:`_TOKEN` cuts the whole query into lexemes with one ``findall``:
whitespace runs, ``Number`` (``Digits`` are ``[0-9]``, as the grammar
says), ``Literal``, the two-character symbols, ``$QName``, ``QName``,
and any other single character — every position of the source in
exactly one lexeme, so offsets are running sums of lengths. One pass
then types each lexeme by its first character (:data:`_CLASS`); a
character outside the XPath alphabet, an unterminated literal or a
``$`` with no name is an :class:`XPathSyntaxError` at its offset. That
pass also applies the two disambiguation rules of §3.7, from one flag
saying whether the previous token leaves us in *operator position*
(there is one and it is not ``@``, ``::``, ``(``, ``[``, ``,`` or an
operator):

* in operator position ``*`` is the multiplication operator and an
  NCName must be an operator name (``and or div mod``); otherwise ``*``
  is a wildcard name test;
* otherwise a name followed (past whitespace) by ``::`` is an axis
  name, one followed by ``(`` a function name unless it is a node type
  (``node text comment processing-instruction``), and any other name a
  name test.

So the parser sees unambiguous token types. :func:`scan` returns plain
``(type, value, offset)`` tuples, which is what the parser reads;
:func:`tokenize_xpath` returns the same tokens as :class:`Token`
named tuples. Both end with a sentinel ``END`` token.
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
_SPACE, _DIGIT, _LETTER, _PERIOD, _QUOTE, _SYMBOL, _COLON, _DOLLAR, _ASTERISK = range(9)

#: First character → lexical class, or the token type of a one-character
#: punctuation token (``( ) [ ] , @``). Characters missing here are
#: outside the alphabet.
_CLASS: dict = {token.value: token for token in TokenType if token.value in "()[],@"}
_CLASS.update({".": _PERIOD, '"': _QUOTE, "'": _QUOTE, ":": _COLON, "$": _DOLLAR, "*": _ASTERISK})
_CLASS.update(dict.fromkeys(" \t\r\n", _SPACE))
_CLASS.update(dict.fromkeys("0123456789", _DIGIT))
_CLASS.update(dict.fromkeys("/|+-=<>!", _SYMBOL))
_CLASS.update(
    dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", _LETTER)
)

_OPERATOR_NAMES = frozenset({"and", "or", "div", "mod"})
#: Names that stay name tests before ``(`` (node-type tests).
NODE_TYPES = frozenset({"node", "text", "comment", "processing-instruction"})
#: Punctuation after which the next token is in name position.
_OPENERS = frozenset("([,@")

_OPERATOR = TokenType.OPERATOR
_NAME = TokenType.NAME
_NUMBER = TokenType.NUMBER


def scan(source: str) -> list[tuple]:
    """The tokens of ``source`` as ``(type, value, offset)`` tuples,
    ending with ``(END, "", len(source))``."""
    lexemes = _TOKEN.findall(source)
    count = len(lexemes)
    tokens: list[tuple] = []
    append = tokens.append
    operator_position = False
    offset = 0
    for index, text in enumerate(lexemes):
        start = offset
        offset += len(text)
        kind = _CLASS.get(text[0])
        if kind is _LETTER:
            if operator_position:
                if text not in _OPERATOR_NAMES:
                    raise XPathSyntaxError(
                        f"unexpected name {text!r} in operator position", start
                    )
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
        elif kind is _SYMBOL and text != "!":
            append((_OPERATOR, text, start))
            operator_position = False
        elif kind is _DIGIT:
            append((_NUMBER, text, start))
            operator_position = True
        elif kind is _PERIOD:
            if text == ".":
                append((TokenType.DOT, text, start))
            elif text == "..":
                append((TokenType.DOTDOT, text, start))
            else:
                append((_NUMBER, text, start))
            operator_position = True
        elif kind is _ASTERISK:
            append((_OPERATOR if operator_position else TokenType.STAR, text, start))
            operator_position = not operator_position
        elif kind is _QUOTE and len(text) > 1:
            append((TokenType.LITERAL, text[1:-1], start))
            operator_position = True
        elif kind is _COLON and text == "::":
            append((TokenType.COLONCOLON, text, start))
            operator_position = False
        elif kind is _DOLLAR and len(text) > 1:
            append((TokenType.VARIABLE, text[1:], start))
            operator_position = True
        elif isinstance(kind, TokenType):
            append((kind, text, start))
            operator_position = text not in _OPENERS
        elif kind is _QUOTE:
            raise XPathSyntaxError("unterminated string literal", start)
        elif kind is _DOLLAR:
            raise XPathSyntaxError("'$' must be followed by a variable name", start)
        else:
            raise XPathSyntaxError(f"unexpected character {text!r}", start)
    append((TokenType.END, "", len(source)))
    return tokens


def tokenize_xpath(source: str) -> list[Token]:
    """Tokenize an XPath expression; appends a sentinel END token."""
    return [tuple.__new__(Token, token) for token in scan(source)]
