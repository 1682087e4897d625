"""Tokenizer for the from-scratch XML parser.

Splits an XML document string into a stream of structural tokens: start
tags (with attributes), end tags, character data, CDATA sections, comments,
processing instructions, and the XML declaration. Entity and character
references inside character data and attribute values are resolved here.

The lexer enforces lexical well-formedness (tag syntax, attribute quoting,
legal names, ``--`` not appearing inside comments, ...); structural
well-formedness (balanced tags, a single root element) is the parser's job.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from repro.errors import XMLSyntaxError

# XML 1.0 Name, restricted to the ASCII-plus-letters subset we support.
_NAME_START = re.compile(r"[A-Za-z_:]")
_NAME_CHAR = re.compile(r"[A-Za-z0-9_:.\-]")

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


class XMLTokenType(enum.Enum):
    START_TAG = "start-tag"
    END_TAG = "end-tag"
    EMPTY_TAG = "empty-tag"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "pi"
    DECLARATION = "declaration"
    DOCTYPE = "doctype"


@dataclass
class XMLToken:
    """One lexical unit of an XML document."""

    type: XMLTokenType
    #: Tag name, PI target; text/comment content for character-ish tokens.
    value: str
    #: (name, value) pairs for start/empty tags, in source order.
    attributes: list[tuple[str, str]] = field(default_factory=list)
    line: int = 0
    column: int = 0


class XMLLexer:
    """Single-pass cursor-based tokenizer over an XML source string."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.length = len(source)
        # Line bookkeeping of the latest token start (see _token_location).
        self._mark = 0
        self._line = 1
        self._last_newline = -1

    # ------------------------------------------------------------------
    # Position/diagnostics helpers
    # ------------------------------------------------------------------

    def _location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.source.count("\n", 0, pos) + 1
        last_newline = self.source.rfind("\n", 0, pos)
        column = pos - last_newline
        return line, column

    def _token_location(self, start: int) -> tuple[int, int]:
        """:meth:`_location` of a token start, counted on from the
        previous token start (they only move forward): lexing stays
        linear, where a full-prefix scan per token made it quadratic."""
        newlines = self.source.count("\n", self._mark, start)
        if newlines:
            self._line += newlines
            self._last_newline = self.source.rfind("\n", self._mark, start)
        self._mark = start
        return self._line, start - self._last_newline

    def _error(self, message: str, pos: int | None = None) -> XMLSyntaxError:
        line, column = self._location(pos)
        return XMLSyntaxError(message, line, column)

    # ------------------------------------------------------------------
    # Tokenization
    # ------------------------------------------------------------------

    def tokens(self) -> list[XMLToken]:
        """Tokenize the whole document."""
        result: list[XMLToken] = []
        while self.pos < self.length:
            if self.source[self.pos] == "<":
                result.append(self._lex_markup())
            else:
                token = self._lex_text()
                if token is not None:
                    result.append(token)
        return result

    def _lex_text(self) -> XMLToken | None:
        start = self.pos
        end = self.source.find("<", self.pos)
        if end == -1:
            end = self.length
        raw = self.source[start:end]
        self.pos = end
        if "]]>" in raw:
            raise self._error("']]>' is not allowed in character data", start)
        line, column = self._token_location(start)
        return XMLToken(XMLTokenType.TEXT, self._expand_references(raw, start), line=line, column=column)

    def _lex_markup(self) -> XMLToken:
        start = self.pos
        line, column = self._token_location(start)
        if self.source.startswith("<!--", self.pos):
            return self._lex_comment(line, column)
        if self.source.startswith("<![CDATA[", self.pos):
            return self._lex_cdata(line, column)
        if self.source.startswith("<!DOCTYPE", self.pos):
            return self._lex_doctype(line, column)
        if self.source.startswith("<?", self.pos):
            return self._lex_pi(line, column)
        if self.source.startswith("</", self.pos):
            return self._lex_end_tag(line, column)
        return self._lex_start_tag(line, column)

    def _lex_comment(self, line: int, column: int) -> XMLToken:
        end = self.source.find("-->", self.pos + 4)
        if end == -1:
            raise self._error("unterminated comment")
        content = self.source[self.pos + 4 : end]
        if "--" in content:
            raise self._error("'--' is not allowed inside a comment")
        self.pos = end + 3
        return XMLToken(XMLTokenType.COMMENT, content, line=line, column=column)

    def _lex_cdata(self, line: int, column: int) -> XMLToken:
        end = self.source.find("]]>", self.pos + 9)
        if end == -1:
            raise self._error("unterminated CDATA section")
        content = self.source[self.pos + 9 : end]
        self.pos = end + 3
        # CDATA content is literal text; no reference expansion.
        return XMLToken(XMLTokenType.TEXT, content, line=line, column=column)

    def _lex_doctype(self, line: int, column: int) -> XMLToken:
        # We accept and skip a DOCTYPE declaration (without an internal
        # subset containing '>' beyond bracket pairs). DTDs do not affect
        # evaluation: id() uses the configured id attribute name instead.
        depth = 0
        pos = self.pos + 9
        while pos < self.length:
            ch = self.source[pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth == 0:
                content = self.source[self.pos + 9 : pos].strip()
                self.pos = pos + 1
                return XMLToken(XMLTokenType.DOCTYPE, content, line=line, column=column)
            pos += 1
        raise self._error("unterminated DOCTYPE declaration")

    def _lex_pi(self, line: int, column: int) -> XMLToken:
        end = self.source.find("?>", self.pos + 2)
        if end == -1:
            raise self._error("unterminated processing instruction")
        content = self.source[self.pos + 2 : end]
        self.pos = end + 2
        target, _, data = content.partition(" ")
        if not target:
            raise self._error("processing instruction with empty target")
        if target.lower() == "xml":
            return XMLToken(XMLTokenType.DECLARATION, data.strip(), line=line, column=column)
        return XMLToken(
            XMLTokenType.PROCESSING_INSTRUCTION,
            target,
            attributes=[("data", data.strip())],
            line=line,
            column=column,
        )

    def _lex_end_tag(self, line: int, column: int) -> XMLToken:
        self.pos += 2
        name = self._read_name()
        self._skip_whitespace()
        if self.pos >= self.length or self.source[self.pos] != ">":
            raise self._error(f"malformed end tag </{name}")
        self.pos += 1
        return XMLToken(XMLTokenType.END_TAG, name, line=line, column=column)

    def _lex_start_tag(self, line: int, column: int) -> XMLToken:
        self.pos += 1
        name = self._read_name()
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            self._skip_whitespace()
            if self.pos >= self.length:
                raise self._error(f"unterminated start tag <{name}")
            ch = self.source[self.pos]
            if ch == ">":
                self.pos += 1
                return XMLToken(
                    XMLTokenType.START_TAG, name, attributes=attributes, line=line, column=column
                )
            if ch == "/":
                if not self.source.startswith("/>", self.pos):
                    raise self._error(f"malformed empty-element tag <{name}")
                self.pos += 2
                return XMLToken(
                    XMLTokenType.EMPTY_TAG, name, attributes=attributes, line=line, column=column
                )
            attr_name, attr_value = self._read_attribute()
            if attr_name in seen:
                raise self._error(f"duplicate attribute {attr_name!r} on <{name}>")
            seen.add(attr_name)
            attributes.append((attr_name, attr_value))

    def _read_attribute(self) -> tuple[str, str]:
        name = self._read_name()
        self._skip_whitespace()
        if self.pos >= self.length or self.source[self.pos] != "=":
            raise self._error(f"attribute {name!r} is missing '='")
        self.pos += 1
        self._skip_whitespace()
        if self.pos >= self.length or self.source[self.pos] not in "'\"":
            raise self._error(f"attribute {name!r} value must be quoted")
        quote = self.source[self.pos]
        self.pos += 1
        end = self.source.find(quote, self.pos)
        if end == -1:
            raise self._error(f"unterminated value for attribute {name!r}")
        raw = self.source[self.pos : end]
        if "<" in raw:
            raise self._error(f"'<' is not allowed in attribute value of {name!r}")
        start = self.pos
        self.pos = end + 1
        return name, self._expand_references(raw, start)

    def _read_name(self) -> str:
        if self.pos >= self.length or not _NAME_START.match(self.source[self.pos]):
            raise self._error("expected an XML name")
        start = self.pos
        self.pos += 1
        while self.pos < self.length and _NAME_CHAR.match(self.source[self.pos]):
            self.pos += 1
        return self.source[start : self.pos]

    def _skip_whitespace(self) -> None:
        while self.pos < self.length and self.source[self.pos] in " \t\r\n":
            self.pos += 1

    # ------------------------------------------------------------------
    # References
    # ------------------------------------------------------------------

    def _expand_references(self, raw: str, origin: int) -> str:
        """Resolve ``&name;``, ``&#d;`` and ``&#xh;`` references in ``raw``."""
        if "&" not in raw:
            return raw
        parts: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                parts.append(ch)
                i += 1
                continue
            end = raw.find(";", i + 1)
            if end == -1:
                raise self._error("unterminated entity reference", origin + i)
            body = raw[i + 1 : end]
            if body.startswith("#x") or body.startswith("#X"):
                try:
                    parts.append(chr(int(body[2:], 16)))
                except ValueError:
                    raise self._error(f"bad character reference &{body};", origin + i) from None
            elif body.startswith("#"):
                try:
                    parts.append(chr(int(body[1:])))
                except ValueError:
                    raise self._error(f"bad character reference &{body};", origin + i) from None
            elif body in _PREDEFINED_ENTITIES:
                parts.append(_PREDEFINED_ENTITIES[body])
            else:
                raise self._error(f"unknown entity &{body};", origin + i)
            i = end + 1
        return "".join(parts)


def tokenize(source: str) -> list[XMLToken]:
    """Tokenize an XML document string."""
    return XMLLexer(source).tokens()
