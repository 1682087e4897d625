"""One-pass XML front end: source text straight to the snapshot columns.

:func:`parse_document` walks the source once with a compiled master
regex (one alternative per construct, attribute runs split by a second
regex) and appends to the flat columns of the paper's data model —
``kinds`` / ``parent_pre`` / ``size`` / ``depth`` / ``names`` /
``values``, ``post`` by the closed form — closing an element's ``size``
on its end tag. The result is a :class:`~repro.xml.document.Document`
with its :class:`~repro.xml.index.NodeIndex` adopted: no ``Node`` exists
until a caller touches one, and no index build ever runs for it.

The accepted language is that of a small cursor lexer, leniencies
included: ASCII names, no whitespace required between attributes,
``</a >``, a PI target that ends at the first space, a DOCTYPE skipped by
bracket depth. Lexical well-formedness (tag syntax, quoting, references,
``--`` in comments, ``]]>`` in text) is checked over the *whole* source
before structure is: the first structural error (unbalanced tags, a
second root, character data outside the root, a misplaced declaration)
is held back until the rest has been read. Adjacent text and CDATA merge
into one text node, as the XPath data model requires. Line and column
are computed only when an error is raised; when the master regex does
not match, :func:`_diagnose` re-reads that one construct with a cursor
to say exactly what is wrong with it.
"""

from __future__ import annotations

import re

from repro.errors import XMLSyntaxError
from repro.xml.columns import ATTR, COMMENT, ELEM, PI, TEXT, DocumentColumns
from repro.xml.document import Document

# XML 1.0 Name, restricted to the ASCII subset we support.
_NAME_CHAR = r"[A-Za-z0-9_:.\-]"
_NAME = rf"[A-Za-z_:]{_NAME_CHAR}*"
_WS = r"[ \t\r\n]*"
_ATTRIBUTE = re.compile(rf"({_NAME}){_WS}={_WS}(?:\"([^\"<]*)\"|'([^'<]*)')")
_CONSTRUCT = re.compile(
    # The lookahead keeps backtracking from splitting ``<ab="1">`` into a
    # shorter tag name and an attribute.
    rf"<({_NAME})(?!{_NAME_CHAR})((?:{_WS}{_NAME}{_WS}={_WS}(?:\"[^\"<]*\"|'[^'<]*'))*){_WS}(/?)>"
    r"|([^<]+)"
    rf"|</({_NAME}){_WS}>"
    r"|<!--(.*?)-->"
    r"|<!\[CDATA\[(.*?)\]\]>"
    r"|<\?(.*?)\?>",
    re.DOTALL,
)
# ``match.lastindex`` of each alternative above.
_START_TAG, _TEXT, _END_TAG, _COMMENT, _CDATA, _PI = 3, 4, 5, 6, 7, 8
_NAME_AT = re.compile(_NAME)
_WS_AT = re.compile(_WS)

_PREDEFINED_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}


def _error(source: str, message: str, pos: int) -> XMLSyntaxError:
    line = source.count("\n", 0, pos) + 1
    return XMLSyntaxError(message, line, pos - source.rfind("\n", 0, pos))


def _expand_references(raw: str, source: str, origin: int) -> str:
    """Resolve ``&name;``, ``&#d;`` and ``&#xh;`` references in ``raw``,
    which starts at ``source[origin]``."""
    parts: list[str] = []
    i = 0
    while True:
        amp = raw.find("&", i)
        if amp == -1:
            parts.append(raw[i:])
            return "".join(parts)
        parts.append(raw[i:amp])
        end = raw.find(";", amp + 1)
        if end == -1:
            raise _error(source, "unterminated entity reference", origin + amp)
        body = raw[amp + 1 : end]
        try:
            if body.startswith("#x") or body.startswith("#X"):
                parts.append(chr(int(body[2:], 16)))
            elif body.startswith("#"):
                parts.append(chr(int(body[1:])))
            elif body in _PREDEFINED_ENTITIES:
                parts.append(_PREDEFINED_ENTITIES[body])
            else:
                raise _error(source, f"unknown entity &{body};", origin + amp)
        except ValueError:
            raise _error(source, f"bad character reference &{body};", origin + amp) from None
        i = end + 1


def _doctype_end(source: str, pos: int) -> int:
    """End of the DOCTYPE declaration at ``pos``: the first ``>`` outside
    square brackets. DTDs do not affect evaluation (``id()`` uses the
    configured id attribute name instead), so the declaration is skipped."""
    depth = 0
    for at in range(pos + 9, len(source)):
        ch = source[at]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth == 0:
            return at + 1
    raise _error(source, "unterminated DOCTYPE declaration", pos)


def _diagnose(source: str, pos: int) -> XMLSyntaxError:
    """What is wrong with the construct at ``source[pos] == '<'`` that the
    master regex did not match — read the way a cursor lexer would, so the
    message and position are those of its first complaint (a bad
    reference in an earlier, well-formed attribute raises from here)."""
    for opener, what in (
        ("<!--", "comment"),
        ("<![CDATA[", "CDATA section"),
        ("<?", "processing instruction"),
    ):
        if source.startswith(opener, pos):
            return _error(source, f"unterminated {what}", pos)
    closing = source.startswith("</", pos)
    pos += 2 if closing else 1
    match = _NAME_AT.match(source, pos)
    if match is None:
        return _error(source, "expected an XML name", pos)
    tag = match.group()
    pos = _WS_AT.match(source, match.end()).end()
    if closing:
        return _error(source, f"malformed end tag </{tag}", pos)
    seen: set[str] = set()
    while pos < len(source):
        if source[pos] == "/":
            return _error(source, f"malformed empty-element tag <{tag}", pos)
        match = _ATTRIBUTE.match(source, pos)
        if match is None:
            break
        # A well-formed attribute: only its references or its name can
        # be at fault.
        name = match.group(1)
        _expand_references(match.group(match.lastindex), source, match.start(match.lastindex))
        if name in seen:
            return _error(source, f"duplicate attribute {name!r} on <{tag}>", match.end())
        seen.add(name)
        pos = _WS_AT.match(source, match.end()).end()
    else:
        return _error(source, f"unterminated start tag <{tag}", pos)
    match = _NAME_AT.match(source, pos)
    if match is None:
        return _error(source, "expected an XML name", pos)
    name = match.group()
    pos = _WS_AT.match(source, match.end()).end()
    if not source.startswith("=", pos):
        return _error(source, f"attribute {name!r} is missing '='", pos)
    pos = _WS_AT.match(source, pos + 1).end()
    quote = source[pos : pos + 1]
    if quote != '"' and quote != "'":
        return _error(source, f"attribute {name!r} value must be quoted", pos)
    if source.find(quote, pos + 1) == -1:
        return _error(source, f"unterminated value for attribute {name!r}", pos + 1)
    return _error(source, f"'<' is not allowed in attribute value of {name!r}", pos + 1)


def parse_document(
    source: str, id_attribute: str = "id", keep_whitespace_text: bool = True
) -> Document:
    """Parse an XML string into a document.

    Args:
        source: the XML text.
        id_attribute: attribute name used by ``id()`` (default ``"id"``).
        keep_whitespace_text: keep whitespace-only text nodes between
            elements (default True, per the XPath data model). The paper's
            examples assume pretty-printing whitespace is not part of
            ``dom``, so the running-example fixtures pass False.
    """
    kinds = bytearray(b"D")
    parents, sizes, depths = [-1], [0], [0]
    names: list[str | None] = [None]
    values: list[str | None] = [None]
    open_pre = 0  # the innermost open element (0: the document node)
    level = 1  # depth of the open element's children
    root_seen = False
    pending = None  # text of a run that a CDATA section continues
    deferred = None  # the first structural error, should nothing lexical follow
    pos, end = 0, len(source)
    while pos < end:
        for match in _CONSTRUCT.finditer(source, pos):
            start = match.start()
            if start != pos:
                break
            pos = match.end()
            construct = match.lastindex
            if construct == _START_TAG:
                name, run, empty = match.group(1, 2, 3)
                if open_pre == 0:
                    if root_seen and deferred is None:
                        deferred = _error(
                            source, f"multiple root elements (second is <{name}>)", start
                        )
                    root_seen = True
                pre = len(kinds)
                kinds.append(ELEM)
                parents.append(open_pre)
                sizes.append(1)
                depths.append(level)
                names.append(name)
                values.append(None)
                if run:
                    offset = match.start(2)
                    seen = set()
                    for attribute in _ATTRIBUTE.finditer(run):
                        attribute_name = attribute.group(1)
                        value = attribute.group(attribute.lastindex)
                        if "&" in value:
                            value = _expand_references(
                                value, source, offset + attribute.start(attribute.lastindex)
                            )
                        if attribute_name in seen:
                            raise _error(
                                source,
                                f"duplicate attribute {attribute_name!r} on <{name}>",
                                offset + attribute.end(),
                            )
                        seen.add(attribute_name)
                        kinds.append(ATTR)
                        parents.append(pre)
                        sizes.append(1)
                        depths.append(level + 1)
                        names.append(attribute_name)
                        values.append(value)
                if empty:
                    sizes[pre] = len(kinds) - pre
                else:
                    open_pre = pre
                    level += 1
                continue
            if construct == _END_TAG:
                name = match.group(5)
                if open_pre and names[open_pre] == name:
                    sizes[open_pre] = len(kinds) - open_pre
                    open_pre = parents[open_pre]
                    level -= 1
                elif deferred is None:
                    deferred = _error(
                        source,
                        f"end tag </{name}> does not match <{names[open_pre]}>"
                        if open_pre
                        else f"end tag </{name}> with no open element",
                        start,
                    )
                continue
            if construct == _TEXT or construct == _CDATA:
                if construct == _TEXT:
                    value = match.group(4)
                    if "]]>" in value:
                        raise _error(source, "']]>' is not allowed in character data", start)
                    if "&" in value:
                        value = _expand_references(value, source, start)
                    more = source.startswith("<![CDATA[", pos)
                else:  # CDATA content is literal text; no reference expansion
                    value = match.group(7)
                    more = pos < end and (
                        source[pos] != "<" or source.startswith("<![CDATA[", pos)
                    )
                if pending is not None:
                    value = pending + value
                    pending = None
                if more:
                    pending = value
                    continue
                if open_pre == 0:
                    if deferred is None and value.strip():
                        deferred = XMLSyntaxError("character data outside the root element")
                    continue
                if not keep_whitespace_text and not value.strip():
                    continue
                code, name = TEXT, None
            elif construct == _COMMENT:
                code, name, value = COMMENT, None, match.group(6)
                if "--" in value:
                    raise _error(source, "'--' is not allowed inside a comment", start)
            else:
                name, _, value = match.group(8).partition(" ")
                if not name:
                    raise _error(source, "processing instruction with empty target", pos)
                if name.lower() == "xml":
                    if (open_pre or root_seen) and deferred is None:
                        deferred = _error(
                            source, "XML declaration/DOCTYPE must precede the root element", start
                        )
                    continue
                code, value = PI, value.strip()
            kinds.append(code)
            parents.append(open_pre)
            sizes.append(1)
            depths.append(level)
            names.append(name)
            values.append(value)
        if pos < end:  # a DOCTYPE, or something malformed
            if not source.startswith("<!DOCTYPE", pos):
                raise _diagnose(source, pos)
            if (open_pre or root_seen) and deferred is None:
                deferred = _error(
                    source, "XML declaration/DOCTYPE must precede the root element", pos
                )
            pos = _doctype_end(source, pos)
    if deferred is not None:
        raise deferred
    if open_pre:
        raise XMLSyntaxError(f"unclosed element <{names[open_pre]}>")
    if not root_seen:
        raise XMLSyntaxError("document has no root element")
    sizes[0] = len(kinds)
    columns = DocumentColumns.from_lists(kinds, parents, sizes, depths, names, values)
    return Document.from_columns(columns, id_attribute)


def parse_fragment(source: str, id_attribute: str = "id") -> Document:
    """Parse a fragment by wrapping it in a synthetic ``<fragment>`` root."""
    return parse_document(f"<fragment>{source}</fragment>", id_attribute=id_attribute)
