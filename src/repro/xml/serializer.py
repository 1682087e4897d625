"""XML serialization: turn a :class:`Document` back into markup.

Together with the parser this gives a round-trip property that the test
suite checks with hypothesis: ``parse(serialize(doc))`` has the columns
of ``doc`` (same kinds, names, values, attributes in order). The writer
walks the columns from a pre number with a stack of open elements and
creates no :class:`Node`.
"""

from __future__ import annotations

from repro.xml.columns import ATTR, COMMENT, ELEM, PI, TEXT
from repro.xml.document import Document, Node


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
    )


def serialize_pre(document: Document, pre: int) -> str:
    """Markup of the subtree at ``pre``: ``kinds`` / ``names`` /
    ``values`` / ``size`` in one pass over its pre interval."""
    columns = document.columns
    kinds, names, values, size = columns.kinds, columns.names, columns.values, columns.size
    parts: list[str] = []
    append = parts.append
    open_elements: list[tuple[int, str]] = []  # (subtree end, tag), innermost last
    at, end = pre, pre + size[pre]
    while at < end:
        while open_elements and open_elements[-1][0] <= at:
            append(f"</{open_elements.pop()[1]}>")
        code = kinds[at]
        if code == ELEM:
            name = names[at]
            append(f"<{name}")
            stop = at + size[at]
            at += 1
            while at < stop and kinds[at] == ATTR:
                append(f' {names[at]}="{_escape_attribute(values[at] or "")}"')
                at += 1
            if at == stop:
                append("/>")
            else:
                append(">")
                open_elements.append((stop, name))
            continue
        if code == TEXT:
            append(_escape_text(values[at] or ""))
        elif code == COMMENT:
            append(f"<!--{values[at] or ''}-->")
        elif code == PI:
            data = values[at]
            append(f"<?{names[at]} {data}?>" if data else f"<?{names[at]}?>")
        elif code == ATTR:  # an attribute node serialized on its own
            append(f'{names[at]}="{_escape_attribute(values[at] or "")}"')
        at += 1  # a document node writes nothing but its children
    while open_elements:
        append(f"</{open_elements.pop()[1]}>")
    return "".join(parts)


def serialize_node(node: Node) -> str:
    """Serialize a single node (and its subtree) to markup."""
    return serialize_pre(node.document, node.pre)


def serialize(document: Document, xml_declaration: bool = False) -> str:
    """Serialize a whole document."""
    body = serialize_pre(document, 0)
    if xml_declaration:
        return f'<?xml version="1.0"?>{body}'
    return body
