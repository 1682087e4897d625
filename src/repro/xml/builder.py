"""Programmatic document construction.

Two styles are offered:

* :class:`DocumentBuilder` — an imperative, stack-based builder
  (``start``/``end``/``text``/...) convenient for generators that emit
  trees while walking some other structure (the workload generators in
  :mod:`repro.workloads.documents` use it).
* :func:`element`/:func:`text` — a declarative nested-call style for
  literal trees in tests::

      doc = element("a", {"id": "1"}, element("b", {}, text("hi"))).build()

Both append to the columns the parser writes (kind, parent, size, depth,
name, value per node, in document order) and finish through the same
:class:`~repro.xml.document.Document` constructor, which builds the index,
and both build only what the parser could have read from the document's
serialization: adjacent text merges into one node, empty text is
dropped, PI data loses its surrounding whitespace, and a second root
element, ``--`` in a comment, ``?>`` in a processing instruction or a
PI target that is empty, holds a space or is ``xml`` raise
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.xml.columns import ATTR, COMMENT, ELEM, PI, TEXT, DocumentColumns
from repro.xml.document import Document, NodeKind


class DocumentBuilder:
    """Imperative stack-based builder for :class:`Document` trees.

    Example::

        b = DocumentBuilder()
        b.start("a", id="10")
        b.start("b", id="11")
        b.text("hello")
        b.end()
        b.end()
        doc = b.build()
    """

    def __init__(self, id_attribute: str = "id"):
        self.id_attribute = id_attribute
        self._kinds = bytearray(b"D")
        self._parents = [-1]
        self._sizes = [0]
        self._depths = [0]
        self._names: list[str | None] = [None]
        self._values: list[str | None] = [None]
        self._open = [0]  # pres of the open elements, the document node first
        self._root_seen = False
        self._built = False

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._open) - 1

    def _append(self, code: int, name: str | None, value: str | None, parent: int) -> int:
        pre = len(self._kinds)
        self._kinds.append(code)
        self._parents.append(parent)
        self._sizes.append(1)
        self._depths.append(self._depths[parent] + 1)
        self._names.append(name)
        self._values.append(value)
        return pre

    def start(self, name: str, attributes: dict[str, str] | None = None, **kw_attributes: str):
        """Open an element; attributes may be given as a dict or keywords."""
        parent = self._open[-1]
        if parent == 0:
            if self._root_seen:
                raise ReproError(f"multiple root elements (second is <{name}>)")
            self._root_seen = True
        element = self._append(ELEM, name, None, parent)
        merged = dict(attributes or {})
        merged.update(kw_attributes)
        for attr_name, attr_value in merged.items():
            self._append(ATTR, attr_name, str(attr_value), element)
        self._open.append(element)
        return self

    def end(self):
        """Close the most recently opened element."""
        if len(self._open) == 1:
            raise ReproError("end() with no open element")
        element = self._open.pop()
        self._sizes[element] = len(self._kinds) - element
        return self

    def leaf(self, name: str, content: str | None = None, attributes: dict[str, str] | None = None, **kw_attributes: str):
        """Open an element, optionally add text, and close it."""
        self.start(name, attributes, **kw_attributes)
        if content is not None:
            self.text(content)
        return self.end()

    def text(self, content: str):
        """Append text to the open element: a text node, or more of the
        one just appended there. Empty content is a no-op — the XPath
        data model has neither empty nor adjacent text nodes."""
        parent = self._open[-1]
        if parent == 0:
            raise ReproError("text() outside the root element")
        if content:
            if self._kinds[-1] == TEXT and self._parents[-1] == parent:
                self._values[-1] += content
            else:
                self._append(TEXT, None, content, parent)
        return self

    def comment(self, content: str):
        """Append a comment node."""
        if "--" in content:
            raise ReproError(f"'--' is not allowed inside a comment: {content!r}")
        self._append(COMMENT, None, content, self._open[-1])
        return self

    def processing_instruction(self, target: str, data: str = ""):
        """Append a processing-instruction node."""
        data = data.strip()
        if not target or " " in target or target.lower() == "xml":
            raise ReproError(f"bad processing-instruction target {target!r}")
        if "?>" in target or "?>" in data:
            raise ReproError(f"'?>' is not allowed inside a processing instruction: {data!r}")
        self._append(PI, target, data, self._open[-1])
        return self

    def build(self) -> Document:
        """Return the document. All elements must be closed."""
        if self._built:
            raise ReproError("build() called twice")
        if len(self._open) != 1:
            open_names = ", ".join(self._names[pre] or "?" for pre in self._open[1:])
            raise ReproError(f"build() with unclosed element(s): {open_names}")
        if not self._root_seen:
            raise ReproError("build() on an empty document (no root element)")
        self._built = True
        self._sizes[0] = len(self._kinds)
        columns = DocumentColumns.from_lists(
            self._kinds, self._parents, self._sizes, self._depths, self._names, self._values
        )
        return Document(columns, self.id_attribute)


class _Spec:
    """Declarative node specification used by :func:`element`/:func:`text`."""

    def __init__(self, kind: NodeKind, name: str | None, value: str | None,
                 attributes: dict[str, str], children: tuple["_Spec", ...]):
        self.kind = kind
        self.name = name
        self.value = value
        self.attributes = attributes
        self.children = children

    def build(self, id_attribute: str = "id") -> Document:
        """Materialize this spec (which must be an element) as a document."""
        if self.kind is not NodeKind.ELEMENT:
            raise ReproError("only an element spec can be the document root")
        builder = DocumentBuilder(id_attribute=id_attribute)
        self._emit(builder)
        return builder.build()

    def _emit(self, builder: DocumentBuilder) -> None:
        if self.kind is NodeKind.ELEMENT:
            builder.start(self.name, self.attributes)
            for child in self.children:
                child._emit(builder)
            builder.end()
        elif self.kind is NodeKind.TEXT:
            builder.text(self.value)
        elif self.kind is NodeKind.COMMENT:
            builder.comment(self.value)
        else:
            builder.processing_instruction(self.name, self.value)


def element(name: str, attributes: dict[str, str] | None = None, *children: "_Spec | str") -> _Spec:
    """Declarative element spec; string children become text nodes."""
    specs = tuple(text(c) if isinstance(c, str) else c for c in children)
    return _Spec(NodeKind.ELEMENT, name, None, dict(attributes or {}), specs)


def text(content: str) -> _Spec:
    """Declarative text-node spec."""
    return _Spec(NodeKind.TEXT, None, content, {}, ())


def comment(content: str) -> _Spec:
    """Declarative comment-node spec."""
    return _Spec(NodeKind.COMMENT, None, content, {}, ())


def processing_instruction(target: str, data: str = "") -> _Spec:
    """Declarative processing-instruction spec."""
    return _Spec(NodeKind.PROCESSING_INSTRUCTION, target, data, {}, ())
