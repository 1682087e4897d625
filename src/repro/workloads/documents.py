"""Document generators.

All generators return :class:`repro.xml.document.Document` instances
(built with :class:`repro.xml.builder.DocumentBuilder`) and are deterministic given their parameters (``random_document``
takes an explicit ``random.Random``).
"""

from __future__ import annotations

import random

from repro.xml.builder import DocumentBuilder
from repro.xml.document import Document

#: The Figure 2 document, verbatim.
RUNNING_EXAMPLE_XML = """\
<?xml version="1.0"?>
<a id="10">
  <b id="11">
    <c id="12">21 22</c>
    <c id="13">23 24</c>
    <d id="14">100</d>
  </b>
  <b id="21">
    <c id="22">11 12</c>
    <d id="23">13 14</d>
    <d id="24">100</d>
  </b>
</a>
"""


def running_example_document() -> Document:
    """The paper's Figure 2 sample document.

    Parsed with whitespace-only text nodes dropped so that ``dom``
    matches the paper's reading: nine elements (plus the document node
    and the data text nodes).
    """
    from repro.xml.parser import parse_document

    return parse_document(RUNNING_EXAMPLE_XML, keep_whitespace_text=False)


def doubling_document() -> Document:
    """``<a><b/><b/></a>`` — the minimal document on which the
    ``parent/child`` doubling query family blows naive engines up
    (EXP-X1; the [11] experiment shape)."""
    builder = DocumentBuilder()
    builder.start("a", id="0")
    builder.leaf("b", attributes={"id": "1"})
    builder.leaf("b", attributes={"id": "2"})
    builder.end()
    return builder.build()


def balanced_tree(depth: int, fanout: int, tags: tuple[str, ...] = ("a", "b", "c")) -> Document:
    """A complete ``fanout``-ary tree of the given depth.

    Tag names cycle through ``tags`` by level; every element carries a
    numeric id and a small text payload, so value comparisons and ``id()``
    have something to chew on.
    """
    builder = DocumentBuilder()
    counter = [0]

    def grow(level: int) -> None:
        tag = tags[level % len(tags)]
        counter[0] += 1
        number = counter[0]
        builder.start(tag, id=str(number))
        if level + 1 < depth:
            for _ in range(fanout):
                grow(level + 1)
        else:
            builder.text(str(number * 10))
        builder.end()

    grow(0)
    return builder.build()


def deep_chain(length: int, tags: tuple[str, ...] = ("a", "b")) -> Document:
    """A single path of ``length`` nested elements — maximal depth for a
    given ``|D|``; stresses ancestor/descendant propagation."""
    builder = DocumentBuilder()
    for index in range(length):
        builder.start(tags[index % len(tags)], id=str(index))
    builder.text("100")
    for _ in range(length):
        builder.end()
    return builder.build()


def wide_tree(width: int, tag: str = "item", root: str = "list") -> Document:
    """One root with ``width`` children — maximal fanout; stresses the
    sibling axes and position predicates (``cs`` equals ``width``)."""
    builder = DocumentBuilder()
    builder.start(root, id="root")
    for index in range(width):
        builder.leaf(tag, str(index), attributes={"id": str(index + 1)})
    builder.end()
    return builder.build()


def numbered_line(length: int, tag: str = "n") -> Document:
    """``<line><n>1</n><n>2</n>...</line>`` — a flat sequence of numbered
    elements, the canonical Wadler-fragment workload (value and position
    predicates over a line of items)."""
    builder = DocumentBuilder()
    builder.start("line", id="line")
    for index in range(1, length + 1):
        builder.leaf(tag, str(index), attributes={"id": str(index)})
    builder.end()
    return builder.build()


def book_catalog(books: int, chapters_per_book: int = 3) -> Document:
    """A realistic bibliography document (the domain XPath was designed
    for): books with attributes, nested authors and chapters, prices, and
    cross-references via ``ref`` elements whose text holds ids."""
    builder = DocumentBuilder()
    builder.start("catalog", id="catalog")
    for number in range(1, books + 1):
        year = 1990 + (number * 7) % 30
        price = 10 + (number * 13) % 90
        builder.start(
            "book",
            id=f"bk{number}",
            year=str(year),
            lang="en" if number % 3 else "de",
        )
        builder.leaf("title", f"Title {number}")
        builder.start("authors")
        builder.leaf("author", f"Author {number % 7}")
        if number % 2:
            builder.leaf("author", f"Author {(number + 3) % 7}")
        builder.end()
        builder.leaf("price", str(price))
        for chapter in range(1, chapters_per_book + 1):
            builder.start("chapter", id=f"bk{number}c{chapter}", num=str(chapter))
            builder.leaf("heading", f"Chapter {chapter}")
            builder.leaf("pages", str(10 + (number * chapter) % 40))
            builder.end()
        if number > 1:
            builder.leaf("ref", f"bk{number - 1}")
        builder.end()
    builder.end()
    return builder.build()


def random_document(
    rng: random.Random,
    max_nodes: int = 30,
    tags: tuple[str, ...] = ("a", "b", "c", "d"),
    text_values: tuple[str, ...] = ("1", "2", "100", "x", ""),
    attribute_probability: float = 0.4,
) -> Document:
    """A random tree for differential and property-based testing.

    Shape, tags, attributes, and text are all drawn from ``rng``; element
    ids are sequential so ``id()`` queries can hit. Deterministic given
    the generator state.
    """
    builder = DocumentBuilder()
    remaining = [max(1, max_nodes)]
    counter = [0]

    def grow(depth: int) -> None:
        counter[0] += 1
        remaining[0] -= 1
        attributes = {"id": str(counter[0])}
        if rng.random() < attribute_probability:
            attributes["kind"] = rng.choice(tags)
        builder.start(rng.choice(tags), attributes)
        if rng.random() < 0.5:
            builder.text(rng.choice(text_values))
        while remaining[0] > 0 and depth < 6 and rng.random() < 0.55:
            grow(depth + 1)
        builder.end()

    grow(0)
    return builder.build()
