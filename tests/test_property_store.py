"""Round-trip and trust-premise properties of the snapshot format and
the store (PR 24).

``DocumentStore.load`` skips the full structural check on the premise
that every file in the store was produced by ``encode_snapshot`` from a
finalized document and therefore passes it. These properties hold that
premise to account over generated documents — builder trees with
non-ASCII names and values, adjacent text nodes, comments, PIs and a
custom id attribute, and parsed markup — and pin what a load hands
back: the same columns, the same partitions and the same statistics as
the document that was saved, whichever of the two readers read it.
"""

from __future__ import annotations

import pathlib
import tempfile
from collections import Counter

from hypothesis import given, settings, strategies as st

from conftest import boxed_twin
from repro.xml.builder import DocumentBuilder
from repro.xml.columns import ColumnDocument, DocumentColumns
from repro.xml.index import KIND_PARTITIONS, node_index
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xml.statistics import DocumentStatistics, document_statistics
from repro.xml.store import DocumentStore

_ASCII_NAMES = ["a", "b", "tag-1", "x_y", "n.s"]
_WILD_NAMES = _ASCII_NAMES + ["é", "naïve", "☃", "\U0001d11e"]
_TEXT = st.text(alphabet=st.sampled_from(list("ab<>&\"' \n1é☃\U0001d11e")), max_size=10)
_WORD = st.text(alphabet=st.sampled_from(list("abé☃1")), min_size=1, max_size=6)
_STORE_NAMES = st.sampled_from(["doc", "naïve ☃", "a/b", "", " "])


@st.composite
def tree_specs(draw, names, id_attribute, depth=0):
    """``(name, attributes, children)``; a child is another spec, a text
    (adjacent texts happen), ``("comment", text)`` or ``("pi", target,
    data)``."""
    attributes = {}
    if draw(st.booleans()):
        attributes[id_attribute] = draw(_WORD)
    for _ in range(draw(st.integers(0, 2))):
        attributes[draw(st.sampled_from(names))] = draw(_TEXT)
    children = []
    if depth < 3:
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.integers(0, 5))
            if kind <= 1:
                children.append(draw(tree_specs(names, id_attribute, depth + 1)))
            elif kind <= 3:
                children.append(draw(_TEXT))
            elif kind == 4:
                children.append(("comment", draw(_WORD)))
            else:
                children.append(("pi", draw(st.sampled_from(_ASCII_NAMES)), draw(_WORD)))
    return (draw(st.sampled_from(names)), attributes, children)


def _build(builder: DocumentBuilder, spec) -> None:
    name, attributes, children = spec
    builder.start(name, attributes)
    for child in children:
        if isinstance(child, str):
            builder.text(child)
        elif child[0] == "comment":
            builder.comment(child[1])
        elif child[0] == "pi":
            builder.processing_instruction(child[1], child[2])
        else:
            _build(builder, child)
    builder.end()


@st.composite
def builder_trees(draw):
    """Boxed trees the parser could not have produced: any names,
    adjacent text nodes, a custom id attribute."""
    id_attribute = draw(st.sampled_from(["id", "key", "é"]))
    builder = DocumentBuilder(id_attribute=id_attribute)
    _build(builder, draw(tree_specs(_WILD_NAMES, id_attribute)))
    return builder.build()


@st.composite
def parsed_documents(draw):
    """Column documents straight from the parser (list-backed columns)."""
    id_attribute = draw(st.sampled_from(["id", "key"]))
    builder = DocumentBuilder(id_attribute=id_attribute)
    _build(builder, draw(tree_specs(_ASCII_NAMES, id_attribute)))
    return parse_document(serialize(builder.build()), id_attribute=id_attribute)


def _columns(document) -> tuple:
    columns = (
        document.columns
        if isinstance(document, ColumnDocument)
        else DocumentColumns.from_document(document)
    )
    return (
        bytes(columns.kinds),
        list(columns.parent_pre),
        list(columns.size),
        list(columns.post),
        list(columns.depth),
        list(columns.names),
        list(columns.values),
    )


def _partitions(document) -> dict:
    index = node_index(document)
    found = {kind: list(getattr(index, kind)) for kind in KIND_PARTITIONS}
    for group in ("by_tag", "by_attribute", "by_pi_target"):
        # Key order is part of it: tag_counts.most_common breaks ties by it.
        found[group] = [(key, list(pres)) for key, pres in getattr(index, group).items()]
    return found


def _per_node_statistics(document: ColumnDocument) -> DocumentStatistics:
    """``_column_statistics`` as it was before it read the index: one
    loop over every node of the columns. Kept as the oracle."""
    columns = document.columns
    kinds, names, values = columns.kinds, columns.names, columns.values
    depth, parent_pre = columns.depth, columns.parent_pre
    stats = DocumentStatistics()
    stats.total_nodes = len(columns)
    fanout: dict[int, int] = {}
    last_id_parent = -1
    for i in range(stats.total_nodes):
        code = chr(kinds[i])
        if code == "E":
            stats.elements += 1
            stats.tag_counts[names[i]] += 1
            stats.max_depth = max(stats.max_depth, depth[i])
            parent = parent_pre[i]
            if parent >= 0 and chr(kinds[parent]) == "E":
                fanout[parent] = fanout.get(parent, 0) + 1
        elif code == "A":
            stats.attributes += 1
            if names[i] == document.id_attribute:
                parent = parent_pre[i]
                if parent != last_id_parent:
                    last_id_parent = parent
                    if values[i] is not None:
                        stats.identified_elements += 1
        elif code == "T":
            stats.text_nodes += 1
            stats.total_text_bytes += len(values[i] or "")
        elif code == "C":
            stats.comments += 1
        elif code == "P":
            stats.processing_instructions += 1
    if fanout:
        stats._parents = len(fanout)
        stats._child_sum = sum(fanout.values())
        stats.max_fanout = max(fanout.values())
    return stats


def _same_statistics(a: DocumentStatistics, b: DocumentStatistics) -> bool:
    return a == b and list(a.tag_counts.items()) == list(b.tag_counts.items())


def _round_trips(document, name: str):
    """``document`` through the store, read back by both readers."""
    with tempfile.TemporaryDirectory() as directory:
        store = DocumentStore(pathlib.Path(directory) / "store")
        store.save(name, document)
        assert store.names() == [name]
        trusted = store.load(name)
        blob = store.load_snapshot(name)
    assert blob == encode_snapshot(document, name)
    return trusted, decode_snapshot(blob)  # the full check passes: the premise


@settings(max_examples=60, deadline=None)
@given(st.one_of(builder_trees(), parsed_documents()), _STORE_NAMES)
def test_what_the_store_hands_back_is_what_was_saved(document, name):
    trusted, checked = _round_trips(document, name)
    expected_columns = _columns(document)
    expected_partitions = _partitions(document)
    for loaded in (trusted, checked):
        assert type(loaded) is ColumnDocument and loaded.materialized_count() == 0
        assert loaded.id_attribute == document.id_attribute
        assert _columns(loaded) == expected_columns
        assert _partitions(loaded) == expected_partitions
        assert serialize(loaded) == serialize(document)
        assert list(loaded.id_map) == list(document.id_map)
    # Saving what was loaded writes the same bytes again.
    assert encode_snapshot(trusted, name) == encode_snapshot(document, name)


@settings(max_examples=40, deadline=None)
@given(parsed_documents())
def test_loaded_parsed_and_reparsed_documents_are_indistinguishable(document):
    reparsed = parse_document(serialize(document), id_attribute=document.id_attribute)
    trusted, checked = _round_trips(document, "doc")
    for other in (reparsed, trusted, checked):
        assert _columns(other) == _columns(document)
        assert _partitions(other) == _partitions(document)
        assert _same_statistics(document_statistics(other), document_statistics(document))


@settings(max_examples=60, deadline=None)
@given(st.one_of(builder_trees(), parsed_documents()))
def test_statistics_read_off_the_index_equal_the_per_node_pass_and_the_tree_walk(document):
    blob = encode_snapshot(document)
    walked = document_statistics(boxed_twin(decode_snapshot(blob)))  # the tree walk
    assert type(walked.tag_counts) is Counter
    for column_document in (document, decode_snapshot(blob)):
        if not isinstance(column_document, ColumnDocument):
            continue
        read = document_statistics(column_document)
        assert _same_statistics(read, _per_node_statistics(column_document))
        assert _same_statistics(read, walked)
        assert read.summary() == walked.summary()
        assert column_document.materialized_count() == 0
