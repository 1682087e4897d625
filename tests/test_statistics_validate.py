"""Tests for document statistics and the index integrity validator."""

import random

import pytest

from repro.workloads.documents import (
    balanced_tree,
    book_catalog,
    deep_chain,
    random_document,
    wide_tree,
)
from repro.xml.builder import DocumentBuilder
from repro.xml.index import node_index
from repro.xml.parser import parse_document
from repro.xml.statistics import document_statistics


def test_statistics_counts_by_kind():
    doc = parse_document('<a x="1">t<b/><!--c--><?p d?></a>')
    stats = document_statistics(doc)
    assert stats.total_nodes == len(doc)
    assert stats.elements == 2
    assert stats.attributes == 1
    assert stats.text_nodes == 1
    assert stats.comments == 1
    assert stats.processing_instructions == 1


def test_statistics_depth_and_fanout():
    chain = document_statistics(deep_chain(6))
    assert chain.max_depth == 6
    assert chain.max_fanout == 1
    wide = document_statistics(wide_tree(9))
    assert wide.max_depth == 2
    assert wide.max_fanout == 9
    assert wide.mean_fanout == 9.0


def test_statistics_tag_counts():
    stats = document_statistics(balanced_tree(depth=3, fanout=2, tags=("x", "y")))
    assert stats.tag_counts["x"] == 1 + 4  # levels 0 and 2
    assert stats.tag_counts["y"] == 2


def test_statistics_text_and_ids():
    stats = document_statistics(parse_document('<a id="1">abc<b>de</b></a>'))
    assert stats.total_text_bytes == 5
    assert stats.identified_elements == 1


def test_statistics_summary_is_readable():
    summary = document_statistics(book_catalog(books=2)).summary()
    assert "elements" in summary
    assert "depth" in summary
    assert "book×2" in summary


def test_mean_fanout_of_leaf_only_document():
    stats = document_statistics(parse_document("<a/>"))
    assert stats.mean_fanout == 0.0


# --- NodeIndex.validate() -----------------------------------------------------

def test_validate_accepts_generated_documents():
    rng = random.Random(3)
    for _ in range(20):
        node_index(random_document(rng, max_nodes=20)).validate()
    node_index(book_catalog(books=3)).validate()
    node_index(deep_chain(5)).validate()


def test_validate_catches_corruption():
    doc = parse_document("<a><b/><c/></a>")
    doc.columns.size[2] = 99
    with pytest.raises(AssertionError):
        node_index(doc).validate()


def test_validate_catches_broken_parent_link():
    builder = DocumentBuilder()
    builder.start("a")
    builder.start("b")
    builder.leaf("c")
    builder.end()
    builder.end()
    doc = builder.build()
    doc.columns.parent_pre[3] = 1  # c claims a, not b, as its parent
    with pytest.raises(AssertionError):
        node_index(doc).validate()
