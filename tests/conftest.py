"""Shared fixtures: paper documents, engines, and cross-algorithm helpers."""

from __future__ import annotations

import pytest

from repro.engine import XPathEngine
from repro.workloads.documents import (
    book_catalog,
    doubling_document,
    running_example_document,
)
from repro.xml.document import Document
from repro.xml.snapshot import decode_snapshot, encode_snapshot

#: Every full-XPath algorithm (corexpath only handles its fragment).
ALL_ALGORITHMS = ("naive", "topdown", "bottomup", "mincontext", "optmincontext")

#: The polynomial algorithms (cheap enough for bigger fixtures).
POLY_ALGORITHMS = ("topdown", "mincontext", "optmincontext")


@pytest.fixture(scope="session")
def running_doc():
    """The paper's Figure 2 document (element-only dom + data text)."""
    return running_example_document()


@pytest.fixture()
def running_engine(running_doc):
    return XPathEngine(running_doc)


@pytest.fixture(scope="session")
def catalog_doc():
    return book_catalog(books=6)


@pytest.fixture()
def catalog_engine(catalog_doc):
    return XPathEngine(catalog_doc)


@pytest.fixture(scope="session")
def doubling_doc():
    return doubling_document()


def eager_tree(document) -> Document:
    """The boxed-tree twin of ``document``. ``parse_document`` yields
    column documents, so the eager leg of an eager x lazy comparison
    must ask for its tree — or the axis collapses to lazy x lazy."""
    eager = decode_snapshot(encode_snapshot(document), lazy=False)
    assert type(eager) is Document
    return eager


def ids(nodes) -> list[str]:
    """Element ids of a node list, in the given order."""
    return [node.xml_id for node in nodes]


def evaluate_everywhere(engine: XPathEngine, query: str, algorithms=ALL_ALGORITHMS):
    """Evaluate with every algorithm; return {algorithm: result}."""
    return {name: engine.evaluate(query, algorithm=name) for name in algorithms}


def assert_all_agree(engine: XPathEngine, query: str, algorithms=ALL_ALGORITHMS):
    """Differential oracle: all algorithms must return the same value."""
    outcomes = evaluate_everywhere(engine, query, algorithms)
    baseline_name = algorithms[0]
    baseline = outcomes[baseline_name]
    for name, value in outcomes.items():
        assert value == baseline, (
            f"{name} disagrees with {baseline_name} on {query!r}: "
            f"{value!r} != {baseline!r}"
        )
    return baseline
