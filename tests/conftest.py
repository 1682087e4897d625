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


def boxed_twin(document) -> Document:
    """The boxed-tree twin of ``document``, rebuilt node by node through
    the public construction API. ``parse_document`` and
    ``decode_snapshot`` yield column documents, so the boxed leg of a
    boxed x column comparison must ask for its tree — and gets one that
    shares no code with the parser or the codec it is compared with."""
    twin = Document(id_attribute=document.id_attribute)
    built = [twin.root]
    for node in document.nodes[1:]:
        copy = twin.new_node(node.kind, node.name, node.value)
        parent = built[node.parent.pre]
        if node.is_attribute:
            twin.set_attribute_node(parent, copy)
        else:
            twin.append_child(parent, copy)
        built.append(copy)
    twin.finalize()
    assert type(twin) is Document
    return twin


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
