"""Shared fixtures: paper documents, engines, and cross-algorithm helpers."""

from __future__ import annotations

import asyncio
import contextlib
import threading

import pytest

from repro.engine import XPathEngine
from repro.serve import XPathDaemon
from repro.serve.admission import AdmissionController
from repro.workloads.documents import (
    book_catalog,
    doubling_document,
    running_example_document,
)
from repro.xml.statistics import DocumentStatistics

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


def per_node_statistics(document) -> DocumentStatistics:
    """``document_statistics`` as it was before it read the index: one
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


def walked_path(node) -> str:
    """``node.path()`` by recounting each step's earlier same-kind,
    same-name siblings — independent of the document's per-pre memo."""
    parent = node.parent
    if parent is None:
        return "/"
    if node.is_attribute:
        return f"{walked_path(parent)}/@{node.name}"
    siblings = parent.children[: node.child_index + 1]
    number = sum(s.kind is node.kind and s.name == node.name for s in siblings)
    labels = {"element": node.name, "text": "text()", "comment": "comment()"}
    label = labels.get(node.kind.value, f"processing-instruction({node.name})")
    prefix = "" if parent.is_document else walked_path(parent)
    return f"{prefix}/{label}[{number}]"


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


@contextlib.contextmanager
def running_daemon(**kwargs):
    """A daemon on its own loop thread; drains and joins on exit."""
    holder = {}
    ready = threading.Event()

    def run():
        async def main():
            daemon = XPathDaemon(**kwargs)
            await daemon.start()
            holder["daemon"] = daemon
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            await daemon.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "daemon failed to start"
    try:
        yield holder["daemon"]
    finally:
        with contextlib.suppress(RuntimeError):
            holder["loop"].call_soon_threadsafe(holder["daemon"].initiate_drain)
        thread.join(15)
        assert not thread.is_alive(), "daemon loop failed to drain"


def permissive(service, **overrides):
    """An admission controller that admits everything (tests that want
    to reach evaluation, deadlines, or faults without pricing noise)."""
    defaults = dict(seconds_per_unit=1e-12, max_cost_seconds=60.0)
    defaults.update(overrides)
    return AdmissionController(service, **defaults)
