"""Hypothesis-driven differential testing: random documents × random
queries, every algorithm must agree (node-sets exactly, scalars NaN-aware).
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.axes.axes import KERNEL_MODES, kernel_mode_forced
from repro.engine import XPathEngine
from repro.workloads.documents import random_document
from repro.workloads.queries import random_full_query, random_query
from repro.xml.columns import ColumnDocument
from repro.xml.document import Document, Node
from repro.xml.snapshot import decode_snapshot, encode_snapshot

_ALGORITHMS = ("naive", "topdown", "mincontext", "optmincontext")


def _equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 100_000),
    st.integers(0, 100_000),
    st.integers(2, 20),
)
def test_algorithms_agree(doc_seed, query_seed, size):
    doc = random_document(random.Random(doc_seed), max_nodes=size)
    engine = XPathEngine(doc)
    query = random_query(random.Random(query_seed))
    compiled = engine.compile(query)
    outcomes = [
        (name, engine.evaluate(compiled, algorithm=name)) for name in _ALGORITHMS
    ]
    if compiled.is_core_xpath:
        outcomes.append(("corexpath", engine.evaluate(compiled, algorithm="corexpath")))
    baseline_name, baseline = outcomes[0]
    for name, value in outcomes[1:]:
        assert _equal(value, baseline), (
            f"{name} vs {baseline_name} on {query!r}\n{value!r}\n{baseline!r}"
        )


def _by_pre(value):
    """Nodes as pre numbers: comparable between a tree and its lazy twin."""
    if isinstance(value, list):
        return [node.pre if isinstance(node, Node) else node for node in value]
    return value


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 100_000),
    st.integers(0, 100_000),
    st.integers(2, 20),
)
def test_table_evaluators_agree_with_topdown_in_every_configuration(
    doc_seed, query_seed, size
):
    """The pre-plane table evaluators on the full grammar (position
    arithmetic, count(), string functions, id(), unions): forced
    ``mincontext`` / ``optmincontext`` equal the ``topdown`` oracle on
    the eager tree and on its lazy column twin, under every kernel mode."""
    doc = random_document(random.Random(doc_seed), max_nodes=size)
    lazy = decode_snapshot(encode_snapshot(doc))
    assert (type(doc), type(lazy)) == (Document, ColumnDocument)
    query = random_full_query(random.Random(query_seed))
    expected = _by_pre(XPathEngine(doc).evaluate(query, algorithm="topdown"))
    for mode in KERNEL_MODES:
        with kernel_mode_forced(mode):
            for document in (doc, lazy):
                engine = XPathEngine(document)
                for name in ("mincontext", "optmincontext"):
                    value = _by_pre(engine.evaluate(query, algorithm=name))
                    assert _equal(value, expected), (
                        f"{name} ({mode}, {type(document).__name__}) vs topdown "
                        f"on {query!r}\n{value!r}\n{expected!r}"
                    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 100_000))
def test_full_table_bottomup_agrees_on_tiny_documents(doc_seed, query_seed):
    """E↑ is Θ(|D|³) per table, so exercise it only on tiny inputs."""
    doc = random_document(random.Random(doc_seed), max_nodes=7)
    engine = XPathEngine(doc)
    query = random_query(random.Random(query_seed), max_steps=3)
    reference = engine.evaluate(query, algorithm="mincontext")
    full_tables = engine.evaluate(query, algorithm="bottomup")
    assert _equal(full_tables, reference), query
