"""Complexity smoke tests: abstract operation counts must scale the way the
theorems promise (coarse ratios on two document sizes — the full curves
live in the benchmark harness)."""

import pytest

from repro import stats
from repro.engine import XPathEngine
from repro.workloads.documents import (
    doubling_document,
    numbered_line,
    wide_tree,
)
from repro.workloads.queries import core_family, doubling_query, wadler_family


def measure(engine, query, algorithm, counter=None):
    with stats.collect() as collected:
        engine.evaluate(query, algorithm=algorithm)
    return collected


def test_exponential_naive_vs_flat_mincontext():
    """EXP-X1's mechanism: +2 doubling pairs ≈ ×4 naive work; MINCONTEXT
    grows linearly in |Q|."""
    engine = XPathEngine(doubling_document())
    naive_counts = [
        measure(engine, doubling_query(pairs), "naive").get("naive_step_contexts")
        for pairs in (4, 6, 8)
    ]
    assert naive_counts[1] / naive_counts[0] > 3.0
    assert naive_counts[2] / naive_counts[1] > 3.0
    min_counts = [
        measure(engine, doubling_query(pairs), "mincontext").get(
            "mincontext_contexts_evaluated"
        )
        for pairs in (4, 8)
    ]
    assert min_counts[1] <= min_counts[0] * 3  # linear-ish in |Q|


def test_wadler_space_is_linear_in_document():
    """Theorem 10: peak live table cells grow ~linearly with |D| for
    Extended Wadler queries under OPTMINCONTEXT."""
    query = wadler_family(2)
    peaks = []
    for width in (20, 40, 80):
        engine = XPathEngine(numbered_line(width))
        collected = measure(engine, query, "optmincontext")
        peaks.append(collected.peak_table_cells)
    # Doubling |D| should at most ~double+slack the peak, never square it.
    assert peaks[1] <= peaks[0] * 3.0
    assert peaks[2] <= peaks[1] * 3.0


def test_topdown_space_grows_faster_than_mincontext():
    """Section 3's headline: E↓ materializes every predicate context as a
    table row; MINCONTEXT's loop keeps the live cell count far smaller."""
    query = "/child::*/child::*[position() > last()*0.5]"
    engine = XPathEngine(wide_tree(60))
    topdown = measure(engine, query, "topdown").peak_table_cells
    mincontext = measure(engine, query, "mincontext").peak_table_cells
    assert mincontext * 5 < topdown


def test_corexpath_linear_steps():
    """Theorem 13: the Core XPath evaluator performs O(|π|) set sweeps,
    independent of |D|."""
    query = core_family(3)
    for width in (10, 80):
        engine = XPathEngine(wide_tree(width))
        collected = measure(engine, query, "corexpath")
        assert collected.get("corexpath_steps") <= 20


def test_bottomup_full_tables_are_cubic():
    """Section 3.1: strict E↑ tabulates Θ(|D|³) rows for scalar nodes."""
    engine_small = XPathEngine(wide_tree(4))   # |dom| = 4 + root + texts + attrs
    engine_large = XPathEngine(wide_tree(8))
    query = "//*[position() = 1]"
    small = measure(engine_small, query, "bottomup").get("bottomup_table_rows")
    large = measure(engine_large, query, "bottomup").get("bottomup_table_rows")
    d_small = len(engine_small.document.nodes)
    d_large = len(engine_large.document.nodes)
    ratio = large / small
    expected = (d_large / d_small) ** 3
    assert ratio > expected * 0.4  # cubic growth, generous slack


def test_mincontext_tables_linear_per_node():
    """Theorem 7's space proof: every stored table has at most |dom| rows
    — on every cell of the golden-counter grid, for MINCONTEXT's own
    tables and for the ones OPTMINCONTEXT's bottom-up pass pre-fills."""
    from test_table_counters_golden import DOCUMENTS, GRID, bindings

    from repro.core.context import Context
    from repro.core.mincontext import MinContextEvaluator
    from repro.core.optmincontext import OptMinContextEvaluator

    documents = {name: build() for name, build in DOCUMENTS.items()}
    variables = {name: bindings(doc) for name, doc in documents.items()}
    for name, query in GRID:
        doc = documents[name]
        ast = XPathEngine(doc, variables=variables[name]).compile(query).ast
        for evaluator in (MinContextEvaluator(doc), OptMinContextEvaluator(doc)):
            evaluator.evaluate(ast, Context(doc.root))
            mc = getattr(evaluator, "mincontext", evaluator)
            for uid, table in mc.tables.items():
                assert len(table) <= len(doc.nodes), (name, query, uid)
