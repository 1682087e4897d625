"""Reproduction of every worked example in the paper (DESIGN.md §4).

* EXP-F2  — the Figure 2 document structure;
* EXP-F4  — the Figure 4 context-value tables of the running example;
* EXP-F5  — the Figure 5 relevant-context-restricted tables (with the
            documented x24 typo corrected: Figure 4's own row ⟨x24,8,8⟩
            says ``self::* = 100`` is true at x24, strval(x24) = "100");
* EXP-E4  — Example 4's outermost node sets X and Y;
* EXP-E5  — Example 5's loop-restricted set X′;
* EXP-E9  — Example 9's OPTMINCONTEXT run, including the intermediate
            backward-propagation sets the paper spells out.
"""

import pytest

from repro.core.bottomup_paths import eval_bottomup_path, propagate_path_backwards
from repro.core.common import box_value
from repro.core.context import Context
from repro.core.mincontext import MinContextEvaluator
from repro.core.topdown import TopDownEvaluator
from repro.engine import XPathEngine
from repro.workloads.documents import running_example_document
from repro.workloads.queries import example9_query, running_example_query
from repro.xpath.fragments import find_bottomup_paths
from repro.xpath.normalize import normalize
from repro.xpath.parser import parse_xpath
from repro.xpath.relevance import compute_relevance


@pytest.fixture(scope="module")
def doc():
    return running_example_document()


@pytest.fixture(scope="module")
def engine(doc):
    return XPathEngine(doc)


def x(doc, number):
    """The paper's x_i notation."""
    node = doc.element_by_id(str(number))
    assert node is not None, f"x{number} missing"
    return node


def ids(nodes):
    return sorted(n.xml_id for n in nodes)


# --- EXP-F2: the document -------------------------------------------------------

def test_figure2_dom(doc):
    """dom = {x10, ..., x24} (the paper lists the nine elements)."""
    assert [e.xml_id for e in doc.elements()] == [
        "10", "11", "12", "13", "14", "21", "22", "23", "24",
    ]
    assert x(doc, 12).string_value == "21 22"
    assert x(doc, 24).string_value == "100"
    assert x(doc, 10).parent is doc.root


# --- EXP-F4/Figure 4: context-value tables of e ------------------------------------

QUERY_E = running_example_query()

#: Figure 4, table N2 (cn → result), nonempty rows.
FIGURE4_N2 = {
    "10": {"14", "21", "22", "23", "24"},
    "11": {"13", "14"},
    "21": {"23", "24"},
}

#: Figure 4, table N3 (cn, cp, cs → result) — all 14 rows.
FIGURE4_N3 = {
    ("11", 1, 8): False,
    ("12", 2, 8): False,
    ("13", 3, 8): False,
    ("14", 4, 8): True,
    ("21", 5, 8): True,
    ("22", 6, 8): True,
    ("23", 7, 8): True,
    ("24", 8, 8): True,
    ("12", 1, 3): False,
    ("13", 2, 3): True,
    ("14", 3, 3): True,
    ("22", 1, 3): False,
    ("23", 2, 3): True,
    ("24", 3, 3): True,
}

#: Figure 4, table N4 (position() > last()*0.5).
FIGURE4_N4 = {
    ("11", 1, 8): False,
    ("12", 2, 8): False,
    ("13", 3, 8): False,
    ("14", 4, 8): False,
    ("21", 5, 8): True,
    ("22", 6, 8): True,
    ("23", 7, 8): True,
    ("24", 8, 8): True,
    ("12", 1, 3): False,
    ("13", 2, 3): True,
    ("14", 3, 3): True,
    ("22", 1, 3): False,
    ("23", 2, 3): True,
    ("24", 3, 3): True,
}

#: Figure 4, table N5 (self::* = 100), keyed by (cn, cp, cs) like N3.
#: True exactly at x14 and x24 (strval "100") — including the row
#: ⟨x24, 8, 8⟩ the paper prints as "true" in Figure 4.
FIGURE4_N5_TRUE_NODES = {"14", "24"}


@pytest.fixture(scope="module")
def topdown_tables(doc):
    """Evaluate e with E↓ recording every context-value table."""
    ast = normalize(parse_xpath(QUERY_E))
    compute_relevance(ast)
    evaluator = TopDownEvaluator(doc)
    tables = evaluator.trace_tables(ast, Context(doc.root, 1, 1))
    return ast, tables


def test_figure4_final_result(engine):
    result = engine.evaluate(QUERY_E, algorithm="topdown")
    assert ids(result) == ["13", "14", "21", "22", "23", "24"]


def test_figure4_n2_rows(doc, engine):
    """Table N2: descendant::*[...] per context node."""
    for key, expected in FIGURE4_N2.items():
        got = engine.evaluate(
            "descendant::*[position() > last()*0.5 or self::* = 100]",
            context_node=x(doc, key),
            algorithm="topdown",
        )
        assert {n.xml_id for n in got} == expected, key
    # All other context nodes give the empty set.
    for key in ("12", "13", "14", "22", "23", "24"):
        got = engine.evaluate(
            "descendant::*[position() > last()*0.5 or self::* = 100]",
            context_node=x(doc, key),
            algorithm="topdown",
        )
        assert got == []


def _table_rows(ast, tables, node):
    rows = tables.get(node.uid, [])
    return {(c.node.xml_id, c.position, c.size): value for c, value in rows}


def test_figure4_n3_table(doc, topdown_tables):
    ast, tables = topdown_tables
    predicate = ast.steps[1].predicates[0]  # N3: the or-expression
    rows = _table_rows(ast, tables, predicate)
    expected = {k: v for k, v in FIGURE4_N3.items()}
    assert rows == expected


def test_figure4_n4_table(doc, topdown_tables):
    ast, tables = topdown_tables
    n4 = ast.steps[1].predicates[0].left
    rows = _table_rows(ast, tables, n4)
    assert rows == FIGURE4_N4


def test_figure4_n5_table(doc, topdown_tables):
    ast, tables = topdown_tables
    n5 = ast.steps[1].predicates[0].right
    rows = _table_rows(ast, tables, n5)
    assert set(rows) == set(FIGURE4_N3)  # same contexts as N3
    for (cn, _cp, _cs), value in rows.items():
        assert value is (cn in FIGURE4_N5_TRUE_NODES), cn


def test_figure4_n6_n7_tables(doc, topdown_tables):
    """N6 position() and N7 last()*0.5 values at the generated contexts."""
    ast, tables = topdown_tables
    n4 = ast.steps[1].predicates[0].left
    n6, n7 = n4.left, n4.right
    for (_, cp, _), value in _table_rows(ast, tables, n6).items():
        assert value == float(cp)
    for (_, _, cs), value in _table_rows(ast, tables, n7).items():
        assert value == cs * 0.5


# --- EXP-F5 / Example 3+5: MINCONTEXT's reduced tables ----------------------------------

def test_figure5_reduced_tables(doc):
    """MINCONTEXT stores N5/N8/N9 projected to their relevant context:
    N5 and N8 per context node (8 rows), N9 as a single row — and never
    materializes tables for the cp/cs-dependent nodes N3/N4/N6/N7."""
    ast = normalize(parse_xpath(QUERY_E))
    compute_relevance(ast)
    mc = MinContextEvaluator(doc)
    result = mc.evaluate(ast, Context(doc.root, 1, 1))
    assert ids(result) == ["13", "14", "21", "22", "23", "24"]

    predicate = ast.steps[1].predicates[0]
    n4, n5 = predicate.left, predicate.right
    n8, n9 = n5.left, n5.right

    # Figure 5's N5 table, with the x24 typo corrected: true at x14, x24.
    n5_rows = mc.boxed_table(n5)
    assert {key[0].xml_id: value for key, value in n5_rows.items()} == {
        "11": False, "12": False, "13": False, "14": True,
        "21": False, "22": False, "23": False, "24": True,
    }
    # Figure 5's N8 table: self::* maps every candidate to itself.
    n8_rows = mc.boxed_table(n8)
    for key, value in n8_rows.items():
        assert value == {key[0]}
    # Figure 5's N9 table: the constant 100, one row.
    assert mc.boxed_table(n9) == {(): 100.0}
    # No tables for position/size-dependent nodes (the cp/cs loop).
    assert predicate.uid not in mc.tables
    assert n4.uid not in mc.tables
    assert n4.left.uid not in mc.tables  # position()
    assert n4.right.uid not in mc.tables  # last()*0.5


# --- EXP-E4: outermost node sets ------------------------------------------------------

def test_example4_outermost_sets(doc):
    """X = {x10..x24} after /descendant::*, Y = the final six nodes."""
    ast = normalize(parse_xpath(QUERY_E))
    compute_relevance(ast)
    mc = MinContextEvaluator(doc)
    first = mc._eval_step_from_set(ast.steps[0], [doc.root.pre])
    assert ids(box_value(doc, first, "nset")) == [
        "10", "11", "12", "13", "14", "21", "22", "23", "24",
    ]
    second = mc._eval_step_from_set(ast.steps[1], first)
    assert ids(box_value(doc, second, "nset")) == ["13", "14", "21", "22", "23", "24"]


# --- EXP-E5: the (cp, cs) loop ---------------------------------------------------------

def test_example5_loop_context(doc, engine):
    """Example 5 spotlights the context ⟨x23, 7, 8⟩: the predicate holds
    there (position 7 > 8*0.5), so x23 enters X′."""
    result = engine.evaluate(QUERY_E, algorithm="mincontext")
    assert "23" in {n.xml_id for n in result}
    predicate_value = engine.evaluate(
        "position() > last()*0.5 or self::* = 100",
        context_node=x(doc, 23),
        context_position=7,
        context_size=8,
        algorithm="mincontext",
    )
    assert predicate_value is True


# --- EXP-E9: Example 9, OPTMINCONTEXT ----------------------------------------------------

QUERY_Q = example9_query()


def test_example9_final_result(engine):
    result = engine.evaluate(QUERY_Q, algorithm="optmincontext")
    assert ids(result) == ["11", "12", "13", "14", "22"]


def test_example9_rho_bottomup_table(doc):
    """ρ = preceding-sibling::*/preceding::* compared to 100: the paper
    computes Y = {x14, x24} → following → {x21..x24} → following-sibling
    → {x23, x24}; table(N8) is true exactly there."""
    ast = normalize(parse_xpath(QUERY_Q))
    compute_relevance(ast)
    mc = MinContextEvaluator(doc)
    paths = find_bottomup_paths(ast)
    rho_comparison = paths[0]
    eval_bottomup_path(mc, rho_comparison)
    rows = mc.boxed_table(rho_comparison)
    true_nodes = {key[0].xml_id for key, value in rows.items() if value}
    assert true_nodes == {"23", "24"}


def test_example9_rho_propagation_steps(doc):
    """The two backward steps the paper walks through explicitly."""
    ast = normalize(parse_xpath(QUERY_Q))
    compute_relevance(ast)
    mc = MinContextEvaluator(doc)
    rho = find_bottomup_paths(ast)[0]
    # Locate the path side of ρ = 100.
    path = rho.left if hasattr(rho.left, "steps") else rho.right
    initial = sorted(node.pre for node in (x(doc, 14), x(doc, 24)))
    result = propagate_path_backwards(mc, path, initial)
    assert ids(box_value(doc, result, "nset")) == ["23", "24"]


def test_example9_pi_boolean_table(doc):
    """boolean(π) is true exactly at X = {x11, x12, x13, x14, x22}.

    (The paper's prose claims x14 also survives π's predicate — it does
    not, e2 is false at x14 — but the final propagated X is the same
    either way; see EXPERIMENTS.md for the analysis.)"""
    ast = normalize(parse_xpath(QUERY_Q))
    compute_relevance(ast)
    mc = MinContextEvaluator(doc)
    for node in find_bottomup_paths(ast):
        eval_bottomup_path(mc, node)
    boolean_pi = find_bottomup_paths(ast)[1]
    rows = mc.boxed_table(boolean_pi)
    # The table covers all of dom (text nodes included); the paper's X is
    # its restriction to the elements.
    true_elements = {
        key[0].xml_id for key, value in rows.items() if value and key[0].is_element
    }
    assert true_elements == {"11", "12", "13", "14", "22"}


def test_example9_outermost_composition(doc, engine):
    """child::a yields {x10}; descendant::* yields dom − {x10}; the
    intersection with X gives the final answer."""
    assert ids(engine.evaluate("/child::a")) == ["10"]
    assert ids(engine.evaluate("/child::a/descendant::*")) == [
        "11", "12", "13", "14", "21", "22", "23", "24",
    ]


def test_example9_all_algorithms_agree(engine):
    expected = ["11", "12", "13", "14", "22"]
    for algorithm in ("naive", "topdown", "bottomup", "mincontext", "optmincontext"):
        assert ids(engine.evaluate(QUERY_Q, algorithm=algorithm)) == expected, algorithm
