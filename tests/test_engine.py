"""Tests for the engine facade: compilation, dispatch, variables, errors."""

import pytest

from repro.engine import ALGORITHMS, XPathEngine
from repro.errors import (
    EvaluationError,
    FragmentViolationError,
    ReproError,
    UnboundVariableError,
    UnknownAlgorithmError,
    XPathSyntaxError,
    XPathTypeError,
    error_code,
)
from repro.service import Memo, QueryService
from repro.xml.parser import parse_document


@pytest.fixture()
def engine():
    return XPathEngine(parse_document('<a id="1"><b id="2">10</b><b id="3">20</b></a>'))


def test_compile_exposes_analysis(engine):
    compiled = engine.compile("//b[position() = 1]")
    assert compiled.result_type == "nset"
    assert not compiled.is_core_xpath
    assert compiled.is_extended_wadler
    assert compiled.best_algorithm() == "optmincontext"


def test_compile_core_query_dispatches_to_corexpath(engine):
    compiled = engine.compile("/a/b")
    assert compiled.is_core_xpath
    assert compiled.best_algorithm() == "corexpath"
    assert [n.xml_id for n in engine.evaluate("/a/b")] == ["2", "3"]


def test_compile_caches(engine):
    first = engine.compile("//b")
    second = engine.compile("//b")
    assert first is second


def test_corexpath_rejected_outside_fragment(engine):
    with pytest.raises(FragmentViolationError):
        engine.evaluate("//b[1]", algorithm="corexpath")


def test_unknown_algorithm_rejected(engine):
    with pytest.raises(ValueError):
        engine.evaluate("//b", algorithm="quantum")


def test_unknown_algorithm_raises_typed_repro_error(engine):
    """Regression: unknown algorithm names must raise a single typed
    ReproError subclass, not a bare ValueError — so `except ReproError`
    callers (the CLI) report it instead of crashing."""
    with pytest.raises(UnknownAlgorithmError) as excinfo:
        engine.evaluate("//b", algorithm="quantum")
    assert isinstance(excinfo.value, ReproError)
    assert excinfo.value.algorithm == "quantum"
    assert excinfo.value.choices == ALGORITHMS
    assert "quantum" in str(excinfo.value)


def test_unknown_algorithm_error_survives_pickling(engine):
    """Worker pools re-raise exceptions across process boundaries."""
    import pickle

    with pytest.raises(UnknownAlgorithmError) as excinfo:
        engine.evaluate("//b", algorithm="quantum")
    roundtripped = pickle.loads(pickle.dumps(excinfo.value))
    assert roundtripped.algorithm == "quantum"
    assert roundtripped.choices == ALGORITHMS
    assert str(roundtripped) == str(excinfo.value)


def test_all_declared_algorithms_run(engine):
    for algorithm in ALGORITHMS:
        if algorithm == "corexpath":
            result = engine.evaluate("/a/b", algorithm=algorithm)
        else:
            result = engine.evaluate("/a/b", algorithm=algorithm)
        assert [n.xml_id for n in result] == ["2", "3"], algorithm


def test_variables_flow_through(engine):
    engine_with_vars = XPathEngine(engine.document, variables={"limit": 15})
    got = engine_with_vars.evaluate("//b[. > $limit]")
    assert [n.xml_id for n in got] == ["3"]


def test_a_foreign_node_set_variable_is_accepted_only_as_the_whole_query(engine):
    """One rule for every evaluator: ``$v`` bound to another document's
    nodes is returned as it is when it is the whole query, and refused
    as an operand, where this document's pre numbers cannot name its
    nodes. Core XPath has no variables, so ``corexpath`` refuses both as
    outside its fragment."""
    other = parse_document("<x><y/><y/></x>")
    foreign = XPathEngine(engine.document, variables={"v": other.nodes[2:]})
    for algorithm in ALGORITHMS:
        if algorithm == "corexpath":
            for query in ("$v", "count($v)"):
                with pytest.raises(FragmentViolationError):
                    foreign.evaluate(query, algorithm=algorithm)
            continue
        result = foreign.evaluate("$v", algorithm=algorithm)
        assert [node.pre for node in result] == [2, 3], algorithm
        assert all(node.document is other for node in result), algorithm
        with pytest.raises(EvaluationError):
            foreign.evaluate("count($v)", algorithm=algorithm)


def test_a_node_set_binding_must_hold_nodes_of_one_document(engine):
    """A node-set binding is checked once, when the normalizer builds its
    value: a member that is no node, or members of two documents, is an
    ``XPathTypeError`` (wire code ``QUERY_TYPE``) for every query that
    reads it, under every evaluator, through the engine and the service
    alike."""
    document = engine.document
    other = parse_document("<x><y/><y/></x>")
    refused = {
        "ints": [1, 2],
        "a node and an int": [document.nodes[1], 2],
        "two documents": {document.nodes[1], other.nodes[2], document.nodes[3]},
    }
    for label, binding in refused.items():
        bound = XPathEngine(document, variables={"v": binding})
        service = QueryService(variables={"v": binding})
        for query in ("$v", "count($v)", "$v | //b"):
            for algorithm in ALGORITHMS:
                with pytest.raises(XPathTypeError) as raised:
                    bound.evaluate(query, algorithm=algorithm)
                assert error_code(raised.value) == "QUERY_TYPE", (label, query)
                with pytest.raises(XPathTypeError):
                    service.evaluate(query, document, algorithm=algorithm)


def test_a_node_set_binding_is_read_in_document_order(engine):
    """One document's nodes in any order, repeats and all, bind as a set,
    and an empty binding, which names no document, as the empty set: the
    same answers under every evaluator outside Core XPath, from the
    engine and the service."""
    nodes = engine.document.nodes
    for binding, pres in (([nodes[3], nodes[1], nodes[3], nodes[6]], [1, 3, 6]), ([], [])):
        bound = XPathEngine(engine.document, variables={"v": binding})
        service = QueryService(variables={"v": binding})
        for algorithm in ALGORITHMS:
            if algorithm == "corexpath":
                continue
            for evaluate in (
                lambda query: bound.evaluate(query, algorithm=algorithm),
                lambda query: service.evaluate(query, engine.document, algorithm=algorithm),
            ):
                assert [node.pre for node in evaluate("$v")] == pres, algorithm
                assert evaluate("count($v)") == len(pres), algorithm
                union = evaluate("$v | //b")
                assert [node.pre for node in union] == sorted({*pres, 3, 6}), algorithm


def test_a_same_document_variable_unions_with_a_path(engine):
    """``$v | //b`` with ``$v`` bound to this document's nodes: every
    evaluator outside Core XPath merges the two sets in document order,
    MINCONTEXT and OPTMINCONTEXT too (the variable operand is no path)."""
    bound = XPathEngine(engine.document, variables={"v": engine.document.nodes[1:2]})
    for algorithm in ALGORITHMS:
        if algorithm == "corexpath":
            continue
        result = bound.evaluate("$v | //b", algorithm=algorithm)
        assert [node.pre for node in result] == [1, 3, 6], algorithm


def test_changing_or_rebinding_variables_changes_the_answer(engine):
    """The plan cache keys by text *and* bindings: a compiled plan has
    its variables substituted, so a text-only key answered with the
    first binding forever."""
    engine_with_vars = XPathEngine(engine.document, variables={"x": 1.0})
    assert engine_with_vars.evaluate("$x + 0") == 1.0
    engine_with_vars.variables["x"] = 5.0
    assert engine_with_vars.evaluate("$x + 0") == 5.0
    engine_with_vars.variables = {"x": 7.0}
    assert engine_with_vars.evaluate("$x + 0") == 7.0
    # Rebinding back to a seen value reuses that plan.
    engine_with_vars.variables = {"x": 1.0}
    assert engine_with_vars.evaluate("$x + 0") == 1.0
    assert engine_with_vars.plans.stats.snapshot()["hits"] == 1


def test_plan_cache_is_bounded_at_the_service_default(engine):
    capacity = Memo.DEFAULT_CAPACITY
    assert QueryService().plans.capacity == capacity
    for index in range(capacity + 10):
        engine.compile(f"count(//b) + {index}")
    assert len(engine.plans) == capacity
    assert engine.plans.stats.snapshot()["evictions"] == 10


def test_unbound_variable_raises(engine):
    with pytest.raises(UnboundVariableError):
        engine.evaluate("//b[. > $nope]")


def test_syntax_error_propagates(engine):
    with pytest.raises(XPathSyntaxError):
        engine.evaluate("//b[")


def test_default_context_is_document_root(engine):
    relative = engine.evaluate("a/b")
    assert [n.xml_id for n in relative] == ["2", "3"]


def test_select_requires_node_set(engine):
    assert engine.select("//b")
    with pytest.raises(ReproError):
        engine.select("count(//b)")


def test_scalar_query_types(engine):
    assert engine.evaluate("count(//b)") == 2.0
    assert engine.evaluate("string(//b[2])") == "20"
    assert engine.evaluate("boolean(//b)") is True
    assert isinstance(engine.evaluate("count(//b)"), float)


def test_compiled_query_reuse_across_contexts(engine):
    compiled = engine.compile("following-sibling::b")
    b2 = engine.document.element_by_id("2")
    got = engine.evaluate(compiled, context_node=b2)
    assert [n.xml_id for n in got] == ["3"]
    b3 = engine.document.element_by_id("3")
    assert engine.evaluate(compiled, context_node=b3) == []


def test_invalid_context_position_rejected(engine):
    with pytest.raises(ValueError):
        engine.evaluate("position()", context_position=5, context_size=2)
