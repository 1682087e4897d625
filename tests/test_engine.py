"""Tests for the engine facade: compilation, dispatch, variables, errors."""

import pytest

from repro.engine import ALGORITHMS, XPathEngine
from repro.errors import (
    FragmentViolationError,
    ReproError,
    UnboundVariableError,
    UnknownAlgorithmError,
    XPathSyntaxError,
)
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
