"""API-surface tests: the documented public names import and work.

A downstream user's first contact is ``from repro import ...``; these
tests pin the supported surface so refactors cannot silently break it.
"""

import importlib

import pytest


def test_top_level_all_imports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_subpackage_all_imports():
    for module_name in ("repro.xml", "repro.axes", "repro.xpath", "repro.values", "repro.functions"):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


def test_readme_quickstart_verbatim():
    """The README's quickstart snippet must keep working as printed."""
    from repro import XPathEngine, parse_document

    doc = parse_document(
        """
      <library>
        <book year="2003"><title>XPath Evaluation</title><price>25</price></book>
        <book year="1999"><title>Data on the Web</title><price>45</price></book>
      </library>
    """,
        keep_whitespace_text=False,
    )
    engine = XPathEngine(doc)
    titles = engine.evaluate("//book[price < 40]/title")
    assert [n.string_value for n in titles] == ["XPath Evaluation"]
    assert engine.evaluate("sum(//price)") == 70.0
    compiled = engine.compile("//book[position() = last()]")
    assert (compiled.is_core_xpath, compiled.is_extended_wadler) == (False, True)
    assert compiled.best_algorithm() == "optmincontext"
    assert len(engine.evaluate("//book", algorithm="mincontext")) == 2


def test_module_docstring_example():
    """The repro.engine module docstring example."""
    from repro import XPathEngine, parse_document

    doc = parse_document("<a><b id='1'/><b id='2'/></a>")
    engine = XPathEngine(doc)
    nodes = engine.evaluate("/child::a/child::b[position() = last()]")
    assert [n.xml_id for n in nodes] == ["2"]


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_error_hierarchy_rooted_at_repro_error():
    import repro
    from repro.errors import (
        EvaluationError,
        FragmentViolationError,
        ReproError,
        UnknownFunctionError,
        WrongArityError,
        XMLSyntaxError,
        XPathSyntaxError,
        XPathTypeError,
    )
    from repro.xml.store import DocumentStoreError

    for error_type in (
        EvaluationError,
        FragmentViolationError,
        UnknownFunctionError,
        WrongArityError,
        XMLSyntaxError,
        XPathSyntaxError,
        XPathTypeError,
        DocumentStoreError,
    ):
        assert issubclass(error_type, ReproError), error_type


def test_cli_entry_point_module():
    from repro import cli

    parser = cli.build_parser()
    args = parser.parse_args(["//a", "--xml", "<a/>"])
    assert args.query == "//a"
