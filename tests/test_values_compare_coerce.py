"""Tests for conversions (Figure 1's boolean/string/number rows) and the
comparison dispatch (§3.4 / Figure 1 RelOp/EqOp/GtOp rows)."""

import math

import pytest

from repro.values.coerce import to_boolean, to_number_value, to_string_value
from repro.values.compare import compare_values
from repro.xml.parser import parse_document


@pytest.fixture(scope="module")
def doc():
    return parse_document('<r><a id="1">10</a><a id="2">20</a><a id="3">x</a></r>')


def nodes(doc, *keys):
    """A node set: the pres of the elements with these ids."""
    return {doc.id_pre_map()[k] for k in keys}


def compare(doc, *operands):
    """``compare_values`` reading node-set members from ``doc``."""
    return compare_values(*operands, doc.string_value_of_pre, doc.number_value_of_pre)


# --- boolean() ------------------------------------------------------------

def test_boolean_of_numbers():
    assert to_boolean(1.0, "num") is True
    assert to_boolean(-0.5, "num") is True
    assert to_boolean(0.0, "num") is False
    assert to_boolean(-0.0, "num") is False
    assert to_boolean(float("nan"), "num") is False
    assert to_boolean(float("inf"), "num") is True


def test_boolean_of_strings():
    assert to_boolean("", "str") is False
    assert to_boolean("0", "str") is True  # nonempty, even though numerically 0
    assert to_boolean("false", "str") is True


def test_boolean_of_node_sets(doc):
    assert to_boolean(set(), "nset") is False
    assert to_boolean(nodes(doc, "1"), "nset") is True


# --- string() --------------------------------------------------------------

def test_string_of_node_set_takes_first_in_document_order(doc):
    assert to_string_value(nodes(doc, "2", "1"), "nset", doc.string_value_of_pre) == "10"
    assert to_string_value(set(), "nset", doc.string_value_of_pre) == ""


def test_string_of_scalars():
    assert to_string_value(4.0, "num") == "4"
    assert to_string_value(True, "bool") == "true"
    assert to_string_value(False, "bool") == "false"
    assert to_string_value("x", "str") == "x"


# --- number() ----------------------------------------------------------------

def test_number_of_scalars():
    assert to_number_value("12", "str") == 12.0
    assert math.isnan(to_number_value("x", "str"))
    assert to_number_value(True, "bool") == 1.0
    assert to_number_value(False, "bool") == 0.0


def test_number_of_node_set_goes_through_string(doc):
    numval = doc.number_value_of_pre
    assert to_number_value(nodes(doc, "1"), "nset", numval) == 10.0
    assert math.isnan(to_number_value(nodes(doc, "3"), "nset", numval))
    assert math.isnan(to_number_value(set(), "nset", numval))


# --- scalar comparisons --------------------------------------------------------

def test_equality_bool_dominates():
    # bool vs anything: other side converted to boolean.
    assert compare_values("=", True, "bool", "nonempty", "str") is True
    assert compare_values("=", False, "bool", "", "str") is True
    assert compare_values("=", True, "bool", 0.0, "num") is False
    assert compare_values("!=", True, "bool", 0.0, "num") is True


def test_equality_num_dominates_over_string():
    assert compare_values("=", 10.0, "num", "10", "str") is True
    assert compare_values("=", 10.0, "num", "x", "str") is False
    assert compare_values("!=", 10.0, "num", "x", "str") is True  # NaN != anything


def test_string_equality():
    assert compare_values("=", "a", "str", "a", "str") is True
    assert compare_values("!=", "a", "str", "b", "str") is True


def test_relational_always_numeric():
    # '10' < '9' as strings would be True lexicographically; XPath says
    # convert both to number: 10 < 9 is False.
    assert compare_values("<", "10", "str", "9", "str") is False
    assert compare_values(">", "10", "str", "9", "str") is True
    assert compare_values("<=", True, "bool", 1.0, "num") is True


def test_nan_relational_false():
    assert compare_values("<", "x", "str", "1", "str") is False
    assert compare_values(">=", "x", "str", "1", "str") is False


# --- node-set comparisons ----------------------------------------------------

def test_nset_vs_num_existential(doc):
    S = nodes(doc, "1", "2")
    assert compare(doc, "=", S, "nset", 20.0, "num") is True
    assert compare(doc, "=", S, "nset", 30.0, "num") is False
    assert compare(doc, "<", S, "nset", 15.0, "num") is True  # 10 < 15
    assert compare(doc, ">", S, "nset", 15.0, "num") is True  # 20 > 15
    assert compare(doc, ">", S, "nset", 25.0, "num") is False


def test_nset_with_unparsable_member(doc):
    S = nodes(doc, "3")  # strval "x" -> NaN
    assert compare(doc, "=", S, "nset", 0.0, "num") is False
    assert compare(doc, "!=", S, "nset", 0.0, "num") is True  # NaN != 0


def test_nset_vs_str(doc):
    S = nodes(doc, "1", "3")
    assert compare(doc, "=", S, "nset", "x", "str") is True
    assert compare(doc, "=", S, "nset", "y", "str") is False
    assert compare(doc, "!=", S, "nset", "x", "str") is True  # "10" != "x"
    # Relational vs string goes numeric: only "10" parses.
    assert compare(doc, "<", S, "nset", "11", "str") is True
    assert compare(doc, ">", S, "nset", "11", "str") is False


def test_nset_vs_bool(doc):
    assert compare(doc, "=", nodes(doc, "1"), "nset", True, "bool") is True
    assert compare(doc, "=", set(), "nset", False, "bool") is True
    assert compare(doc, "!=", set(), "nset", True, "bool") is True


def test_empty_nset_comparisons_always_false(doc):
    assert compare(doc, "=", set(), "nset", 0.0, "num") is False
    assert compare(doc, "!=", set(), "nset", 0.0, "num") is False
    assert compare(doc, "=", set(), "nset", "", "str") is False


def test_nset_vs_nset_equality(doc):
    S1 = nodes(doc, "1", "2")  # {"10","20"}
    S2 = nodes(doc, "2", "3")  # {"20","x"}
    assert compare(doc, "=", S1, "nset", S2, "nset") is True  # share "20"
    assert compare(doc, "=", nodes(doc, "1"), "nset", nodes(doc, "3"), "nset") is False


def test_nset_vs_nset_inequality_subtleties(doc):
    one = nodes(doc, "1")
    also_one = {next(iter(nodes(doc, "1")))}
    assert compare(doc, "!=", one, "nset", also_one, "nset") is False  # "10" != "10" has no witness
    assert compare(doc, "!=", nodes(doc, "1", "2"), "nset", one, "nset") is True


def test_nset_vs_nset_relational(doc):
    S1 = nodes(doc, "1")  # 10
    S2 = nodes(doc, "2")  # 20
    assert compare(doc, "<", S1, "nset", S2, "nset") is True
    assert compare(doc, ">", S1, "nset", S2, "nset") is False
    assert compare(doc, ">", S2, "nset", S1, "nset") is True
    # NaN members contribute nothing.
    assert compare(doc, "<", nodes(doc, "3"), "nset", S2, "nset") is False


def test_flipped_operand_order(doc):
    S = nodes(doc, "1", "2")
    # scalar RelOp nset must mirror nset RelOp scalar with flipped op.
    assert compare(doc, "<", 15.0, "num", S, "nset") is True  # 15 < 20
    assert compare(doc, ">", 25.0, "num", S, "nset") is True  # 25 > 10
    assert compare(doc, ">", 5.0, "num", S, "nset") is False
