"""Tests for the core function library (W3C §4 / Figure 1 F rows)."""

import math

import pytest

from repro.errors import UnknownFunctionError, WrongArityError
from repro.functions.library import apply_function, signature_for
from repro.xml.parser import parse_document


@pytest.fixture(scope="module")
def doc():
    return parse_document(
        '<r id="r" xml:lang="en">'
        '<a id="1">10</a>'
        '<a id="2">20</a>'
        '<b id="3">1 r</b>'
        '<c id="4" xml:lang="de-AT"><d id="5"/></c>'
        "</r>"
    )


def pre(doc, key):
    return doc.id_pre_map()[key]


def nset(doc, *keys):
    """A node set: the pres of the elements with these ids."""
    return {pre(doc, k) for k in keys}


def call(doc, name, *args, context_pre=None):
    return apply_function(doc, name, list(args), context_pre)


# --- signatures -----------------------------------------------------------

def test_signature_lookup_and_unknown():
    assert signature_for("count").returns == "num"
    with pytest.raises(UnknownFunctionError):
        signature_for("frobnicate")


def test_arity_checking():
    signature_for("count").check_arity(1)
    with pytest.raises(WrongArityError):
        signature_for("count").check_arity(0)
    with pytest.raises(WrongArityError):
        signature_for("count").check_arity(2)
    signature_for("concat").check_arity(5)  # variadic
    with pytest.raises(WrongArityError):
        signature_for("concat").check_arity(1)
    signature_for("substring").check_arity(2)  # optional third
    signature_for("substring").check_arity(3)
    signature_for("string").check_arity(0)  # defaults to context


# --- node-set functions ------------------------------------------------------

def test_count(doc):
    assert call(doc, "count", nset(doc, "1", "2")) == 2.0
    assert call(doc, "count", set()) == 0.0


def test_sum(doc):
    assert call(doc, "sum", nset(doc, "1", "2")) == 30.0
    assert call(doc, "sum", set()) == 0.0
    assert math.isnan(call(doc, "sum", nset(doc, "1", "3")))  # "1 r" -> NaN


def test_id_with_string(doc):
    assert call(doc, "id", "1 4 nothing") == sorted(nset(doc, "1", "4"))


def test_id_with_node_set(doc):
    # id(nset): union of deref over members' string values ("1 r").
    assert call(doc, "id", nset(doc, "3")) == sorted(nset(doc, "1", "r"))


def test_name_functions(doc):
    assert call(doc, "name", nset(doc, "1")) == "a"
    assert call(doc, "local-name", nset(doc, "1", "2")) == "a"
    assert call(doc, "name", set()) == ""
    assert call(doc, "namespace-uri", nset(doc, "1")) == ""


def test_local_name_strips_prefix():
    doc = parse_document("<ns:x/>")
    root = doc.root_element.pre
    assert call(doc, "name", {root}) == "ns:x"
    assert call(doc, "local-name", {root}) == "x"


# --- string functions ---------------------------------------------------------

def test_string_conversion(doc):
    assert call(doc, "string", 4.5) == "4.5"
    assert call(doc, "string", nset(doc, "1")) == "10"
    assert call(doc, "string", True) == "true"


def test_concat(doc):
    assert call(doc, "concat", "a", "b", "c") == "abc"


def test_starts_with_contains(doc):
    assert call(doc, "starts-with", "hello", "he") is True
    assert call(doc, "starts-with", "hello", "lo") is False
    assert call(doc, "contains", "hello", "ell") is True
    assert call(doc, "contains", "hello", "") is True


def test_substring_before_after(doc):
    assert call(doc, "substring-before", "1999/04/01", "/") == "1999"
    assert call(doc, "substring-after", "1999/04/01", "/") == "04/01"
    assert call(doc, "substring-before", "abc", "x") == ""
    assert call(doc, "substring-after", "abc", "x") == ""


def test_substring_spec_examples(doc):
    # The infamous W3C §4.2 examples.
    assert call(doc, "substring", "12345", 2.0, 3.0) == "234"
    assert call(doc, "substring", "12345", 2.0) == "2345"
    assert call(doc, "substring", "12345", 1.5, 2.6) == "234"
    assert call(doc, "substring", "12345", 0.0, 3.0) == "12"
    assert call(doc, "substring", "12345", float("nan"), 3.0) == ""
    assert call(doc, "substring", "12345", 1.0, float("nan")) == ""
    assert call(doc, "substring", "12345", -42.0, float("inf")) == "12345"
    assert call(doc, "substring", "12345", float("-inf"), float("inf")) == ""


def test_string_length(doc):
    assert call(doc, "string-length", "hello") == 5.0
    assert call(doc, "string-length", "") == 0.0


def test_normalize_space(doc):
    assert call(doc, "normalize-space", "  a \t b\n c ") == "a b c"


def test_translate(doc):
    assert call(doc, "translate", "bar", "abc", "ABC") == "BAr"
    assert call(doc, "translate", "--aaa--", "abc-", "ABC") == "AAA"
    # First occurrence in the from-string wins.
    assert call(doc, "translate", "aaa", "aa", "xy") == "xxx"


# --- boolean functions -----------------------------------------------------------

def test_boolean_and_not(doc):
    assert call(doc, "boolean", nset(doc, "1")) is True
    assert call(doc, "boolean", 0.0) is False
    assert call(doc, "not", True) is False
    assert call(doc, "true") is True
    assert call(doc, "false") is False


def test_lang(doc):
    d5 = pre(doc, "5")
    # Nearest xml:lang is de-AT (on c[4]).
    assert call(doc, "lang", "de", context_pre=d5) is True
    assert call(doc, "lang", "de-AT", context_pre=d5) is True
    assert call(doc, "lang", "en", context_pre=d5) is False
    a1 = pre(doc, "1")
    assert call(doc, "lang", "EN", context_pre=a1) is True  # case-insensitive
    assert call(doc, "lang", "fr", context_pre=a1) is False
    assert call(doc, "lang", "e", context_pre=a1) is False  # not a prefix match


# --- number functions -------------------------------------------------------------

def test_number_conversion(doc):
    assert call(doc, "number", "12") == 12.0
    assert call(doc, "number", nset(doc, "2")) == 20.0
    assert call(doc, "number", True) == 1.0


def test_floor_ceiling_round(doc):
    assert call(doc, "floor", 2.6) == 2.0
    assert call(doc, "ceiling", 2.2) == 3.0
    assert call(doc, "round", 2.5) == 3.0
    assert call(doc, "round", -2.5) == -2.0


def test_position_last_rejected_as_value_functions(doc):
    from repro.errors import UnknownFunctionError as UFE

    with pytest.raises(Exception):
        call(doc, "position")


def test_apply_unknown_function(doc):
    with pytest.raises(UnknownFunctionError):
        call(doc, "nope")
