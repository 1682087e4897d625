"""Type conversions: the ``boolean``/``string``/``number`` rows of Figure 1.

These functions take a runtime value plus its static XPath type tag (one
of ``"nset"``, ``"num"``, ``"str"``, ``"bool"``). XPath 1.0 types are
statically known, so the evaluators always have the tag at hand; passing
it explicitly keeps the dispatch faithful to Figure 1's typed signatures
rather than sniffing Python types (``bool`` being an ``int`` subclass
makes sniffing error-prone anyway).

A node set is a collection of *members* read through two accessors:
``strval`` (member → string value) and ``numval`` (member →
``to_number`` of it). The defaults read boxed
:class:`~repro.xml.document.Node` members; the pre-plane evaluators hand
in node sets as pre ints together with a document's per-pre accessors
(:meth:`~repro.xml.document.Document.string_value_of_pre` /
:meth:`~repro.xml.document.Document.number_value_of_pre`) — one
conversion semantics for both planes.
"""

from __future__ import annotations

import math
from operator import attrgetter

from repro.values.numbers import NAN, number_to_string, to_number

#: The four XPath 1.0 static types.
TYPES = ("nset", "num", "str", "bool")

node_strval = attrgetter("string_value")


def node_numval(node) -> float:
    return to_number(node.string_value)


def _document_position(member) -> int:
    return member if member.__class__ is int else member.pre


def _first_in_document_order(members):
    """The first member (boxed node or pre int) in document order."""
    return min(members, key=_document_position, default=None)


def to_boolean(value, value_type: str) -> bool:
    """Figure 1's ``F[[boolean : t → bool]]``.

    * nset: nonempty;
    * num: neither ±0 nor NaN;
    * str: nonempty;
    * bool: identity.
    """
    if value_type == "bool":
        return value
    if value_type == "num":
        return not (value == 0 or math.isnan(value))
    if value_type == "str":
        return value != ""
    if value_type == "nset":
        return bool(value)
    raise ValueError(f"unknown XPath type: {value_type}")


def to_string_value(value, value_type: str, strval=node_strval) -> str:
    """Figure 1's ``F[[string : t → str]]``.

    * nset: the string value of the first node in document order, or ""
      for the empty set;
    * num: :func:`repro.values.numbers.number_to_string`;
    * bool: ``"true"``/``"false"``;
    * str: identity.
    """
    if value_type == "str":
        return value
    if value_type == "num":
        return number_to_string(value)
    if value_type == "bool":
        return "true" if value else "false"
    if value_type == "nset":
        first = _first_in_document_order(value)
        return "" if first is None else strval(first)
    raise ValueError(f"unknown XPath type: {value_type}")


def to_number_value(value, value_type: str, numval=node_numval) -> float:
    """Figure 1's ``F[[number : t → num]]``.

    * str: the XPath number grammar (else NaN);
    * bool: 1 or 0;
    * nset: ``number(string(nset))``;
    * num: identity.
    """
    if value_type == "num":
        return value
    if value_type == "str":
        return to_number(value)
    if value_type == "bool":
        return 1.0 if value else 0.0
    if value_type == "nset":
        first = _first_in_document_order(value)
        return NAN if first is None else numval(first)
    raise ValueError(f"unknown XPath type: {value_type}")


def convert(value, from_type: str, to_type: str):
    """Convert between XPath types (no conversion *to* nset exists)."""
    if to_type == from_type:
        return value
    if to_type == "bool":
        return to_boolean(value, from_type)
    if to_type == "str":
        return to_string_value(value, from_type)
    if to_type == "num":
        return to_number_value(value, from_type)
    raise ValueError(f"cannot convert {from_type} to {to_type}")
