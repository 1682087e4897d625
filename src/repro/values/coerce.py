"""Type conversions: the ``boolean``/``string``/``number`` rows of Figure 1.

These functions take a runtime value plus its static XPath type tag (one
of ``"nset"``, ``"num"``, ``"str"``, ``"bool"``). XPath 1.0 types are
statically known, so the evaluators always have the tag at hand; passing
it explicitly keeps the dispatch faithful to Figure 1's typed signatures
rather than sniffing Python types (``bool`` being an ``int`` subclass
makes sniffing error-prone anyway).

A node set is a collection of pre numbers, its *members*, read through
an accessor of their document:
:meth:`~repro.xml.document.Document.string_value_of_pre` (``strval``) or
:meth:`~repro.xml.document.Document.number_value_of_pre` (``numval``).
The first member in document order is the smallest pre. The accessor is
read only for a node set, so scalar conversions need none.
"""

from __future__ import annotations

import math

from repro.values.numbers import NAN, number_to_string, to_number

#: The four XPath 1.0 static types.
TYPES = ("nset", "num", "str", "bool")

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


def to_string_value(value, value_type: str, strval=None) -> str:
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
        return strval(min(value)) if value else ""
    raise ValueError(f"unknown XPath type: {value_type}")


def to_number_value(value, value_type: str, numval=None) -> float:
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
        return numval(min(value)) if value else NAN
    raise ValueError(f"unknown XPath type: {value_type}")

