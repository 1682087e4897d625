"""XPath 1.0 value system.

The four XPath types of Section 2.2 — ``nset``, ``num``, ``str``,
``bool`` — are represented by collections of pre numbers (read through
their document's per-pre accessors), ``float``, ``str``, and ``bool``. This package implements the conversion
and comparison entries of the paper's Figure 1 (the "effective semantics
function" ``F``), deferring, as the paper does, to the W3C XPath 1.0
recommendation [18] for the precise rules (IEEE-754 numbers, NaN, the
number↔string grammar, and the node-set comparison semantics).
"""

from repro.values.numbers import (
    NAN,
    to_number,
    number_to_string,
    xpath_floor,
    xpath_ceiling,
    xpath_round,
)
from repro.values.coerce import to_boolean, to_number_value, to_string_value
from repro.values.compare import compare_values, RELATIONAL_OPS, EQUALITY_OPS

__all__ = [
    "NAN",
    "to_number",
    "number_to_string",
    "xpath_floor",
    "xpath_ceiling",
    "xpath_round",
    "to_boolean",
    "to_number_value",
    "to_string_value",
    "compare_values",
    "RELATIONAL_OPS",
    "EQUALITY_OPS",
]
