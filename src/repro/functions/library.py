"""Core library registry: signatures + implementations.

Each function has a :class:`Signature` describing parameter types (one of
``nset num str bool object``), optional/variadic tails, the return type,
and whether the zero-argument form defaults to the context node. The
normalizer uses signatures to insert explicit conversions; evaluators call
:func:`apply_function` with already-evaluated argument values.

``position()`` and ``last()`` are *not* dispatched here — they are
context-component accessors handled specially by every evaluator (their
``Relev`` is ``{'cp'}``/``{'cs'}``, Section 3.1). They still get
signatures so arity checking is uniform.

``lang()`` is the one function that needs the context *node* in addition
to its argument; evaluators pass its pre number via ``context_pre``.

A node-set argument is a collection of pre numbers of ``document``, and
``id`` returns a sorted pre list. The functions read members from the
document: ``string`` / ``number`` / ``sum`` / ``id`` through its per-pre
string and number values, ``name`` / ``local-name`` from its name column,
``lang`` from its attribute runs and parent column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import UnknownFunctionError, WrongArityError
from repro.values.coerce import to_boolean, to_number_value, to_string_value
from repro.values.numbers import (
    xpath_ceiling,
    xpath_floor,
    xpath_round,
)
from repro.xml.columns import ELEM
from repro.xml.document import Document


@dataclass(frozen=True)
class Signature:
    """Static description of one core-library function."""

    name: str
    params: tuple[str, ...]
    returns: str
    #: Number of trailing params that may be omitted.
    optional: int = 0
    #: Last parameter may repeat (concat).
    variadic: bool = False
    #: Zero-arg call means "apply to the context node" (string(), name(), ...).
    defaults_to_context: bool = False
    #: Needs the context node at runtime even with all args present (lang()).
    context_node_dependent: bool = False

    def check_arity(self, count: int) -> None:
        minimum = len(self.params) - self.optional
        if self.defaults_to_context:
            minimum = 0
        if self.variadic:
            if count < len(self.params):
                raise WrongArityError(self.name, count, f"at least {len(self.params)}")
            return
        if count < minimum or count > len(self.params):
            if minimum == len(self.params):
                expected = str(len(self.params))
            else:
                expected = f"{minimum}..{len(self.params)}"
            raise WrongArityError(self.name, count, expected)


def _sig(
    name: str,
    params: tuple[str, ...],
    returns: str,
    optional: int = 0,
    variadic: bool = False,
    defaults_to_context: bool = False,
    context_node_dependent: bool = False,
) -> Signature:
    return Signature(
        name, params, returns, optional, variadic, defaults_to_context, context_node_dependent
    )


FUNCTION_LIBRARY: dict[str, Signature] = {
    sig.name: sig
    for sig in (
        # --- node-set functions (§4.1) ---
        _sig("last", (), "num"),
        _sig("position", (), "num"),
        _sig("count", ("nset",), "num"),
        _sig("id", ("object",), "nset"),
        _sig("local-name", ("nset",), "str", defaults_to_context=True),
        _sig("namespace-uri", ("nset",), "str", defaults_to_context=True),
        _sig("name", ("nset",), "str", defaults_to_context=True),
        # --- string functions (§4.2) ---
        _sig("string", ("object",), "str", defaults_to_context=True),
        _sig("concat", ("str", "str"), "str", variadic=True),
        _sig("starts-with", ("str", "str"), "bool"),
        _sig("contains", ("str", "str"), "bool"),
        _sig("substring-before", ("str", "str"), "str"),
        _sig("substring-after", ("str", "str"), "str"),
        _sig("substring", ("str", "num", "num"), "str", optional=1),
        _sig("string-length", ("str",), "num", defaults_to_context=True),
        _sig("normalize-space", ("str",), "str", defaults_to_context=True),
        _sig("translate", ("str", "str", "str"), "str"),
        # --- boolean functions (§4.3) ---
        _sig("boolean", ("object",), "bool"),
        _sig("not", ("bool",), "bool"),
        _sig("true", (), "bool"),
        _sig("false", (), "bool"),
        _sig("lang", ("str",), "bool", context_node_dependent=True),
        # --- number functions (§4.4) ---
        _sig("number", ("object",), "num", defaults_to_context=True),
        _sig("sum", ("nset",), "num"),
        _sig("floor", ("num",), "num"),
        _sig("ceiling", ("num",), "num"),
        _sig("round", ("num",), "num"),
    )
}


def signature_for(name: str) -> Signature:
    """Look up a signature; unknown names raise
    :class:`repro.errors.UnknownFunctionError`."""
    signature = FUNCTION_LIBRARY.get(name)
    if signature is None:
        raise UnknownFunctionError(name)
    return signature


# ----------------------------------------------------------------------
# Implementations
# ----------------------------------------------------------------------


def _fn_count(document: Document, args, context_pre):
    return float(len(args[0]))


def _fn_sum(document: Document, args, context_pre):
    # Figure 1: Σ_{n∈S} to_number(strval(n)); an unparsable value makes
    # the whole sum NaN (IEEE addition).
    numval = document.number_value_of_pre
    total = 0.0
    for pre in args[0]:
        total += numval(pre)
    return total


def _fn_id(document: Document, args, context_pre):
    value = args[0]
    # Figure 1 gives both rows: id(nset) unions deref_ids over the nodes'
    # string values; id(scalar) derefs the string conversion. (The nset
    # row normally disappears at normalize time via the Section 4 rewrite
    # to the id pseudo-axis, but the function stays correct standalone.)
    if isinstance(value, (set, frozenset, list, tuple)):
        strval = document.string_value_of_pre
        result: set[int] = set()
        for pre in value:
            result.update(document.deref_id_pres(strval(pre)))
        return sorted(result)
    return sorted(document.deref_id_pres(to_string_value(value, _scalar_type(value))))


def _scalar_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, float):
        return "num"
    if isinstance(value, str):
        return "str"
    raise TypeError(f"not an XPath scalar: {value!r}")


def _first_name(document: Document, members) -> str:
    """The name of the node set's first node in document order; "" for
    the empty set and for a node without a name."""
    if not members:
        return ""
    return document.columns.names[min(members)] or ""


def _fn_local_name(document: Document, args, context_pre):
    return _first_name(document, args[0]).rpartition(":")[2]


def _fn_namespace_uri(document: Document, args, context_pre):
    # Namespaces are out of scope (as in the paper); every node's URI is "".
    return ""


def _fn_name(document: Document, args, context_pre):
    return _first_name(document, args[0])


def _fn_string(document: Document, args, context_pre):
    value = args[0]
    if isinstance(value, (set, frozenset, list, tuple)):
        return to_string_value(value, "nset", document.string_value_of_pre)
    return to_string_value(value, _scalar_type(value))


def _fn_concat(document: Document, args, context_pre):
    return "".join(args)


def _fn_starts_with(document: Document, args, context_pre):
    return args[0].startswith(args[1])


def _fn_contains(document: Document, args, context_pre):
    return args[1] in args[0]


def _fn_substring_before(document: Document, args, context_pre):
    before, separator, _ = args[0].partition(args[1])
    return before if separator else ""


def _fn_substring_after(document: Document, args, context_pre):
    _, separator, after = args[0].partition(args[1])
    return after if separator else ""


def _fn_substring(document: Document, args, context_pre):
    """W3C §4.2 substring with the notorious rounding/NaN edge cases.

    Positions are 1-based; the selected characters are those at positions
    p with round(start) <= p < round(start) + round(length).
    """
    source = args[0]
    start = xpath_round(args[1])
    if math.isnan(start):
        return ""
    if len(args) >= 3:
        length = xpath_round(args[2])
        if math.isnan(length):
            return ""
        end = start + length  # may be ±inf
    else:
        end = math.inf
    result: list[str] = []
    for index, char in enumerate(source, start=1):
        if start <= index < end:
            result.append(char)
    return "".join(result)


def _fn_string_length(document: Document, args, context_pre):
    return float(len(args[0]))


def _fn_normalize_space(document: Document, args, context_pre):
    return " ".join(args[0].split())


def _fn_translate(document: Document, args, context_pre):
    source, from_chars, to_chars = args
    mapping: dict[str, str | None] = {}
    for index, char in enumerate(from_chars):
        if char not in mapping:
            mapping[char] = to_chars[index] if index < len(to_chars) else None
    result: list[str] = []
    for char in source:
        if char in mapping:
            replacement = mapping[char]
            if replacement is not None:
                result.append(replacement)
        else:
            result.append(char)
    return "".join(result)


def _fn_boolean(document: Document, args, context_pre):
    value = args[0]
    if isinstance(value, (set, frozenset, list, tuple)):
        return to_boolean(value, "nset")
    return to_boolean(value, _scalar_type(value))


def _fn_not(document: Document, args, context_pre):
    return not args[0]


def _fn_true(document: Document, args, context_pre):
    return True


def _fn_false(document: Document, args, context_pre):
    return False


def _fn_lang(document: Document, args, context_pre):
    """W3C §4.3 lang(): match xml:lang of the nearest ancestor-or-self."""
    wanted = args[0].lower()
    columns = document.columns
    pre = -1 if context_pre is None else context_pre
    while pre >= 0:
        if columns.kinds[pre] == ELEM:
            declared = document.attribute_pre_of(pre, "xml:lang")
            if declared is not None:
                declared = columns.values[declared].lower()
                return declared == wanted or declared.startswith(wanted + "-")
        pre = columns.parent_pre[pre]
    return False


def _fn_number(document: Document, args, context_pre):
    value = args[0]
    if isinstance(value, (set, frozenset, list, tuple)):
        return to_number_value(value, "nset", document.number_value_of_pre)
    return to_number_value(value, _scalar_type(value))


def _fn_floor(document: Document, args, context_pre):
    return xpath_floor(args[0])


def _fn_ceiling(document: Document, args, context_pre):
    return xpath_ceiling(args[0])


def _fn_round(document: Document, args, context_pre):
    return xpath_round(args[0])


_IMPLEMENTATIONS = {
    "count": _fn_count,
    "sum": _fn_sum,
    "id": _fn_id,
    "local-name": _fn_local_name,
    "namespace-uri": _fn_namespace_uri,
    "name": _fn_name,
    "string": _fn_string,
    "concat": _fn_concat,
    "starts-with": _fn_starts_with,
    "contains": _fn_contains,
    "substring-before": _fn_substring_before,
    "substring-after": _fn_substring_after,
    "substring": _fn_substring,
    "string-length": _fn_string_length,
    "normalize-space": _fn_normalize_space,
    "translate": _fn_translate,
    "boolean": _fn_boolean,
    "not": _fn_not,
    "true": _fn_true,
    "false": _fn_false,
    "lang": _fn_lang,
    "number": _fn_number,
    "floor": _fn_floor,
    "ceiling": _fn_ceiling,
    "round": _fn_round,
}


def apply_function(document: Document, name: str, args: list, context_pre: int | None = None):
    """Apply ``F[[name]]`` to evaluated argument values, node sets being
    collections of pres of ``document`` (see the module docstring).

    ``position``/``last`` are rejected here on purpose — they are context
    accessors, not value functions, and each evaluator handles them.
    """
    implementation = _IMPLEMENTATIONS.get(name)
    if implementation is None:
        raise UnknownFunctionError(name)
    return implementation(document, args, context_pre)
