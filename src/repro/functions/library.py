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
to its argument; evaluators pass it via ``context_node``.

``sum``, ``string`` and ``number`` read the members of a node-set
argument through the accessors of :mod:`repro.values.coerce` (boxed nodes
by default, pre ints on the pre plane); ``count`` and ``boolean`` never
look at a member. The rest of the node-set functions (``name``,
``local-name``, ``id``) and ``lang`` take boxed nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import UnknownFunctionError, WrongArityError
from repro.values.coerce import (
    node_numval,
    node_strval,
    to_boolean,
    to_number_value,
    to_string_value,
)
from repro.values.numbers import (
    xpath_ceiling,
    xpath_floor,
    xpath_round,
)
from repro.xml.document import Document, Node


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


def _first_node(nodes) -> Node | None:
    best = None
    for node in nodes:
        if best is None or node.pre < best.pre:
            best = node
    return best


def _fn_count(document: Document, args, context_node):
    return float(len(args[0]))


def _fn_sum(document: Document, args, context_node, strval, numval):
    # Figure 1: Σ_{n∈S} to_number(strval(n)); an unparsable value makes
    # the whole sum NaN (IEEE addition).
    total = 0.0
    for member in args[0]:
        total += numval(member)
    return total


def _fn_id(document: Document, args, context_node):
    value = args[0]
    # Figure 1 gives both rows: id(nset) unions deref_ids over the nodes'
    # string values; id(scalar) derefs the string conversion. (The nset
    # row normally disappears at normalize time via the Section 4 rewrite
    # to the id pseudo-axis, but the function stays correct standalone.)
    if isinstance(value, (set, frozenset, list, tuple)):
        result: set[Node] = set()
        for node in value:
            result.update(document.deref_ids(node.string_value))
        return result
    return document.deref_ids(to_string_value(value, _scalar_type(value)))


def _scalar_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, float):
        return "num"
    if isinstance(value, str):
        return "str"
    raise TypeError(f"not an XPath scalar: {value!r}")


def _fn_local_name(document: Document, args, context_node):
    node = _first_node(args[0])
    if node is None or node.name is None:
        return ""
    return node.name.rpartition(":")[2]


def _fn_namespace_uri(document: Document, args, context_node):
    # Namespaces are out of scope (as in the paper); every node's URI is "".
    return ""


def _fn_name(document: Document, args, context_node):
    node = _first_node(args[0])
    if node is None or node.name is None:
        return ""
    return node.name


def _fn_string(document: Document, args, context_node, strval, numval):
    value = args[0]
    if isinstance(value, (set, frozenset, list, tuple)):
        return to_string_value(value, "nset", strval)
    return to_string_value(value, _scalar_type(value))


def _fn_concat(document: Document, args, context_node):
    return "".join(args)


def _fn_starts_with(document: Document, args, context_node):
    return args[0].startswith(args[1])


def _fn_contains(document: Document, args, context_node):
    return args[1] in args[0]


def _fn_substring_before(document: Document, args, context_node):
    before, separator, _ = args[0].partition(args[1])
    return before if separator else ""


def _fn_substring_after(document: Document, args, context_node):
    _, separator, after = args[0].partition(args[1])
    return after if separator else ""


def _fn_substring(document: Document, args, context_node):
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


def _fn_string_length(document: Document, args, context_node):
    return float(len(args[0]))


def _fn_normalize_space(document: Document, args, context_node):
    return " ".join(args[0].split())


def _fn_translate(document: Document, args, context_node):
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


def _fn_boolean(document: Document, args, context_node):
    value = args[0]
    if isinstance(value, (set, frozenset, list, tuple)):
        return to_boolean(value, "nset")
    return to_boolean(value, _scalar_type(value))


def _fn_not(document: Document, args, context_node):
    return not args[0]


def _fn_true(document: Document, args, context_node):
    return True


def _fn_false(document: Document, args, context_node):
    return False


def _fn_lang(document: Document, args, context_node):
    """W3C §4.3 lang(): match xml:lang of the nearest ancestor-or-self."""
    wanted = args[0].lower()
    node = context_node
    while node is not None:
        if node.is_element:
            declared = node.attribute_value("xml:lang")
            if declared is not None:
                declared = declared.lower()
                return declared == wanted or declared.startswith(wanted + "-")
        node = node.parent
    return False


def _fn_number(document: Document, args, context_node, strval, numval):
    value = args[0]
    if isinstance(value, (set, frozenset, list, tuple)):
        return to_number_value(value, "nset", numval)
    return to_number_value(value, _scalar_type(value))


def _fn_floor(document: Document, args, context_node):
    return xpath_floor(args[0])


def _fn_ceiling(document: Document, args, context_node):
    return xpath_ceiling(args[0])


def _fn_round(document: Document, args, context_node):
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


#: Functions that read node-set members through the accessors.
_MEMBER_READERS = frozenset({"sum", "string", "number"})


def apply_function(
    document: Document,
    name: str,
    args: list,
    context_node: Node | None = None,
    strval=node_strval,
    numval=node_numval,
):
    """Apply ``F[[name]]`` to evaluated argument values.

    ``position``/``last`` are rejected here on purpose — they are context
    accessors, not value functions, and each evaluator handles them.
    ``strval`` / ``numval`` are the member accessors for node-set
    arguments (see the module docstring).
    """
    implementation = _IMPLEMENTATIONS.get(name)
    if implementation is None:
        raise UnknownFunctionError(name)
    if name in _MEMBER_READERS:
        return implementation(document, args, context_node, strval, numval)
    return implementation(document, args, context_node)
