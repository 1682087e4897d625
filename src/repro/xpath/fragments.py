"""Fragment classification: Core XPath and the Extended Wadler Fragment.

Two syntactic fragments drive OPTMINCONTEXT's dispatch:

* **Core XPath** (Definition 12, from [11]): location paths whose
  predicates are and/or/not combinations of location paths. Queries fully
  inside it evaluate in ``O(|D|·|Q|)`` (Theorem 13) via
  :mod:`repro.core.corexpath`.
* **Extended Wadler Fragment** (Section 4, Restrictions 1–3): evaluable
  in ``O(|D|·|Q|²)`` space and ``O(|D|²·|Q|²)`` time (Theorem 10) because
  every node-set subexpression sits in an existential position
  (``boolean(π)`` / ``π RelOp s``) and can be propagated *backwards*
  through inverse axes instead of being tabulated per context node.

Both classifiers expect a **normalized** tree (conversions explicit,
numeric predicates rewritten, unions lifted, ``id``-chains turned into
pseudo-axis steps) and return a violation description, or ``None`` when
the expression is in the fragment — the reason strings power the
``fragment_advisor`` example and engine diagnostics. A compiled plan
carries both verdicts: the front end's one pass
(:func:`repro.xpath.normalize.analyze`) applies the rules node by node.
:func:`core_xpath_violation` is also a walk of its own: the one the
Core XPath evaluator guards every query with, and the reference the
pass's Core verdicts are tested against (the reasons below are shared).

Interpretation notes (documented deviations / sharpenings):

* Restriction 1 bans "functions which select data from an XML document",
  listing local-name, namespace-uri, name, string, number, string-length,
  and normalize-space. Data enters scalars only through ``string(nset)``
  / ``number(nset)`` / the name accessors, so we ban exactly those:
  ``string(position())`` is harmless and accepted, while every listed
  function applied to document content is rejected. This keeps the
  fragment's purpose (scalar sizes independent of ``|D|``) while not
  rejecting conversions that our own normalizer inserts around
  data-free scalars.
* Paths rooted at filter-expression primaries (``(...)[1]/a``) are
  outside both fragments (the paper's grammars only build pure location
  paths).
"""

from __future__ import annotations

from repro.xpath.ast import BinaryOp, Expr, FunctionCall, Path

_COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

#: Name accessors always select document data.
R1_NAME_ACCESSORS = frozenset({"local-name", "namespace-uri", "name"})
#: Conversions select data exactly when applied to a node-set.
R1_DATA_CONVERSIONS = frozenset({"string", "number"})
#: Derived string measures on document data (banned when fed a
#: data-selecting conversion, which the R1_DATA_CONVERSIONS rule already
#: catches; listed for the strict reading used by `strict=True`).
R1_STRING_MEASURES = frozenset({"string-length", "normalize-space"})

# Definition 12: why an expression is outside Core XPath (the templates
# take the offending node's class name).
NOT_A_PATH = "not a location path: {}"
FILTER_PRIMARY = "filter-expression primaries are not in Core XPath"
ID_AXIS = "the id pseudo-axis is not in Core XPath"
NON_CORE_PREDICATE = "predicate uses a non-Core construct: {}"


def _needs_relev(expr: Expr) -> frozenset[str]:
    if expr.relev is None:
        raise ValueError(
            "fragment classification requires relevance annotations "
            "(run compute_relevance first)"
        )
    return expr.relev


# ----------------------------------------------------------------------
# Core XPath (Definition 12)
# ----------------------------------------------------------------------


def core_xpath_violation(expr: Expr) -> str | None:
    """Return why ``expr`` is outside Core XPath, or ``None`` if inside."""
    return _core_path(expr)


def is_core_xpath(expr: Expr) -> bool:
    return core_xpath_violation(expr) is None


def _core_path(expr: Expr) -> str | None:
    if not isinstance(expr, Path):
        return NOT_A_PATH.format(type(expr).__name__)
    if expr.primary is not None:
        return FILTER_PRIMARY
    for step in expr.steps:
        if step.axis == "id":
            return ID_AXIS
        for predicate in step.predicates:
            violation = _core_predicate(predicate)
            if violation is not None:
                return violation
    return None


def _core_predicate(expr: Expr) -> str | None:
    if isinstance(expr, BinaryOp) and expr.op in ("and", "or"):
        return _core_predicate(expr.left) or _core_predicate(expr.right)
    if isinstance(expr, FunctionCall) and expr.name == "not" and len(expr.args) == 1:
        return _core_predicate(expr.args[0])
    if isinstance(expr, FunctionCall) and expr.name == "boolean" and len(expr.args) == 1:
        # A bare cxp predicate is boolean(path) after normalization.
        return _core_path(expr.args[0])
    return NON_CORE_PREDICATE.format(type(expr).__name__)


# ----------------------------------------------------------------------
# Extended Wadler Fragment (Restrictions 1-3)
# ----------------------------------------------------------------------


def wadler_violation(expr: Expr, strict: bool = False) -> str | None:
    """Return why ``expr`` violates Restrictions 1–3, else ``None``.

    The rules are applied per node by the front end's one pass
    (:func:`repro.xpath.normalize.analyze`); this runs it over an
    already-normalized tree. ``strict=True`` applies Restriction 1
    literally (ban string-length and normalize-space outright) instead
    of the data-flow reading described in the module docstring.
    """
    from repro.xpath.normalize import analyze  # the pass builds on this module

    return analyze(expr, normalized=True, strict=strict).wadler


def is_extended_wadler(expr: Expr, strict: bool = False) -> bool:
    return wadler_violation(expr, strict=strict) is None


# ----------------------------------------------------------------------
# Bottom-up path discovery (for OPTMINCONTEXT, Algorithm 8)
# ----------------------------------------------------------------------


def find_bottomup_paths(expr: Expr) -> list[Expr]:
    """Find subexpressions OPTMINCONTEXT evaluates bottom-up.

    Eligible shapes (Section 4): ``boolean(π)`` and ``π RelOp s`` where
    ``π`` is a plain location path and ``s`` is independent of the
    context (``Relev(s) = ∅``). Returned in post-order, i.e. innermost
    first, as Algorithm 8 requires ("starting with the innermost ones in
    case of nesting").

    Note eligibility is about *shape*, not Wadler membership: the
    bottom-up procedure is correct for any predicates (they are handled
    through eval_by_cnode_only / eval_single_context); the Wadler
    restrictions only matter for the *space guarantee* of Theorem 10.
    """
    found: list[Expr] = []
    _find_bottomup(expr, found, is_root=True)
    return found


def is_bottomup_eligible(expr: Expr) -> bool:
    """Is this node itself of shape ``boolean(π)`` / ``π RelOp s``?"""
    if isinstance(expr, FunctionCall) and expr.name == "boolean" and len(expr.args) == 1:
        return _is_propagatable_path(expr.args[0])
    if isinstance(expr, BinaryOp) and expr.op in _COMPARISON_OPS:
        left_is_path = _is_propagatable_path(expr.left)
        right_is_path = _is_propagatable_path(expr.right)
        if left_is_path and not right_is_path and expr.right.value_type != "nset":
            return not _needs_relev(expr.right)
        if right_is_path and not left_is_path and expr.left.value_type != "nset":
            return not _needs_relev(expr.left)
    return False


def _is_propagatable_path(expr: Expr) -> bool:
    """A path :func:`repro.core.bottomup_paths.propagate_path_backwards`
    can handle: a plain location path with at least one step, optionally
    rooted at a context-free predicate-less primary (the id-as-axis
    device)."""
    if not isinstance(expr, Path) or not expr.steps:
        return False
    if expr.primary is None:
        return True
    return not expr.primary_predicates and not _needs_relev(expr.primary)


def _find_bottomup(node, found: list[Expr], is_root: bool) -> None:
    for child in node.children():
        _find_bottomup(child, found, is_root=False)
    if not is_root and isinstance(node, Expr) and is_bottomup_eligible(node):
        found.append(node)
