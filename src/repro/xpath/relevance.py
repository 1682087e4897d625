"""Relevant-context analysis ``Relev(N)`` (Section 3.1 of the paper).

For every parse-tree node ``N``, ``Relev(N) ⊆ {'cn', 'cp', 'cs'}`` names
the context components the value of ``expr(N)`` can depend on. MINCONTEXT
projects every context-value table down to these columns — that is the
"restriction to the relevant context" idea, and (with the cp/cs loop) the
source of the space improvement in Theorem 7.

The paper's rules, verbatim:

* constants, ``true()``, ``false()``            → ∅
* ``position()``                                → {'cp'}
* ``last()``                                    → {'cs'}
* location steps / location paths, and parameterless context functions
  (``string()``, ``number()``, ...)             → {'cn'}
* any other compound node                       → union of its children

Two refinements required for full-XPath soundness (both conservative
extensions of the paper's rules, which silently assume them):

* ``lang(s)`` reads the context node even with an explicit argument, so
  it contributes {'cn'} in addition to its argument's set.
* A path rooted at a filter-expression primary inherits the primary's
  relevance: ``id(string(position()))/child::a`` genuinely depends on
  ``cp``. Step predicates, by contrast, never leak into the path's set —
  they are evaluated under *fresh* contexts (this is exactly why
  Relev(N1) = Relev(N2) = {'cn'} in Example 3 although the predicate
  below them uses position() and last()).

The analysis is bottom-up, ``O(|Q|)`` as the paper notes, and
document-independent: the front end's one pass
(:func:`repro.xpath.normalize.analyze`) fills every node's set in the
same visit that normalizes it.
"""

from __future__ import annotations

from repro.xpath.ast import Expr
from repro.xpath.normalize import analyze


def compute_relevance(expr: Expr) -> frozenset[str]:
    """Annotate ``node.relev`` for the whole tree; returns the root's set.

    Must run on a normalized tree (variables substituted, conversions
    explicit) — raw trees may contain :class:`VariableRef` nodes, which
    are rejected. :func:`repro.xpath.normalize.analyze` applies the rules
    above while it normalizes, so this is only needed on a tree
    assembled by other means.
    """
    return analyze(expr, normalized=True).ast.relev


def project_context(
    relev: frozenset[str], cn, cp, cs
) -> tuple:
    """Project a context triple onto a relevance set.

    The result is the key under which MINCONTEXT stores/looks up table
    rows — the paper's ``proj_N(⟨cn, cp, cs⟩)``. Components outside the
    set are dropped entirely (the paper writes them as the wildcard "∗").
    """
    key = []
    if "cn" in relev:
        key.append(cn)
    if "cp" in relev:
        key.append(cp)
    if "cs" in relev:
        key.append(cs)
    return tuple(key)
