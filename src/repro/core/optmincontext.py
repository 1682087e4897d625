"""OPTMINCONTEXT — Algorithm 8 (Section 5).

The combined query processor: first evaluate every subexpression of
shape ``boolean(π)`` / ``π RelOp s`` (context-free ``s``) *bottom-up*,
innermost first, via :mod:`repro.core.bottomup_paths`; then run
MINCONTEXT, which skips the precomputed subexpressions. Consequences
(Corollary 11 / Theorem 13):

* subexpressions in the Extended Wadler Fragment are evaluated in
  ``O(|D|·|e|²)`` space and ``O(|D|²·|e|²)`` time — their node-set parts
  never materialize a ``dom × 2^dom`` relation;
* Core XPath path subexpressions take ``O(|D|·|π|)`` — after
  normalization their predicates are ``boolean(π')`` nodes, all of which
  are bottom-up eligible, so only linear set sweeps remain (whole-query
  Core XPath is additionally short-circuited to
  :class:`repro.core.corexpath.CoreXPathEvaluator` by the engine);
* everything else falls back to MINCONTEXT's Theorem-7 bounds.
"""

from __future__ import annotations

from repro import stats
from repro.core.bottomup_paths import eval_bottomup_path
from repro.core.common import Evaluator
from repro.core.mincontext import MinContextEvaluator
from repro.xml.document import Document
from repro.xpath.ast import Expr
from repro.xpath.fragments import find_bottomup_paths


class OptMinContextEvaluator(Evaluator):
    """Algorithm 8. Single-use per query, like MINCONTEXT."""

    def __init__(self, document: Document):
        super().__init__(document)
        #: Exposed for inspection/tests: the MINCONTEXT instance whose
        #: tables the bottom-up pass pre-fills.
        self.mincontext = MinContextEvaluator(document)

    def evaluate_bottomup_paths(self, expr: Expr) -> MinContextEvaluator:
        """Step 1: evaluate all bottom-up location paths, innermost first,
        into the tables of :attr:`mincontext`, and return it."""
        for node in find_bottomup_paths(expr):
            stats.count("optmincontext_bottomup_paths")
            eval_bottomup_path(self.mincontext, node)
        return self.mincontext

    def pre_value(self, expr: Expr, triple: tuple):
        # Step 2: MINCONTEXT (precomputed subexpressions are skipped).
        return self.evaluate_bottomup_paths(expr).pre_value(expr, triple)
