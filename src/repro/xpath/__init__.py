"""XPath 1.0 front end: lexer, AST, parser, normalizer, static analyses.

The parser accepts both abbreviated and unabbreviated XPath 1.0 syntax and
produces the parse tree the paper's algorithms walk (Figures 3 and 6).
One pass over that tree (:func:`repro.xpath.normalize.analyze`) then
establishes the paper's Section 2.2 assumptions — all type conversions
explicit, variables replaced by their bindings — and, visiting each node
once, computes ``Relev(N)`` (Section 3.1, :mod:`repro.xpath.relevance`)
and the Core XPath (Definition 12) and Extended Wadler Fragment
(Section 4) verdicts (:mod:`repro.xpath.fragments`).
"""

from repro.xpath.ast import (
    BinaryOp,
    Expr,
    FunctionCall,
    Negate,
    NodeTest,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    Union,
    VariableRef,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.normalize import normalize
from repro.xpath.relevance import compute_relevance
from repro.xpath.explain import explain, explain_text
from repro.xpath.unparse import unparse, dump_tree

__all__ = [
    "BinaryOp",
    "Expr",
    "FunctionCall",
    "Negate",
    "NodeTest",
    "NumberLiteral",
    "Path",
    "Step",
    "StringLiteral",
    "Union",
    "VariableRef",
    "parse_xpath",
    "normalize",
    "compute_relevance",
    "explain",
    "explain_text",
    "unparse",
    "dump_tree",
]
