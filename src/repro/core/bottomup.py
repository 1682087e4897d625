"""Strict bottom-up context-value-table evaluation (``E↑`` of [11]).

Section 2.3 recalls the principle: for every parse-tree node, compute the
*complete* context-value table — all valid (context, value) combinations
— from the children's tables, in one post-order pass. Scalar-typed
expressions are tabulated over the full context domain

    C = {⟨cn, cp, cs⟩ | cn ∈ dom, 1 ≤ cp ≤ cs ≤ |dom|},

i.e. ``Θ(|D|³)`` rows per table — exactly the bound the paper quotes when
it notes that with strict bottom-up evaluation "this bound even
deteriorates to |dom|³" (Section 3.1). Node-set expressions are
tabulated per context node (``dom × 2^dom``), as in [11].

This evaluator exists as the reference point for the space experiment
EXP-X2 (its ``Θ(|D|³)`` live cells versus MINCONTEXT's ``O(|D|)``-per-
node tables) and as one more independent oracle for the differential
tests. It is only practical on small documents — which is the point.
"""

from __future__ import annotations

from repro import stats
from repro.core.common import apply_operator, step_candidates
from repro.core.context import Context
from repro.errors import EvaluationError
from repro.xml.document import Document, Node
from repro.xpath.ast import (
    BinaryOp,
    ConstantNodeSet,
    Expr,
    FunctionCall,
    Negate,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    Union,
)


class BottomUpEvaluator:
    """Full-table ``E↑`` evaluation. Single-use per query."""

    def __init__(self, document: Document):
        self.document = document
        #: uid → table. Scalar tables: {(cn, cp, cs): value}; node-set
        #: tables: {cn: frozenset-of-nodes}.
        self.tables: dict[int, dict] = {}

    # ------------------------------------------------------------------

    def evaluate(self, expr: Expr, context: Context):
        """Tabulate every subexpression, then read off the answer."""
        self._build(expr)
        if expr.value_type == "nset":
            return self.document.in_document_order(self.tables[expr.uid][context.node])
        return self.tables[expr.uid][context.triple()]

    # ------------------------------------------------------------------

    def _context_triples(self):
        size = len(self.document.nodes)
        for cn in self.document.nodes:
            for cs in range(1, size + 1):
                for cp in range(1, cs + 1):
                    yield (cn, cp, cs)

    def _scalar_table(self, expr: Expr, row) -> None:
        table = {}
        for triple in self._context_triples():
            table[triple] = row(triple)
        self.tables[expr.uid] = table
        stats.count("bottomup_table_rows", len(table))
        stats.table_cells_allocated(sum(stats.cell_weight(v) for v in table.values()))

    def _nset_table(self, expr: Expr, row) -> None:
        table = {}
        for cn in self.document.nodes:
            table[cn] = row(cn)
        self.tables[expr.uid] = table
        stats.count("bottomup_table_rows", len(table))
        stats.table_cells_allocated(sum(stats.cell_weight(v) for v in table.values()))

    # ------------------------------------------------------------------

    def _build(self, expr: Expr) -> None:
        """Post-order table construction."""
        if isinstance(expr, Path):
            if expr.primary is not None:
                self._build(expr.primary)
            for predicate in expr.primary_predicates:
                self._build(predicate)
            for step in expr.steps:
                for predicate in step.predicates:
                    self._build(predicate)
            self._build_path_table(expr)
            return
        for child in expr.children():
            self._build(child)
        if isinstance(expr, NumberLiteral):
            self._scalar_table(expr, lambda triple: expr.value)
        elif isinstance(expr, StringLiteral):
            self._scalar_table(expr, lambda triple: expr.value)
        elif isinstance(expr, ConstantNodeSet):
            self._nset_table(expr, lambda cn: set(expr.nodes))
        elif isinstance(expr, FunctionCall) and expr.name == "position":
            self._scalar_table(expr, lambda triple: float(triple[1]))
        elif isinstance(expr, FunctionCall) and expr.name == "last":
            self._scalar_table(expr, lambda triple: float(triple[2]))
        elif isinstance(expr, Union):
            left = self.tables[expr.left.uid]
            right = self.tables[expr.right.uid]
            self._nset_table(expr, lambda cn: left[cn] | right[cn])
        elif isinstance(expr, (FunctionCall, BinaryOp, Negate)):
            self._build_operator_table(expr)
        else:  # pragma: no cover - exhaustive over normalized node types
            raise EvaluationError(f"bottom-up evaluator cannot handle {expr!r}")

    def _child_value(self, child: Expr, triple):
        table = self.tables[child.uid]
        if child.value_type == "nset":
            return table[triple[0]]
        return table[triple]

    def _build_operator_table(self, expr: Expr) -> None:
        children = expr.children()
        if expr.value_type == "nset":
            # id(scalar) is the one operator with a node-set result.
            self._nset_table(
                expr,
                lambda cn: apply_operator(
                    self.document,
                    expr,
                    [self._child_value(c, (cn, 1, 1)) for c in children],
                    cn,
                ),
            )
            return
        self._scalar_table(
            expr,
            lambda triple: apply_operator(
                self.document,
                expr,
                [self._child_value(c, triple) for c in children],
                triple[0],
            ),
        )

    # ------------------------------------------------------------------

    def _build_path_table(self, path: Path) -> None:
        if path.absolute:
            start = {cn: {self.document.root} for cn in self.document.nodes}
        elif path.primary is not None:
            primary = self.tables[path.primary.uid]
            start = {}
            for cn in self.document.nodes:
                selected = set(primary[cn])
                for predicate in path.primary_predicates:
                    selected = self._filter_document_order(selected, predicate)
                start[cn] = selected
        else:
            start = {cn: {cn} for cn in self.document.nodes}
        # One shared per-origin step relation serves every context node.
        for step in path.steps:
            relation = self._step_relation(step)
            start = {
                cn: set().union(*(relation[y] for y in reachable)) if reachable else set()
                for cn, reachable in start.items()
            }
        self._nset_table(path, lambda cn: start[cn])

    def _step_relation(self, step: Step) -> dict[Node, set[Node]]:
        relation: dict[Node, set[Node]] = {}
        for origin in self.document.nodes:
            candidates = step_candidates(self.document, step.axis, origin, step.node_test)
            for predicate in step.predicates:
                table = self.tables[predicate.uid]
                size = len(candidates)
                candidates = [
                    node
                    for position, node in enumerate(candidates, start=1)
                    if table[(node, position, size)]
                ]
            relation[origin] = set(candidates)
        return relation

    def _filter_document_order(self, nodes: set[Node], predicate: Expr) -> set[Node]:
        table = self.tables[predicate.uid]
        ordered = self.document.in_document_order(nodes)
        size = len(ordered)
        return {
            node
            for position, node in enumerate(ordered, start=1)
            if table[(node, position, size)]
        }
