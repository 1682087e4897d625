"""Top-down evaluation ``E↓``/``S↓`` — Definition 2 of the paper.

This is the better of the two algorithms of [11], recalled by the paper
as its baseline: ``O(|D|⁵·|Q|²)`` time and ``O(|D|⁴·|Q|²)`` space. Every
expression is evaluated *vectorized* over a list of contexts (the
``F⟨⟩`` construction), and location paths map lists of node sets to
lists of node sets (``S↓``), keeping for every step the full relation

    S = {(x, y) | x ∈ ∪ Xi, x χ y, y ∈ T(t)}

of previous/current context nodes — up to ``|dom|²`` pairs, each of
which may spawn a predicate context. The paper's Figure 4 tables are
exactly the artifacts of this algorithm on the running example; benchmark
EXP-F4 prints them from the hooks this module exposes
(:meth:`TopDownEvaluator.trace_tables`).

Contexts are ``(pre, position, size)`` triples and node sets sets of
pres (:mod:`repro.core.common`); only the answer and the Figure 4
read-out are boxed.
"""

from __future__ import annotations

from repro import stats
from repro.axes.axes import axis_test_pres
from repro.core.common import Evaluator, apply_operator, constant_pres
from repro.core.context import Context
from repro.errors import EvaluationError
from repro.xml.document import Document
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


class TopDownEvaluator(Evaluator):
    """Vectorized Definition-2 semantics.

    When ``record_tables=True`` every ``E↓`` call appends its
    (context triple, value) rows to ``self.tables[node.uid]`` — the
    context-value tables of Figure 4, on the pre plane.
    """

    def __init__(self, document: Document, record_tables: bool = False):
        super().__init__(document)
        self.record_tables = record_tables
        #: uid → list of ((pre, cp, cs), value) rows, in evaluation order.
        self.tables: dict[int, list[tuple[tuple, object]]] = {}

    # ------------------------------------------------------------------

    def pre_value(self, expr: Expr, triple: tuple):
        """``E↓`` for the one outer context, a node set sorted."""
        (value,) = self._eval(expr, [triple])
        if expr.value_type == "nset":
            value = sorted(value)
        return value

    # ------------------------------------------------------------------
    # E↓
    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, contexts: list[tuple]) -> list:
        stats.count("topdown_contexts", len(contexts))
        values = self._eval_dispatch(expr, contexts)
        if self.record_tables:
            rows = self.tables.setdefault(expr.uid, [])
            rows.extend(zip(contexts, values))
        stats.table_cells_allocated(sum(stats.cell_weight(v) for v in values))
        return values

    def _eval_dispatch(self, expr: Expr, contexts: list[tuple]) -> list:
        if isinstance(expr, NumberLiteral):
            return [expr.value] * len(contexts)
        if isinstance(expr, StringLiteral):
            return [expr.value] * len(contexts)
        if isinstance(expr, ConstantNodeSet):
            pres = constant_pres(self.document, expr)
            return [set(pres) for _ in contexts]
        if isinstance(expr, FunctionCall):
            if expr.name == "position":
                return [float(cp) for _, cp, _ in contexts]
            if expr.name == "last":
                return [float(cs) for _, _, cs in contexts]
            return self._eval_operator(expr, contexts)
        if isinstance(expr, (BinaryOp, Negate)):
            return self._eval_operator(expr, contexts)
        if isinstance(expr, Union):
            left = self._eval(expr.left, contexts)
            right = self._eval(expr.right, contexts)
            # ∪⟨⟩: componentwise union (Section 2.2).
            return [l | r for l, r in zip(left, right)]
        if isinstance(expr, Path):
            return self._eval_path(expr, contexts)
        raise EvaluationError(f"top-down evaluator cannot handle {expr!r}")

    def _eval_operator(self, expr: Expr, contexts: list[tuple]) -> list:
        """``E↓[[Op(e1..em)]] = F[[Op]]⟨⟩(E↓[[e1]], ..., E↓[[em]])``."""
        children = expr.children()
        child_values = [self._eval(child, contexts) for child in children]
        results = []
        for index, context in enumerate(contexts):
            arguments = [values[index] for values in child_values]
            results.append(apply_operator(self.document, expr, arguments, context[0]))
        if expr.value_type == "nset":  # id()'s sorted pre list, as a set
            return [set(result) for result in results]
        return results

    # ------------------------------------------------------------------
    # S↓
    # ------------------------------------------------------------------

    def _eval_path(self, path: Path, contexts: list[tuple]) -> list[set[int]]:
        if path.absolute:
            current: list[set[int]] = [{0} for _ in contexts]  # the document node
        elif path.primary is not None:
            current = [set(s) for s in self._eval(path.primary, contexts)]
            for predicate in path.primary_predicates:
                current = self._filter_sets_document_order(predicate, current)
        else:
            current = [{cn} for cn, _, _ in contexts]
        for step in path.steps:
            current = self._eval_step(step, current)
        return current

    def _eval_step(self, step: Step, node_sets: list[set[int]]) -> list[set[int]]:
        """One location step of ``S↓``: build S, filter it through each
        predicate with freshly ranked contexts, project back per input."""
        union: set[int] = set().union(*node_sets)
        # S as {x: proximity-ordered candidate list}; identical x's share.
        relation: dict[int, list[int]] = {
            x: axis_test_pres(self.document, step.axis, x, step.node_test)
            for x in sorted(union)
        }
        stats.count("topdown_relation_pairs", sum(len(v) for v in relation.values()))
        for predicate in step.predicates:
            relation = self._filter_relation(predicate, relation)
        results: list[set[int]] = []
        for node_set in node_sets:
            reachable: set[int] = set()
            for x in node_set:
                reachable.update(relation.get(x, ()))
            results.append(reachable)
        return results

    def _filter_relation(
        self, predicate: Expr, relation: dict[int, list[int]]
    ) -> dict[int, list[int]]:
        """Fix an order for S, evaluate the predicate vectorized over all
        pairs (Definition 2's ``t_j = ⟨y_j, idx_χ(y_j, S_j), |S_j|⟩``),
        and keep the surviving pairs."""
        order: list[tuple[int, int]] = []  # (x, index within S_x)
        contexts: list[tuple] = []
        for x, candidates in relation.items():
            size = len(candidates)
            for index, y in enumerate(candidates, start=1):
                order.append((x, index - 1))
                contexts.append((y, index, size))
        if not contexts:
            return {x: [] for x in relation}
        truths = self._eval(predicate, contexts)
        filtered: dict[int, list[int]] = {x: [] for x in relation}
        for (x, candidate_index), keep in zip(order, truths):
            if keep:
                filtered[x].append(relation[x][candidate_index])
        return filtered

    def _filter_sets_document_order(
        self, predicate: Expr, node_sets: list[set[int]]
    ) -> list[set[int]]:
        """Predicates attached to a filter expression rank candidates in
        document order (the W3C rule for predicates outside steps)."""
        order: list[tuple[int, int]] = []
        contexts: list[tuple] = []
        for set_index, node_set in enumerate(node_sets):
            ordered = sorted(node_set)
            size = len(ordered)
            for position, pre in enumerate(ordered, start=1):
                order.append((set_index, pre))
                contexts.append((pre, position, size))
        if not contexts:
            return node_sets
        truths = self._eval(predicate, contexts)
        filtered: list[set[int]] = [set() for _ in node_sets]
        for (set_index, pre), keep in zip(order, truths):
            if keep:
                filtered[set_index].add(pre)
        return filtered

    # ------------------------------------------------------------------

    def trace_tables(self, expr: Expr, context: Context):
        """Evaluate with table recording on and return
        ``{uid: [(Context, value), ...]}`` — the Figure 4 artifacts, read
        out onto nodes: each context's node is a ``Node`` and each
        node-set value a ``set[Node]``."""
        previous = self.record_tables
        self.record_tables = True
        self.tables = {}
        try:
            self.value(expr, context)
        finally:
            self.record_tables = previous
        nodes = self.document.nodes
        return {
            uid: [
                (
                    Context(nodes[cn], cp, cs),
                    {nodes[pre] for pre in value} if isinstance(value, set) else value,
                )
                for (cn, cp, cs), value in rows
            ]
            for uid, rows in self.tables.items()
        }
