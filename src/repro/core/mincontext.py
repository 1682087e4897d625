"""MINCONTEXT — the paper's main algorithm (Sections 3 and 6).

Combines the three ideas of Section 3.1 on top of the context-value-table
principle:

1. **Restriction to the relevant context.** Every table is projected to
   ``Relev(N)`` (computed by :mod:`repro.xpath.relevance`); a constant
   has a one-row table, ``self::* = 100`` a ``|dom|``-row table
   (Figure 5), never the ``|dom|³`` of strict bottom-up evaluation.
2. **Outermost location paths as node sets.** The outermost path is
   propagated as a plain subset of ``dom``
   (:meth:`MinContextEvaluator.eval_outermost_locpath`), not as a
   ``dom × 2^dom`` relation — Example 4.
3. **Looping over (cp, cs).** Tables are only ever *stored* for
   subexpressions independent of context position/size; predicates that
   use ``position()``/``last()`` are evaluated in a loop over the
   ``O(|dom|²)`` pairs of previous/current context node
   (:meth:`_eval_step_from_set`'s dependent branch — Example 5), with
   :meth:`eval_single_context` recomputing the position-dependent spine
   on the fly.

The four procedures map one-to-one onto the Section 6 pseudo-code:
``eval_outermost_locpath``, ``eval_by_cnode_only``,
``eval_single_context``, ``eval_inner_locpath``. Algorithm 6 is
:meth:`MinContextEvaluator.pre_value`.

Bound: ``O(|D|⁴·|Q|²)`` time and ``O(|D|²·|Q|²)`` space (Theorem 7).

**Representation: the pre plane.** A context node is its pre-order
number; a node set — a candidate set, a step result, a node-set table
value — is a sorted, duplicate-free list of pre numbers. ``table(N)``
maps the context projected to ``Relev(N)`` to a value: keyed by the
context node's pre when ``'cn' ∈ Relev(N)``, by ``()`` for the single
row of a context-free node (OPTMINCONTEXT's bottom-up tables cover all of
``dom`` and are a list indexed by pre). Set-at-a-time steps run through
the column kernels (:func:`repro.core.common.step_candidate_pres`),
per-origin candidate lists are cut from the index columns
(:func:`~repro.core.common.step_relation_pres`), string values and
numbers are read per pre from the document
(:meth:`~repro.xml.document.Document.string_value_of_pre` /
:meth:`~repro.xml.document.Document.number_value_of_pre`). ``Node``
objects appear only in the public read-outs — the boxed result of
:meth:`~repro.core.common.Evaluator.evaluate` and
:meth:`~MinContextEvaluator.boxed_table`.
The paper's counters (table rows and cells, contexts evaluated,
relation cells) count the same things as on boxed nodes.

Deviations from the printed pseudo-code:

* **Filter-primary paths.** Paths rooted at filter-expression primaries
  (``id('k')/a``, ``(//a)[2]/b`` — full XPath 1.0 grammar, outside the
  paper's path grammar) are supported by evaluating the primary with the
  machinery for general expressions, filtering it by its predicates in
  document order, and then running the step machinery from the result.
* **Merged tables.** Tables are *merged* on re-entry rather than
  overwritten: a predicate subtree can legitimately be prepared for
  several candidate sets when its enclosing expression is itself
  evaluated in a (cp, cs) loop. Only rows for new contexts count as
  allocated cells.
* **Compiled operators.** The printed ``eval_single_context`` dispatches
  on the parse-tree node for every context it is handed. Here that
  dispatch runs once per node: :meth:`MinContextEvaluator.compiled`
  builds, at first use, a closure ``f(cn, cp, cs)`` that *is*
  ``eval_single_context`` for the node, and the loops
  (``filter_by_position``, ``filter_by_cnode``, the document-order
  filter, the row fill of ``eval_by_cnode_only``) fetch it once and call
  it per triple. What a closure closes over: a table-backed node
  (``Relev(N) ∩ {cp, cs} = ∅``) its table row read (``_lookup`` for the
  diagnosis when the row is missing); ``position()`` / ``last()`` the
  context component, wildcard check kept; a comparison or arithmetic
  operator on two static ``num`` operands the float operator itself
  (IEEE NaN semantics, ``div`` / ``mod`` in their XPath forms); a node
  set against a ``num`` or ``str`` the existential member test, its
  operator and member reading resolved once
  (:func:`~repro.values.compare.member_operands`); any other comparison
  ``compare_values`` with the static types and this document's
  accessors bound; everything else :func:`~repro.core.common.apply_operator`.
  ``and`` / ``or`` still evaluate both operands, as ``F[[Op]]`` applied
  to a value list does. No table is built, keyed, merged or counted
  differently, and ``operator_applications`` still reads one per
  compound node per context (ticked per loop, not per call). The
  closures live as long as one ``evaluate`` call, which drops them on
  its way out: they hold the evaluator, and kept they would leave it
  and its tables to the cycle collector.
* **Positions as slices.** A predicate ``position() RelOp e`` (either
  operand order) whose ``e`` is a ``num`` built from ``last()``,
  context-free table rows and float arithmetic (``[2]``, ``[last()]``,
  ``position() != last()``, ``position() > last() * 0.25``) is decided
  per candidate list: :meth:`~MinContextEvaluator.ranker` computes
  ``e`` once and keeps the window of positions the float comparison
  accepts (:func:`position_window`): ``=`` keeps at most one member,
  ``!=`` drops at most one, the relational operators keep a prefix or
  a suffix, NaN and ±∞ compare as floats do. The loop's counters are
  ticked in bulk as for every other list, so
  ``mincontext_contexts_evaluated`` and ``operator_applications`` read
  what the per-(cp, cs) loop would. A predicate that reads ``cn``, or
  an ``e`` with a library call, still runs the loop.
* **One-row relations are node sets.** The printed eval_inner_locpath
  always composes a ``dom × 2^dom`` relation. A relation with one
  origin — an absolute inner path (``count(//b)``, ``id(//b/r)``), or
  any inner path prepared for a single context — has one row, and that
  row is a node set: :meth:`~MinContextEvaluator._compose_steps` runs it
  through the set loop of eval_outermost_locpath (Example 4's idea,
  applied wherever it holds), so it composes no relation cells and
  threads no per-origin lists through the steps. Positional predicates
  still rank per context node of their step. Two or more origins still
  compose the relation.
* **``//t`` runs as one descendant step.** In every step loop (outermost,
  one-origin, relation composition) a bare ``descendant-or-self::node()``
  followed by ``child::t[e1]...[eq]`` runs as ``descendant::t[e1]...[eq]``
  (:func:`fused_steps`): the same candidates, without first listing
  every node below the origin and evaluating it as a context. The two
  steps fuse only when no ``ei`` reads ``position()`` or ``last()``:
  child positions are counted per parent, descendant positions per
  origin, so ``//t[2]`` (every second ``t`` child) is not
  ``/descendant::t[2]`` (the document's second ``t``). The check is made
  when the loop runs; the plan tree keeps both steps, so the other
  evaluators and the batch DAG see the query as written.

Instances are single-use: create one evaluator per query evaluation (the
engine does). OPTMINCONTEXT pre-fills ``tables`` for bottom-up-evaluated
subexpressions and records their uids in ``precomputed``.
"""

from __future__ import annotations

import math
import operator

from repro import stats
from repro.core.common import (
    Evaluator,
    apply_operator,
    constant_pres,
    step_candidate_pres,
    step_relation_pres,
)
from repro.core.context import WILDCARD
from repro.errors import EvaluationError
from repro.values.compare import COMPARE, FLIPPED, compare_values, member_operands
from repro.values.numbers import xpath_divide, xpath_modulo
from repro.xml.document import Document
from repro.xml.index import merge_union
from repro.xpath.ast import (
    BinaryOp,
    ConstantNodeSet,
    Expr,
    FunctionCall,
    NumberLiteral,
    Path,
    Step,
    StringLiteral,
    Union,
)

_CPCS = frozenset({"cp", "cs"})

#: ``F[[Op]]`` for a binary operator whose operands are both statically
#: ``num``: the float operator itself. Comparisons are
#: :data:`repro.values.compare.COMPARE` (NaN fails everything but
#: ``!=``), IEEE ``+ - *`` what :func:`~repro.core.common.apply_operator`
#: computes; ``div`` / ``mod`` keep their XPath forms (division by zero,
#: sign of the dividend).
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "div": xpath_divide,
    "mod": xpath_modulo,
}
_NUM_OPERATORS = {**COMPARE, **_ARITHMETIC}


class MinContextEvaluator(Evaluator):
    """The MINCONTEXT query processor."""

    def __init__(self, document: Document):
        super().__init__(document)
        #: uid → table: ``{projected context: value}`` (the projection is
        #: the context node's pre, or ``()`` for a context-free node), or
        #: a pre-indexed list of booleans over all of ``dom``.
        self.tables: dict[int, dict | list] = {}
        #: uids whose tables were filled by OPTMINCONTEXT's bottom-up
        #: pass; eval_by_cnode_only skips them ("subexpressions that have
        #: already been evaluated bottom-up are not evaluated again").
        self.precomputed: set[int] = set()
        self.strval = document.string_value_of_pre
        self.numval = document.number_value_of_pre
        #: uid → ``eval_single_context`` for that node (:meth:`compiled`),
        #: uid → its bare ``F[[Op]]`` (:meth:`_operator`) and predicate
        #: uid → its candidate-list filter (:meth:`ranker`), each built
        #: at first use.
        self._compiled: dict[int, object] = {}
        self._operators: dict[int, object] = {}
        self._rankers: dict[int, object] = {}

    # ------------------------------------------------------------------
    # Algorithm 6
    # ------------------------------------------------------------------

    def pre_value(self, expr: Expr, triple: tuple):
        """Algorithm 6 (MINCONTEXT)."""
        try:
            if expr.value_type == "nset" and isinstance(expr, (Path, Union)):
                return self.eval_outermost_locpath(expr, [triple[0]], triple)
            self.eval_by_cnode_only(expr, [triple[0]])
            return self.eval_single_context(expr, triple)
        finally:
            # The closures hold this evaluator (``_lookup``):
            # dropped here, it and its tables die with the last reference
            # instead of waiting for the cycle collector.
            self._compiled.clear()
            self._operators.clear()
            self._rankers.clear()

    # ------------------------------------------------------------------
    # Table plumbing
    # ------------------------------------------------------------------

    def _store(self, node, rows: dict) -> None:
        table = self.tables.get(node.uid)
        if table is None:
            table = self.tables[node.uid] = {}
        if stats.collecting():
            fresh_keys = rows.keys() - table.keys() if table else rows.keys()
            stats.count("mincontext_table_rows", len(fresh_keys))
            stats.table_cells_allocated(
                sum(stats.cell_weight(rows[key]) for key in fresh_keys)
            )
        table.update(rows)

    def store_dom_table(self, node, truths: list) -> None:
        """Install a bottom-up table (OPTMINCONTEXT): one boolean per pre,
        covering all of ``dom``, never re-evaluated afterwards."""
        self.tables[node.uid] = truths
        self.precomputed.add(node.uid)
        stats.count("mincontext_table_rows", len(truths))
        stats.table_cells_allocated(len(truths))

    def _lookup(self, node, cn):
        table = self.tables.get(node.uid)
        if table is None:
            raise EvaluationError(
                f"table for parse-tree node N{node.uid} was never prepared "
                "(eval_by_cnode_only must run before eval_single_context)"
            )
        try:
            return table[cn if "cn" in node.relev else ()]
        except (KeyError, IndexError, TypeError):
            raise EvaluationError(
                f"table for parse-tree node N{node.uid} has no row for context node "
                f"pre={cn!r} — prepared with a different candidate set"
            ) from None

    def boxed_table(self, node) -> dict[tuple, object]:
        """``table(N)`` read out onto boxed nodes: ``{projected context:
        value}`` with the context node (when relevant) as a one-tuple
        ``(Node,)`` and node-set values as ``set[Node]`` — the form
        Figure 5 prints. For inspection and tests; the evaluator never
        reads it."""
        table = self.tables[node.uid]
        nodes = self.document.nodes
        rows = enumerate(table) if isinstance(table, list) else table.items()
        boxed = {}
        for key, value in rows:
            if node.value_type == "nset":
                value = {nodes[pre] for pre in value}
            boxed[() if key == () else (nodes[key],)] = value
        return boxed

    # ------------------------------------------------------------------
    # eval_outermost_locpath (Section 6)
    # ------------------------------------------------------------------

    def eval_outermost_locpath(
        self, expr: Expr, X: list[int], outer: tuple
    ) -> list[int]:
        """Evaluate an outermost location path as a plain node set.

        Handles the pseudo-code's four cases: ``/π`` (absolute start),
        ``π1|π2`` (union of branch results), ``π1/π2`` (the step loop),
        and ``χ::t[e1]...[eq]`` (:meth:`_eval_step_from_set`). ``outer``
        is the query's context triple, for a filter-primary start.
        """
        stats.count("outermost_path_evaluations")
        if isinstance(expr, Union):
            return merge_union(
                self.eval_outermost_locpath(expr.left, X, outer),
                self.eval_outermost_locpath(expr.right, X, outer),
            )
        if not isinstance(expr, Path):
            # A node-set operand that is no path (``id('x')``, ``$v``):
            # an expression like any other, read from its table.
            self.eval_by_cnode_only(expr, X)
            return self.eval_single_context(expr, outer)
        if expr.absolute:
            current = [0]
        elif expr.primary is not None:
            current = self._primary_start_set(expr, X, outer)
        else:
            current = X
        return self._sweep(expr.steps, current)

    def _sweep(self, steps: list[Step], current: list[int]) -> list[int]:
        """``π1/π2`` on node sets: each step maps the set reached so far
        to the next (:meth:`_eval_step_from_set`), ``//t`` as one
        descendant step (:func:`fused_steps`)."""
        for axis, step in fused_steps(steps):
            current = self._eval_step_from_set(step, current, axis)
        return current

    def _primary_start_set(self, path: Path, X: list[int], outer: tuple) -> list[int]:
        """Start set for a filter-expression-rooted path (extension)."""
        self.eval_by_cnode_only(path.primary, X)
        selected = self.eval_single_context(path.primary, outer)
        for predicate in path.primary_predicates:
            selected = self._filter_document_order(selected, predicate)
        return selected

    def _filter_document_order(self, nodes: list[int], predicate: Expr) -> list[int]:
        """Filter a node set by a predicate ranked in document order (the
        rule for predicates attached to filter expressions)."""
        self.eval_by_cnode_only(predicate, nodes)
        return self.ranker(predicate)(nodes)

    def _eval_step_from_set(self, step: Step, X: list[int], axis: str) -> list[int]:
        """One step along ``axis`` (the step's own, or ``descendant`` for a
        fused ``//t``), set-in/set-out (the pseudo-code's
        ``χ::t[e1]...[eq]`` case of eval_outermost_locpath)."""
        Y = step_candidate_pres(self.document, axis, X, step.node_test)
        for predicate in step.predicates:
            self.eval_by_cnode_only(predicate, Y)
        if position_free(step):
            return self.filter_by_cnode(step.predicates, Y)
        # At least one predicate needs cp/cs: loop over all pairs of
        # previous/current context node (Example 5 / Theorem 7's loop).
        relation = step_relation_pres(self.document, axis, X, Y, step.node_test)
        result: set[int] = set()
        for candidates in relation.values():
            result.update(self.filter_by_position(step.predicates, candidates))
        return sorted(result)

    def filter_by_cnode(self, predicates: list[Expr], Y: list[int]) -> list[int]:
        """The members of ``Y`` at which every (position-free, already
        prepared) predicate holds — one context ``⟨y, ∗, ∗⟩`` per member."""
        stats.count("mincontext_contexts_evaluated", len(Y))
        for predicate in predicates:
            holds = self.compiled(predicate)
            _count_applications(holds, len(Y))
            Y = [y for y in Y if holds(y, WILDCARD, WILDCARD)]
        return Y

    def filter_by_position(self, predicates: list[Expr], candidates: list[int]) -> list[int]:
        """The (cp, cs) loop over one origin's candidate list (in
        proximity order): each predicate ranks the survivors of the
        previous one."""
        for predicate in predicates:
            stats.count("mincontext_contexts_evaluated", len(candidates))
            candidates = self.ranker(predicate)(candidates)
        return candidates

    def ranker(self, predicate: Expr):
        """The predicate as a filter ``rank(candidates)`` over one ranked
        list (proximity or document order), built once per parse-tree
        node: the survivors at whose context ``⟨z, position, size⟩`` the
        predicate holds. A position comparison (:func:`_position_bound`)
        computes its bound once and slices (:func:`position_window`);
        any other predicate is called per member. Either way
        ``operator_applications`` is ticked for every member, in bulk."""
        rank = self._rankers.get(predicate.uid)
        if rank is not None:
            return rank
        holds = self.compiled(predicate)
        position_bound = _position_bound(predicate)
        if position_bound is None:

            def rank(candidates):
                size = len(candidates)
                _count_applications(holds, size)
                return [
                    z
                    for position, z in enumerate(candidates, start=1)
                    if holds(z, position, size)
                ]

        else:
            op, bound_node = position_bound
            bound = self.compiled(bound_node)

            def rank(candidates):
                size = len(candidates)
                _count_applications(holds, size)
                if not size:
                    return []
                return position_window(op, bound(candidates[0], WILDCARD, size), candidates)

        self._rankers[predicate.uid] = rank
        return rank

    # ------------------------------------------------------------------
    # eval_by_cnode_only (Section 6)
    # ------------------------------------------------------------------

    def eval_by_cnode_only(self, node: Expr, X: list[int]) -> None:
        """Prepare ``table(M)`` for every M below ``node`` whose value
        does not depend on the current context position/size."""
        if node.uid in self.precomputed:
            return
        relev = node.relev
        if _CPCS & relev:
            # Position/size-dependent: only descend; this node's values
            # are produced on the fly by eval_single_context. Path
            # children are prepared, step predicates are prepared lazily
            # by the path-evaluation loops (which know candidate sets).
            for child in node.children():
                if isinstance(child, Step):
                    continue
                self.eval_by_cnode_only(child, X)
            return
        if isinstance(node, (Path, Union)):
            rows = self.eval_inner_locpath(node, X)
            if "cn" not in relev:
                # A union of node-set constants: every context node maps
                # to the same set, and the projection keeps one row.
                rows = {(): value for value in rows.values()}
            self._store(node, rows)
            return
        if isinstance(node, (NumberLiteral, StringLiteral)):
            self._store(node, {(): node.value})
            return
        if isinstance(node, ConstantNodeSet):
            self._store(node, {(): constant_pres(self.document, node)})
            return
        # Op(e1, ..., ek) with Relev(N) ⊆ {'cn'}.
        for child in node.children():
            self.eval_by_cnode_only(child, X)
        op = self._operator(node)
        if "cn" in relev:
            stats.count("mincontext_contexts_evaluated", len(X))
            _count_applications(op, len(X))
            rows = {cn: op(cn, WILDCARD, WILDCARD) for cn in X}
        else:
            stats.count("mincontext_contexts_evaluated")
            _count_applications(op, 1)
            rows = {(): op(None, WILDCARD, WILDCARD)}
        self._store(node, rows)

    # ------------------------------------------------------------------
    # eval_single_context (Section 6)
    # ------------------------------------------------------------------

    def eval_single_context(self, node: Expr, triple: tuple):
        """Evaluate ``expr(N)`` for one context ``⟨cn, cp, cs⟩`` (``cn`` a
        pre number; wildcards allowed for irrelevant components)."""
        single = self.compiled(node)
        _count_applications(single, 1)
        return single(*triple)

    def compiled(self, node: Expr):
        """``eval_single_context`` for ``node`` as a closure
        ``f(cn, cp, cs)``, built once per parse-tree node: the dispatch
        on node type and ``Relev(N)`` happens here, not per context. The
        loops fetch it once and call it per triple.

        ``f.applications`` is how many ``F[[Op]]`` one call applies
        without ticking ``operator_applications`` itself; whoever calls
        ``f`` counts them, in bulk (:func:`_count_applications`)."""
        single = self._compiled.get(node.uid)
        if single is not None:
            return single
        if _CPCS.isdisjoint(node.relev):
            single = self._table_reader(node)
        elif isinstance(node, FunctionCall) and node.name in _CONTEXT_ACCESSORS:
            single = _CONTEXT_ACCESSORS[node.name]
        elif isinstance(node, (Path, Union)):
            # Position/size-dependent path (via a filter primary).
            path_single = self._eval_path_single

            def single(cn, cp, cs):
                return path_single(node, (cn, cp, cs))

            single.applications = 0
        else:
            single = self._operator(node)
        self._compiled[node.uid] = single
        return single

    def _table_reader(self, node: Expr):
        """``table(N)`` read at the context node (or at ``()``): the row
        straight from the dictionary, :meth:`_lookup` when that fails, for
        its diagnosis. The table itself is fetched per call: it may not
        exist yet, and OPTMINCONTEXT may still install one."""
        tables = self.tables
        uid = node.uid
        lookup = self._lookup
        if "cn" in node.relev:

            def read(cn, cp, cs):
                try:
                    return tables[uid][cn]
                except (KeyError, IndexError, TypeError):
                    return lookup(node, cn)

        else:

            def read(cn, cp, cs):
                try:
                    return tables[uid][()]
                except (KeyError, TypeError):
                    return lookup(node, cn)

        read.applications = 0
        return read

    def _operator(self, node: Expr):
        """``F[[Op]]`` at a compound node as a closure over its children's
        :meth:`compiled` forms, the operator resolved once: ``and`` /
        ``or`` (both operands evaluated, as the interpreter's value list
        did), comparisons and arithmetic on two static ``num`` operands
        as the float operator itself, a node set against a ``num`` or
        ``str`` as the existential member test, every other comparison
        as :func:`~repro.values.compare.compare_values` with the static
        types and this document's accessors bound, anything else through
        :meth:`apply`."""
        apply_op = self._operators.get(node.uid)
        if apply_op is not None:
            return apply_op
        operands = [self.compiled(child) for child in node.children()]
        own = 1
        if isinstance(node, BinaryOp) and node.op in ("and", "or"):
            left, right = operands
            if node.op == "and":

                def apply_op(cn, cp, cs):
                    first, second = left(cn, cp, cs), right(cn, cp, cs)
                    return first and second

            else:

                def apply_op(cn, cp, cs):
                    first, second = left(cn, cp, cs), right(cn, cp, cs)
                    return first or second

        elif (
            isinstance(node, BinaryOp)
            and node.op in _NUM_OPERATORS
            and node.left.value_type == node.right.value_type == "num"
        ):
            left, right = operands
            function = _NUM_OPERATORS[node.op]

            def apply_op(cn, cp, cs):
                return function(left(cn, cp, cs), right(cn, cp, cs))

        elif isinstance(node, BinaryOp) and node.op in COMPARE:
            left, right = operands
            op, left_type, right_type = node.op, node.left.value_type, node.right.value_type
            strval, numval = self.strval, self.numval
            nset_left = left_type == "nset"
            scalar_type = right_type if nset_left else left_type
            if scalar_type in ("num", "str") and (right_type == "nset") != nset_left:
                # ∃ member m: read(m) test bound, resolved here once.
                test_op = op if nset_left else FLIPPED[op]
                test = COMPARE[test_op]
                read, coerce = member_operands(test_op, scalar_type, strval, numval)
                members, scalar = (left, right) if nset_left else (right, left)

                def apply_op(cn, cp, cs):
                    nodes, bound = members(cn, cp, cs), coerce(scalar(cn, cp, cs))
                    return any(test(read(member), bound) for member in nodes)

            else:

                def apply_op(cn, cp, cs):
                    return compare_values(
                        op, left(cn, cp, cs), left_type, right(cn, cp, cs), right_type,
                        strval, numval,
                    )

        else:
            own = 0  # apply_operator ticks for itself
            document = self.document

            def apply_op(cn, cp, cs):
                values = [operand(cn, cp, cs) for operand in operands]
                return apply_operator(document, node, values, cn)

        apply_op.applications = own + sum(operand.applications for operand in operands)
        self._operators[node.uid] = apply_op
        return apply_op

    def _eval_path_single(self, node: Expr, triple: tuple) -> list[int]:
        if isinstance(node, Union):
            return merge_union(
                self._eval_path_single(node.left, triple),
                self._eval_path_single(node.right, triple),
            )
        if not isinstance(node, Path):
            return self.eval_single_context(node, triple)
        if node.absolute:
            current = [0]
        elif node.primary is not None:
            current = self.eval_single_context(node.primary, triple)
            for predicate in node.primary_predicates:
                current = self._filter_document_order(current, predicate)
        else:
            current = [triple[0]]
        return self._sweep(node.steps, current)

    # ------------------------------------------------------------------
    # eval_inner_locpath (Section 6)
    # ------------------------------------------------------------------

    def eval_inner_locpath(self, expr: Expr, X: list[int]) -> dict[int, list[int]]:
        """Evaluate an inner location path as the relation
        ``table(N) ⊆ dom × 2^dom`` (context node → reachable set). An
        absolute path, or any path for a single context node, is one
        origin and runs as a set sweep (:meth:`_compose_steps`); the
        rows of an absolute path all share its one reachable set."""
        stats.count("inner_path_evaluations")
        if isinstance(expr, Union):
            left = self.eval_inner_locpath(expr.left, X)
            right = self.eval_inner_locpath(expr.right, X)
            return {x: merge_union(left[x], right[x]) for x in X}
        if isinstance(expr, ConstantNodeSet):
            return dict.fromkeys(X, constant_pres(self.document, expr))
        if not isinstance(expr, Path):
            self.eval_by_cnode_only(expr, X)
            return {x: self._lookup(expr, x) for x in X}
        if expr.absolute:
            # One row per context node, all sharing the one reachable set.
            reachable = self._compose_steps(expr.steps, {0: [0]})[0]
            return dict.fromkeys(X, reachable)
        if expr.primary is not None:
            self.eval_by_cnode_only(expr.primary, X)
            mapping = {}
            for x in X:
                selected = self._lookup(expr.primary, x)
                for predicate in expr.primary_predicates:
                    selected = self._filter_document_order(selected, predicate)
                mapping[x] = selected
            return self._compose_steps(expr.steps, mapping)
        return self._compose_steps(expr.steps, {x: [x] for x in X})

    def _compose_steps(
        self, steps: list[Step], mapping: dict[int, list[int]]
    ) -> dict[int, list[int]]:
        """``π1/π2`` composition: thread the origin→reachable relation
        through each step's per-origin relation.

        A mapping with one origin — an absolute path, or any path
        prepared for a single context — is a relation with one row, and
        that row is a node set: it runs as :meth:`_sweep`, the set loop
        of eval_outermost_locpath, and composes no relation cells.
        Positional predicates still rank per context node of each step
        there. Only two or more origins build per-origin relations."""
        if len(mapping) == 1:
            ((x, reachable),) = mapping.items()
            return {x: self._sweep(steps, reachable)}
        for axis, step in fused_steps(steps):
            origins = sorted(set().union(*mapping.values()))
            relation = self._inner_step_relation(step, origins, axis)
            composed = {}
            cells = 0
            for x, reachable in mapping.items():
                targets = composed[x] = sorted(
                    set().union(*(relation[y] for y in reachable if y in relation))
                )
                cells += len(targets)
            mapping = composed
            stats.count("mincontext_relation_cells", cells)
        return mapping

    def _inner_step_relation(
        self, step: Step, X: list[int], axis: str
    ) -> dict[int, list[int]]:
        """Per-origin step results along ``axis`` (the pseudo-code's
        ``χ::t[e1]...[eq]`` case of eval_inner_locpath); origins that
        reach nothing have no entry."""
        document = self.document
        Y = step_candidate_pres(document, axis, X, step.node_test)
        for predicate in step.predicates:
            self.eval_by_cnode_only(predicate, Y)
        if position_free(step):
            passing = self.filter_by_cnode(step.predicates, Y)
            return step_relation_pres(document, axis, X, passing, step.node_test)
        relation = step_relation_pres(document, axis, X, Y, step.node_test)
        for x, candidates in relation.items():
            relation[x] = self.filter_by_position(step.predicates, candidates)
        return relation


def _position(cn, cp, cs):
    if cp is WILDCARD:
        raise EvaluationError("position() evaluated under a wildcard position")
    return float(cp)


def _last(cn, cp, cs):
    if cs is WILDCARD:
        raise EvaluationError("last() evaluated under a wildcard size")
    return float(cs)


#: ``position()`` / ``last()`` return the context component itself.
_CONTEXT_ACCESSORS = {"position": _position, "last": _last}
_position.applications = _last.applications = 0


def _count_applications(single, contexts: int) -> None:
    """Tick ``operator_applications`` for ``contexts`` calls of a
    compiled node about to be made."""
    if single.applications:
        stats.count("operator_applications", single.applications * contexts)


def _position_bound(predicate: Expr):
    """``(op, e)`` when the predicate is ``position() RelOp e`` or ``e
    RelOp position()`` — ``op`` with ``position()`` on the left — and
    ``e`` a :func:`_list_constant`; else ``None``."""
    if not (isinstance(predicate, BinaryOp) and predicate.op in COMPARE):
        return None
    left, right = predicate.left, predicate.right
    if _is_position(left) and _list_constant(right):
        return predicate.op, right
    if _is_position(right) and _list_constant(left):
        return FLIPPED[predicate.op], left
    return None


def _is_position(node: Expr) -> bool:
    return isinstance(node, FunctionCall) and node.name == "position"


def _list_constant(node: Expr) -> bool:
    """A ``num`` with ``Relev ⊆ {cs}`` whose compiled form ticks nothing
    itself: ``last()``, a table row, or float arithmetic over them
    (:func:`~repro.core.common.apply_operator` ticks per call, so a library
    call would count once where the loop counts per member)."""
    if node.value_type != "num" or not node.relev <= {"cs"}:
        return False
    if not node.relev:
        return True
    if isinstance(node, FunctionCall):
        return node.name == "last"
    return (
        isinstance(node, BinaryOp)
        and node.op in _ARITHMETIC
        and _list_constant(node.left)
        and _list_constant(node.right)
    )


def position_window(op: str, bound: float, candidates: list) -> list:
    """The members of ``candidates`` whose 1-based position ``p`` has
    ``COMPARE[op](p, bound)``, as a slice: ``=`` keeps at most one
    member, ``!=`` drops at most one, ``<`` / ``<=`` keep a prefix and
    ``>`` / ``>=`` a suffix."""
    if bound != bound:  # NaN: only != holds
        return candidates[:] if op == "!=" else []
    size = len(candidates)
    # Positions run 1..size: a bound clamped to [0, size + 1] compares
    # the same with each, and ±∞ leaves floor / ceil.
    bound = min(max(bound, 0.0), size + 1.0)
    if op == "<":
        return candidates[: max(0, math.ceil(bound) - 1)]
    if op == "<=":
        return candidates[: math.floor(bound)]
    if op == ">":
        return candidates[math.floor(bound) :]
    if op == ">=":
        return candidates[max(0, math.ceil(bound) - 1) :]
    index = int(bound) - 1
    hit = bound == index + 1 and 0 <= index < size
    if op == "=":
        return candidates[index : index + 1] if hit else []
    return candidates[:index] + candidates[index + 1 :] if hit else candidates[:]


def position_free(step: Step) -> bool:
    """No predicate of the step reads the context position or size."""
    return all(_CPCS.isdisjoint(predicate.relev) for predicate in step.predicates)


def fused_steps(steps: list[Step]) -> list[tuple[str, Step]]:
    """The ``(axis, step)`` pairs a step loop runs: a bare
    ``descendant-or-self::node()`` followed by a ``child::t`` step whose
    predicates are position-free (``//t``) is the one pair
    ``("descendant", child step)``; every other step is its own axis."""
    pairs = []
    for step in steps:
        if pairs and step.axis == "child" and position_free(step):
            axis, previous = pairs[-1]
            if (
                axis == "descendant-or-self"
                and previous.node_test.kind == "node"
                and not previous.predicates
            ):
                pairs[-1] = ("descendant", step)
                continue
        pairs.append((step.axis, step))
    return pairs
