"""Public engine facade.

:class:`XPathEngine` is a thin per-document convenience wrapper over the
compiler (:mod:`repro.service.planner`): parse →
normalize (variables substituted, conversions explicit) → relevance
analysis → fragment classification — produces the document-independent
:class:`LogicalPlan <repro.service.plan.LogicalPlan>`, and
``algorithm='auto'`` picks the best algorithm the paper provides for the
query's fragment, for every document alike:

* whole-query Core XPath (Definition 12)  → ``corexpath``  (Theorem 13)
* everything else                          → ``optmincontext`` (Thm 7/10)

The slower algorithms (``naive``, ``bottomup``, ``topdown``,
``mincontext``) remain selectable — the benchmark harness and the
differential test suite exercise all of them on the same queries.

For serving many queries over many documents with plan/result caching,
use :class:`repro.service.QueryService`; the engine keeps only a simple
unbounded per-engine plan memo.

Example::

    from repro import XPathEngine, parse_document

    doc = parse_document("<a><b id='1'/><b id='2'/></a>")
    engine = XPathEngine(doc)
    nodes = engine.evaluate("/child::a/child::b[position() = last()]")
    assert [n.xml_id for n in nodes] == ["2"]
"""

from __future__ import annotations

from repro.core.common import box_value
from repro.core.context import Context
from repro.core.mincontext import MinContextEvaluator
from repro.errors import ReproError
from repro.service.plan import CompiledPlan, CompiledQuery
from repro.service.planner import (
    ALGORITHMS,
    QueryPlanner,
    make_evaluator,
    resolve_algorithm,
)
from repro.xml.document import Document, Node

__all__ = ["ALGORITHMS", "CompiledPlan", "CompiledQuery", "XPathEngine"]


class XPathEngine:
    """Evaluate XPath 1.0 queries against one document."""

    def __init__(
        self,
        document: Document,
        variables: dict[str, object] | None = None,
        optimize: bool = False,
    ):
        self.document = document
        self.variables = dict(variables or {})
        self.optimize = optimize
        self._planner = QueryPlanner()
        self._cache: dict[str, CompiledPlan] = {}

    # ------------------------------------------------------------------

    def compile(self, query: str) -> CompiledPlan:
        """Parse + normalize (+ optionally rewrite) + analyze a query
        (cached per engine)."""
        cached = self._cache.get(query)
        if cached is not None:
            return cached
        compiled = self._planner.compile(query, self.variables, self.optimize)
        self._cache[query] = compiled
        return compiled

    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: str | CompiledPlan,
        context_node: Node | None = None,
        context_position: int = 1,
        context_size: int = 1,
        algorithm: str = "auto",
    ):
        """Evaluate ``query`` for the context
        ``⟨context_node, context_position, context_size⟩``.

        Args:
            query: query string or a :meth:`compile` result.
            context_node: defaults to the document node (so absolute and
                relative queries both behave naturally at the top level).
            algorithm: one of :data:`ALGORITHMS`; unknown names raise
                :class:`repro.errors.UnknownAlgorithmError`.

        Returns:
            A document-ordered ``list[Node]`` for node-set queries, or a
            ``float``/``str``/``bool`` scalar.
        """
        compiled = self.compile(query) if isinstance(query, str) else query
        if context_node is None:
            context_node = self.document.root
        context = Context(context_node, context_position, context_size)
        resolved = resolve_algorithm(compiled, algorithm)
        return make_evaluator(self.document, resolved).evaluate(compiled.ast, context)

    # ------------------------------------------------------------------

    def table(
        self,
        query: str | CompiledPlan,
        nodes=None,
        use_bottomup: bool = True,
    ) -> dict[Node, object]:
        """The context-value-table principle as a public API: evaluate the
        query *simultaneously for every context node* and return one
        ``{context_node: value}`` mapping.

        This is asymptotically cheaper than calling :meth:`evaluate` in a
        loop — exactly the paper's point (Section 2.3): shared tables are
        built once. Only queries independent of the context position/size
        qualify (``Relev ⊆ {'cn'}``); others raise
        :class:`repro.errors.ReproError` since ``cp``/``cs`` would be
        unbound.

        Args:
            query: query string or compiled query.
            nodes: restrict the table to these context nodes (defaults to
                every node of the document).
            use_bottomup: run OPTMINCONTEXT's bottom-up pass first
                (Algorithm 8) — cheaper for existential subexpressions.
        """
        compiled = self.compile(query) if isinstance(query, str) else query
        relev = compiled.ast.relev or frozenset()
        if "cp" in relev or "cs" in relev:
            raise ReproError(
                "table() needs a position/size-independent query "
                f"(Relev = {sorted(relev)})"
            )
        from repro.core.bottomup_paths import eval_bottomup_path
        from repro.xpath.fragments import find_bottomup_paths as _find

        context_nodes = list(nodes) if nodes is not None else list(self.document.nodes)
        evaluator = MinContextEvaluator(self.document)
        if use_bottomup:
            for node in _find(compiled.ast):
                eval_bottomup_path(evaluator, node)
        evaluator.eval_by_cnode_only(
            compiled.ast, sorted({node.pre for node in context_nodes})
        )
        return {
            context_node: box_value(
                self.document,
                evaluator.eval_single_context(compiled.ast, (context_node.pre, 1, 1)),
                compiled.result_type,
            )
            for context_node in context_nodes
        }

    def select(self, query: str | CompiledPlan, **kwargs) -> list[Node]:
        """Like :meth:`evaluate`, but asserts a node-set result."""
        result = self.evaluate(query, **kwargs)
        if not isinstance(result, list):
            raise ReproError(
                f"select() needs a node-set query, got a {type(result).__name__} result"
            )
        return result
