"""Batch-shared step DAG — the multi-query stage between logical
planning and per-document evaluation.

The paper's polynomial algorithms win by never recomputing a
context–subexpression pair *within* one query; this module lifts the
same memoization theme *across* a batch. ``evaluate_many``'s queries
routinely share structure — common absolute-path prefixes, repeated
axis::test steps, overlapping predicates — and evaluating every (query,
document) cell independently recomputes those shared intermediate
node-sets once per query. Instead:

1. Every sharable :class:`~repro.service.plan.LogicalPlan` (a plain
   absolute location path, classified at compile time via
   ``traits.step_keys`` — canonical per-step unparse renderings of the
   *normalized* AST, so ``//a`` and
   ``/descendant-or-self::node()/child::a`` unify) contributes its chain
   of step keys.
2. The chains are unified into a prefix DAG: every step prefix with at
   least two distinct consumer plans becomes a *materialized* prefix
   node, compiled once into its own prefix plan (over a consumer's own
   steps, so no unparse→reparse round trip is trusted, and described
   from the consumer's ``step_summaries``, so nothing walks it) whose
   parent is its longest materialized proper prefix.
3. Per document, each distinct (prefix, document) node-set is evaluated
   at most once — lazily, only when a consumer actually misses the
   session memo — as a residual sweep over its parent's sorted pre
   array, and fed through the existing
   :class:`~repro.service.service.DocumentSession` result memo
   (:meth:`~repro.service.service.DocumentSession.evaluate_computed`),
   so repeat batches, duplicate queries, and ``share=False`` runs all
   see compatible memo entries.
4. Each consumer plan is then evaluated as a residual of its longest
   materialized prefix: Core-step suffixes resume the Theorem 13
   forward sweep directly from the prefix's pre array
   (:meth:`~repro.core.corexpath.CoreXPathEvaluator.forward_from_pres`);
   suffixes with full-XPath predicates become a
   :class:`~repro.xpath.ast.ConstantNodeSet`-rooted residual plan that
   OPTMINCONTEXT evaluates (a residual is outside Core XPath by
   construction, so this is ``auto``'s own dispatch).

Soundness: a location step is a pure set function of its origin set —
per-origin candidate lists (so positional predicates rank within each
origin, exactly as unsplit evaluation does), unioned — hence splitting
an absolute path at any step boundary preserves its value. The two
sharing exclusions are plans embedding a ``ConstantNodeSet`` (its
unparse renders only the set's *size*, so different bindings would
collide on one step key; ``traits.step_keys`` is empty for them) and
forced algorithms (``algorithm != 'auto'`` must run the requested
evaluator, so :meth:`QueryService.evaluate_many` only builds a DAG for
``auto`` batches).

Worst-case guarantees do not regress: sharing only ever *removes* work
(prefixes are lazy, each computed at most once per document, and the
telescoped prefix cost assigned to a miss cell never exceeds the steps
independent evaluation would have spent — see
:class:`repro.stats.BatchPlanStats`), and any per-cell error falls back
to an independent evaluation of that cell, keeping the paper's bounds
intact cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.service.plan import LogicalPlan
from repro.stats import BatchPlanStats
from repro.xml.document import Document
from repro.xpath.ast import ConstantNodeSet, Path, Step, clone
from repro.xpath.normalize import StepSummary, analyze, prefix_analysis


def _steps_are_core(steps: tuple[StepSummary, ...]) -> bool:
    """Whether a step suffix, given its steps' summaries, can resume the
    Core XPath forward sweep."""
    return all(step.core is None for step in steps)


# ----------------------------------------------------------------------
# DAG construction
# ----------------------------------------------------------------------


@dataclass
class PrefixNode:
    """One materialized step prefix: a compiled plan of its own, plus the
    residual link to its longest materialized proper prefix."""

    chain: tuple[str, ...]
    plan: LogicalPlan
    parent: tuple[str, ...] | None
    consumers: int
    #: The steps past ``parent`` (applying them mutates nothing).
    residual_steps: list[Step] = field(default_factory=list)
    residual_core: bool = True


@dataclass
class BatchEntry:
    """One input plan's sharing decision."""

    plan: LogicalPlan
    chain: tuple[str, ...]
    #: The longest materialized prefix of ``chain`` (None → evaluated
    #: independently, exactly as without sharing).
    base: tuple[str, ...] | None = None
    residual_steps: list[Step] = field(default_factory=list)
    residual_core: bool = True

    @property
    def sharable(self) -> bool:
        return bool(self.chain)


def _longest_materialized(
    chain: tuple[str, ...], upto: int, materialized
) -> tuple[str, ...] | None:
    for length in range(upto, 0, -1):
        if chain[:length] in materialized:
            return chain[:length]
    return None


def _compile_prefix(chain: tuple[str, ...], plan: LogicalPlan, length: int) -> LogicalPlan:
    """Compile one materialized prefix into a standalone plan.

    The AST is a new absolute path over the first ``length`` steps of a
    consumer plan (already normalized/rewritten, annotations included),
    never re-parsed from the canonical text — the text is only the plan's
    stable source/cache key, so prefix memo entries survive across
    batches and across syntactic variants that normalize to the same
    chain. The steps are shared, not copied: nothing annotates them
    again, and no evaluation sees both trees (table-based evaluators,
    which key tables by uid, are built fresh per evaluation). Verdicts,
    path count and traits come from the consumer's step summaries:
    nothing walks the prefix.
    """
    ast = Path(absolute=True, steps=plan.ast.steps[:length])
    analysis = prefix_analysis(ast, plan.step_summaries[:length])
    return LogicalPlan.from_analysis("/" + "/".join(chain), analysis)


def _residual_plan(
    plan: LogicalPlan, steps: list[Step], base_pres: list[int], document: Document
) -> LogicalPlan:
    """A per-(cell, document) residual plan: the already-materialized
    prefix result as a ``ConstantNodeSet`` primary, the remaining steps
    cloned on top. Only built for non-Core suffixes (Core ones resume
    the sorted-pre-array sweep directly); always evaluated with
    ``cached=False`` so its ad-hoc source never lands in any memo."""
    primary = ConstantNodeSet(document.nodes_at(base_pres))
    primary.value_type = "nset"
    ast = Path(primary=primary, steps=[clone(step) for step in steps])
    ast.value_type = "nset"
    return LogicalPlan.from_analysis(
        f"<residual of {plan.source!r}>", analyze(ast, normalized=True)
    )


class BatchPlan:
    """The shared-step DAG for one batch of logical plans.

    Build once per batch, then call :meth:`evaluate_row` once per
    document (:meth:`~repro.service.QueryService.batch_rows` does). :attr:`stats` carries the
    exact :class:`~repro.stats.BatchPlanStats` for this batch.
    """

    def __init__(self, plans: list[LogicalPlan]):
        self.stats = BatchPlanStats()
        self.nodes: dict[tuple[str, ...], PrefixNode] = {}
        self.entries: list[BatchEntry] = []
        self._build(plans)

    # ------------------------------------------------------------------

    def _build(self, plans: list[LogicalPlan]) -> None:
        distinct: dict[tuple, LogicalPlan] = {}
        for plan in plans:
            distinct.setdefault(plan.cache_key, plan)
        counts: dict[tuple[str, ...], int] = {}
        representatives: dict[tuple[str, ...], tuple[LogicalPlan, int]] = {}
        for plan in distinct.values():
            chain = plan.traits.step_keys
            for length in range(1, len(chain) + 1):
                prefix = chain[:length]
                counts[prefix] = counts.get(prefix, 0) + 1
                representatives.setdefault(prefix, (plan, length))
        materialized = {prefix for prefix, n in counts.items() if n >= 2}
        for chain in sorted(materialized, key=lambda c: (len(c), c)):
            plan, length = representatives[chain]
            prefix_plan = _compile_prefix(chain, plan, length)
            parent = _longest_materialized(chain, len(chain) - 1, materialized)
            covered = length if parent is None else len(parent)
            self.nodes[chain] = PrefixNode(
                chain=chain,
                plan=prefix_plan,
                parent=parent,
                consumers=counts[chain],
                residual_steps=prefix_plan.ast.steps[covered:],
                residual_core=_steps_are_core(plan.step_summaries[covered:length]),
            )
        for plan in plans:
            chain = plan.traits.step_keys
            entry = BatchEntry(plan=plan, chain=chain)
            if chain and self.nodes:
                base = _longest_materialized(chain, len(chain), self.nodes)
                if base is not None:
                    entry.base = base
                    entry.residual_steps = plan.ast.steps[len(base):]
                    entry.residual_core = _steps_are_core(plan.step_summaries[len(base):])
            self.entries.append(entry)
        shared_keys = {
            entry.plan.cache_key for entry in self.entries if entry.base is not None
        }
        sharable_keys = {
            key for key, plan in distinct.items() if plan.traits.step_keys
        }
        self.stats.plan_counts(
            sharable=len(sharable_keys),
            shared=len(shared_keys),
            independent=len(distinct) - len(shared_keys),
            prefixes=len(self.nodes),
        )

    # ------------------------------------------------------------------

    @property
    def shared(self) -> bool:
        """Whether any prefix was materialized (no → evaluating through
        this plan degenerates to the independent per-cell loop)."""
        return bool(self.nodes)

    def evaluate_row(self, session) -> list[object]:
        """All of this batch's plans against one document's session, in
        input order — shared cells through the DAG, everything else
        exactly as independent evaluation would."""
        prefix_cache: dict[tuple[str, ...], list[int]] = {}
        row = []
        for entry in self.entries:
            if entry.base is None:
                row.append(session.evaluate(entry.plan, algorithm="auto"))
            else:
                self.stats.cell()
                row.append(self._cell_value(session, entry, prefix_cache))
        return row

    def _cell_value(self, session, entry: BatchEntry, prefix_cache) -> object:
        plan = entry.plan
        computed: list[bool] = []

        def compute():
            computed.append(True)
            try:
                base_pres = self._prefix_pres(session, entry.base, prefix_cache)
                value = self._apply_residual(
                    session,
                    plan,
                    entry.residual_steps,
                    entry.residual_core,
                    base_pres,
                )
            except ReproError:
                # Per-cell fallback: any sharing-path error (fragment
                # probe wrong, kernel refusal, ...) costs exactly one
                # independent evaluation — the paper's bounds per cell.
                self.stats.fallback()
                return session.evaluate(plan, algorithm="auto", cached=False)
            self.stats.shared_evaluation(
                total_steps=len(entry.chain),
                residual_steps=len(entry.residual_steps),
            )
            return value

        value = session.evaluate_computed(plan, "auto", compute)
        if not computed:
            self.stats.memo_hit()
        return value

    def _prefix_pres(self, session, chain, prefix_cache) -> list[int]:
        """The materialized prefix's sorted pre array for this document —
        row-cached, session-memoized, computed (at most once per
        document) as a residual of its parent prefix."""
        pres = prefix_cache.get(chain)
        if pres is not None:
            self.stats.prefix_memo_hit()
            return pres
        node = self.nodes[chain]
        computed: list[bool] = []

        def compute():
            computed.append(True)
            if node.parent is None:
                value = session.evaluate(node.plan, algorithm="auto", cached=False)
                self.stats.prefix_evaluation(len(chain))
                return value
            base_pres = self._prefix_pres(session, node.parent, prefix_cache)
            value = self._apply_residual(
                session,
                node.plan,
                node.residual_steps,
                node.residual_core,
                base_pres,
            )
            self.stats.prefix_evaluation(len(chain) - len(node.parent))
            return value

        value = session.evaluate_computed(node.plan, "auto", compute)
        if not computed:
            self.stats.prefix_memo_hit()
        # Results come back in document order, so the pre projection is
        # already the sorted array the step kernels expect.
        pres = [n.pre for n in value]
        prefix_cache[chain] = pres
        return pres

    def _apply_residual(
        self,
        session,
        plan: LogicalPlan,
        steps: list[Step],
        core_ok: bool,
        base_pres: list[int],
    ) -> list:
        document = session.document
        if not steps:
            return document.nodes_at(base_pres)
        if core_ok:
            evaluator = session.evaluator("corexpath")
            return document.nodes_at(evaluator.forward_from_pres(steps, base_pres))
        residual = _residual_plan(plan, steps, base_pres, document)
        return session.evaluate(residual, algorithm="optmincontext", cached=False)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """The DAG, human-readable (``repro-xpath plan --explain-batch``)."""
        lines = [
            "batch plan: "
            f"{len(self.entries)} plan(s), "
            f"{sum(1 for e in self.entries if e.sharable)} sharable, "
            f"{sum(1 for e in self.entries if e.base is not None)} shared, "
            f"{len(self.nodes)} materialized prefix(es)"
        ]
        order = sorted(self.nodes, key=lambda c: (len(c), c))
        index = {chain: i for i, chain in enumerate(order)}
        for chain in order:
            node = self.nodes[chain]
            parent = (
                f"prefix[{index[node.parent]}] + {len(node.residual_steps)} step(s)"
                if node.parent is not None
                else "root"
            )
            lines.append(
                f"  prefix[{index[chain]}]: {node.plan.source}"
                f"  <- {parent}  (consumers={node.consumers})"
            )
        for position, entry in enumerate(self.entries):
            if entry.base is not None:
                suffix = "empty" if not entry.residual_steps else (
                    f"{len(entry.residual_steps)} step(s)"
                    + ("" if entry.residual_core else ", full-XPath predicates")
                )
                detail = f"base=prefix[{index[entry.base]}], residual={suffix}"
            elif entry.sharable:
                detail = "independent (no prefix shared by another plan)"
            else:
                detail = "independent (not a sharable absolute location path)"
            lines.append(f"  plan {position}: {entry.plan.source!r}  {detail}")
        return "\n".join(lines)


def build_batch_plan(
    plans: list[LogicalPlan], algorithm: str = "auto", share: bool = True
) -> BatchPlan | None:
    """The shared-step DAG for a batch, or ``None`` when nothing may
    share: an empty batch, ``share=False``, or a forced algorithm."""
    if not plans or not share or algorithm != "auto":
        return None
    return BatchPlan(list(plans))
