"""Admission control: price work before doing it, refuse it typed.

The paper's complexity theorems give every (query, document) cell a
computable cost *shape*; the service layer already turned that shape
into numbers — :func:`repro.service.specialize.cost_units` estimates
abstract units per candidate algorithm, :class:`repro.stats.TimingStats`
holds the observed seconds-per-unit EMA per algorithm, and
:class:`repro.service.shard.ShardTimingHistory` holds observed
per-document seconds. The :class:`AdmissionController` composes those
oracles into a pre-evaluation gate:

* **admit** — the priced cost fits the remaining deadline and the queue
  is shallow: evaluate normally (``auto`` specialization, batch sharing
  on);
* **degrade** — the priced cost busts the budget or the queue passed the
  degrade watermark, but the *cheapest admissible* algorithm still
  fits: force that algorithm and drop batch sharing (shared-prefix
  bookkeeping costs latency the request no longer has);
* **reject** — the queue passed the high watermark (typed ``OVERLOAD``
  with a ``retry_after`` hint) or even the cheapest algorithm cannot
  make the deadline (typed ``OVERLOAD`` with *no* hint: retrying the
  same request cannot help).

Everything here is O(candidates) arithmetic over memoized profiles — no
evaluation ever starts for a rejected request, which is what keeps the
daemon's p99 bounded under overload (the EXP-SERVE gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.service.specialize import auto_candidates, cost_units, document_profile


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one request (single query or batch).

    ``algorithm`` is ``"auto"`` for admits and the forced cheapest
    admissible evaluator for single-query degrades; ``share`` is False
    whenever the request was degraded. ``retry_after`` is the backoff
    hint for rejections (``None`` when retrying cannot help).
    """

    action: str  # "admit" | "degrade" | "reject"
    algorithm: str = "auto"
    share: bool = True
    priced_seconds: float = 0.0
    reason: str = ""
    retry_after: float | None = None

    @property
    def admitted(self) -> bool:
        return self.action != "reject"

    @property
    def degraded(self) -> bool:
        return self.action == "degrade"


class AdmissionController:
    """Prices (query, document) cells and gates them against deadlines
    and queue depth. One instance per daemon, sharing the daemon
    service's specializer timings and shard history so every served
    evaluation sharpens the next admission decision."""

    #: Seed seconds-per-unit before any timing observations exist.
    #: Deliberately conservative (admission should start strict and
    #: relax as real rates come in); the EMA replaces it after
    #: ``MIN_OBSERVATIONS`` evaluations per algorithm.
    DEFAULT_SECONDS_PER_UNIT = 2e-7
    #: Observations an algorithm needs before its observed rate replaces
    #: the seed (mirrors the specializer's own threshold).
    MIN_OBSERVATIONS = 3
    #: Weight of the per-document shard history in the price floor.
    HISTORY_WEIGHT = 0.25

    def __init__(
        self,
        service,
        queue_high: int = 64,
        queue_degrade: int = 16,
        max_cost_seconds: float = 5.0,
        seconds_per_unit: float | None = None,
    ):
        if queue_degrade > queue_high:
            raise ValueError(
                f"degrade watermark {queue_degrade} above high watermark {queue_high}"
            )
        self.service = service
        self.queue_high = queue_high
        self.queue_degrade = queue_degrade
        self.max_cost_seconds = max_cost_seconds
        self.seconds_per_unit = (
            self.DEFAULT_SECONDS_PER_UNIT if seconds_per_unit is None else seconds_per_unit
        )

    # -- pricing --------------------------------------------------------

    def _rate(self, algorithm: str) -> float:
        """Observed seconds-per-unit for an algorithm, or the seed."""
        specializer = self.service.specializer
        if specializer is None:
            return self.seconds_per_unit
        timings = specializer.timings
        if timings.observation_count(algorithm) < self.MIN_OBSERVATIONS:
            return self.seconds_per_unit
        rate = timings.rate(algorithm)
        return rate if rate is not None else self.seconds_per_unit

    @staticmethod
    def _candidates(plan) -> tuple[str, ...]:
        """The degrade pool: ``auto``'s candidates for the plan
        (:func:`~repro.service.specialize.auto_candidates`)."""
        return auto_candidates(plan.is_core_xpath)

    def _history_floor(self, document) -> float:
        """A per-document price floor from the shard timing history: a
        document whose past evaluations ran slow raises every price on
        it, whatever the unit model claims."""
        history = getattr(self.service, "shard_history", None)
        if history is None:
            return 0.0
        predicted = history.predicted_weights([document])
        if not predicted:
            return 0.0
        return self.HISTORY_WEIGHT * predicted[0]

    def price(self, plan, document, algorithm: str = "auto") -> float:
        """Priced seconds for one (query, document) cell: model units ×
        per-algorithm rate, floored by the document's shard history.
        ``auto`` prices the cheapest candidate (what specialization
        would pick, modulo guarantee clamps — admission wants a lower
        bound it can trust, not the exact selection)."""
        profile = document_profile(document)
        if algorithm == "auto":
            model = min(
                cost_units(plan, profile, name) * self._rate(name)
                for name in self._candidates(plan)
            )
        else:
            model = cost_units(plan, profile, algorithm) * self._rate(algorithm)
        return max(model, self._history_floor(document))

    def cheapest(self, plan, documents) -> tuple[str, float]:
        """The cheapest admissible forced algorithm for a plan across
        documents, with its total price — the degrade target."""
        best_name, best_price = None, math.inf
        for name in self._candidates(plan):
            total = sum(self.price(plan, document, name) for document in documents)
            if total < best_price:
                best_name, best_price = name, total
        return best_name, best_price

    # -- the gate -------------------------------------------------------

    def _backoff(self, queue_depth: int) -> float:
        """Queue-pressure retry hint, proportional to the overshoot."""
        over = max(queue_depth - self.queue_degrade, 1)
        return min(0.05 * over, 2.0)

    def decide(
        self,
        plans,
        documents,
        deadline_seconds: float | None = None,
        queue_depth: int = 0,
    ) -> AdmissionDecision:
        """Gate one request — a single plan or a whole batch (every plan
        × every document) — **before any evaluation starts**.

        Single-query degrades force the cheapest admissible algorithm;
        batch degrades drop sharing and keep per-cell ``auto`` (the
        streaming scheduler evaluates one algorithm choice per cell, so
        a batch-wide forced algorithm could only over-price cells).
        """
        plans = list(plans)
        documents = list(documents)
        if queue_depth >= self.queue_high:
            return AdmissionDecision(
                action="reject",
                reason=(
                    f"queue depth {queue_depth} at or above the high "
                    f"watermark {self.queue_high}"
                ),
                retry_after=self._backoff(queue_depth),
            )
        auto_price = sum(
            self.price(plan, document)
            for plan in plans
            for document in documents
        )
        budget = self.max_cost_seconds
        if deadline_seconds is not None:
            budget = min(budget, deadline_seconds)
        crowded = queue_depth >= self.queue_degrade
        if auto_price <= budget and not crowded:
            return AdmissionDecision(
                action="admit", priced_seconds=auto_price, reason="within budget"
            )
        if len(plans) == 1:
            algorithm, degraded_price = self.cheapest(plans[0], documents)
        else:
            algorithm, degraded_price = "auto", auto_price
        if degraded_price <= budget:
            reason = (
                f"queue depth {queue_depth} past the degrade watermark "
                f"{self.queue_degrade}"
                if crowded and auto_price <= budget
                else (
                    f"priced {auto_price:.4f}s over the {budget:.4f}s budget; "
                    f"cheapest admissible fits at {degraded_price:.4f}s"
                )
            )
            return AdmissionDecision(
                action="degrade",
                algorithm=algorithm,
                share=False,
                priced_seconds=degraded_price,
                reason=reason,
            )
        return AdmissionDecision(
            action="reject",
            priced_seconds=degraded_price,
            reason=(
                f"priced cost {degraded_price:.4f}s exceeds the "
                f"{budget:.4f}s budget even degraded"
            ),
            # No hint on purpose: the same request would be refused again.
            retry_after=None,
        )
