"""Admission control: price work before doing it, refuse it typed.

The paper's complexity theorems give every (query, document) cell a
computable bound; :func:`repro.service.cost.cost_units` is that bound in
abstract units (``|D|·|Q|`` plus the positional-loop width, one formula
for every evaluator), and
:attr:`QueryService.timings <repro.service.service.QueryService.timings>`
holds the observed seconds-per-unit EMA per algorithm, which carries
each evaluator's constant factor. The :class:`AdmissionController`
multiplies the units by the rate of the evaluator ``auto`` runs (the
plan's fragment dispatch) into a pre-evaluation gate:

* **admit** — the priced cost fits the remaining deadline and the queue
  is shallow: evaluate normally (``auto``, batch sharing on);
* **degrade** — the queue passed the degrade watermark but the priced
  cost still fits: evaluate under ``auto`` with batch sharing dropped
  (shared-prefix bookkeeping costs latency the request no longer has);
* **reject** — the queue passed the high watermark (typed ``OVERLOAD``
  with a ``retry_after`` hint) or the priced cost cannot make the
  deadline (typed ``OVERLOAD`` with *no* hint: retrying the same
  request cannot help).

Everything here is arithmetic over two numbers of the document's index
and the plan's traits — no evaluation ever starts for a rejected
request, which is what keeps the daemon's p99 bounded under overload
(the EXP-SERVE gate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.cost import cost_units, document_profile
from repro.stats import TimingStats


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one request (single query or batch).

    ``algorithm`` is always ``"auto"``: a degrade changes only
    ``share``, which is False whenever the request was degraded.
    ``retry_after`` is the backoff hint for rejections (``None`` when
    retrying cannot help).
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
    service's timings so every served evaluation sharpens the next
    admission decision."""

    #: Seed seconds-per-unit before any timing observations exist.
    #: Deliberately conservative (admission should start strict and
    #: relax as real rates come in); the observed rate replaces it after
    #: ``MIN_OBSERVATIONS`` evaluations per algorithm.
    DEFAULT_SECONDS_PER_UNIT = 2e-7
    #: Observations an algorithm needs before its observed rate replaces
    #: the seed: the timings' warm-up, whose median the rate then is.
    MIN_OBSERVATIONS = TimingStats.WARMUP

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
        timings = self.service.timings
        if timings.observation_count(algorithm) < self.MIN_OBSERVATIONS:
            return self.seconds_per_unit
        rate = timings.rate(algorithm)
        return rate if rate is not None else self.seconds_per_unit

    def price(self, plan, document) -> float:
        """Priced seconds for one (query, document) cell under the
        evaluator ``auto`` runs,
        :meth:`~repro.service.plan.LogicalPlan.best_algorithm`: the
        cell's units × that evaluator's rate."""
        units = cost_units(plan, document_profile(document))
        return units * self._rate(plan.best_algorithm())

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

        A degrade keeps ``auto`` and drops sharing; ``auto`` already
        runs the evaluator the price was taken for.
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
        if auto_price > budget:
            return AdmissionDecision(
                action="reject",
                priced_seconds=auto_price,
                reason=(
                    f"priced cost {auto_price:.4f}s exceeds the "
                    f"{budget:.4f}s budget"
                ),
                # No hint on purpose: the same request would be refused again.
                retry_after=None,
            )
        if queue_depth < self.queue_degrade:
            return AdmissionDecision(
                action="admit", priced_seconds=auto_price, reason="within budget"
            )
        return AdmissionDecision(
            action="degrade",
            share=False,
            priced_seconds=auto_price,
            reason=(
                f"queue depth {queue_depth} past the degrade watermark "
                f"{self.queue_degrade}"
            ),
        )
