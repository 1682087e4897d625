"""Deterministic fault injection for the serving daemon.

Every failure mode the daemon promises to survive is triggerable on
demand, keyed by query substring so a test (or the EXP-SERVE soak) can
aim a fault at exactly one request in a busy workload:

* **slow evaluator** — ``delay_matching``/``delay_seconds`` sleeps
  inside the worker-thread evaluation, after admission: the way a
  mispriced query blows a deadline in production;
* **worker death** — ``die_matching`` raises inside the evaluation,
  modelling a worker crash; the daemon must convert it into a typed
  ``EVALUATION`` error response, never a lost response;
* **mid-stream disconnect** — ``disconnect_matching`` makes the daemon
  drop the connection right before writing the matching response; the
  client sees EOF, the daemon's counters stay reconciled;
* **malformed frames** are injected from the *client* side (send any
  non-JSON line) — no server seam needed; the protocol resynchronizes
  at the next newline.

The injector counts ``evaluations_started`` on its
:data:`~repro.stats.FaultStats` family — the proof the
admission tests lean on that a rejected request never reached
evaluation.
"""

from __future__ import annotations

import time

from repro.stats import FaultStats


class FaultInjector:
    """The daemon's fault seam; inert by default.

    Matching is plain substring-in-query, so faults are deterministic
    under any concurrency: the same request always hits the same fault.
    """

    def __init__(
        self,
        delay_matching: str | None = None,
        delay_seconds: float = 0.0,
        die_matching: str | None = None,
        disconnect_matching: str | None = None,
    ):
        self.delay_matching = delay_matching
        self.delay_seconds = delay_seconds
        self.die_matching = die_matching
        self.disconnect_matching = disconnect_matching
        self.stats = FaultStats()

    def before_evaluate(self, query: str) -> None:
        """Called inside the evaluation thread, after admission. Sleeps
        (slow evaluator) or raises (worker death) on a match."""
        self.stats.tick("evaluations_started")
        if self.delay_matching is not None and self.delay_matching in query:
            self.stats.tick("faults_injected")
            time.sleep(self.delay_seconds)
        if self.die_matching is not None and self.die_matching in query:
            self.stats.tick("faults_injected")
            raise RuntimeError(
                f"fault injection: worker died evaluating {query!r}"
            )

    def should_disconnect(self, query: str) -> bool:
        """Called right before a QUERY reply is sent: a match makes the
        daemon drop the connection instead (mid-stream disconnect)."""
        if self.disconnect_matching is not None and self.disconnect_matching in query:
            self.stats.tick("faults_injected")
            return True
        return False

    def snapshot(self) -> dict:
        return self.stats.snapshot()
