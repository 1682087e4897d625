"""EXP-SERVE — the serving daemon: bounded p99 under faults, exact counters, drain.

PR 10 turned the paper's predictability result into an operational
contract: the daemon prices every (query, document) cell *before*
evaluation and refuses or degrades what cannot finish in time, so tail
latency is governed by deadlines and refusal cost — not by whatever the
slowest admitted request happens to do. Five gates:

* **p99 gate** — a sustained skewed many-client workload with fault
  injection (slow evaluations, dying workers, per-query deadlines) keeps
  the per-request p99 under ``DEADLINE_MS + SLACK``: every request
  either completes fast, deadlines out at its budget, or fails typed —
  nothing hangs past the bound;
* **reconciliation gate** — the exact :class:`~repro.stats.ServeStats`
  identities close at the protocol level: ``queries == admitted +
  rejected + request_errors`` and ``admitted == completed + deadlined +
  failed``, globally and per client, with the global counters equal to
  the per-client sums — and **zero lost responses** (every request a
  client sent got exactly one reply);
* **admission gate** — against an overloaded pricing model every query
  is refused with a typed ``OVERLOAD`` *before evaluation starts* (the
  fault injector's ``evaluations_started`` counter stays at zero) and
  the refusal p99 itself is bounded;
* **drain gate** — SIGTERM-style drain with a slow straggler in flight
  finishes inside the grace window and the straggler still receives its
  response (completed or typed ``DEADLINE``) — zero lost in-flight work;
* **hit gate** — repeats of warmed (query, document) cells are answered
  from the result memo on the event loop: ``evaluations_started`` does
  not move, ``memo_hits`` and the result cache's hits move by exactly
  the number of repeats, its misses by zero, and the identities stay
  exact. Counters only — the end-to-end number for this path is the
  ``serve-hot`` workload of ``BENCHMARK.json``.

Absolute milliseconds are machine-dependent; the gates are bounds and
exact counter identities, deterministic across machines. Run with::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import asyncio
import math
import sys
import threading
import time

from harness import ExperimentReport

from repro.errors import OverloadError, ReproError
from repro.serve import FaultInjector, ServeClient, XPathDaemon
from repro.serve.admission import AdmissionController
from repro.serve.quotas import ClientQuota
from repro.service.service import QueryService

#: Per-query deadline for the slow ("sleepy") requests, milliseconds.
DEADLINE_MS = 60.0
#: CI-runner slack on top of the deadline for the sustained-load p99.
P99_SLACK_SECONDS = 0.45
#: Refusal latency bound for fully rejected traffic (no evaluation runs).
REJECT_P99_SECONDS = 0.10
#: Daemon grace window for the drain phase...
DRAIN_GRACE = 2.0
#: ...and the wall-clock bound the drain must finish inside.
DRAIN_BOUND_SECONDS = DRAIN_GRACE + 1.0

#: Skewed per-client request counts (the "many clients, one hot" shape).
CLIENT_PLANS = (("hot", 40), ("warm", 20), ("cold", 8), ("cold2", 8))

DOCUMENT = "<lib>" + "<book><sleepy/><doomed/></book>" * 20 + "</lib>"

#: The hit gate's warmed cells: every query on every document...
HIT_QUERIES = ("//book", "count(//book)", "//book[sleepy]", "string(/lib/book[2])")
HIT_DOCUMENTS = ("d1", "d2")
#: ...each asked this many more times.
HIT_REPEATS = 200


class DaemonThread:
    """An :class:`XPathDaemon` on a private event loop in a background
    thread (the benchmark equivalent of the test suite's fixture)."""

    def __init__(self, **kwargs):
        self.holder = {}
        ready = threading.Event()

        def run():
            async def main():
                daemon = XPathDaemon(**kwargs)
                await daemon.start()
                self.holder["daemon"] = daemon
                self.holder["loop"] = asyncio.get_running_loop()
                ready.set()
                await daemon.wait_closed()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not ready.wait(10):
            raise RuntimeError("daemon failed to start")

    @property
    def daemon(self) -> XPathDaemon:
        return self.holder["daemon"]

    def initiate_drain(self) -> None:
        self.holder["loop"].call_soon_threadsafe(self.daemon.initiate_drain)

    def join(self, timeout: float = 30.0) -> None:
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("daemon loop failed to drain")

    def stop(self) -> None:
        try:
            self.initiate_drain()
        except RuntimeError:
            pass
        self.join()


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def sustained_load_phase():
    """Skewed concurrent clients against a permissive daemon with slow
    and dying evaluations; returns latencies + counter snapshots."""
    injector = FaultInjector(
        delay_matching="sleepy", delay_seconds=0.2, die_matching="doomed"
    )
    service = QueryService()
    admission = AdmissionController(
        service, seconds_per_unit=1e-12, max_cost_seconds=60.0,
        queue_high=256, queue_degrade=64,
    )
    runner = DaemonThread(
        service=service,
        injector=injector,
        quota=ClientQuota(max_in_flight=8),
        admission=admission,
    )
    latencies: dict[str, list[float]] = {name: [] for name, _ in CLIENT_PLANS}
    ledgers: dict[str, tuple[int, int]] = {}
    try:
        def client_run(name, requests):
            sent = received = 0
            with ServeClient(
                port=runner.daemon.port, client=name, timeout=30
            ) as client:
                client.register("d", DOCUMENT)
                for index in range(requests):
                    kind = index % 5
                    sent += 1
                    started = time.perf_counter()
                    try:
                        if kind == 0:
                            client.query(
                                "//sleepy", "d", deadline_ms=DEADLINE_MS, retry=False
                            )
                        elif kind == 1:
                            client.query("//doomed", "d", retry=False)
                        elif kind == 2:
                            client.batch(["//book", "count(//book)"], ["d"])
                        else:
                            client.query("//book", "d", retry=False)
                        received += 1
                    except ReproError:
                        received += 1  # a typed response IS a response
                    latencies[name].append(time.perf_counter() - started)
                ledgers[name] = (sent, received)

        threads = [
            threading.Thread(target=client_run, args=(name, count))
            for name, count in CLIENT_PLANS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            if thread.is_alive():
                raise RuntimeError("sustained-load client hung")
        snapshot = runner.daemon.stats_snapshot()
    finally:
        runner.stop()
    return latencies, ledgers, snapshot


def identities_close(snapshot: dict) -> bool:
    ok = snapshot["queries"] == (
        snapshot["admitted"] + snapshot["rejected"] + snapshot["request_errors"]
    )
    return ok and snapshot["admitted"] == (
        snapshot["completed"] + snapshot["deadlined"] + snapshot["failed"]
    )


def reconciliation_gate(stats: dict) -> bool:
    if not identities_close(stats["global"]):
        return False
    if not all(identities_close(client) for client in stats["clients"].values()):
        return False
    return all(
        stats["global"][key]
        == sum(client[key] for client in stats["clients"].values())
        for key in ("queries", "admitted", "completed", "deadlined", "failed")
    )


def admission_phase(requests: int = 24):
    """Every query priced over an impossible budget: all must be refused
    typed OVERLOAD with zero evaluations started, and fast."""
    injector = FaultInjector()
    service = QueryService()
    strict = AdmissionController(service, max_cost_seconds=1e-9)
    runner = DaemonThread(service=service, injector=injector, admission=strict)
    refusal_latencies = []
    rejected = 0
    try:
        with ServeClient(port=runner.daemon.port, client="pressed") as client:
            client.register("d", DOCUMENT)
            for _ in range(requests):
                started = time.perf_counter()
                try:
                    client.query("//book", "d", retry=False)
                except OverloadError:
                    rejected += 1
                refusal_latencies.append(time.perf_counter() - started)
        evaluations_started = injector.snapshot()["evaluations_started"]
    finally:
        runner.stop()
    return refusal_latencies, rejected, evaluations_started


def drain_phase():
    """Drain with a slow straggler in flight: measure initiate-to-closed
    wall time and confirm the straggler still got its response."""
    injector = FaultInjector(delay_matching="sleepy", delay_seconds=0.4)
    service = QueryService()
    admission = AdmissionController(
        service, seconds_per_unit=1e-12, max_cost_seconds=60.0
    )
    runner = DaemonThread(
        service=service, injector=injector, admission=admission,
        drain_grace=DRAIN_GRACE,
    )
    outcome = {}

    def straggler():
        with ServeClient(port=runner.daemon.port, client="straggler") as client:
            client.register("d", DOCUMENT)
            try:
                client.query("//sleepy", "d", retry=False)
                outcome["response"] = "completed"
            except ReproError as error:
                outcome["response"] = type(error).__name__

    thread = threading.Thread(target=straggler)
    thread.start()
    time.sleep(0.15)  # let the slow query reach evaluation
    started = time.perf_counter()
    runner.initiate_drain()
    runner.join()
    drain_elapsed = time.perf_counter() - started
    thread.join(10)
    responded = not thread.is_alive() and "response" in outcome
    return drain_elapsed, responded, outcome.get("response", "LOST")


def hit_phase():
    """Warm every cell once, then repeat them all: the counter deltas of
    the repeats, and the final STATS payload."""
    injector = FaultInjector()
    service = QueryService()
    runner = DaemonThread(service=service, injector=injector)
    cells = [(query, name) for name in HIT_DOCUMENTS for query in HIT_QUERIES]
    try:
        with ServeClient(port=runner.daemon.port, client="repeat") as client:
            for name in HIT_DOCUMENTS:
                client.register(name, DOCUMENT)
            for query, name in cells:
                client.query(query, name, retry=False)

            def counters():
                cache = service.result_cache_stats()
                return {
                    "evaluations_started": injector.snapshot()["evaluations_started"],
                    "memo_hits": runner.daemon.stats.snapshot()["memo_hits"],
                    "cache_hits": cache["hits"],
                    "cache_misses": cache["misses"],
                }

            before = counters()
            for _ in range(HIT_REPEATS):
                for query, name in cells:
                    client.query(query, name, retry=False)
            after = counters()
            stats = client.stats()
    finally:
        runner.stop()
    return {key: after[key] - before[key] for key in after}, stats


def main() -> int:
    latencies, ledgers, stats = sustained_load_phase()
    all_latencies = [sample for series in latencies.values() for sample in series]
    p50 = percentile(all_latencies, 0.50)
    p99 = percentile(all_latencies, 0.99)
    p99_bound = DEADLINE_MS / 1e3 + P99_SLACK_SECONDS
    p99_ok = p99 <= p99_bound

    zero_lost = all(
        ledgers[name] == (count, count) for name, count in CLIENT_PLANS
    )
    reconciled = reconciliation_gate(stats)

    refusal_latencies, rejected, evaluations_started = admission_phase()
    refusal_p99 = percentile(refusal_latencies, 0.99)
    admission_ok = (
        rejected == len(refusal_latencies)
        and evaluations_started == 0
        and refusal_p99 <= REJECT_P99_SECONDS
    )

    drain_elapsed, straggler_responded, straggler_outcome = drain_phase()
    drain_ok = drain_elapsed <= DRAIN_BOUND_SECONDS and straggler_responded

    hit_deltas, hit_stats = hit_phase()
    repeats = HIT_REPEATS * len(HIT_QUERIES) * len(HIT_DOCUMENTS)
    hit_ok = reconciliation_gate(hit_stats) and hit_deltas == {
        "evaluations_started": 0,
        "memo_hits": repeats,
        "cache_hits": repeats,
        "cache_misses": 0,
    }

    total_requests = sum(count for _, count in CLIENT_PLANS)
    report = ExperimentReport(
        "EXP-SERVE", "serving daemon (p99 under faults, exact counters, drain)"
    )
    report.note(
        f"workload: {len(CLIENT_PLANS)} concurrent clients, skewed "
        f"{'/'.join(str(count) for _, count in CLIENT_PLANS)} requests "
        f"({total_requests} total); faults: 0.2s slow evaluations under a "
        f"{DEADLINE_MS:.0f}ms deadline, worker death, batch traffic"
    )
    report.table(
        ["client", "requests", "p50 (ms)", "p99 (ms)"],
        [
            [
                name,
                len(latencies[name]),
                percentile(latencies[name], 0.50) * 1e3,
                percentile(latencies[name], 0.99) * 1e3,
            ]
            for name, _ in CLIENT_PLANS
        ],
    )
    snapshot = stats["global"]
    report.note()
    report.note(
        "counters: "
        + ", ".join(
            f"{key}={snapshot[key]}"
            for key in (
                "queries", "admitted", "rejected", "request_errors",
                "completed", "deadlined", "failed",
            )
        )
    )
    report.note()
    report.note(
        f"p99 gate:     sustained-load p99 = {p99 * 1e3:.0f}ms, p50 = "
        f"{p50 * 1e3:.0f}ms (need p99 <= {p99_bound * 1e3:.0f}ms) — "
        + ("PASS" if p99_ok else "FAIL")
    )
    report.note(
        "reconcile gate: exact identities global + per-client, global == "
        "sum(clients), zero lost responses — "
        + ("PASS" if (reconciled and zero_lost) else "FAIL")
    )
    report.note(
        f"admission gate: {rejected}/{len(refusal_latencies)} refused typed "
        f"OVERLOAD, evaluations started = {evaluations_started}, refusal p99 "
        f"= {refusal_p99 * 1e3:.1f}ms (need <= {REJECT_P99_SECONDS * 1e3:.0f}ms) — "
        + ("PASS" if admission_ok else "FAIL")
    )
    report.note(
        f"drain gate:   drained in {drain_elapsed:.2f}s with a 0.4s straggler "
        f"in flight (need <= {DRAIN_BOUND_SECONDS:.1f}s), straggler response: "
        f"{straggler_outcome} — " + ("PASS" if drain_ok else "FAIL")
    )
    report.note(
        f"hit gate:     {repeats} repeats of "
        f"{len(HIT_QUERIES) * len(HIT_DOCUMENTS)} warmed cells: evaluations "
        f"started +{hit_deltas['evaluations_started']}, memo_hits "
        f"+{hit_deltas['memo_hits']}, result cache hits "
        f"+{hit_deltas['cache_hits']} / misses +{hit_deltas['cache_misses']}, "
        "identities exact — " + ("PASS" if hit_ok else "FAIL")
    )
    report.finish()
    gates = (p99_ok, reconciled, zero_lost, admission_ok, drain_ok, hit_ok)
    return 0 if all(gates) else 1


if __name__ == "__main__":
    sys.exit(main())
