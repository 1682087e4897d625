"""``repro.serve`` — the serving daemon, and why it admits before it works.

The paper's result is that Core XPath evaluation is *predictable*:
cost is a polynomial of measurable quantities (document size, query
size, fragment), not a surprise discovered mid-evaluation. This package
turns that predictability into an operational contract. A long-lived
daemon (:class:`~repro.serve.daemon.XPathDaemon`) fronts one shared
:class:`~repro.service.service.QueryService` over a line-delimited JSON
TCP protocol (:mod:`repro.serve.protocol`). The connection reader runs
one synchronous front half for every frame, on the event loop, and only
a real evaluation leaves it for a task and a worker thread. The stages,
in order, and the :class:`~repro.stats.ServeStats` counter each exit
lands in:

1. **Decode** — a malformed line: typed ``PROTOCOL`` (``malformed``).
2. **Count, client lookup** (``requests``) — ``PING``, ``STATS``,
   ``UNREGISTER`` answered; ``REGISTER`` validated, parsed off-loop.
3. **Gate** (:mod:`repro.serve.quotas`; QUERY / BATCH, ``queries``) —
   draining (``SHUTTING_DOWN``, ``rejected_draining``), the token-bucket
   rate (``RATE_LIMITED``, ``rejected_rate``), the in-flight cap
   (``QUOTA``, ``rejected_quota``); ``retry_after`` hints when waiting
   helps.
4. **Validation** — deadline, documents, query text, plan (cache or
   compile): typed request error (``request_errors``).
5. **Memo probe** (QUERY) — the paper's "never compute the value of a
   (subexpression, context) pair twice", at request granularity: a
   repeat of an answered (query, document) cell is one dictionary read
   (:meth:`~repro.service.service.DocumentSession.probe`) and is
   answered on the spot — ``admitted``, ``completed`` and ``memo_hits``
   (⊆ ``completed``), reply field ``memo: true`` with ``algorithm:
   "auto"``, ``degraded: false``, ``priced_ms: 0.0``.
6. **Admission** (:mod:`repro.serve.admission`; a miss, every BATCH) —
   the dynamic gate. Each (query, document) cell is priced from the
   specializer's cost model (abstract units per candidate algorithm)
   times the observed seconds-per-unit rate, floored by the document's
   shard-timing history; the price is compared against the request's
   remaining deadline and the daemon's queue depth. The verdict is
   admit, degrade (force the cheapest admissible algorithm and drop
   batch sharing — reduced service beats refusal), or a typed
   ``OVERLOAD`` rejection (``rejected_overload``).
7. **Evaluation** — under cooperative cancellation: ``asyncio.wait_for``
   for single queries, a deadline-armed
   :class:`~repro.service.async_service.BatchStream` for batches. One
   outcome ladder: the value (``completed``, ``memo: false``), a typed
   ``DEADLINE`` (with the partial cells, for batches; ``deadlined``), a
   typed error (``failed``) — never a hang, never a silent drop.

Which stages a frame passes: a **hit** 1–5; a **miss** 1–7; a
**refusal** ends at 3 (quota, rate, draining) or 6 (overload); a
**request error** ends at 4. So hits bypass pricing but not quotas: a
hit takes a rate token, needs a free in-flight slot and is refused
while draining, but an answer that costs no evaluation is not load to
shed, so the queue watermarks and the cost budget do not apply to it,
and it meets any deadline. Because every rejection happens before
evaluation, an overloaded daemon's refusal latency — and hence its p99
— stays bounded no matter what is thrown at it; the
:class:`~repro.serve.faults.FaultInjector`'s ``evaluations_started``
counter is the auditable proof that rejected work never ran (and that a
hit started none).

**Drain** — SIGTERM flips the daemon into draining: new work is refused
with ``SHUTTING_DOWN``, in-flight work finishes (or is deadlined out)
within the grace window, response queues are flushed, and the exact
per-client counters still reconcile: ``queries == admitted + rejected +
request_errors`` and ``admitted == completed + deadlined + failed``,
global == Σ clients, with zero admitted queries losing their response.

:class:`~repro.serve.client.ServeClient` is the matching client: typed
errors reconstructed from stable protocol codes, and jittered
exponential backoff that honors the server's ``retry_after`` hints.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.client import ServeClient
from repro.serve.daemon import XPathDaemon, run_daemon
from repro.serve.faults import FaultInjector
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    VERBS,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
)
from repro.serve.quotas import ClientQuota, ClientState, TokenBucket

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ClientQuota",
    "ClientState",
    "FaultInjector",
    "MAX_FRAME_BYTES",
    "ServeClient",
    "TokenBucket",
    "VERBS",
    "XPathDaemon",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "run_daemon",
]
