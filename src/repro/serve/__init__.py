"""``repro.serve`` — the serving daemon, and why it admits before it works.

The paper's result is that Core XPath evaluation is *predictable*:
cost is a polynomial of measurable quantities (document size, query
size, fragment), not a surprise discovered mid-evaluation. This package
turns that predictability into an operational contract. A long-lived
daemon fronts one shared :class:`~repro.service.service.QueryService`
over a line-delimited JSON TCP protocol (:mod:`repro.serve.protocol`).
Its decisions live in a pure core, :class:`~repro.serve.core.ServeCore`
(bytes and evaluation outcomes in, actions out; the stages a frame
passes are listed there, once), and :class:`~repro.serve.daemon.
XPathDaemon` is the asyncio adapter that performs its actions.

A memo hit — the paper's "never compute the value of a (subexpression,
context) pair twice", at request granularity — is answered on the spot
from its entry's stored payload. Every miss is priced before it runs
(:mod:`repro.serve.admission`: the cost model of :mod:`repro.service.
cost` times each evaluator's observed rate) and admitted, degraded or
refused typed ``OVERLOAD``; per-client quotas (:mod:`repro.serve.
quotas`) come first, hits included. Because every rejection happens
before evaluation, an overloaded daemon's refusal latency — and hence
its p99 — stays bounded; the :class:`~repro.serve.faults.FaultInjector`'s
``evaluations_started`` counter is the auditable proof that rejected
work never ran (and that a hit started none). Exact per-client counters
reconcile through faults, deadlines and the SIGTERM drain:
``queries == admitted + rejected + request_errors``, ``admitted ==
completed + deadlined + failed``, global == Σ clients.

:class:`~repro.serve.client.ServeClient` is the matching client: typed
errors reconstructed from stable protocol codes, and jittered
exponential backoff that honors the server's ``retry_after`` hints.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.client import ServeClient
from repro.serve.core import ServeCore
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
    "ServeCore",
    "TokenBucket",
    "VERBS",
    "XPathDaemon",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "run_daemon",
]
