"""The serving daemon's core: every decision about a connection, no I/O.

:class:`ServeCore` is the daemon without sockets, threads or a clock of
its own (the sans-I/O pattern, https://sans-io.readthedocs.io/): it
reads time only through the ``clock`` it is given. It takes bytes
(:meth:`~ServeCore.receive`), a parsed registration (:meth:`~ServeCore.
registered`) or an evaluation's outcome (:meth:`~ServeCore.settle`) and
answers with ``(kind, argument)`` **actions** that :mod:`repro.serve.
daemon` performs:

* ``WRITE`` bytes — one encoded reply frame;
* ``EVALUATE`` a :class:`Request` — run the worker-thread calls of its
  :meth:`~ServeCore.hops`, each within its seconds, each result to
  :meth:`Request.take`, then the outcome to :meth:`~ServeCore.settle`;
* ``REGISTER`` a :class:`Registration` — parse its XML off the loop;
* ``CLOSE`` a farewell — a BYE's reply, written once the connection's
  evaluations have replied; ``None``: close now, cancelling them (each
  settles :data:`CANCELLED`);
* ``ABANDON`` — drop the connection unanswered (the injected disconnect);
* :data:`DEFERRED` — :data:`FRAMES_PER_PASS` frames were answered this
  pass: pause reading, go on in the next loop pass.

The stages a frame meets, and the :data:`~repro.stats.ServeStats`
counter each exit lands in:

1. **decode** — a malformed line: typed ``PROTOCOL`` (``malformed``),
   resynchronized at the next newline; no newline within
   :data:`LINE_LIMIT` bytes: ``FRAME_TOO_LARGE`` and a close. The EOF
   closes once every frame before it is answered.
2. **count + client lookup** (``requests``; a QUERY or BATCH ticks it
   with ``queries`` and its outcome, as one event) — ``PING``, ``STATS``
   and ``UNREGISTER`` answered, ``REGISTER`` validated.
3. **gate** (QUERY, BATCH; ``queries``) — draining (``SHUTTING_DOWN``,
   ``rejected_draining``), the client's token bucket (``RATE_LIMITED`` +
   ``retry_after``, ``rejected_rate``), its in-flight cap (``QUOTA``,
   ``rejected_quota``).
4. **validation** — ``deadline_ms``, ``output`` (``path``, ``value``,
   ``xml``), documents, query text: a typed request error
   (``request_errors``; a bug is ``INTERNAL``).
5. **memo probe** (QUERY), **then compile** — the result memo is read by
   the query's text (its :func:`~repro.service.plan.plan_key`, the key
   its plan carries), so a hit looks no plan up and compiles nothing; it
   is answered now: the id, the head its entry stored at its first hit,
   ``elapsed_ms`` and the payload it stored for the style, spliced.
   ``admitted``, ``completed``, ``memo_hits`` ⊆ ``completed``; reply
   ``memo: true``, ``priced_ms: 0.0``, the evaluator ``auto`` ran. Quotas
   apply to hits (a rate token, a free slot, not while draining);
   admission does not (an answer that costs no evaluation is not load to
   shed), and a hit meets any deadline. A miss and every BATCH then get
   their plans (cache or compile; a compile error is a typed request
   error). Deadline and ``elapsed_ms`` count from the decode, so a
   compile spends them.
6. **admission** (a miss, every BATCH) — cells priced from the cost
   model × observed per-algorithm rates: admit, degrade (still ``auto``,
   sharing dropped, so a degraded QUERY fills the same memo entry), or
   typed ``OVERLOAD`` (``rejected_overload``), before evaluation starts.
7. **evaluation** — one worker-thread step for a QUERY, one per document
   row for a BATCH (:meth:`~repro.service.service.QueryService.
   batch_rows`; deadline and cancel noticed between rows), then one
   outcome: the value (``completed``), a typed ``DEADLINE`` with the
   whole rows finished (``deadlined``, also when the drain grace runs
   out), a typed error for a library failure or a dying worker, or for a
   client that left only the count (``failed``). A worker thread is
   never interrupted, only abandoned; its timings still feed admission.
8. **drain** — :attr:`~ServeCore.draining` refuses new work; the adapter
   lets in-flight work finish within its grace, then closes: no lost
   response, ``admitted == completed + deadlined + failed`` throughout.

The :class:`~repro.serve.faults.FaultInjector` makes every failure
testable: ``before_evaluate`` runs once per query of a QUERY step or
BATCH row (``evaluations_started``; a hit starts none),
``should_disconnect`` before every QUERY reply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceededError, OverloadError, ProtocolError, QuotaExceededError,
    RateLimitedError, ReproError,
)
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.faults import FaultInjector
from repro.serve.protocol import (
    MAX_FRAME_BYTES, OUTPUT_STYLES, decode_frame, encode_frame, encode_payload,
    error_response, error_to_response, ok_response, render_value, reply_head,
    splice_reply,
)
from repro.serve.quotas import ClientQuota, ClientState
from repro.service.batchplan import build_batch_plan
from repro.service.plan import plan_key
from repro.service.planner import resolve_algorithm
from repro.service.service import QueryService
from repro.stats import Counters, ServeStats

WRITE, EVALUATE, REGISTER, CLOSE, ABANDON, DEFER = (
    "write", "evaluate", "register", "close", "abandon", "defer"
)

#: The outcome an evaluation the adapter cancelled settles with: the
#: client left (``failed``, no reply) or, while draining, the grace ran
#: out (a typed ``DEADLINE``).
CANCELLED = object()

#: The line bound: a newline further in than this (or unterminated bytes
#: beyond it) is ``FRAME_TOO_LARGE``; a longer line within it reaches
#: :func:`decode_frame`, which refuses it typed.
LINE_LIMIT = MAX_FRAME_BYTES + 2

#: The most frames one loop pass answers for one connection; the rest
#: of a pipelined burst waits for the next pass.
FRAMES_PER_PASS = 64

#: What :meth:`ServeCore.next_actions` answers once a pass is full.
DEFERRED = ((DEFER, None),)

_ABANDON = (ABANDON, None)


class _RequestError(ReproError):
    """A refusal whose wire code has no library exception class."""

    def __init__(self, code: str, message: str):
        self.protocol_code = code
        super().__init__(message)


def _write(reply: dict) -> tuple:
    """A WRITE of one reply; an oversized one (a giant batch) becomes a
    typed error frame, and the connection stays usable."""
    try:
        return WRITE, encode_frame(reply)
    except ReproError as error:
        return WRITE, encode_frame(
            error_response(reply.get("id"), "FRAME_TOO_LARGE", str(error))
        )


@dataclass(eq=False)
class Connection:
    """One connection's framing state and default client identity."""

    client: str
    #: Received bytes from the first unanswered frame on; none of
    #: ``buffer[:scanned]`` is a newline.
    buffer: bytearray = field(default_factory=bytearray)
    scanned: int = 0
    eof: bool = False
    #: No more frames (BYE, EOF, oversized frame, abandon, disconnect).
    ended: bool = False
    #: Frames answered in the current pass.
    passed: int = 0


@dataclass(eq=False)
class Registration:
    """A validated REGISTER whose XML is still to be parsed."""

    id: object
    client: ClientState
    name: str
    xml: str
    source_bytes: int


@dataclass(eq=False)
class Request:
    """One validated QUERY or BATCH (a QUERY is the one-query,
    one-document case): what its evaluation and reply need."""

    id: object
    connection: Connection
    client: ClientState
    stats: Counters
    batch: bool
    queries: list
    doc_names: list
    documents: list
    deadline_seconds: float | None
    style: str
    #: The clock when the frame was decoded: the deadline and
    #: ``elapsed_ms`` count from here, so a plan compile spends them.
    started: float
    #: One compiled plan per query; none for a QUERY the memo answers.
    plans: list = field(default_factory=list)
    decision: AdmissionDecision | None = None
    #: BATCH result cells, a whole row at a time (a deadline keeps them).
    cells: list = field(default_factory=list)
    #: The evaluator each BATCH query resolved to.
    algorithms: list = field(default_factory=list)
    value: object = None

    def take(self, result) -> None:
        """Keep one step's result: the QUERY's value, or the next
        document's row of BATCH cells."""
        if not self.batch:
            self.value = result
            return
        name = self.doc_names[len(self.cells) // len(self.queries)]
        self.cells.extend(
            {"doc": name, "query": query, "algorithm": algorithm,
             **render_value(value, self.style)}
            for query, algorithm, value in zip(self.queries, self.algorithms, result)
        )

    def overdue(self) -> DeadlineExceededError:
        """The error of a deadline that lapsed before or during a hop."""
        return DeadlineExceededError(f"deadline of {self.deadline_seconds * 1000:.0f}ms exceeded")

    def partial(self) -> dict:
        """The cells a BATCH reply carries, finished or not."""
        if not self.batch:
            return {}
        total = len(self.queries) * len(self.documents)
        return {"cells": self.cells, "completed": len(self.cells), "total": total}


class ServeCore:
    """The daemon's state and decisions, driven from one thread."""

    def __init__(
        self,
        clock,
        service: QueryService | None = None,
        quota: ClientQuota | None = None,
        admission: AdmissionController | None = None,
        injector: FaultInjector | None = None,
        default_deadline_seconds: float | None = None,
        client_retention_seconds: float = 900.0,
        max_retained_clients: int = 1024,
    ):
        #: The one monotonic clock, in seconds, also of every client state.
        self.clock = clock
        self.service = service if service is not None else QueryService()
        self.quota = quota if quota is not None else ClientQuota()
        self.admission = (
            admission if admission is not None else AdmissionController(self.service)
        )
        self.injector = injector if injector is not None else FaultInjector()
        self.default_deadline_seconds = default_deadline_seconds
        self.client_retention_seconds = client_retention_seconds
        self.max_retained_clients = max_retained_clients
        #: Global exact counters; per-client instances in _client_stats.
        self.stats = ServeStats(name="serve")
        self.clients: dict[str, ClientState] = {}
        self._client_stats: dict[str, Counters] = {}
        #: Counters of evicted clients, folded here so the exact
        #: ``global == sum(clients)`` identity survives eviction.
        self._evicted_stats = ServeStats(name="serve_evicted")
        #: No retained client's retention window ends before this instant.
        self._next_sweep = -math.inf
        self.connections: set[Connection] = set()
        self._connection_serial = 0
        #: Admitted evaluations not yet settled.
        self.in_flight = 0
        self.draining = False

    def connect(self) -> Connection:
        """A new connection, with its own anonymous client identity."""
        self._connection_serial += 1
        conn = Connection(client=f"conn:{self._connection_serial}")
        self.connections.add(conn)
        return conn

    def disconnect(self, conn: Connection) -> None:
        """``conn`` is gone; its anonymous identity goes once none of its
        evaluations is in flight (now, or when the last one settles)."""
        self._end(conn)
        self.connections.discard(conn)
        self._forget(conn)

    def _end(self, conn: Connection) -> None:
        conn.ended = True
        conn.buffer.clear()

    def _forget(self, conn: Connection) -> None:
        # An anonymous identity can never be addressed again (serials are
        # unique): keeping it would leak its state for the daemon's life.
        state = self.clients.get(conn.client)
        if state is not None and state.in_flight == 0:
            self._evict_client(conn.client)

    def receive(self, conn: Connection, data: bytes) -> None:
        """Buffer bytes received on ``conn``; ``b""`` is the EOF."""
        if conn.ended:
            return
        if data:
            conn.buffer += data
        else:
            conn.eof = True

    def next_actions(self, conn: Connection) -> list | tuple | None:
        """The actions answering ``conn``'s next line, ``None`` when none
        is complete; at the EOF the rest is the last line, then CLOSE."""
        if conn.ended:
            return None
        buffer = conn.buffer
        end = buffer.find(b"\n", conn.scanned)
        if end < 0:
            conn.scanned = len(buffer)
            if len(buffer) > LINE_LIMIT:
                return self._too_large(conn)
            conn.passed = 0
            if not conn.eof:
                return None
            actions = self._answer(conn, bytes(buffer))
            if not conn.ended:
                self._end(conn)
                actions.append((CLOSE, None))
            return actions
        if end > LINE_LIMIT:
            return self._too_large(conn)
        if conn.passed == FRAMES_PER_PASS:
            conn.passed = 0
            return DEFERRED
        conn.passed += 1
        line = buffer[:end + 1]
        del buffer[:end + 1]
        conn.scanned = 0
        return self._answer(conn, line)

    def _too_large(self, conn: Connection) -> list:
        # A partially received line cannot be resynchronized: refuse, close.
        self.stats.add({"requests": 1, "malformed": 1})
        self._end(conn)
        message = f"frame exceeds the {MAX_FRAME_BYTES}-byte limit"
        return [_write(error_response(None, "FRAME_TOO_LARGE", message)), (CLOSE, None)]

    def _answer(self, conn: Connection, line) -> list:
        """Stage 1 for one line, then BYE or stage 2."""
        if not line.strip():
            return []
        try:
            frame = decode_frame(line)
            received = self.clock()
        except ReproError as error:
            self.stats.add({"requests": 1, "malformed": 1})
            return [_write(error_to_response(None, error))]
        verb = frame.get("verb")
        request_id = frame.get("id")
        if verb == "BYE":
            self.stats.tick("requests")
            self._end(conn)
            return [(CLOSE, encode_frame(ok_response(request_id, bye=True)))]
        client, client_stats = self._client(frame, conn)
        if verb == "QUERY" or verb == "BATCH":
            return self._front_query(conn, frame, client, client_stats, received)
        self._tick(client_stats, {"requests": 1})
        if verb == "PING":
            return [_write(ok_response(request_id, pong=True, draining=self.draining))]
        if verb == "STATS":
            return [_write(ok_response(request_id, stats=self.stats_snapshot()))]
        if verb not in ("REGISTER", "UNREGISTER"):
            message = f"unknown verb {verb!r}"
            return [_write(error_response(request_id, "UNKNOWN_VERB", message))]
        try:
            if self.draining:
                raise _RequestError("SHUTTING_DOWN", "daemon is draining")
            if verb == "REGISTER":
                return [(REGISTER, self._registration(frame, client))]
            name = frame.get("name")
            if not isinstance(name, str) or not client.unregister(name):
                raise _RequestError("UNKNOWN_DOCUMENT", f"no document {name!r} registered")
            return [_write(ok_response(request_id, name=name, **client.gauges()))]
        except ReproError as error:
            return [_write(error_to_response(request_id, error))]

    def _client(self, frame: dict, conn: Connection) -> tuple[ClientState, Counters]:
        name = frame.get("client")
        if not isinstance(name, str) or not name:
            name = conn.client
        state = self.clients.get(name)
        if state is None:
            self._evict_idle_clients()
            state = ClientState(name=name, quota=self.quota, clock=self.clock)
            self.clients[name] = state
            self._client_stats[name] = ServeStats(name=f"serve_client_{name}")
        state.touch()
        return state, self._client_stats[name]

    def _tick(self, client_stats: Counters, amounts: dict) -> None:
        """One client event, on the global counters and the client's."""
        self.stats.add(amounts)
        client_stats.add(amounts)

    def _evict_client(self, name: str) -> None:
        """Drop a client's state (registrations included), folding its
        counters into ``(evicted)``: ``global == sum(clients)`` holds."""
        self.clients.pop(name, None)
        stats = self._client_stats.pop(name, None)
        if stats is not None:
            self._evicted_stats.absorb(stats.snapshot())

    def _evict_idle_clients(self) -> None:
        """Drop named clients idle past the retention window (PINGs keep
        one resident), then the oldest idle beyond the cap; never a live
        connection's identity or a client with work in flight. Sorts only
        when one can go: over the cap, or once the earliest window ends."""
        now = self.clock()
        if len(self.clients) <= self.max_retained_clients and now < self._next_sweep:
            return
        live = {conn.client for conn in self.connections}
        idle = sorted(
            (state.last_active, name)
            for name, state in self.clients.items()
            if name not in live and state.in_flight == 0
        )
        over_cap = len(self.clients) - self.max_retained_clients
        for index, (last_active, name) in enumerate(idle):
            if index < over_cap or now - last_active >= self.client_retention_seconds:
                self._evict_client(name)
        oldest = min((state.last_active for state in self.clients.values()), default=now)
        self._next_sweep = oldest + self.client_retention_seconds

    def stats_snapshot(self) -> dict:
        """The STATS payload: global and per-client counters (evicted ones
        under ``(evicted)``), their residuals (0 when they reconcile),
        gauges and the fault injector's counts."""
        clients = {name: stats.snapshot() for name, stats in self._client_stats.items()}
        evicted = self._evicted_stats.snapshot()
        if any(evicted.values()):
            clients["(evicted)"] = evicted
        served = self.stats.snapshot()
        return {
            "global": served,
            "clients": clients,
            "residuals": {
                "global": ServeStats.residuals(served),
                "clients": {name: ServeStats.residuals(c) for name, c in clients.items()},
            },
            "gauges": {name: state.gauges() for name, state in self.clients.items()},
            "in_flight": self.in_flight,
            "draining": self.draining,
            "faults": self.injector.snapshot(),
        }

    def _registration(self, frame: dict, client: ClientState) -> Registration:
        name = frame.get("name")
        xml = frame.get("xml")
        if not isinstance(name, str) or not name or not isinstance(xml, str):
            raise ProtocolError(
                "REGISTER needs a non-empty string 'name' and a string 'xml'"
            )
        source_bytes = len(xml.encode("utf-8"))
        client.check_register(name, source_bytes)
        return Registration(frame.get("id"), client, name, xml, source_bytes)

    def registered(self, registration: Registration, outcome) -> list:
        """A REGISTER's parse ended: ``outcome`` is the document, or the
        :class:`~repro.errors.ReproError` the parse raised."""
        if isinstance(outcome, ReproError):
            return [_write(error_to_response(registration.id, outcome))]
        client = registration.client
        client.register(registration.name, outcome, registration.source_bytes)
        return [_write(ok_response(
            registration.id, name=registration.name, nodes=len(outcome.nodes),
            **client.gauges(),
        ))]

    def _front_query(self, conn, frame, client, client_stats, received) -> list:
        """Stages 3–6, one counted event on every exit; the gate's slot is
        released on every exit but the hand-off to evaluation."""
        request_id = frame.get("id")
        event = {"requests": 1, "queries": 1}
        holds_slot = False
        try:
            refusal = self._gate(client)
            if refusal is not None:
                event[f"rejected_{refusal[0]}"] = 1
                return [_write(error_to_response(request_id, refusal[1]))]
            holds_slot = True
            try:
                request = self._validate(conn, frame, client, client_stats, received)
                session = None if request.batch else self.service.session(
                    request.documents[0], create=False
                )
                hit = None if session is None else self._probe(request, session)
                if hit is None:
                    request.plans = [self.service.plan(query) for query in request.queries]
            except ReproError as error:
                event["request_errors"] = 1
                return [_write(error_to_response(request_id, error))]
            except Exception as error:  # a front-end bug: typed, never lost
                event["request_errors"] = 1
                message = f"request validation failed: {error!r}"
                return [_write(error_response(request_id, "INTERNAL", message))]
            if hit is not None:
                event.update(admitted=1, completed=1, memo_hits=1)
                return [self._query_reply(request, *hit)]
            decision = self.admission.decide(
                request.plans, request.documents, request.deadline_seconds,
                self.in_flight,
            )
            if not decision.admitted:
                event["rejected_overload"] = 1
                error = OverloadError(decision.reason, retry_after=decision.retry_after)
                return [_write(error_to_response(request_id, error))]
            event.update(admitted=1, degraded=int(decision.degraded))
            request.decision = decision
            self.in_flight += 1
            holds_slot = False  # settle releases it
            return [(EVALUATE, request)]
        finally:
            if holds_slot:
                client.release_slot()
            self._tick(client_stats, event)

    def _gate(self, client: ClientState) -> tuple[str, ReproError] | None:
        """Stage 3: the reject reason and its typed error, or ``None``
        with one of the client's in-flight slots now held."""
        if self.draining:
            return "draining", _RequestError(
                "SHUTTING_DOWN", "daemon is draining; not admitting"
            )
        try:
            client.check_rate()
        except RateLimitedError as error:
            return "rate", error
        try:
            client.acquire_slot()
        except QuotaExceededError as error:
            return "quota", error
        return None

    def _validate(self, conn, frame, client, client_stats, received: float) -> Request:
        """Stage 4: the request, or the typed error that refuses it
        (untrusted input never escapes as a bare ``ValueError``)."""
        deadline_ms = frame.get("deadline_ms")
        if deadline_ms is None:
            deadline_seconds = self.default_deadline_seconds
        elif isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolError(
                f"'deadline_ms' must be a number, got {type(deadline_ms).__name__}"
            )
        elif not math.isfinite(deadline_ms):
            raise ProtocolError(f"'deadline_ms' must be finite, got {deadline_ms!r}")
        else:
            deadline_seconds = max(float(deadline_ms), 0.0) / 1000.0
        style = frame.get("output", "path")
        if style not in OUTPUT_STYLES:
            raise ProtocolError(f"'output' must be path, value or xml, got {style!r}")
        batch = frame.get("verb") == "BATCH"
        if batch:
            queries = frame.get("queries")
            doc_names = frame.get("docs") or client.document_names()
            if not (
                isinstance(queries, list) and queries and isinstance(doc_names, list)
                and doc_names and all(isinstance(query, str) for query in queries)
            ):
                raise ProtocolError(
                    "BATCH needs a non-empty string list 'queries' and "
                    "registered documents ('docs' or prior REGISTERs)"
                )
        else:
            queries, doc_names = [frame.get("query")], [frame.get("doc")]
            if not isinstance(queries[0], str):
                raise ProtocolError("QUERY needs a string 'query'")
        documents = []
        for name in doc_names:
            document = client.document(name) if isinstance(name, str) else None
            if document is None:
                raise _RequestError(
                    "UNKNOWN_DOCUMENT",
                    f"no document {name!r} registered for client {client.name!r}",
                )
            documents.append(document)
        return Request(
            frame.get("id"), conn, client, client_stats, batch, queries, doc_names,
            documents, deadline_seconds, style, received,
        )

    def _probe(self, request: Request, session) -> tuple[bytes, bytes] | None:
        """Stage 5's probe: a QUERY's memoized reply head and payload in its
        document's live ``session`` (the miss path makes a missing one),
        found by its text (the plan's cache key, no plan looked up), or
        ``None``. The stored head names the document, which is sound because
        each REGISTER parses its own: a document is served under one name."""
        query, doc = request.queries[0], request.doc_names[0]
        return session.payload(
            plan_key(query, self.service.variables), request.style, encode_payload,
            lambda algorithm: reply_head(
                query=query, doc=doc, algorithm=algorithm, degraded=False,
                priced_ms=0.0, memo=True,
            ),
        )

    def _query_reply(self, request: Request, head: bytes, payload: bytes) -> tuple:
        """A QUERY's answer: its :func:`reply_head` and the clock before the
        encoded ``payload`` — or, on the disconnect fault, ABANDON."""
        if self.injector.should_disconnect(request.queries[0]):
            self._end(request.connection)
            return _ABANDON
        try:
            return WRITE, splice_reply(request.id, head, self._elapsed_ms(request), payload)
        except ProtocolError as error:
            return _write(error_response(request.id, "FRAME_TOO_LARGE", str(error)))

    def _elapsed_ms(self, request: Request) -> float:
        return round((self.clock() - request.started) * 1000.0, 3)

    def hops(self, request: Request):
        """Stage 7 as worker-thread calls, one per QUERY or BATCH row, each with
        the seconds it may take (``None``: no deadline). Each result goes to
        :meth:`Request.take` before the next is asked for; asking once the deadline
        has lapsed raises :meth:`Request.overdue`. Nothing is checked after the last."""
        steps = [lambda: self._evaluate(request)]
        if request.batch:
            algorithm, share = request.decision.algorithm, request.decision.share
            batch_plan = build_batch_plan(request.plans, algorithm, share)
            rows = self.service.batch_rows(request.plans, request.documents, algorithm, batch_plan)
            request.algorithms = [resolve_algorithm(plan, algorithm) for plan in request.plans]
            steps = [lambda: self._batch_row(request, rows)] * len(request.documents)
        deadline = request.deadline_seconds
        for step in steps:
            remaining = None if deadline is None else deadline - (self.clock() - request.started)
            if remaining is not None and remaining <= 0:
                raise request.overdue()
            yield step, remaining

    def _evaluate(self, request: Request):
        """A QUERY's step: the fault seam, then the document's session
        (whose timings feed admission); a node set stays unboxed."""
        self.injector.before_evaluate(request.queries[0])
        session = self.service.session(request.documents[0])
        return session.value(request.plans[0], algorithm=request.decision.algorithm)

    def _batch_row(self, request: Request, rows) -> list:
        """A BATCH step: the fault seam per query, then the next row."""
        for query in request.queries:
            self.injector.before_evaluate(query)
        return next(rows)

    def settle(self, request: Request, error=None) -> list:
        """Stage 7's outcome ladder: one counted outcome and at most one
        reply. ``error`` is ``None`` (every step ran), a deadline,
        :data:`CANCELLED`, a library error or any other (a dying worker)."""
        self.in_flight -= 1
        request.client.release_slot()
        drained = int(self.draining)
        if error is None:
            outcome = "completed"
            if request.batch:
                decision = request.decision
                action = _write(ok_response(
                    request.id,
                    **request.partial(),
                    degraded=decision.degraded,
                    shared=decision.share,
                    priced_ms=round(decision.priced_seconds * 1000.0, 3),
                    elapsed_ms=self._elapsed_ms(request),
                ))
            else:
                decision = request.decision
                head = reply_head(
                    query=request.queries[0],
                    doc=request.doc_names[0],
                    algorithm=resolve_algorithm(request.plans[0], decision.algorithm),
                    degraded=decision.degraded,
                    priced_ms=round(decision.priced_seconds * 1000.0, 3),
                    memo=False,
                )
                payload = encode_payload(request.value, request.style)
                action = self._query_reply(request, head, payload)
        elif error is CANCELLED and not drained:
            # The client left mid-flight: nobody to answer, but the
            # counters must still reconcile.
            outcome, action = "failed", None
        elif error is CANCELLED or isinstance(error, DeadlineExceededError):
            outcome = "deadlined"
            message = (
                "drain grace expired with the request still running"
                if error is CANCELLED else str(error)
            )
            action = _write(error_response(
                request.id, "DEADLINE", message, **request.partial(),
                elapsed_ms=self._elapsed_ms(request),
            ))
        else:  # a library error or a dying worker: typed, never lost
            outcome = "failed"
            action = _write(
                error_to_response(request.id, error) if isinstance(error, ReproError)
                else error_response(request.id, "EVALUATION", f"evaluation failed: {error}")
            )
        self._tick(request.stats, {outcome: 1, "drained": drained})
        if request.connection not in self.connections:
            self._forget(request.connection)
        return [] if action is None else [action]
