"""The serving daemon: an asyncio TCP front end over the query service.

One :class:`XPathDaemon` owns a shared :class:`~repro.service.service.
QueryService` (plan cache, sessions, specializer timings), an
:class:`~repro.serve.admission.AdmissionController` priced from that
service's timing histories, per-client :class:`~repro.serve.quotas.
ClientState`, and exact per-client + global :class:`~repro.stats.
ServeStats`. Connections speak the line-delimited JSON protocol of
:mod:`repro.serve.protocol`; requests on one connection may be
pipelined, with responses correlated by ``id`` and delivered through a
bounded per-connection response queue (a client that does not read
stalls its own reader and its own evaluation tasks, never the daemon's
memory).

The connection reader runs one **synchronous front half** for every
frame, on the event loop, and answers right there whatever does not
have to wait; only a real evaluation becomes a task. The stages, in the
order a frame meets them, with the counter each exit lands in:

1. **decode** — a malformed line gets a typed ``PROTOCOL`` error
   (``malformed``) and the connection resynchronizes at the next
   newline; an oversized frame gets ``FRAME_TOO_LARGE`` and a close.
2. **count + client lookup** — ``requests``. ``PING``, ``STATS`` and
   ``UNREGISTER`` are answered here; ``REGISTER`` is validated here and
   its parse runs as a task on a worker thread.
3. **gate** (QUERY and BATCH, ``queries``) — draining
   (``SHUTTING_DOWN``, ``rejected_draining``), the client's token
   bucket (``RATE_LIMITED`` + ``retry_after``, ``rejected_rate``) and
   its in-flight cap (``QUOTA``, ``rejected_quota``).
4. **validation** — ``deadline_ms``, the named documents, the query
   text, then the plan (cache or compile): any failure is a typed
   request error (``request_errors``) — a library error with its own
   code, anything else (a bug) ``INTERNAL``; the connection stays open.
5. **memo probe** (QUERY) — one dictionary read in the document's
   session. A hit is answered now: no task, no worker thread, no
   pricing. It is an answer like any other — ``admitted`` and
   ``completed``, plus ``memo_hits`` ⊆ ``completed`` — so both
   identities close unchanged; its reply carries ``memo: true``,
   ``algorithm: "auto"``, ``degraded: false``, ``priced_ms: 0.0``.
   *Quotas apply to hits* (stage 3 came first: a hit takes a rate token
   and needs a free slot, and is refused while draining); *admission
   does not* (an answer that costs no evaluation is not load to shed,
   so the queue watermarks and the cost budget are not consulted), and
   a hit meets any deadline.
6. **admission** (a miss, every BATCH) — the controller prices the
   (query, document) cells from the specializer's cost model × observed
   per-algorithm rates × per-document shard history and admits,
   degrades (cheapest admissible algorithm, sharing dropped), or
   rejects with typed ``OVERLOAD`` (``rejected_overload``) — all
   *before evaluation starts*.
7. **evaluation** (a task) — under ``asyncio.wait_for`` (single
   queries, on a worker thread) or a deadline-armed
   :class:`~repro.service.async_service.BatchStream` (batches), through
   one outcome ladder: the value (``completed``), a typed ``DEADLINE``
   — with the partial cells for batches — on expiry or when the drain
   grace runs out (``deadlined``), a typed error for a library failure
   or a dying worker, and nothing but the count when the client left
   mid-flight (``failed``). Worker threads already evaluating cannot be
   interrupted, only abandoned; their results are dropped and their
   timing observations still sharpen future admissions.
8. **drain** — SIGTERM stops admission, lets in-flight work finish
   inside ``drain_grace``, flushes every response queue, and only then
   closes: zero lost responses, ``admitted == completed + deadlined +
   failed`` through the shutdown.

Every failure mode is deterministically testable through the
:class:`~repro.serve.faults.FaultInjector` seam. ``before_evaluate``
sits on the evaluation path only (``evaluations_started`` counts
evaluations; a hit starts none); ``should_disconnect`` is asked before
every QUERY reply, hit or not.
"""

from __future__ import annotations

import asyncio
import math
import signal
import time
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceededError,
    OverloadError,
    ProtocolError,
    QuotaExceededError,
    RateLimitedError,
    ReproError,
)
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.faults import FaultInjector
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_response,
    error_to_response,
    ok_response,
)
from repro.serve.quotas import ClientQuota, ClientState
from repro.service.async_service import AsyncQueryService
from repro.service.service import DocumentSession, QueryService
from repro.stats import ServeStats
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize_node


def render_value(value, style: str = "path") -> dict:
    """An XPath result as a JSON-safe payload: node-sets become rendered
    item lists (``path``/``value``/``xml`` styles, matching the CLI),
    scalars keep their type tag."""
    if isinstance(value, list):
        if style == "xml":
            items = [serialize_node(node) for node in value]
        elif style == "value":
            items = [node.string_value for node in value]
        else:
            items = [node.path() for node in value]
        return {"kind": "node-set", "count": len(value), "items": items}
    if isinstance(value, bool):
        return {"kind": "boolean", "value": value}
    if isinstance(value, (int, float)):
        return {"kind": "number", "value": float(value)}
    return {"kind": "string", "value": str(value)}


def _consume_result(future) -> None:
    """Swallow an abandoned evaluation's outcome (result, exception, or
    cancellation) so the event loop never logs it as unretrieved."""
    if not future.cancelled():
        future.exception()


class _RequestError(ReproError):
    """A refusal whose stable wire code has no library exception class
    (``UNKNOWN_DOCUMENT``, ``SHUTTING_DOWN``)."""

    def __init__(self, code: str, message: str):
        self.protocol_code = code
        super().__init__(message)


#: The verdict a memo hit carries in place of a priced one.
_MEMO_HIT = AdmissionDecision(action="admit", reason="memo hit")


@dataclass(eq=False)
class _Request:
    """One validated QUERY or BATCH: what the front half established and
    the evaluation task needs. A QUERY is the one-query, one-document
    case of the same shape."""

    id: object
    client: ClientState
    stats: ServeStats
    batch: bool
    queries: list
    doc_names: list
    documents: list
    plans: list
    deadline_seconds: float | None
    style: str
    started: float = field(default_factory=time.monotonic)
    decision: AdmissionDecision | None = None
    #: BATCH result cells as they stream in (a deadline keeps them).
    cells: list = field(default_factory=list)

    def elapsed_ms(self) -> float:
        return round((time.monotonic() - self.started) * 1000.0, 3)

    def partial(self) -> dict:
        """The cells a BATCH reply carries, finished or not."""
        if not self.batch:
            return {}
        total = len(self.queries) * len(self.documents)
        return {"cells": self.cells, "completed": len(self.cells), "total": total}


class _Connection:
    """One client connection: reader, writer, the bounded response
    queue, and the set of in-flight request tasks."""

    def __init__(self, reader, writer, default_client: str, queue_size: int):
        self.reader = reader
        self.writer = writer
        self.default_client = default_client
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.tasks: set[asyncio.Task] = set()
        self.dead = False

    async def send(self, frame: dict) -> None:
        """Queue one response frame (drops silently once the transport
        died — the handler's counters already recorded the outcome).
        Returns without yielding while the queue has room; a full queue
        suspends the caller — the reader included, which then stops
        taking frames off the socket."""
        if not self.dead:
            await self.queue.put(frame)

    def spawn(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    async def close_queue(self) -> None:
        await self.queue.put(None)


class XPathDaemon:
    """The long-lived serving daemon. ``port=0`` binds an ephemeral port
    (read :attr:`port` after :meth:`start`)."""

    def __init__(
        self,
        service: QueryService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        quota: ClientQuota | None = None,
        admission: AdmissionController | None = None,
        injector: FaultInjector | None = None,
        default_deadline_seconds: float | None = None,
        batch_workers: int = 2,
        response_queue_size: int = 256,
        drain_grace: float = 5.0,
        client_retention_seconds: float = 900.0,
        max_retained_clients: int = 1024,
    ):
        self.service = service if service is not None else QueryService()
        self.async_service = AsyncQueryService(self.service)
        self.host = host
        self.port = port
        self.quota = quota if quota is not None else ClientQuota()
        self.admission = (
            admission if admission is not None else AdmissionController(self.service)
        )
        self.injector = injector if injector is not None else FaultInjector()
        self.default_deadline_seconds = default_deadline_seconds
        self.batch_workers = batch_workers
        self.response_queue_size = response_queue_size
        self.drain_grace = drain_grace
        self.client_retention_seconds = client_retention_seconds
        self.max_retained_clients = max_retained_clients
        #: Global exact counters; per-client instances in _client_stats.
        self.stats = ServeStats(name="serve")
        self._clients: dict[str, ClientState] = {}
        self._client_stats: dict[str, ServeStats] = {}
        #: Counters of evicted clients, folded here so the exact
        #: ``global == sum(clients)`` identity survives eviction.
        self._evicted_stats = ServeStats(name="serve_evicted")
        self._connections: set[_Connection] = set()
        self._connection_serial = 0
        self._in_flight = 0
        self.draining = False
        self._drain_task: asyncio.Task | None = None
        self._drained = asyncio.Event()
        self._server: asyncio.Server | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.host,
            port=self.port,
            limit=MAX_FRAME_BYTES + 2,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self, signals=(signal.SIGTERM, signal.SIGINT)) -> None:
        """SIGTERM/SIGINT trigger the graceful drain (idempotent)."""
        loop = asyncio.get_running_loop()
        for signum in signals:
            loop.add_signal_handler(signum, self.initiate_drain)

    def initiate_drain(self) -> None:
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self.drain())

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, finish or deadline-out the
        in-flight work within ``drain_grace``, flush every response
        queue, close. Zero admitted queries lose their response."""
        self.draining = True
        if self._server is not None:
            # Stop accepting. wait_closed() is deferred until after the
            # teardown loop below: on Python >= 3.12.1 it also waits for
            # every client connection, so awaiting it here would hang
            # the drain for as long as any client stays connected.
            self._server.close()
        pending = {task for conn in self._connections for task in conn.tasks}
        if pending:
            done, stragglers = await asyncio.wait(pending, timeout=self.drain_grace)
            for task in stragglers:
                # The ladder converts this cancel into a typed DEADLINE
                # response (drained) before finishing — see _settle.
                task.cancel()
            if stragglers:
                await asyncio.wait(stragglers, timeout=self.drain_grace)
        for conn in list(self._connections):
            await self._teardown_connection(conn, cancel_tasks=False)
        if self._server is not None:
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(), timeout=self.drain_grace
                )
            except asyncio.TimeoutError:
                pass
        self._drained.set()

    async def wait_closed(self) -> None:
        await self._drained.wait()

    # -- client bookkeeping ---------------------------------------------

    def _client(self, frame: dict, conn: _Connection) -> tuple[ClientState, ServeStats]:
        name = frame.get("client")
        if not isinstance(name, str) or not name:
            name = conn.default_client
        state = self._clients.get(name)
        if state is None:
            self._evict_idle_clients()
            state = ClientState(name=name, quota=self.quota)
            self._clients[name] = state
            self._client_stats[name] = ServeStats(name=f"serve_client_{name}")
        state.touch()
        return state, self._client_stats[name]

    def _count(self, client_stats: ServeStats, event: str, *how, **flags) -> None:
        """One :class:`~repro.stats.ServeStats` event on the global
        instance and on the client's: the pair never drifts apart."""
        getattr(self.stats, event)(*how, **flags)
        getattr(client_stats, event)(*how, **flags)

    def _evict_client(self, name: str) -> None:
        """Drop one client's retained state (registrations included),
        folding its counters into the ``(evicted)`` bucket so the exact
        ``global == sum(clients)`` identity keeps holding."""
        self._clients.pop(name, None)
        stats = self._client_stats.pop(name, None)
        if stats is not None:
            self._evicted_stats.absorb_snapshot(stats.snapshot())

    def _evict_idle_clients(self) -> None:
        """Bound retained client state: drop named clients idle past the
        retention window, then oldest-idle ones beyond the retained-client
        cap. Live connections' default identities and clients with work
        in flight are never touched; anonymous ``conn:N`` state is evicted
        separately at connection teardown. A connected client that stays
        completely silent past the window loses its registrations too —
        periodic PINGs keep it resident."""
        now = time.monotonic()
        live = {conn.default_client for conn in self._connections}
        idle = sorted(
            (state.last_active, name)
            for name, state in self._clients.items()
            if name not in live and state.in_flight == 0
        )
        over_cap = len(self._clients) - self.max_retained_clients
        for index, (last_active, name) in enumerate(idle):
            if index < over_cap or now - last_active >= self.client_retention_seconds:
                self._evict_client(name)

    def stats_snapshot(self) -> dict:
        """The STATS payload: exact global + per-client counters (evicted
        clients' counters aggregated under ``(evicted)``), live gauges,
        and the fault injector's evaluation counts."""
        clients = {
            name: stats.snapshot() for name, stats in self._client_stats.items()
        }
        evicted = self._evicted_stats.snapshot()
        if any(evicted.values()):
            clients["(evicted)"] = evicted
        return {
            "global": self.stats.snapshot(),
            "clients": clients,
            "gauges": {
                name: state.gauges() for name, state in self._clients.items()
            },
            "in_flight": self._in_flight,
            "draining": self.draining,
            "faults": self.injector.snapshot(),
        }

    # -- connection handling --------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        self._connection_serial += 1
        conn = _Connection(
            reader,
            writer,
            default_client=f"conn:{self._connection_serial}",
            queue_size=self.response_queue_size,
        )
        self._connections.add(conn)
        writer_task = asyncio.ensure_future(self._write_loop(conn))
        conn.writer_task = writer_task
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.stats.request()
                    self.stats.malformed_frame()
                    await conn.send(
                        error_response(
                            None,
                            "FRAME_TOO_LARGE",
                            f"frame exceeds the {MAX_FRAME_BYTES}-byte limit",
                        )
                    )
                    break  # cannot resynchronize a partially-read line
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ReproError as error:
                    self.stats.request()
                    self.stats.malformed_frame()
                    await conn.send(error_to_response(None, error))
                    continue
                if frame.get("verb") == "BYE":
                    self.stats.request()
                    if conn.tasks:
                        await asyncio.wait(set(conn.tasks))
                    await conn.send(ok_response(frame.get("id"), bye=True))
                    break
                reply = self._front(conn, frame)
                if reply is not None:
                    await conn.send(reply)
        except ConnectionError:
            pass
        finally:
            await self._teardown_connection(conn)

    async def _teardown_connection(self, conn: _Connection, cancel_tasks: bool = True) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        if cancel_tasks and conn.tasks:
            # The client is gone mid-flight: cancelled evaluations are
            # recorded as failed, keeping admitted == completed +
            # deadlined + failed exact (see _settle). The reader may
            # have created the newest task without yielding since; one
            # pass of the loop lets it reach the ladder that does that
            # recording before the cancel lands.
            await asyncio.sleep(0)
            for task in set(conn.tasks):
                task.cancel()
            await asyncio.wait(set(conn.tasks), timeout=self.drain_grace)
        await conn.close_queue()
        try:
            await asyncio.wait_for(conn.writer_task, timeout=self.drain_grace)
        except asyncio.TimeoutError:
            conn.writer_task.cancel()
        conn.dead = True
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        # The anonymous per-connection identity can never be addressed
        # again (serials are unique): retaining it would leak one
        # ClientState + ServeStats per connection for the daemon's life.
        state = self._clients.get(conn.default_client)
        if state is not None and state.in_flight == 0:
            self._evict_client(conn.default_client)

    async def _write_loop(self, conn: _Connection) -> None:
        """Drain the bounded response queue onto the socket; on a broken
        transport keep consuming (and dropping) so handlers never block
        on a queue nobody reads."""
        while True:
            frame = await conn.queue.get()
            if frame is None:
                return
            if conn.dead:
                continue
            try:
                data = encode_frame(frame)
            except ReproError as error:
                # An oversized response (giant node-set) degrades to a
                # typed error frame; the connection stays usable.
                data = encode_frame(
                    error_response(frame.get("id"), "FRAME_TOO_LARGE", str(error))
                )
            try:
                conn.writer.write(data)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                conn.dead = True

    def _drop_connection(self, conn: _Connection) -> None:
        """Fault injection: hard mid-stream disconnect."""
        conn.dead = True
        try:
            conn.writer.close()
        except (ConnectionError, OSError):
            pass

    # -- the synchronous front half -------------------------------------

    def _front(self, conn: _Connection, frame: dict) -> dict | None:
        """Stages 2–6 for one decoded frame, without yielding: the reply
        to send now, or ``None`` when a task spawned here will answer
        (or the disconnect fault ate the reply)."""
        request_id = frame.get("id")
        verb = frame.get("verb")
        client, client_stats = self._client(frame, conn)
        self._count(client_stats, "request")
        if verb in ("QUERY", "BATCH"):
            return self._front_query(conn, frame, client, client_stats)
        if verb == "PING":
            return ok_response(request_id, pong=True, draining=self.draining)
        if verb == "STATS":
            return ok_response(request_id, stats=self.stats_snapshot())
        if verb in ("REGISTER", "UNREGISTER"):
            try:
                if self.draining:
                    raise _RequestError("SHUTTING_DOWN", "daemon is draining")
                if verb == "REGISTER":
                    self._front_register(conn, frame, client)
                    return None
                name = frame.get("name")
                if not isinstance(name, str) or not client.unregister(name):
                    raise _RequestError(
                        "UNKNOWN_DOCUMENT", f"no document {name!r} registered"
                    )
                return ok_response(request_id, name=name, **client.gauges())
            except ReproError as error:
                return error_to_response(request_id, error)
        return error_response(request_id, "UNKNOWN_VERB", f"unknown verb {verb!r}")

    def _front_register(self, conn, frame, client) -> None:
        name = frame.get("name")
        xml = frame.get("xml")
        if not isinstance(name, str) or not name or not isinstance(xml, str):
            raise ProtocolError(
                "REGISTER needs a non-empty string 'name' and a string 'xml'"
            )
        source_bytes = len(xml.encode("utf-8"))
        client.check_register(name, source_bytes)
        conn.spawn(self._register(conn, frame.get("id"), client, name, xml, source_bytes))

    async def _register(self, conn, request_id, client, name, xml, source_bytes) -> None:
        try:
            document = await asyncio.to_thread(parse_document, xml)
        except ReproError as error:
            await conn.send(error_to_response(request_id, error))
            return
        client.register(name, document, source_bytes)
        await conn.send(
            ok_response(
                request_id, name=name, nodes=len(document.nodes), **client.gauges()
            )
        )

    def _front_query(self, conn, frame, client, client_stats) -> dict | None:
        """Gate → validation → memo probe → admission for one QUERY or
        BATCH. The in-flight slot taken at the gate is released on every
        exit from here except the hand-off to the evaluation task."""
        request_id = frame.get("id")
        self._count(client_stats, "query")
        refusal = self._gate(client)
        if refusal is not None:
            self._count(client_stats, "reject", refusal[0])
            return error_to_response(request_id, refusal[1])
        handed_off = False
        try:
            try:
                request = self._validate(frame, client, client_stats)
            except ReproError as error:
                self._count(client_stats, "request_error")
                return error_to_response(request_id, error)
            except Exception as error:  # a front-end bug: typed, never lost
                self._count(client_stats, "request_error")
                return error_response(
                    request_id, "INTERNAL", f"request validation failed: {error!r}"
                )
            if not request.batch:
                session = self.service.session(request.documents[0])
                value = session.probe(request.plans[0])
                if value is not DocumentSession.MISS:
                    request.decision = _MEMO_HIT
                    self._count(client_stats, "admit")
                    self._count(client_stats, "complete", memo=True)
                    return self._query_reply(conn, request, value)
            decision = self.admission.decide(
                request.plans, request.documents, request.deadline_seconds,
                self._in_flight,
            )
            if not decision.admitted:
                self._count(client_stats, "reject", "overload")
                return error_to_response(
                    request_id,
                    OverloadError(decision.reason, retry_after=decision.retry_after),
                )
            self._count(client_stats, "admit", degraded=decision.degraded)
            request.decision = decision
            self._in_flight += 1
            conn.spawn(self._settle(conn, request))
            handed_off = True
            return None
        finally:
            if not handed_off:
                client.release_slot()

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

    def _validate(self, frame, client, client_stats) -> _Request:
        """Stage 4. Raises the typed error the refusal carries; untrusted
        wire input must never escape as a bare ``ValueError`` that would
        eat the response."""
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
        batch = frame.get("verb") == "BATCH"
        if batch:
            queries = frame.get("queries")
            doc_names = frame.get("docs") or client.document_names()
            if (
                not isinstance(queries, list)
                or not queries
                or not all(isinstance(query, str) for query in queries)
                or not isinstance(doc_names, list)
                or not doc_names
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
        plans = [self.service.plan(query) for query in queries]
        return _Request(
            frame.get("id"), client, client_stats, batch, queries, doc_names,
            documents, plans, deadline_seconds, frame.get("output", "path"),
        )

    def _query_reply(self, conn, request: _Request, value) -> dict | None:
        """The QUERY answer, hit or evaluated — unless the disconnect
        fault takes the connection instead."""
        query = request.queries[0]
        if self.injector.should_disconnect(query):
            self._drop_connection(conn)
            return None
        decision = request.decision
        return ok_response(
            request.id,
            query=query,
            doc=request.doc_names[0],
            algorithm=decision.algorithm,
            degraded=decision.degraded,
            priced_ms=round(decision.priced_seconds * 1000.0, 3),
            memo=decision is _MEMO_HIT,
            elapsed_ms=request.elapsed_ms(),
            **render_value(value, request.style),
        )

    # -- evaluation tasks -----------------------------------------------

    async def _settle(self, conn: _Connection, request: _Request) -> None:
        """Stage 7: run one admitted QUERY or BATCH and turn whatever
        happens into exactly one counted outcome and one typed frame."""
        run = self._run_batch if request.batch else self._run_query
        try:
            try:
                value = await run(request)
            finally:
                self._in_flight -= 1
                request.client.release_slot()
        except DeadlineExceededError as error:
            self._count(request.stats, "deadline", drained=self.draining)
            reply = self._deadline_reply(request, str(error))
        except asyncio.CancelledError:
            if not self.draining:
                # Client went away mid-flight: no one to answer, but the
                # counters must still reconcile.
                self._count(request.stats, "fail")
                raise
            # Drain-grace straggler: deadline it out, respond, finish.
            self._count(request.stats, "deadline", drained=True)
            reply = self._deadline_reply(
                request, "drain grace expired with the request still running"
            )
        except ReproError as error:
            self._count(request.stats, "fail", drained=self.draining)
            reply = error_to_response(request.id, error)
        except Exception as error:  # worker death: typed, never lost
            self._count(request.stats, "fail", drained=self.draining)
            reply = error_response(
                request.id, "EVALUATION", f"evaluation failed: {error}"
            )
        else:
            self._count(request.stats, "complete", drained=self.draining)
            if request.batch:
                reply = ok_response(
                    request.id,
                    **request.partial(),
                    degraded=request.decision.degraded,
                    shared=request.decision.share,
                    priced_ms=round(request.decision.priced_seconds * 1000.0, 3),
                    elapsed_ms=request.elapsed_ms(),
                )
            else:
                reply = self._query_reply(conn, request, value)
        if reply is not None:
            await conn.send(reply)

    def _deadline_reply(self, request: _Request, message: str) -> dict:
        return error_response(
            request.id,
            "DEADLINE",
            message,
            **request.partial(),
            elapsed_ms=request.elapsed_ms(),
        )

    async def _run_query(self, request: _Request):
        future = asyncio.get_running_loop().run_in_executor(
            None,
            self._evaluate_sync,
            request.plans[0],
            request.documents[0],
            request.decision.algorithm,
            request.queries[0],
        )
        # The worker thread cannot be interrupted, only abandoned: when a
        # deadline or a cancel answers first, its eventual result (or
        # exception) is swallowed here.
        future.add_done_callback(_consume_result)
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), request.deadline_seconds
            )
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"deadline of {request.deadline_seconds * 1000:.0f}ms exceeded"
            ) from None

    def _evaluate_sync(self, plan, document, algorithm: str, query: str):
        """Runs in a worker thread: the fault seam, then the service
        (whose timing observations feed the admission oracle)."""
        self.injector.before_evaluate(query)
        return self.service.evaluate(plan, document, algorithm=algorithm)

    async def _run_batch(self, request: _Request) -> None:
        """Streams the cells into ``request.cells``, where a deadline or
        a drain finds the finished ones."""
        stream = self.async_service.stream_many(
            request.queries,
            request.documents,
            algorithm=request.decision.algorithm,
            workers=max(1, min(self.batch_workers, len(request.documents))),
            share=request.decision.share,
            deadline_seconds=request.deadline_seconds,
        )
        try:
            async for item in stream:
                request.cells.append(
                    {
                        "doc": request.doc_names[item.document_index],
                        "query": item.query,
                        "algorithm": item.algorithm,
                        **render_value(item.value, request.style),
                    }
                )
        except asyncio.CancelledError:
            await stream.aclose()
            raise


async def run_daemon(daemon: XPathDaemon, ready=None) -> None:
    """Start a daemon, install signal handlers, and serve until drained
    (the ``repro-xpath serve`` main loop)."""
    await daemon.start()
    daemon.install_signal_handlers()
    if ready is not None:
        ready(daemon)
    await daemon.wait_closed()
