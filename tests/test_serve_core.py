"""The serving core, driven without a socket: a model-checked state machine.

:class:`Driver` stands in for the asyncio adapter of :mod:`repro.serve.
daemon`: it performs a :class:`~repro.serve.core.ServeCore`'s actions in
process, on a clock that moves only when told, and holds admitted
evaluations until a test runs, fails, times out or cancels them.
:class:`ServeMachine` drives it with generated traffic and checks after
every step that each request got exactly one typed reply (or its
connection closed), that every value equals the ``topdown`` evaluator's,
that the counters reconcile globally and per client, and that nothing
outlives a drain. Each run has a fixed seed; ``run_machine(10, 50,
seed=7)`` (``src`` and ``tests`` on ``sys.path``) explores another.
"""

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, seed as fixed_seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, get_state_machine_test, initialize, invariant, precondition,
    rule,
)

from repro.engine import XPathEngine
from repro.errors import PROTOCOL_CODES, EvaluationError, ReproError
from repro.serve.admission import AdmissionController
from repro.serve.core import (
    ABANDON, CANCELLED, CLOSE, DEFERRED, EVALUATE, REGISTER, WRITE, Request, ServeCore,
)
from repro.serve.protocol import OUTPUT_STYLES, decode_frame, encode_frame, render_value
from repro.serve.quotas import ClientQuota
from repro.service.service import QueryService
from repro.stats import ServeStats
from repro.workloads.documents import random_document
from repro.workloads.queries import random_core_query, random_full_query
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize


@dataclass(eq=False)
class Evaluation:
    """An admitted request in flight, with what is left of its hops."""

    request: Request
    hops: Iterator


class Driver:
    """A synchronous adapter. Admitted evaluations wait in :attr:`pending`
    until :meth:`step`, :meth:`settle` or a close (with ``eager``, they run
    at once); replies land in :attr:`replies` as ``(connection, frame,
    request)``; every send and settlement ends in :meth:`check`."""

    def __init__(self, eager: bool = True, **options):
        self.now = 0.0
        self.core = ServeCore(lambda: self.now, **options)
        self.eager = eager
        self.pending: list[Evaluation] = []
        self.replies: list[tuple] = []

    def connect(self):
        return self.core.connect()

    def send(self, conn, data: bytes) -> list[dict]:
        """Feed ``data`` (``b""`` is the EOF), perform every action it
        causes, and return the replies written meanwhile."""
        start = len(self.replies)
        self.core.receive(conn, data)
        while (actions := self.core.next_actions(conn)) is not None:
            if actions is not DEFERRED:
                self.perform(conn, actions)
        self.check()
        return [frame for _, frame, _ in self.replies[start:]]

    def perform(self, conn, actions, request=None) -> None:
        for kind, argument in actions:
            if kind == WRITE:
                if conn in self.core.connections:  # the adapter drops the rest
                    self.replies.append((conn, decode_frame(argument), request))
            elif kind == EVALUATE:
                evaluation = Evaluation(argument, self.core.hops(argument))
                self.pending.append(evaluation)
                if self.eager:
                    self.finish(evaluation)
            elif kind == REGISTER:
                try:
                    outcome = parse_document(argument.xml)
                except ReproError as error:
                    outcome = error
                self.perform(conn, self.core.registered(argument, outcome))
            elif kind == CLOSE:
                if argument is not None:  # a BYE: the evaluations reply first
                    for evaluation in self.of(conn):
                        self.finish(evaluation)
                    self.replies.append((conn, decode_frame(argument), None))
                self.close(conn)
            else:
                assert kind == ABANDON
                self.close(conn)

    def of(self, conn) -> list[Evaluation]:
        return [e for e in self.pending if e.request.connection is conn]

    def close(self, conn) -> None:
        """The adapter's teardown: the core forgets the connection and its
        evaluations are cancelled."""
        self.core.disconnect(conn)
        for evaluation in self.of(conn):
            self.settle(evaluation, CANCELLED)

    def step(self, evaluation: Evaluation) -> None:
        """The next hop the core allows, run at once; the settlement once
        none is left, the core refuses one (a lapsed deadline) or it raises."""
        try:
            step, _ = next(evaluation.hops)
            evaluation.request.take(step())
        except StopIteration:
            self.settle(evaluation, None)
        except Exception as error:
            self.settle(evaluation, error)

    def finish(self, evaluation: Evaluation) -> None:
        while evaluation in self.pending:
            self.step(evaluation)

    def settle(self, evaluation: Evaluation, error) -> None:
        self.pending.remove(evaluation)
        request = evaluation.request
        self.perform(request.connection, self.core.settle(request, error), request)
        self.check()

    def check(self) -> None:
        """The counters reconcile with what is in flight, globally and
        per client, and the global counters are the clients' sums."""
        core, pending = self.core, self.pending
        assert core.in_flight == len(pending)
        snapshot = core.stats_snapshot()
        assert_reconciled(snapshot["global"], len(pending))
        for name, counts in snapshot["clients"].items():
            state = core.clients.get(name)
            flying = sum(e.request.client is state for e in pending)
            assert_reconciled(counts, flying)
            assert state is None or state.in_flight == flying
        for key in set(ServeStats.COUNTERS) - {"requests", "malformed"}:
            assert snapshot["global"][key] == sum(c[key] for c in snapshot["clients"].values())


class FixedRate(AdmissionController):
    """Admission at its seed rate, whatever this host's speed."""

    def _rate(self, algorithm):
        return self.seconds_per_unit


def document_xml(seed: int) -> str:
    return serialize(random_document(random.Random(seed), max_nodes=12))


def query_text(seed: int, full: bool) -> str:
    rng = random.Random(seed)
    if full:
        return random_full_query(rng, max_steps=3, max_depth=1)
    return random_core_query(rng, max_steps=3, max_depth=1)


def assert_reconciled(snapshot: dict, in_flight: int = 0) -> None:
    """Both identities, with ``in_flight`` admitted and not yet settled."""
    residuals = ServeStats.residuals(snapshot)
    assert residuals == {"queries": 0, "admitted": in_flight, "rejected": 0}


CLIENTS = st.sampled_from(["a", "a", "b", None])
NAMES = st.sampled_from(["d0", "d0", "d1", "d2"])
#: Few seeds, so texts and documents repeat: memo hits and replacements.
SEEDS = st.integers(0, 5)
QUERY_SEEDS = st.integers(0, 3)
DEADLINES = st.sampled_from([None, None, 0, 1, 30, 2000])
PICK = st.integers(0, 1 << 16)
#: Lines no decoder takes; ``None`` sends a QUERY in pieces instead.
ODD_LINES = st.sampled_from([None, None, b"{not json\n", b'{"verb": "QUERY", "id"\n', b"\xff\n"])


class ServeMachine(RuleBasedStateMachine):
    #: Steps checked, over every instance (the tests read it).
    steps_taken = 0

    def __init__(self):
        super().__init__()
        self.ids = itertools.count(1)
        self.oracle = {}
        self.start()

    def start(self) -> None:
        service = QueryService()
        self.driver = Driver(
            eager=False, service=service,
            quota=ClientQuota(max_documents=2, max_in_flight=3, rate=100.0, burst=8),
            admission=FixedRate(
                service, queue_high=4, queue_degrade=2, seconds_per_unit=1e-6,
                max_cost_seconds=60.0,
            ),
            client_retention_seconds=30.0, max_retained_clients=3,
        )
        self.core = self.driver.core
        #: Open connections, with the client name their frames carry.
        self.conns: list[tuple] = []
        #: Per connection: the ids sent and not answered, with the frame.
        self.awaiting: dict = {}
        #: Per connection: replies without an id still due (malformed lines).
        self.malformed: dict = {}
        self.checked = 0
        #: (query, doc) of QUERYs answered with a value: texts to repeat.
        self.answered: list[dict] = []
        #: Steps since this daemon started.
        self.age = 0

    def conn(self, pick: int):
        return self.conns[pick % len(self.conns)]

    def send(self, pick: int, verb: str, then: str | None = None, **fields) -> None:
        """One frame; its evaluation, if any, may ``finish`` or ``die`` now."""
        conn, client = self.conn(pick)
        frame = {"verb": verb, "id": next(self.ids), **fields}
        if client is not None:
            frame["client"] = client
        self.awaiting[conn][frame["id"]] = frame
        self.driver.send(conn, encode_frame(frame))
        for evaluation in [e for e in self.driver.pending if e.request.id == frame["id"]]:
            if then == "finish":
                self.driver.finish(evaluation)
            elif then == "die":
                self.driver.settle(evaluation, RuntimeError("worker died"))

    def closed(self, conn, cancelled: set) -> None:
        """``conn`` is gone: what it still awaited was cancelled with it."""
        self.check_replies()
        assert set(self.awaiting[conn]) <= cancelled
        self.conns = [(c, name) for c, name in self.conns if c is not conn]
        del self.awaiting[conn], self.malformed[conn]

    @initialize(seeds=st.lists(SEEDS, min_size=4, max_size=4))
    def open_two_clients(self, seeds):
        """Two connections, one named, one anonymous, two documents each."""
        for client in ("a", None):
            self.connect(client)
            for name in ("d0", "d1"):
                self.register(len(self.conns) - 1, name, seeds.pop(), False)

    @precondition(lambda self: len(self.conns) < 4)
    @rule(client=CLIENTS)
    def connect(self, client):
        conn = self.driver.connect()
        self.conns.append((conn, client))
        self.awaiting[conn], self.malformed[conn] = {}, 0

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, how=st.sampled_from(["drop", "bye", "eof", "eof mid-frame"]))
    def leave(self, pick, how):
        """A drop; a BYE (evaluations reply first); a half-close, maybe
        mid-frame (the rest is the last line, malformed)."""
        conn, _ = self.conn(pick)
        flying = {e.request.id for e in self.driver.of(conn)}
        if how == "drop":
            self.driver.close(conn)
        elif how == "bye":
            self.send(pick, "BYE")
        else:
            if how == "eof mid-frame":
                self.malformed[conn] += 1
                self.driver.send(conn, b'{"verb": "PI')
            self.driver.send(conn, b"")
        assert conn not in self.core.connections
        self.closed(conn, set() if how == "bye" else flying)

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, name=NAMES, seed=SEEDS, remove=st.booleans())
    def register(self, pick, name, seed, remove):
        if remove:
            self.send(pick, "UNREGISTER", name=name)
        else:
            self.send(pick, "REGISTER", name=name, xml=document_xml(seed))

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, doc=NAMES, seed=QUERY_SEEDS, full=st.booleans(),
          deadline=DEADLINES, style=st.sampled_from(OUTPUT_STYLES),
          then=st.sampled_from(["finish", "finish", "die", None]), again=st.booleans())
    def query(self, pick, doc, seed, full, deadline, style, then, again):
        """A QUERY; ``again`` repeats an answered one (a hit, mostly)."""
        fields = {"query": query_text(seed, full), "doc": doc, "output": style}
        if again and self.answered:
            fields.update(self.answered[pick % len(self.answered)])
        if deadline is not None:
            fields["deadline_ms"] = deadline
        self.send(pick, "QUERY", then, **fields)

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, seeds=st.lists(QUERY_SEEDS, min_size=1, max_size=3),
          docs=st.none() | st.lists(NAMES, min_size=1, max_size=2, unique=True),
          deadline=DEADLINES, then=st.sampled_from(["finish", "die", None, None]))
    def batch(self, pick, seeds, docs, deadline, then):
        fields = {"queries": [query_text(seed, seed % 2 == 1) for seed in seeds]}
        if docs is not None:
            fields["docs"] = docs
        if deadline is not None:
            fields["deadline_ms"] = deadline
        self.send(pick, "BATCH", then, **fields)

    @precondition(lambda self: self.conns)
    @rule(seconds=st.sampled_from([0.01, 0.05, 0.5, 40.0]))
    def advance(self, seconds):
        self.driver.now += seconds

    @precondition(lambda self: self.driver.pending)
    @rule(pick=PICK, outcome=st.sampled_from(["step", "finish", "die", "raise", "hang"]))
    def worker(self, pick, outcome):
        """One step or all run; the worker dies; the library raises; or a
        step outlives its deadline, abandoned there (none: it runs on)."""
        pending = self.driver.pending
        evaluation = pending[pick % len(pending)]
        request = evaluation.request
        if outcome == "step":
            self.driver.step(evaluation)
        elif outcome == "finish":
            self.driver.finish(evaluation)
        elif outcome == "die":
            self.driver.settle(evaluation, RuntimeError("worker died"))
        elif outcome == "raise":
            self.driver.settle(evaluation, EvaluationError("evaluation broke"))
        elif request.deadline_seconds is not None:
            self.driver.now = max(self.driver.now, request.started + request.deadline_seconds)
            self.driver.settle(evaluation, request.overdue())

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, seed=SEEDS, cuts=st.lists(st.integers(1, 60), max_size=3),
          line=ODD_LINES)
    def odd_frame(self, pick, seed, cuts, line):
        """A malformed or truncated line, or a QUERY sent in pieces (none
        answered before its newline)."""
        conn, client = self.conn(pick)
        if line is not None:
            self.malformed[conn] += 1
            self.driver.send(conn, line)
            return
        frame = {"verb": "QUERY", "id": next(self.ids), "query": query_text(seed, False),
                 "doc": "d0", "client": client}
        data = encode_frame(frame)
        bounds = sorted({0, len(data), *(min(cut, len(data) - 1) for cut in cuts)})
        self.awaiting[conn][frame["id"]] = frame
        for start, end in zip(bounds, bounds[1:]):
            before = len(self.driver.replies)
            self.driver.send(conn, data[start:end])
            if end < len(data):
                assert len(self.driver.replies) == before

    @precondition(lambda self: self.conns)
    @rule(pick=PICK)
    def stats(self, pick):
        before = len(self.driver.replies)
        self.send(pick, "STATS")
        (_, reply, _), = self.driver.replies[before:]
        stats = reply["stats"]
        assert_reconciled(stats["global"], stats["in_flight"])
        assert stats["residuals"]["global"] == ServeStats.residuals(stats["global"])

    @precondition(lambda self: self.age >= 20)
    @rule(finishes=st.integers(0, 255))
    def drain(self, finishes):
        """Evaluations finish in the grace or are cancelled as stragglers,
        connections close; nothing is left; a new daemon starts."""
        self.core.draining = True
        for bit, evaluation in enumerate(list(self.driver.pending)):
            if finishes >> (bit % 8) & 1:
                self.driver.finish(evaluation)
            else:
                self.driver.settle(evaluation, CANCELLED)
        for conn, _ in list(self.conns):
            self.driver.close(conn)
            self.closed(conn, set())
        core = self.core
        assert not core.connections and core.in_flight == 0 and not self.driver.pending
        assert all(state.in_flight == 0 for state in core.clients.values())
        assert not any(name.startswith("conn:") for name in core.clients)
        self.driver.check()
        self.start()
        self.open_two_clients([finishes % 6, 1, 2, 3])

    def expected(self, document, query: str, style: str) -> dict:
        key = (document, query, style)
        if key not in self.oracle:
            value = XPathEngine(document).evaluate(query, algorithm="topdown")
            self.oracle[key] = render_value(value, style)
        return self.oracle[key]

    def check_replies(self) -> None:
        """Each reply answers one awaited request once, typed; each value
        is the topdown evaluator's."""
        for conn, reply, request in self.driver.replies[self.checked:]:
            self.checked += 1
            if reply["id"] is None:
                assert self.malformed[conn] > 0 and reply["error"]["code"] == "PROTOCOL"
                self.malformed[conn] -= 1
                continue
            frame = self.awaiting[conn].pop(reply["id"])  # exactly one reply
            if not reply["ok"]:
                assert reply["error"]["code"] in PROTOCOL_CODES
            if frame["verb"] == "QUERY" and "kind" in reply:
                if request is not None:
                    document = request.documents[0]
                else:  # answered at once: a memo hit
                    client = frame.get("client") or conn.client
                    document = self.core.clients[client].document(frame["doc"])
                style = frame.get("output", "path")
                expected = self.expected(document, frame["query"], style)
                assert {key: reply[key] for key in expected} == expected
                assert reply["algorithm"] in ("corexpath", "optmincontext")
                self.answered.append({"query": frame["query"], "doc": frame["doc"]})
            for cell in reply.get("cells", ()):
                document = request.documents[request.doc_names.index(cell["doc"])]
                expected = self.expected(document, cell["query"], "path")
                assert {key: cell[key] for key in expected} == expected

    @invariant()
    def reconciled(self):
        ServeMachine.steps_taken += 1
        self.age += 1
        self.check_replies()
        for conn, _ in self.conns:
            # What an open connection awaits is exactly what is in flight.
            assert set(self.awaiting[conn]) == {e.request.id for e in self.driver.of(conn)}
            assert self.malformed[conn] == 0
        self.driver.check()
        live = {conn.client for conn in self.core.connections}
        assert all(
            name in live or state.in_flight
            for name, state in self.core.clients.items() if name.startswith("conn:")
        )


def run_machine(examples: int, steps: int, seed: int) -> int:
    """Run the machine from a fixed seed; return the steps it checked."""
    before = ServeMachine.steps_taken
    fixed_seed(seed)(get_state_machine_test(ServeMachine, settings=settings(
        max_examples=examples, stateful_step_count=steps, deadline=None,
        database=None, suppress_health_check=list(HealthCheck),
    )))()
    return ServeMachine.steps_taken - before


def test_the_serve_core_machine():
    assert run_machine(examples=20, steps=50, seed=0) >= 200


@pytest.mark.slow
def test_the_serve_core_machine_long_run():
    assert run_machine(examples=100, steps=50, seed=1) >= 2000
