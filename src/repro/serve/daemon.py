"""The serving daemon: the asyncio TCP adapter of :class:`~repro.serve.
core.ServeCore`, which makes every decision (the stages a frame passes
are listed in :mod:`repro.serve.core`) and answers with actions that
this module performs. A connection is an :class:`asyncio.Protocol`:
``data_received`` hands the bytes to the core and performs each frame's
actions before asking for the next, so a frame answered at once costs
one callback and no future or task. A client that does not read fills
the transport's write buffer, whose ``pause_writing`` stops its frames
and reading and holds its tasks' replies until ``resume_writing``.
"""

from __future__ import annotations

import asyncio
import signal
import time

from repro.errors import ReproError
from repro.serve.core import (
    ABANDON, CANCELLED, CLOSE, DEFERRED, EVALUATE, REGISTER, WRITE, Request,
    ServeCore,
)
# benchmarks/e2e/tracer.py imports render_value from this module.
from repro.serve.protocol import render_value  # noqa: F401
from repro.xml.parser import parse_document


class _Connection(asyncio.Protocol):
    """One client connection: its core state, tasks and flow control."""

    def __init__(self, daemon: XPathDaemon):
        self.daemon = daemon
        self.state = None
        self.transport = None
        self.tasks: set[asyncio.Task] = set()
        self.dead = False
        #: Clear while the transport's write buffer is above its mark.
        self.writable = asyncio.Event()
        self.writable.set()
        #: Done once the transport is gone.
        self.closed: asyncio.Future | None = None
        #: The task that ends the connection (strongly held).
        self.ending: asyncio.Task | None = None

    def connection_made(self, transport) -> None:
        # asyncio reads 256 KiB per recv() into a fresh bytes object. Under
        # glibc, freeing it after every small frame can trim and regrow the
        # heap top on each request: a page-fault storm that made hot
        # requests ~25 % slower in some process layouts. 64 KiB stays
        # below malloc's default mmap and trim thresholds.
        transport.max_size = 64 * 1024
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()
        self.state = self.daemon.core.connect()
        self.daemon._connections.add(self)

    def data_received(self, data: bytes) -> None:
        self.daemon.core.receive(self.state, data)
        self.answer_frames()

    def eof_received(self) -> bool:
        self.daemon.core.receive(self.state, b"")
        self.answer_frames()
        return True  # half-open: the replies still go out

    def pause_writing(self) -> None:
        self.writable.clear()
        # After the EOF the transport has stopped reading for good;
        # pausing it would let resume_reading re-arm the reader.
        if not self.state.eof:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writable.set()
        self.transport.resume_reading()
        self.answer_frames()

    def connection_lost(self, exc) -> None:
        self.dead = True
        self.writable.set()
        self.closed.set_result(None)
        if self in self.daemon._connections:
            self.end(None)

    def answer_frames(self) -> None:
        """Perform each buffered frame's actions until none is complete,
        writing pauses or the core defers the rest to the next pass."""
        core = self.daemon.core
        while self.writable.is_set():
            actions = core.next_actions(self.state)
            if actions is None:
                return
            if actions is DEFERRED:
                if not self.state.eof:  # reading has stopped for good then
                    self.transport.pause_reading()
                asyncio.get_running_loop().call_soon(self.answer_deferred)
                return
            self.perform(actions)

    def answer_deferred(self) -> None:
        """The next pass of a burst the frame cap cut."""
        if self.writable.is_set() and not (self.state.ended or self.dead):
            self.transport.resume_reading()
            self.answer_frames()

    def perform(self, actions) -> None:
        daemon = self.daemon
        for kind, argument in actions:
            if kind is WRITE:
                # Dropped once the connection is closing: the core's
                # counters already recorded the outcome.
                if not (self.dead or self.transport.is_closing()):
                    self.transport.write(argument)
            elif kind is EVALUATE:
                self.spawn(daemon._evaluate(self, argument))
            elif kind is REGISTER:
                self.spawn(daemon._register(self, argument))
            elif kind is CLOSE:
                self.end(argument)
            elif kind is ABANDON:
                self.dead = True
                self.transport.close()

    async def send(self, actions) -> None:
        """A task's actions, performed at once; the task then waits while
        writing is paused."""
        self.perform(actions)
        if not self.dead:
            await self.writable.wait()

    def end(self, farewell: bytes | None) -> None:
        """Perform a CLOSE (the first one only)."""
        if self.ending is None:
            self.ending = asyncio.ensure_future(self.daemon._close(self, farewell))

    async def close(self, grace: float) -> None:
        """Close once the replies flush; abort when they do not within
        ``grace`` (a client that stopped reading)."""
        self.dead = True
        if not self.closed.done():
            self.transport.close()
            done, _ = await asyncio.wait({self.closed}, timeout=grace)
            if not done:
                self.transport.abort()

    def spawn(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)


class XPathDaemon:
    """The long-lived serving daemon. ``port=0`` binds an ephemeral port
    (read :attr:`port` after :meth:`start`); ``options`` go to the
    :class:`~repro.serve.core.ServeCore`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, drain_grace: float = 5.0, **options
    ):
        self.core = ServeCore(time.monotonic, **options)
        self.host = host
        self.port = port
        self.drain_grace = drain_grace
        self._connections: set[_Connection] = set()
        self._drain_task: asyncio.Task | None = None
        self._drained = asyncio.Event()
        self._server: asyncio.Server | None = None

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), host=self.host, port=self.port
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
        in-flight work within ``drain_grace``, close every connection.
        Zero admitted queries lose their response."""
        self.core.draining = True
        if self._server is not None:
            # Stop accepting. wait_closed() is deferred until after the
            # teardown below: on Python >= 3.12.1 it also waits for
            # every client connection, so awaiting it here would hang
            # the drain for as long as any client stays connected.
            self._server.close()
        pending = {task for conn in self._connections for task in conn.tasks}
        if pending:
            done, stragglers = await asyncio.wait(pending, timeout=self.drain_grace)
            for task in stragglers:
                # The core's settlement turns this cancel into a typed
                # DEADLINE reply (drained) before the task finishes.
                task.cancel()
            if stragglers:
                await asyncio.wait(stragglers, timeout=self.drain_grace)
        # All at once: each close may wait out drain_grace on a client
        # that stopped reading, and N of them must not take N graces.
        await asyncio.gather(
            *(self._teardown(conn, cancel_tasks=False) for conn in list(self._connections))
        )
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

    async def _close(self, conn: _Connection, farewell: bytes | None) -> None:
        """A CLOSE: a BYE's tasks reply first, then its ``farewell``,
        then the close; any other close cancels the tasks."""
        if farewell is not None:
            if conn.tasks:
                await asyncio.wait(set(conn.tasks))
            conn.perform([(WRITE, farewell)])
        await self._teardown(conn, cancel_tasks=farewell is None)

    async def _teardown(self, conn: _Connection, cancel_tasks: bool) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self.core.disconnect(conn.state)
        if cancel_tasks and conn.tasks:
            # The client is gone mid-flight: cancelled evaluations settle
            # as failed, keeping admitted == completed + deadlined +
            # failed exact. The frame loop may have created the newest
            # task without yielding since; one pass of the loop lets it
            # start before the cancel lands.
            await asyncio.sleep(0)
            for task in set(conn.tasks):
                task.cancel()
            await asyncio.wait(set(conn.tasks), timeout=self.drain_grace)
        await conn.close(self.drain_grace)

    async def _register(self, conn: _Connection, registration) -> None:
        try:
            outcome = await asyncio.to_thread(parse_document, registration.xml)
        except ReproError as error:
            outcome = error
        await conn.send(self.core.registered(registration, outcome))

    async def _evaluate(self, conn: _Connection, request: Request) -> None:
        """An EVALUATE: each hop the core allows, then the settlement."""
        error = None
        try:
            for step, remaining in self.core.hops(request):
                request.take(await self._hop(request, step, remaining))
        except asyncio.CancelledError:
            error = CANCELLED
        except Exception as caught:  # deadline, library error, worker death
            error = caught
        actions = self.core.settle(request, error)
        if error is CANCELLED:
            conn.perform(actions)
            raise asyncio.CancelledError
        await conn.send(actions)

    async def _hop(self, request: Request, step, remaining: float | None):
        """One worker-thread hop within ``remaining`` seconds; a thread cannot
        be interrupted, only abandoned, its eventual result swallowed."""
        future = asyncio.get_running_loop().run_in_executor(None, step)
        # Retrieve an abandoned step's outcome, so none is logged.
        future.add_done_callback(lambda done: done.cancelled() or done.exception())
        try:
            return await asyncio.wait_for(asyncio.shield(future), remaining)
        except asyncio.TimeoutError:
            raise request.overdue() from None


async def run_daemon(daemon: XPathDaemon, ready=None) -> None:
    """Start a daemon, install signal handlers, and serve until drained
    (the ``repro-xpath serve`` main loop)."""
    await daemon.start()
    daemon.install_signal_handlers()
    if ready is not None:
        ready(daemon)
    await daemon.wait_closed()
