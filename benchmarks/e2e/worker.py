"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition so every repetition has a
clean address space (``peak_rss_mb`` is a fresh high-water mark, no cache
survives). A repetition is: timed set-up -> the measured phase (a fixed,
seeded op list) -> teardown. The load is a closed loop with one client:
the next op is sent when the previous reply has been verified. For the
serve workloads the daemon is ``python -m repro serve --port 0`` with
default flags as a child process and the client is one TCP connection, so
at most two processes are ever busy.

Every reply is reduced to ``[kind, count, digest]`` and compared with the
oracle's expectation shipped in the spec; an error reply, a refusal, a
wrong answer, a timeout or an op never sent counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import zlib

import host
import oracle

from repro import QueryService, parse_document
from repro.errors import ReproError
from repro.serve.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.stats import axis_kernel_stats
from repro.xml.store import DocumentStore

#: Per-repetition throughput is the median over this many equal-count
#: segments of the op list, which filters sub-second bursts and stalls.
SEGMENTS = 8


class SetupFailed(RuntimeError):
    """Set-up could not bring the system to the measured phase."""


def percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


# ----------------------------------------------------------------------
# The measured phase
# ----------------------------------------------------------------------


def measure(ops: list, do_op, deadline: float, cpu_clocks: list, pacer) -> dict:
    """Run the closed loop over ``ops`` until done or ``deadline``
    (``time.monotonic``). ``do_op(op)`` returns the observed reduction
    and whether it matched; ``cpu_clocks`` are callables returning CPU
    seconds of each process that works for the ops, the calibration
    slices excluded (:func:`own_cpu`). Timings are kept as the stopwatch
    read them and normalised per segment by the pacer's speed factor."""
    bounds = sorted({len(ops) * k // SEGMENTS for k in range(1, SEGMENTS + 1)} - {0})
    latencies, correct, observed, segments = [], [], [], []
    errors: dict = {}
    cpu_before = sum(clock() for clock in cpu_clocks)
    pacer.lap()
    first = 0
    for index, op in enumerate(ops):
        if time.monotonic() > deadline:
            break
        pacer.tick()
        sent = time.perf_counter()
        try:
            seen, good = do_op(op)
        except (ReproError, OSError) as error:
            kind = type(error).__name__
            seen, good = ["error", 0, kind], False
            errors[kind] = errors.get(kind, 0) + 1
        latencies.append((time.perf_counter() - sent) * 1000.0)
        correct.append(good)
        observed.append(seen)
        if index + 1 == bounds[len(segments)]:
            segments.append((first, index + 1, *pacer.lap()))
            first = index + 1
    if first < len(latencies):  # the deadline cut a segment short
        segments.append((first, len(latencies), *pacer.lap()))
    cpu = sum(clock() for clock in cpu_clocks) - cpu_before
    attempted = len(ops)
    succeeded = sum(correct)
    wall = sum(net for _, _, net, _ in segments)
    # What the same phase would have taken at reference host speed.
    reference_wall = sum(net / factor for _, _, net, factor in segments)
    speed = reference_wall / wall if wall else 1.0
    normalised = sorted(
        latency / factor
        for low, high, _, factor in segments
        for latency in latencies[low:high]
    )
    stopwatch = sorted(latencies)

    def rates(scaled: bool) -> list:
        return [
            sum(correct[low:high]) / net * (factor if scaled else 1.0)
            for low, high, net, factor in segments
        ]

    def per_kop(seconds: float) -> float:
        return seconds / succeeded * 1000.0 if succeeded else 0.0

    return {
        "attempted": attempted,
        # Ops never sent (deadline hit) are failed ops, not missing ones.
        "failed": attempted - succeeded,
        "timed_out": len(latencies) < attempted,
        "errors": errors,
        "wall_s": wall,
        "ops_per_s": statistics.median(rates(True)) if segments else 0.0,
        "latency_p50_ms": percentile(normalised, 0.50) if normalised else 0.0,
        "latency_p95_ms": percentile(normalised, 0.95) if normalised else 0.0,
        "cpu_s_per_kop": per_kop(cpu * speed),
        "ok_share": succeeded / attempted,
        "cpu_s": cpu,
        "stopwatch": {
            "ops_per_s": statistics.median(rates(False)) if segments else 0.0,
            "latency_p50_ms": percentile(stopwatch, 0.50) if stopwatch else 0.0,
            "latency_p95_ms": percentile(stopwatch, 0.95) if stopwatch else 0.0,
            "cpu_s_per_kop": per_kop(cpu),
        },
        "results_crc": format(
            zlib.crc32(json.dumps(observed, separators=(",", ":")).encode()), "08x"
        ),
    }


def finish(phase: dict, setup: tuple, pacer, **fields) -> dict:
    """One repetition's result: the measured phase plus the set-up
    stretch (``pacer.lap()`` taken when set-up ended)."""
    net, factor = setup
    phase["stopwatch"]["setup_s"] = net
    return {
        **phase,
        "setup_s": net / factor,
        "calib_ms": statistics.median(pacer.samples),
        **fields,
    }


def own_cpu(pacer):
    """This process's CPU clock net of the calibration slices: they run
    inside the measured loop but are the benchmark's work, not an op's."""
    return lambda: time.process_time() - pacer.cpu_spent


def _kernel_delta(before: dict) -> dict:
    after = axis_kernel_stats.snapshot()
    return {key: after[key] - before[key] for key in after}


def _counters(snapshot: dict) -> dict:
    """The exact part of a CacheStats snapshot (rates are derived)."""
    return {key: snapshot[key] for key in ("hits", "misses", "evictions")}


# ----------------------------------------------------------------------
# serve-hot / serve-cold: the daemon over one TCP connection
# ----------------------------------------------------------------------


class Daemon:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, directory: pathlib.Path, timeout: float, pacer):
        self.log = directory / "daemon.stderr"
        self._log_handle = open(self.log, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log_handle,
        )
        self.port = self._await_port(timeout, pacer)

    def _await_port(self, timeout: float, pacer) -> int:
        """The port comes from the daemon's own ``listening on HOST:PORT``
        line on stderr."""
        give_up = time.monotonic() + timeout
        while time.monotonic() < give_up:
            text = self.log.read_text(errors="replace")
            marker = text.find("listening on ")
            if marker >= 0 and "\n" in text[marker:]:
                return int(text[marker:].split("\n", 1)[0].rsplit(":", 1)[1])
            if self.process.poll() is not None:
                raise SetupFailed(f"daemon exited early: {text.strip()[-300:]}")
            pacer.tick()
            time.sleep(0.005)
        raise SetupFailed("daemon did not report its port in time")

    def stop(self) -> int | None:
        """SIGTERM (graceful drain), then SIGKILL if it will not go."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log_handle.close()
        return self.process.returncode


class Connection:
    """One blocking connection speaking the line-delimited JSON protocol
    through the program's own frame codec, counting bytes both ways."""

    def __init__(self, port: int, timeout: float):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.reader = self.sock.makefile("rb")
        self.request_id = 0
        self.bytes_out = 0
        self.bytes_in = 0

    def request(self, verb: str, **fields) -> dict:
        self.request_id += 1
        data = encode_frame({"verb": verb, "id": self.request_id, **fields})
        self.sock.sendall(data)
        line = self.reader.readline(MAX_FRAME_BYTES + 2)
        if not line:
            raise ConnectionError("connection closed by the daemon")
        self.bytes_out += len(data)
        self.bytes_in += len(line)
        response = decode_frame(line)
        if response.get("id") != self.request_id:
            raise ConnectionError(f"reply to {response.get('id')!r}, not {self.request_id}")
        return response

    def close(self) -> None:
        try:
            self.request("BYE")
        except (ReproError, OSError):
            pass
        self.reader.close()
        self.sock.close()


def run_serve(spec: dict, directory: pathlib.Path, deadline: float, pacer) -> dict:
    cells = spec["cells"]
    expected = spec["expected"]
    algorithms: dict = {}

    def query(cell_index: int):
        text, name = cells[cell_index]
        reply = connection.request("QUERY", query=text, doc=name)
        if not reply.get("ok"):
            return ["refused", 0, reply.get("error", {}).get("code", "?")], False
        algorithm = reply.get("algorithm")
        algorithms[algorithm] = algorithms.get(algorithm, 0) + 1
        seen = oracle.reduce_payload(reply)
        return seen, seen == expected[name][text]

    daemon = Daemon(directory, timeout=30.0, pacer=pacer)
    connection = None
    try:
        connection = Connection(daemon.port, timeout=max(1.0, deadline - time.monotonic()))
        for document in spec["documents"]:
            pacer.tick()
            reply = connection.request(
                "REGISTER", name=document["name"], xml=document["xml"]
            )
            if not reply.get("ok"):
                raise SetupFailed(f"REGISTER {document['name']}: {reply.get('error')}")
        for cell_index in spec["setup_cells"]:
            pacer.tick()
            seen, good = query(cell_index)
            if not good:
                raise SetupFailed(f"set-up query {cells[cell_index]} answered {seen}")
        setup = pacer.lap()
        algorithms.clear()
        bytes_before = (connection.bytes_out, connection.bytes_in)
        phase = measure(
            spec["ops"],
            query,
            deadline,
            [own_cpu(pacer), lambda: host.cpu_seconds(daemon.process.pid)],
            pacer,
        )
        bytes_out = connection.bytes_out - bytes_before[0]
        bytes_in = connection.bytes_in - bytes_before[1]
        stats = connection.request("STATS").get("stats", {})
        peak = host.peak_rss_mib(daemon.process.pid)
    finally:
        if connection is not None:
            connection.close()
        exit_code = daemon.stop()
    return finish(
        phase,
        setup,
        pacer,
        peak_rss_mb=peak,
        deterministic={
            "results_crc": phase["results_crc"],
            "request_bytes": bytes_out,
            "serve_stats": stats.get("global", {}),
        },
        # elapsed_ms / priced_ms print with a varying number of digits, so
        # reply bytes are close to exact but not exact.
        info={
            "response_bytes": bytes_in,
            "algorithms": algorithms,
            "daemon_exit_code": exit_code,
        },
    )


# ----------------------------------------------------------------------
# batch / ingest: the library, in process
# ----------------------------------------------------------------------


def _check_row(values: list, queries: list, wanted: dict):
    seen = [oracle.reduce_value(value) for value in values]
    return seen, all(seen[i] == wanted[query] for i, query in enumerate(queries))


def _own_peak_rss_mib() -> float:
    # Not ru_maxrss: that one survives fork+exec, so it would report the
    # harness's high-water mark whenever the harness is the bigger process.
    return host.peak_rss_mib(os.getpid())


def run_batch(spec: dict, directory: pathlib.Path, deadline: float, pacer) -> dict:
    expected = spec["expected"]
    plan_totals: dict = {}

    def evaluate(op: dict):
        result = service.evaluate_many(op["queries"], [documents[n] for n in op["docs"]])
        for key, value in result.batch_plan.items():
            plan_totals[key] = plan_totals.get(key, 0) + value
        seen, good = [], True
        for row, name in zip(result.values, op["docs"]):
            row_seen, row_good = _check_row(row, op["queries"], expected[name])
            seen.append(row_seen)
            good = good and row_good
        return seen, good

    service = QueryService()
    documents = {}
    for document in spec["documents"]:
        pacer.tick()
        documents[document["name"]] = parse_document(document["xml"])
    for op in spec["setup_ops"]:
        pacer.tick()
        seen, good = evaluate(op)
        if not good:
            raise SetupFailed(f"set-up batch on {op['docs']} answered {seen}")
    setup = pacer.lap()
    plan_totals.clear()
    caches_before = service.cache_stats()
    kernels_before = axis_kernel_stats.snapshot()
    phase = measure(spec["ops"], evaluate, deadline, [own_cpu(pacer)], pacer)
    caches = service.cache_stats()
    return finish(
        phase,
        setup,
        pacer,
        peak_rss_mb=_own_peak_rss_mib(),
        deterministic={
            "results_crc": phase["results_crc"],
            "batch_plan": plan_totals,
            **{
                name: {
                    key: value - _counters(caches_before[name])[key]
                    for key, value in _counters(caches[name]).items()
                }
                for name in ("plan_cache", "result_cache", "specialize_cache")
            },
        },
        # Which evaluator `auto` picks follows observed timings once
        # every candidate has three observations, so kernel-tier counts
        # may legitimately differ between repetitions.
        info={"axis_kernels": _kernel_delta(kernels_before)},
    )


def run_ingest(spec: dict, directory: pathlib.Path, deadline: float, pacer) -> dict:
    expected = spec["expected"]
    markup = {document["name"]: document["xml"] for document in spec["documents"]}
    written = [0]

    def put(name: str) -> int:
        document = parse_document(markup[name])
        sidecar = store.save_snapshot(name, document)
        written[0] += sidecar.stat().st_size
        return len(document.nodes)

    def do(op: dict):
        if op["kind"] == "put":
            seen = ["put", put(op["name"]), ""]
            return seen, seen[1] == spec["node_counts"][op["name"]]
        document = store.load(op["name"], lazy=True)
        service = QueryService()
        values = [service.evaluate(query, document) for query in op["queries"]]
        return _check_row(values, op["queries"], expected[op["name"]])

    store = DocumentStore(directory / "store.json")
    for name in spec["initial"]:
        pacer.tick()
        put(name)
    for op in spec["setup_ops"]:
        pacer.tick()
        seen, good = do(op)
        if not good:
            raise SetupFailed(f"set-up open of {op['name']} answered {seen}")
    setup = pacer.lap()
    written[0] = 0
    kernels_before = axis_kernel_stats.snapshot()
    phase = measure(spec["ops"], do, deadline, [own_cpu(pacer)], pacer)
    return finish(
        phase,
        setup,
        pacer,
        peak_rss_mb=_own_peak_rss_mib(),
        deterministic={
            "results_crc": phase["results_crc"],
            "snapshot_bytes_written": written[0],
            "axis_kernels": _kernel_delta(kernels_before),
            "stored_documents": len(store),
        },
        info={},
    )


RUNNERS = {
    "serve-hot": run_serve,
    "serve-cold": run_serve,
    "batch": run_batch,
    "ingest": run_ingest,
}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True, help="workload spec (JSON) to replay")
    parser.add_argument("--out", required=True, help="where to write the result (JSON)")
    parser.add_argument("--tmp", required=True, help="parent of this repetition's temp dir")
    parser.add_argument("--timeout", type=float, required=True, help="hard limit, seconds")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.timeout
    # One CPU for the client, the daemon and the calibration slices (see
    # host.py): on a shared VM a wake-up across vCPUs can cost more than
    # the request it carries, and a closed loop never needs two at once.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    directory = pathlib.Path(tempfile.mkdtemp(prefix="rep-", dir=args.tmp))
    try:
        # Set-up starts here: the spec is loaded, nothing of the program
        # under test has run yet.
        result = RUNNERS[spec["workload"]](spec, directory, deadline, host.Pacer())
    except (SetupFailed, ReproError, OSError) as error:
        result = {"setup_failed": f"{type(error).__name__}: {error}"}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
