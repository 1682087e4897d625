"""Host context: how fast the machine was while a number was taken.

The reference host is a shared 2-vCPU VM. Three things were measured on
it before this protocol was fixed:

* its effective clock wanders by a factor of two over tens of seconds
  with CPU time equal to wall time (one-second medians of a fixed
  pure-Python loop: 3.6-8.0 ms within one minute), and interleaved
  repetitions with medians do not average that out: six back-to-back
  runs of identical code spread 25 % in throughput;
* a wake-up across vCPUs is at times dearer than the request it carries
  (serve-hot p50 0.25 ms or 0.9 ms for minutes on end, by whether client
  and daemon share a vCPU), so ``worker.py`` pins itself and the daemon
  to one CPU: a closed loop with one client never needs two at once;
* when the neighbours are busy the program slows down more than a tight
  arithmetic loop does (log-log slope 1.4) and less than random pointer
  chasing does (slope 0.7): what it loses is cache, not just cycles.

So the benchmark measures the host while it measures the program. A
:class:`Pacer` interleaves a fixed slice of interpreter work with the
ops, about every 4 ms and outside every timed window, and each timing is
divided by ``slice time / REFERENCE_SLICE_MS`` of its own stretch of the
run. The slice mixes arithmetic, a small JSON round-trip and a walk over
a 20k-object ring in random order, in the proportion at which
program-time / slice-time stayed flattest through disturbed minutes
(two-second medians: 21-28 % interquartile range raw, 5-6 % normalised,
on both the wire path and the library path). It shares no code with the
program under test.

A reported time is therefore "the time this work takes on this host when
the slice takes REFERENCE_SLICE_MS": the stopwatch reading when the host
is calm, steadier when it is not (over two sets of ten runs per workload
the stopwatch readings spread 7-30 % between runs, the normalised ones
2.5-18 %; README.md has the table). Stopwatch readings are kept beside the
normalised ones in the JSON record, the slice median is reported as
``host.calib_ms``, and a repetition whose slice median is more than 15 %
off the run's is flagged ``disturbed`` (it still counts).

The factor is one number per stretch, so it also scales what is not CPU
speed inside an op: the fsyncs of an ``ingest`` put, socket wake-ups.
Those cannot be timed apart from outside the program.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time

#: The slice on the reference host in its calm state, taken where it runs:
#: between ops, so with the program's working set in the caches (alone in
#: a process it takes 0.31 ms). On a calm host normalised and stopwatch
#: values therefore agree. A constant of the benchmark: it fixes the unit
#: of every normalised time, never tune it.
REFERENCE_SLICE_MS = 0.45
#: Seconds of work between two slices (~10 % of the run is calibration).
SLICE_INTERVAL = 0.004
#: A repetition is `disturbed` when its slice median is this far from
#: the median over the run's repetitions.
DISTURBED_SHARE = 0.15

_PAYLOAD = {"rows": [[index, str(index), index * 0.5] for index in range(60)]}
_RING_SIZE = 20000


class _Link:
    __slots__ = ("name", "value", "next")


def _ring() -> _Link:
    """20k small objects linked in a fixed random order (~3 MB): walking
    it misses cache the way walking a document tree does."""
    links = [_Link() for _ in range(_RING_SIZE)]
    for index, link in enumerate(links):
        link.name = f"n{index % 97}"
        link.value = str(index)
    order = list(range(_RING_SIZE))
    random.Random(1).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        links[here].next = links[there]
    return links[order[0]]


class Pacer:
    """Interleaves calibration slices with work and keeps their cost out
    of the work's clock.

    Call :meth:`tick` between ops (never inside a timed window); it runs
    a slice when SLICE_INTERVAL has passed since the last one.
    :meth:`lap` closes a stretch: it returns the stretch's wall seconds
    net of calibration and its speed factor (slice median over
    REFERENCE_SLICE_MS; > 1 means the host was slow).
    """

    def __init__(self):
        self.samples: list = []
        #: CPU seconds this process has spent in slices, for whoever
        #: reads the process's CPU clock around work that ticks.
        self.cpu_spent = 0.0
        self._link = _ring()
        self._lap_samples: list = []
        self._lap_spent = 0.0
        self._lap_start = self._last = time.perf_counter()

    def slice_ms(self) -> float:
        """Wall milliseconds of one fixed slice of interpreter work."""
        started = time.perf_counter()
        total = 0
        for index in range(4500):
            total += (index * index) % 7
        json.loads(json.dumps(_PAYLOAD))
        link = self._link
        for _ in range(450):
            link = link.next
            if link.name == "n3":
                total += len(link.value)
        self._link = link
        return (time.perf_counter() - started) * 1000.0

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= SLICE_INTERVAL:
            cpu_before = time.process_time()
            cost = self.slice_ms()
            self.cpu_spent += time.process_time() - cpu_before
            self._lap_samples.append(cost)
            self._lap_spent += cost / 1000.0
            self._last = time.perf_counter()

    def lap(self) -> tuple:
        now = time.perf_counter()
        if not self._lap_samples:
            self.tick(force=True)
            now = time.perf_counter()
        net = now - self._lap_start - self._lap_spent
        factor = statistics.median(self._lap_samples) / REFERENCE_SLICE_MS
        self.samples += self._lap_samples
        self._lap_samples, self._lap_spent = [], 0.0
        self._lap_start = self._last = now
        return net, factor


def fingerprint() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "reference_slice_ms": REFERENCE_SLICE_MS,
    }


def flag_disturbed(calibrations: list) -> list:
    """Per repetition: is its slice median > DISTURBED_SHARE off the
    median of all of them?"""
    centre = statistics.median(calibrations)
    return [abs(value - centre) > DISTURBED_SHARE * centre for value in calibrations]


# ----------------------------------------------------------------------
# /proc readers (Linux only, like the benchmark)
# ----------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, all threads, from
    ``/proc/<pid>/stat`` (fields 14 and 15, in clock ticks)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        stat = handle.read().decode("ascii", "replace")
    # The command name (field 2) may contain spaces; count from its ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    """High-water resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
