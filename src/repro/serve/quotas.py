"""Per-client quotas: registration budgets, in-flight caps, query rate.

Quotas are the daemon's *static* resource fences, checked before the
dynamic admission controller ever prices a query: a client may hold at
most ``max_documents`` registered documents totalling
``max_registered_bytes`` of source, run at most ``max_in_flight``
queries concurrently, and issue queries no faster than the
``rate``/``burst`` token bucket allows. Every check is cheap (O(1)
arithmetic) and every refusal is typed — ``QUOTA`` or ``RATE_LIMITED``
with a ``retry_after`` hint when waiting can help.

The token bucket takes an injectable monotonic ``clock`` so the tests
drive it deterministically; the daemon uses ``time.monotonic``. Nothing
here takes a lock: the serving core's one thread owns every instance
(:class:`~repro.serve.core.ServeCore` runs on the daemon's event loop).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import QuotaExceededError, RateLimitedError


@dataclass(frozen=True)
class ClientQuota:
    """The per-client limits, one frozen instance per daemon.

    ``rate`` is sustained queries/second and ``burst`` the bucket
    capacity; ``rate=None`` disables rate limiting. The other limits are
    always enforced (set them large rather than off: an unbounded client
    is exactly what admission control exists to prevent).
    """

    max_documents: int = 64
    max_registered_bytes: int = 64 * 1024 * 1024
    max_in_flight: int = 32
    rate: float | None = None
    burst: int = 8


class TokenBucket:
    """The classic token bucket, clock-injectable, owned by one thread.

    ``try_take()`` either consumes one token or reports the seconds
    until one accrues — the ``retry_after`` hint a rate-limited client
    receives. Refill is computed lazily from elapsed time, so an idle
    bucket costs nothing.
    """

    def __init__(self, rate: float, burst: int, clock=time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_take(self) -> float | None:
        """Take one token. Returns ``None`` on success, else the seconds
        until the next token accrues (never 0: a failed take always
        carries a positive wait)."""
        self._refill(self._clock())
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        return max((1.0 - self._tokens) / self.rate, 1e-9)


@dataclass
class ClientState:
    """One client's registrations, rate bucket, and live gauges.

    Clients are identified by the ``client`` field of their frames (one
    default identity per connection), so a client's documents survive
    reconnects and its quotas span every connection it opens. Counter
    *events* live in the client's :data:`~repro.stats.ServeStats` family;
    this class holds only the current-state gauges quota checks read,
    on the one thread that owns it.
    """

    name: str
    quota: ClientQuota
    clock: object = time.monotonic
    documents: dict = field(default_factory=dict)
    registered_bytes: int = 0
    in_flight: int = 0
    #: Monotonic instant of the client's last frame — the idle measure
    #: the daemon's retention sweep evicts on.
    last_active: float = 0.0
    bucket: TokenBucket | None = None

    def __post_init__(self):
        self.last_active = self.clock()
        if self.quota.rate is not None:
            self.bucket = TokenBucket(
                self.quota.rate, self.quota.burst, clock=self.clock
            )

    def touch(self) -> None:
        """Mark the client active now (called on every frame it sends)."""
        self.last_active = self.clock()

    # -- registration ---------------------------------------------------

    def check_register(self, name: str, source_bytes: int) -> None:
        """Raise a typed :class:`~repro.errors.QuotaExceededError` when
        registering ``source_bytes`` more would bust a budget."""
        replacing = name in self.documents
        if not replacing and len(self.documents) >= self.quota.max_documents:
            raise QuotaExceededError(
                f"client {self.name!r} already holds "
                f"{len(self.documents)} registered documents "
                f"(max_documents={self.quota.max_documents})"
            )
        budget = self.registered_bytes + source_bytes
        if replacing:
            budget -= self.documents[name][1]
        if budget > self.quota.max_registered_bytes:
            raise QuotaExceededError(
                f"registering {source_bytes} bytes would put client "
                f"{self.name!r} at {budget} registered bytes "
                f"(max_registered_bytes={self.quota.max_registered_bytes})"
            )

    def register(self, name: str, document, source_bytes: int) -> None:
        if name in self.documents:
            self.registered_bytes -= self.documents[name][1]
        self.documents[name] = (document, source_bytes)
        self.registered_bytes += source_bytes

    def unregister(self, name: str) -> bool:
        entry = self.documents.pop(name, None)
        if entry is None:
            return False
        self.registered_bytes -= entry[1]
        return True

    def document(self, name: str):
        entry = self.documents.get(name)
        return entry[0] if entry is not None else None

    def document_names(self) -> list[str]:
        return list(self.documents)

    # -- query-time checks ----------------------------------------------

    def check_rate(self) -> None:
        """Consume one rate token or raise a typed
        :class:`~repro.errors.RateLimitedError` with the wait hint."""
        if self.bucket is None:
            return
        wait = self.bucket.try_take()
        if wait is not None:
            raise RateLimitedError(
                f"client {self.name!r} exceeded its query rate "
                f"({self.quota.rate}/s, burst {self.quota.burst})",
                retry_after=wait,
            )

    def acquire_slot(self) -> None:
        """Claim one in-flight slot or raise a typed
        :class:`~repro.errors.QuotaExceededError` (retryable: slots free
        as queries finish)."""
        if self.in_flight >= self.quota.max_in_flight:
            raise QuotaExceededError(
                f"client {self.name!r} has {self.in_flight} queries "
                f"in flight (max_in_flight={self.quota.max_in_flight})",
                retry_after=0.05,
            )
        self.in_flight += 1

    def release_slot(self) -> None:
        self.in_flight -= 1

    def gauges(self) -> dict:
        return {
            "documents": len(self.documents),
            "registered_bytes": self.registered_bytes,
            "in_flight": self.in_flight,
        }
