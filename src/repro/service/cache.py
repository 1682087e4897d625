"""An exact-accounting LRU cache for logical plans.

``OrderedDict``-based: a hit moves the entry to the MRU end, an insert
beyond capacity evicts from the LRU end. Every lookup is counted as
exactly one hit or one miss on the attached
:class:`repro.stats.CacheStats`, and every capacity overflow as exactly
one eviction — the plan-cache tests assert these counters literally.

The cache is value-agnostic (it stores whatever the factory returns), but
in practice the keys are :func:`repro.service.plan.plan_key` tuples and
the values :class:`repro.service.plan.LogicalPlan` instances. Results live in each
:class:`~repro.service.service.DocumentSession` memo instead, keyed by
the plan's stable ``cache_key``, so an evicted-and-recompiled plan keeps
hitting its existing results.

Thread safety: every operation (including the lookup-count + mutate
pairs) runs under one re-entrant lock, so a single cache shared by
concurrent drivers — the serving daemon's worker threads, user
threads — keeps its counters exact and never loses
an eviction. The lock is re-entrant because a ``get_or_create`` factory
may legitimately insert entries (even the same key) into the cache it is
populating; holding the lock across the factory also guarantees each key
is built at most once, so racing callers see one miss and then hits.
The flip side, accepted deliberately: while one thread's factory runs
(a plan compile, ~sub-millisecond), other threads' lookups wait on the
lock — the simple-and-exact accounting this layer promises over maximal
compile concurrency. If compiles ever dominate contention, the upgrade
path is per-key placeholders inserted under the lock with the factory
run outside it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Iterator

from repro.stats import CacheStats


class PlanCache:
    """LRU cache keyed by ``(query, options)`` with exact statistics."""

    def __init__(self, capacity: int = 256, name: str = "plan_cache"):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats(name=name, capacity=capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    def get(self, key: Hashable):
        """The cached value, refreshed to MRU, or ``None`` on a miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.miss()
                return None
            self._entries.move_to_end(key)
            self.stats.hit()
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over capacity.

        Single-lookup insert path: assigning into the ``OrderedDict``
        already appends new keys at the MRU end, so only the refresh of a
        *pre-existing* key (detected by the length not growing) needs an
        explicit ``move_to_end`` — no separate membership probe, no
        double hash. This also keeps eviction counters exact when a
        ``get_or_create`` factory recursively inserts entries (including
        the same key) before the outer insert lands.
        """
        with self._lock:
            entries = self._entries
            size_before = len(entries)
            entries[key] = value
            if len(entries) == size_before:
                entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
                self.stats.eviction()

    def pop_lru(self) -> tuple:
        """Remove and return the least-recently-used ``(key, value)`` pair
        (counted as an eviction). Raises ``KeyError`` when empty."""
        with self._lock:
            key, value = self._entries.popitem(last=False)
            self.stats.eviction()
            return key, value

    def get_or_create(self, key: Hashable, factory: Callable[[], object]):
        """One-lookup combination of :meth:`get` and :meth:`put`.

        The factory runs only on a miss — under the lock, so concurrent
        callers of the same key build the value exactly once; a factory
        that raises leaves the cache unchanged (the miss is still counted
        — the lookup happened).
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.miss()
                value = factory()
                self.put(key, value)
                return value
            self._entries.move_to_end(key)
            self.stats.hit()
            return value

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries (statistics are retained)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> Iterator[Hashable]:
        """Keys from LRU to MRU (a point-in-time copy, safe to iterate
        while the cache is concurrently mutated)."""
        with self._lock:
            return iter(list(self._entries))

    def values(self) -> Iterator[object]:
        """Values from LRU to MRU (no recency update; point-in-time copy)."""
        with self._lock:
            return iter(list(self._entries.values()))

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
