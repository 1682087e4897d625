"""One memo type for every cache of the service layer.

Every store here holds a value that can be recomputed — a compiled plan,
a document's session, the value of a (query, context) pair, the set
where a Core XPath predicate path holds (Section 2.3's context-value
tables, Theorem 13's backward propagation), a normalized location step —
so the only policy any of them needs is which entry to drop when full.
:class:`Memo` is that store: an ``OrderedDict`` under one lock whose
least recently used entries go first, bounded in cost units, counting
every lookup as exactly one hit or one miss and every dropped entry as
one eviction on a :data:`repro.stats.CacheStats` family.

An entry costs ``cost(value)``, or 1 when the memo has no cost function;
a value costing more than the whole bound is handed back unstored. Only
the bare value is stored: a cost-weighted memo recomputes an entry's
cost when it drops it, so ``cost`` must be a pure function of the value.

Two ways to fill a memo. :meth:`Memo.get_or_create` runs the factory
under the lock, so each key is built once however many threads race for
it (plans, sessions); the lock is re-entrant because a factory may
itself insert into the memo. :meth:`Memo.get`, a computation outside
the lock, then :meth:`Memo.put` keeps expensive work concurrent (result
values, predicate sets): two threads that miss one key both compute the
same value and the later insert overwrites the earlier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Iterator

from repro.stats import CacheStats, Counters


def _one(value) -> int:
    return 1


class Memo:
    """An LRU memo bounded in cost units, with exact statistics."""

    #: The bound of the plan cache and the step memo unless told otherwise.
    DEFAULT_CAPACITY = 256

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        name: str = "plan_cache",
        cost: Callable[[object], int] | None = None,
        stats: Counters | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cost = cost or _one
        #: The counters; several memos (a service's sessions) may share one.
        self.stats = CacheStats(name=name, capacity=capacity) if stats is None else stats
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._used = 0
        self._lock = threading.RLock()

    def peek(self, key: Hashable):
        """The stored value, refreshed to most recent and counted as a
        hit, or ``None``, counted as nothing: for a caller whose miss is
        counted elsewhere."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.tick("hits")
            return value

    def get(self, key: Hashable):
        """:meth:`peek`, with a miss counted."""
        value = self.peek(key)
        if value is None:
            self.stats.tick("misses")
        return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` as the most recent entry, dropping the least
        recent ones past the bound (unless it alone is past it)."""
        charge = self.cost
        cost = charge(value)
        if cost > self.capacity:
            return
        with self._lock:
            entries = self._entries
            if key in entries:
                self._used -= charge(entries.pop(key))
            entries[key] = value
            self._used += cost
            while self._used > self.capacity:
                self._used -= charge(entries.popitem(last=False)[1])
                self.stats.tick("evictions")

    def get_or_create(self, key: Hashable, factory: Callable[[], object]):
        """The stored value, or ``factory()``'s, stored; the factory runs
        under the lock (a factory that raises stores nothing, and its
        miss still counts)."""
        with self._lock:
            value = self.get(key)
            if value is None:
                value = factory()
                self.put(key, value)
            return value

    def clear(self) -> None:
        """Drop every entry (the statistics stay)."""
        with self._lock:
            self._entries.clear()
            self._used = 0

    def keys(self) -> Iterator[Hashable]:
        """Keys from least to most recent (a copy, safe to iterate while
        the memo changes)."""
        with self._lock:
            return iter(list(self._entries))

    def values(self) -> Iterator[object]:
        """Values from least to most recent (a copy; no recency update)."""
        with self._lock:
            return iter(list(self._entries.values()))

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
