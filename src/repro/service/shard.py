"""Shard planning: partition a batch's documents across workers.

Sharding is *by document* — each document's evaluation is independent
(plans are shared read-only, sessions are per-document), so a batch of
``Q`` queries × ``D`` documents splits cleanly into per-worker sub-batches
of ``Q × D_i`` with no cross-shard coordination. The planner only decides
*which* documents go together; execution strategy (threads vs processes)
is :mod:`repro.service.executor`'s concern, which keeps this layer
reusable for an async front end later (a coroutine scheduler needs the
same shard plans).

Two strategies:

* ``round-robin`` — document ``i`` goes to shard ``i mod workers``.
  O(D), no document inspection; right when documents are similar in size
  or arrival order already interleaves big and small.
* ``size-balanced`` — greedy longest-processing-time assignment on each
  document's node count (``|dom|``, the measure
  :mod:`repro.xml.statistics` reports as ``total_nodes``): documents are
  sorted by weight (descending) and each goes to the currently lightest
  shard. The paper's bounds are polynomial in ``|D|``, so node count is
  the principled proxy for per-document cost; LPT keeps the makespan
  within 4/3 of optimal.

Node count is only a *proxy* — two same-size documents can cost very
different amounts under position-heavy queries. :class:`ShardTimingHistory`
closes the loop: sharded batches record their observed per-shard wall
times (apportioned to documents by node count), and on repeat batches
the scheduler passes the predicted per-document seconds to
:func:`plan_shards` as explicit ``weights``, replacing the node-count
LPT with an observed-cost LPT. Predictions are exponentially smoothed
and the whole path is deterministic given the same history.

All strategies are deterministic, and every shard records the original
document indices so the executor can merge per-shard results back into
batch order.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from dataclasses import dataclass

from repro.xml.document import Document

#: The selectable shard-planning strategies.
SHARD_STRATEGIES = ("round-robin", "size-balanced")


@dataclass(frozen=True)
class Shard:
    """One worker's slice of a batch.

    Attributes:
        index: the worker slot this shard is assigned to.
        document_indices: positions (into the batch's document list) of
            the documents this shard evaluates, in batch order.
        weight: whatever the planner balanced on, kept for reporting —
            total node count (``size-balanced``), the document count
            (``round-robin``), or predicted seconds (``size-balanced``
            with :class:`ShardTimingHistory` weights).
    """

    index: int
    document_indices: tuple[int, ...]
    weight: float


def document_weight(document: Document) -> int:
    """The cost proxy ``size-balanced`` sharding balances on: ``|dom|``,
    the total node count — identical to
    :class:`repro.xml.statistics.DocumentStatistics.total_nodes`, but
    read in O(1) from the document's numbering instead of
    re-walking the tree per batch. Swap in a fuller
    :func:`~repro.xml.statistics.document_statistics` shape measure
    (depth, fanout, text volume) here if plain size ever mis-balances a
    workload."""
    return len(document)


def plan_shards(
    documents,
    workers: int,
    strategy: str = "round-robin",
    weights=None,
) -> list[Shard]:
    """Partition ``documents`` into at most ``workers`` shards.

    ``weights`` (optional, one number per document) replaces the
    node-count cost proxy for the ``size-balanced`` LPT — this is how
    :class:`ShardTimingHistory` predictions reach the planner. It is
    ignored by ``round-robin``, which never inspects documents.

    Returns one :class:`Shard` per *non-empty* worker slot (fewer
    documents than workers means fewer shards, never empty ones). Raises
    ``ValueError`` for ``workers < 1``, an unknown strategy, or a
    ``weights`` list whose length does not match ``documents``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if strategy not in SHARD_STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r}; choose from {SHARD_STRATEGIES}"
        )
    document_list = list(documents)
    if weights is not None:
        weights = list(weights)
        if len(weights) != len(document_list):
            raise ValueError(
                f"got {len(weights)} weights for {len(document_list)} documents"
            )
    if strategy == "round-robin":
        buckets: list[list[int]] = [[] for _ in range(workers)]
        for index in range(len(document_list)):
            buckets[index % workers].append(index)
        return [
            Shard(index=slot, document_indices=tuple(indices), weight=len(indices))
            for slot, indices in enumerate(buckets)
            if indices
        ]
    # size-balanced: greedy LPT over |dom| (or caller-supplied) weights.
    # The heap is keyed by (current weight, slot) so ties break
    # deterministically.
    if weights is None:
        weights = [document_weight(document) for document in document_list]
    order = sorted(range(len(document_list)), key=lambda i: (-weights[i], i))
    heap = [(0, slot) for slot in range(workers)]
    heapq.heapify(heap)
    assigned: dict[int, list[int]] = {slot: [] for slot in range(workers)}
    totals: dict[int, int] = {slot: 0 for slot in range(workers)}
    for index in order:
        total, slot = heapq.heappop(heap)
        assigned[slot].append(index)
        totals[slot] = total + weights[index]
        heapq.heappush(heap, (totals[slot], slot))
    return [
        Shard(
            index=slot,
            document_indices=tuple(sorted(assigned[slot])),
            weight=totals[slot],
        )
        for slot in range(workers)
        if assigned[slot]
    ]


class ShardTimingHistory:
    """Observed per-document evaluation seconds, fed back as LPT weights.

    The scheduler layer records each completed shard's wall time here
    (:meth:`observe_shard` apportions it to the shard's documents in
    proportion to node count); :meth:`predicted_weights` turns the
    history into per-document weight predictions for the next batch —
    the smoothed observation for known documents, a history-wide
    seconds-per-node rate × node count for unseen ones. Everything is
    deterministic given the same sequence of observations, so repeat
    batches over the same corpus re-plan identically.

    Documents are keyed weakly: history never pins a served tree in
    memory, and a collected document simply drops out of the history.
    Thread-safe — the async scheduler records from event-loop callbacks
    while other batches may be planning.
    """

    def __init__(self, smoothing: float = 0.5):
        #: EMA weight of the newest observation (1.0 = always replace).
        self.smoothing = smoothing
        self._seconds: "weakref.WeakKeyDictionary[Document, float]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()

    def observe(self, document: Document, seconds: float) -> None:
        """Fold one per-document time estimate into the history."""
        with self._lock:
            previous = self._seconds.get(document)
            if previous is None:
                self._seconds[document] = seconds
            else:
                self._seconds[document] = (
                    previous + self.smoothing * (seconds - previous)
                )

    def observe_shard(self, documents, elapsed_seconds: float) -> None:
        """Apportion one shard's wall time across its documents in
        proportion to node count (the best per-document split available
        without per-document instrumentation inside workers)."""
        documents = list(documents)
        total_nodes = sum(document_weight(document) for document in documents)
        if not documents or elapsed_seconds <= 0.0:
            return
        for document in documents:
            share = (
                document_weight(document) / total_nodes
                if total_nodes
                else 1.0 / len(documents)
            )
            self.observe(document, elapsed_seconds * share)

    def predicted_weights(self, documents) -> list[float] | None:
        """Per-document predicted seconds for a batch, or ``None`` when
        no document in the batch has history (callers then fall back to
        the node-count proxy). Unseen documents are predicted from the
        history-wide seconds-per-node rate, so one cold document cannot
        capsize an otherwise-informed plan."""
        documents = list(documents)
        with self._lock:
            known = {
                index: self._seconds[document]
                for index, document in enumerate(documents)
                if document in self._seconds
            }
        if not known:
            return None
        known_nodes = sum(document_weight(documents[index]) for index in known)
        rate = sum(known.values()) / max(1, known_nodes)
        return [
            known.get(index, rate * document_weight(document))
            for index, document in enumerate(documents)
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._seconds)
