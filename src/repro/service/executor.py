"""Sharded batch execution — the compatibility facade over the schedulers.

:class:`ShardedExecutor` was PR 2's entry point for concurrent per-shard
evaluation; its middle layer (how shards are dispatched) has since been
extracted into the pluggable :mod:`repro.service.scheduler` abstraction
— ``prepare → dispatch → merge`` with ``serial``/``thread``/``process``/
``async`` backends. This module keeps the original construction-time API
(``ShardedExecutor(workers=, backend=, shard_by=, ...)``) as a thin
wrapper that builds the named scheduler and delegates ``execute`` to it,
so every PR 2 call site keeps working unchanged.

The worker entry points (``_evaluate_shard``,
``_evaluate_shard_snapshots``, value codecs) and
:func:`merge_stats_snapshots` now live in the scheduler module and are
re-exported here for backward compatibility.
"""

from __future__ import annotations

from repro.service.scheduler import (  # noqa: F401  (re-exports)
    SCHEDULER_BACKENDS,
    Scheduler,
    _decode_value,
    _encode_value,
    _evaluate_shard,
    _evaluate_shard_snapshots,
    make_scheduler,
    merge_batch_plan_snapshots,
    merge_stats_snapshots,
)

#: The selectable execution backends (scheduler names).
EXECUTOR_BACKENDS = SCHEDULER_BACKENDS


class ShardedExecutor:
    """Partition a batch across workers and merge the shard results.

    A thin facade: ``backend`` names the :class:`Scheduler` that does the
    work (see :data:`EXECUTOR_BACKENDS`); construction takes the same
    cache/compilation knobs as :class:`~repro.service.service.QueryService`
    — each worker builds its own service from them. ``workers`` is the
    maximum shard count; batches with fewer documents use fewer shards
    (never empty ones).
    """

    def __init__(
        self,
        workers: int = 2,
        backend: str = "thread",
        shard_by: str = "round-robin",
        plan_capacity: int = 256,
        session_capacity: int = 64,
        result_capacity: int | None = None,
        optimize: bool = False,
        variables: dict[str, object] | None = None,
        history=None,
    ):
        self.scheduler = make_scheduler(
            backend,
            workers=workers,
            shard_by=shard_by,
            plan_capacity=plan_capacity,
            session_capacity=session_capacity,
            result_capacity=result_capacity,
            optimize=optimize,
            variables=variables,
            history=history,
        )
        self.workers = workers
        self.backend = backend
        self.shard_by = shard_by
        self.service_config = self.scheduler.service_config

    def execute(self, queries, documents, algorithm: str = "auto", share: bool = True):
        """Evaluate every query against every document, sharded.

        Returns a merged :class:`~repro.service.service.BatchResult`:
        ``values`` in batch order (indistinguishable from the sequential
        path — process-backend node-sets are rebound to the parent's
        documents), ``plan_stats``/``result_stats``/``batch_plan`` summed
        exactly across shards, and per-shard snapshots on ``shards``.
        ``share`` forwards the batch-sharing knob to every worker (each
        shard builds its own step DAG).
        """
        return self.scheduler.execute(
            queries, documents, algorithm=algorithm, share=share
        )
