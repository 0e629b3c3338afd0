"""Multicore triangle counting by estimator-pool sharding.

The paper's conclusion notes that "neighborhood sampling is amenable to
parallelization" (their follow-up implements a cache-efficient multicore
version [20]). The estimator dimension is embarrassingly parallel: every
estimator observes the whole stream independently, so ``r`` estimators
split into ``k`` pools of ``r/k``, each pool runs on its own core over
the same edges, and the final estimate is the pooled mean.

:class:`ParallelTriangleCounter` is a thin facade over the shard runner
every multiprocess run goes through
(:func:`~repro.streaming.supervisor.run_shards`): one registry
``count`` shard per worker, fed by a single read of the stream, under
the same supervision and restart budget as
:class:`~repro.streaming.sharded.ShardedPipeline`. Worker seeds are
spawned through :class:`numpy.random.SeedSequence`, whose splitting is
collision-resistant by construction -- and ``seed=None`` means fresh OS
entropy per run rather than silently degrading to a deterministic
seed. Workers return their estimator state; the parent merges via
:func:`repro.core.checkpoint.merge_counters`.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from ..streaming.pipeline import Pipeline
from ..streaming.shm import transport_name
from ..streaming.supervisor import EstimatorShardProgram, Supervision, run_shards
from .checkpoint import from_state_dict, merge_counters
from .vectorized import VectorizedTriangleCounter

__all__ = ["ParallelTriangleCounter", "count_triangles_parallel"]


class ParallelTriangleCounter:
    """Parallel counting: shard estimators across processes, stream once.

    Parameters
    ----------
    num_estimators:
        Total pool size ``r`` (split as evenly as possible).
    workers:
        Number of worker processes.
    seed:
        Root seed; worker pools run on independent
        ``SeedSequence.spawn`` children. ``None`` draws OS entropy.
    transport:
        How batches reach the workers: ``"shm"`` (one copy into a
        shared-memory ring, zero-copy worker views), ``"queue"``
        (per-worker pickled copies), or ``"auto"`` (shm when the
        platform supports it). Results are bit-identical across
        transports.
    max_restarts:
        Per-worker respawn budget of the
        :class:`~repro.streaming.supervisor.ShardSupervisor` (snapshot
        restore plus bounded replay, bit-identical to an uninterrupted
        run under a fixed seed). ``0`` (the default) fails the run on
        the first worker failure.
    worker_deadline:
        Seconds of no progress before a live-but-stuck worker is
        treated as hung (``None`` disables the watchdog).
    snapshot_every:
        Snapshot cadence in batches; no snapshots are taken with
        ``max_restarts=0``.
    restart_backoff:
        First respawn delay, doubled per consecutive restart.
    fault_plan:
        A :class:`~repro.streaming.faults.FaultPlan` injected into the
        run's workers. ``None`` defers to ``$REPRO_FAULT_PLAN``.
    """

    def __init__(
        self,
        num_estimators: int,
        *,
        workers: int = 2,
        seed: int | None = None,
        transport: str = "auto",
        max_restarts: int = 0,
        worker_deadline: float | None = None,
        snapshot_every: int = 32,
        restart_backoff: float = 0.1,
        fault_plan=None,
    ) -> None:
        if num_estimators < 1:
            raise InvalidParameterError(
                f"num_estimators must be >= 1, got {num_estimators}"
            )
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self._policy = Supervision(
            max_restarts=max_restarts,
            worker_deadline=worker_deadline,
            snapshot_every=snapshot_every,
            backoff=restart_backoff,
        )
        self.num_estimators = num_estimators
        self.workers = min(workers, num_estimators)
        self.seed = seed
        self.transport = transport_name(transport)
        self.fault_plan = fault_plan
        self.last_restarts: list[int] = []
        self._merged: VectorizedTriangleCounter | None = None

    def _shard_sizes(self) -> list[int]:
        from ..streaming.sharded import shard_sizes

        return shard_sizes(self.num_estimators, self.workers)

    def count(self, edges, *, batch_size: int = 65_536) -> float:
        """Process the whole stream across workers; return the estimate.

        ``edges`` is anything :func:`~repro.streaming.source.as_source`
        accepts -- an in-memory sequence, a file path, an
        ``EdgeSource``, or a one-shot generator (the stream is read
        exactly once either way).
        """
        # workers + 1 children: one per worker pool plus a dedicated
        # child for the merged counter's fresh generator. Reusing the
        # root seed for the merged state would correlate its future
        # draws with the sequences the workers were spawned from.
        seed_seqs = np.random.SeedSequence(self.seed).spawn(self.workers + 1)
        programs = [
            EstimatorShardProgram(
                [{"name": "count", "num_estimators": size, "seed": seq, "options": {}}]
            )
            for size, seq in zip(self._shard_sizes(), seed_seqs)
        ]
        # The stream is read through Pipeline's front (batch-size check,
        # signed-input guard), with a one-estimator ``count`` probe
        # standing in for the worker pools.
        reader = Pipeline.from_registry(["count"], num_estimators=1)
        state = reader._begin(edges, batch_size)
        finals, self.last_restarts = run_shards(
            programs,
            reader._front(state),
            transport=self.transport,
            batch_size=batch_size,
            policy=self._policy,
            fault_plan=self.fault_plan,
        )
        counters = [from_state_dict(states["count"]) for states, _ in finals]
        self._merged = merge_counters(counters, seed=seed_seqs[-1])
        return self._merged.estimate()

    @property
    def merged(self) -> VectorizedTriangleCounter:
        """The merged counter after :meth:`count` (for further queries)."""
        if self._merged is None:
            raise InvalidParameterError("call count() first")
        return self._merged


def count_triangles_parallel(
    edges,
    num_estimators: int,
    *,
    workers: int = 2,
    seed: int | None = None,
    batch_size: int = 65_536,
) -> float:
    """One-call parallel triangle estimate over any edge source."""
    counter = ParallelTriangleCounter(num_estimators, workers=workers, seed=seed)
    return counter.count(edges, batch_size=batch_size)
