"""Tests for state checkpointing, pool merging, and the parallel counter."""

import numpy as np
import pytest

from repro.core.checkpoint import from_state_dict, merge_counters, to_state_dict
from repro.core.parallel import ParallelTriangleCounter, count_triangles_parallel
from repro.core.vectorized import VectorizedTriangleCounter
from repro.errors import InvalidParameterError
from tests.conftest import assert_mean_close


def build_counter(edges, r, seed):
    counter = VectorizedTriangleCounter(r, seed=seed)
    counter.update_batch(edges)
    return counter


class TestCheckpoint:
    def test_round_trip_preserves_estimates(self, small_er_graph):
        edges, _ = small_er_graph
        counter = build_counter(edges, 500, seed=1)
        restored = from_state_dict(to_state_dict(counter), seed=2)
        assert restored.edges_seen == counter.edges_seen
        assert np.array_equal(restored.estimates(), counter.estimates())
        assert np.array_equal(restored.tset, counter.tset)

    def test_restored_counter_keeps_streaming(self, small_er_graph):
        """A restored counter continues correctly: the invariant
        c = |N(r1)| still holds after more edges arrive."""
        from repro.exact import neighborhood_sizes
        from repro.graph import EdgeStream

        edges, _ = small_er_graph
        half = len(edges) // 2
        counter = build_counter(edges[:half], 300, seed=3)
        restored = from_state_dict(to_state_dict(counter), seed=4)
        restored.update_batch(edges[half:])
        true_c = neighborhood_sizes(EdgeStream(edges, validate=False))
        for i in range(restored.num_estimators):
            r1 = (int(restored.r1u[i]), int(restored.r1v[i]))
            assert restored.c[i] == true_c[r1]

    def test_missing_fields_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_state_dict({"edges_seen": 3})

    def test_mismatched_lengths_rejected(self, small_er_graph):
        edges, _ = small_er_graph
        state = to_state_dict(build_counter(edges, 10, seed=0))
        state["c"] = state["c"][:5]
        with pytest.raises(InvalidParameterError):
            from_state_dict(state)


class TestMerge:
    def test_merged_pool_concatenates(self, small_er_graph):
        edges, _ = small_er_graph
        a = build_counter(edges, 300, seed=1)
        b = build_counter(edges, 200, seed=2)
        merged = merge_counters([a, b], seed=9)
        assert merged.num_estimators == 500
        assert merged.edges_seen == len(edges)
        expected = list(a.estimates()) + list(b.estimates())
        assert list(merged.estimates()) == expected

    def test_merged_estimate_is_pooled_mean(self, small_er_graph):
        edges, tau = small_er_graph
        parts = [build_counter(edges, 5_000, seed=s) for s in range(6)]
        merged = merge_counters(parts)
        assert_mean_close(list(merged.estimates()), tau, z=6.0)

    def test_merge_requires_same_stream_position(self, small_er_graph):
        edges, _ = small_er_graph
        a = build_counter(edges, 10, seed=1)
        b = build_counter(edges[:-1], 10, seed=2)
        with pytest.raises(InvalidParameterError):
            merge_counters([a, b])

    def test_merge_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            merge_counters([])

    def test_merged_counter_keeps_streaming(self, small_er_graph):
        edges, _ = small_er_graph
        half = len(edges) // 2
        a = build_counter(edges[:half], 100, seed=1)
        b = build_counter(edges[:half], 100, seed=2)
        merged = merge_counters([a, b], seed=3)
        merged.update_batch(edges[half:])
        assert merged.edges_seen == len(edges)


class TestParallel:
    def test_invalid_configuration(self):
        with pytest.raises(InvalidParameterError):
            ParallelTriangleCounter(0)
        with pytest.raises(InvalidParameterError):
            ParallelTriangleCounter(10, workers=0)

    def test_merged_requires_count_first(self):
        counter = ParallelTriangleCounter(10, workers=1)
        with pytest.raises(InvalidParameterError):
            _ = counter.merged

    def test_single_worker_matches_vectorized_semantics(self, small_er_graph):
        edges, tau = small_er_graph
        estimate = count_triangles_parallel(
            edges, 8_000, workers=1, seed=5, batch_size=128
        )
        assert abs(estimate - tau) / tau < 0.5

    def test_two_workers_accurate(self, small_social_graph):
        edges, tau = small_social_graph
        counter = ParallelTriangleCounter(16_000, workers=2, seed=7)
        estimate = counter.count(edges, batch_size=4_096)
        assert abs(estimate - tau) / tau < 0.25
        assert counter.merged.num_estimators == 16_000

    def test_shard_sizes_cover_pool(self):
        counter = ParallelTriangleCounter(10, workers=3)
        assert sum(counter._shard_sizes()) == 10
        assert max(counter._shard_sizes()) - min(counter._shard_sizes()) <= 1

    def test_same_seed_is_deterministic(self, small_er_graph):
        edges, _ = small_er_graph
        first = count_triangles_parallel(edges, 2_000, workers=2, seed=11,
                                         batch_size=512)
        second = count_triangles_parallel(edges, 2_000, workers=2, seed=11,
                                          batch_size=512)
        assert first == second

    def test_seed_none_draws_fresh_entropy(self, small_er_graph):
        """seed=None must not silently degrade to a fixed seed: two runs
        over the same stream should (with overwhelming probability) make
        different reservoir decisions."""
        edges, _ = small_er_graph

        def reservoir_decisions():
            counter = ParallelTriangleCounter(500, workers=1, seed=None)
            counter.count(edges, batch_size=512)
            return tuple(counter.merged.r1pos.tolist())

        assert reservoir_decisions() != reservoir_decisions()

    def test_worker_error_propagates_instead_of_hanging(self, small_er_graph):
        """A worker-side failure (here: vertex id outside the engine's
        [0, 2^31) domain) must surface in the parent, not deadlock the
        batch queues."""
        edges, _ = small_er_graph
        poisoned = list(edges) + [(5, 1 << 40)]
        counter = ParallelTriangleCounter(100, workers=2, seed=0)
        with pytest.raises(InvalidParameterError, match="vertex ids"):
            counter.count(poisoned, batch_size=64)

    def test_streams_from_a_one_shot_generator(self, small_er_graph):
        """The stream is read once and fed batch-by-batch: a one-shot
        generator (no len, no slicing, not replayable) suffices."""
        edges, tau = small_er_graph
        estimate = count_triangles_parallel(
            iter(edges), 8_000, workers=2, seed=5, batch_size=256
        )
        assert abs(estimate - tau) / tau < 0.5


class _FakeDeadProc:
    """Stands in for a worker that died without posting a result."""

    def __init__(self, exitcode):
        self.exitcode = exitcode

    def is_alive(self):
        return False


def _dead_worker_supervisor(exitcode):
    """A zero-budget supervisor whose only worker is already dead."""
    import multiprocessing

    from repro.streaming.supervisor import ShardSupervisor, Supervision

    supervisor = ShardSupervisor(
        multiprocessing.get_context(),
        [None],
        transport="queue",
        batch_size=64,
        policy=Supervision(max_restarts=0),
    )
    supervisor._procs = [_FakeDeadProc(exitcode)]
    return supervisor


class TestSilentWorkerDeath:
    """Regression tests for the result-wait hang: a worker that dies
    before posting must fail the run, whatever its exit code."""

    @pytest.mark.timeout(30)
    def test_clean_exit_without_result_raises_instead_of_hanging(self):
        """exitcode 0 + no result used to spin on out_queue.get forever."""
        from repro.errors import WorkerCrashedError

        supervisor = _dead_worker_supervisor(exitcode=0)
        try:
            with pytest.raises(WorkerCrashedError, match="exitcode 0"):
                supervisor._finish()
        finally:
            supervisor._shutdown(False)

    @pytest.mark.timeout(30)
    def test_nonzero_exit_without_result_raises(self):
        from repro.errors import WorkerCrashedError

        supervisor = _dead_worker_supervisor(exitcode=-9)
        try:
            with pytest.raises(WorkerCrashedError, match="exitcode -9"):
                supervisor._finish()
        finally:
            supervisor._shutdown(False)

    @pytest.mark.timeout(30)
    def test_posted_result_wins_over_dead_process(self):
        """A worker that posted and then exited is not a crash: the
        grace poll gives its queue write time to surface."""
        supervisor = _dead_worker_supervisor(exitcode=0)
        try:
            supervisor._out_queue.put(("done", 0, 0, ("ok", {}, None)))
            supervisor._finish()
            assert supervisor._finals == {0: {}}
        finally:
            supervisor._shutdown(False)

    @pytest.mark.timeout(60)
    def test_end_to_end_clean_exit_worker_detected(
        self, small_er_graph, monkeypatch
    ):
        """A full count() whose workers read the whole stream and then
        exit cleanly without reporting must fail with
        WorkerCrashedError, not stall."""
        import multiprocessing
        import os

        from repro.errors import WorkerCrashedError
        from repro.streaming.supervisor import EstimatorShardProgram

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched worker body needs fork inheritance")

        def exit_before_posting(self):
            os._exit(0)

        monkeypatch.setattr(EstimatorShardProgram, "finish", exit_before_posting)
        edges, _ = small_er_graph
        counter = ParallelTriangleCounter(100, workers=2, seed=0)
        with pytest.raises(WorkerCrashedError, match="exitcode 0"):
            counter.count(edges[:100], batch_size=64)


class TestMergedSeedDerivation:
    """Regression tests for the merged counter reusing the root seed."""

    def test_merged_rng_uses_dedicated_spawn_child(self, small_er_graph):
        edges, _ = small_er_graph
        counter = ParallelTriangleCounter(64, workers=2, seed=5)
        counter.count(edges, batch_size=512)
        children = np.random.SeedSequence(5).spawn(3)
        expected = np.random.default_rng(children[-1])
        assert (
            counter.merged._rng.bit_generator.state
            == expected.bit_generator.state
        )

    def test_merged_rng_not_root_and_not_a_worker_stream(self, small_er_graph):
        """The old code seeded the merged counter with the raw root
        seed: its future draws were the exact sequence the worker
        SeedSequences were spawned from."""
        edges, _ = small_er_graph
        counter = ParallelTriangleCounter(64, workers=2, seed=5)
        counter.count(edges, batch_size=512)
        merged_draws = counter.merged._rng.integers(0, 1 << 62, 8).tolist()
        root_draws = np.random.default_rng(5).integers(0, 1 << 62, 8).tolist()
        assert merged_draws != root_draws
        for child in np.random.SeedSequence(5).spawn(2):
            worker_draws = (
                np.random.default_rng(child).integers(0, 1 << 62, 8).tolist()
            )
            assert merged_draws != worker_draws

    def test_worker_seeds_unchanged_by_the_extra_child(self, small_er_graph):
        """spawn(workers + 1) extends spawn(workers): the first children
        are identical, so fixed-seed results are stable across the fix."""
        first_two = [
            s.generate_state(2).tolist() for s in np.random.SeedSequence(5).spawn(2)
        ]
        first_of_three = [
            s.generate_state(2).tolist() for s in np.random.SeedSequence(5).spawn(3)
        ][:2]
        assert first_two == first_of_three
