"""ShardedPipeline: multiprocess sharding of every registered estimator.

The load-bearing property: a multiprocess sharded run is **bit-identical**
to executing the same worker plan (same shard sizes, same derived
seeds, same batches) sequentially in one process and merging through
the CheckpointableEstimator protocol -- process boundaries add nothing
but wall-clock parallelism. Hang regressions in the worker plumbing
fail fast under the module-wide timeout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.generators import holme_kim
from repro.streaming import (
    ESTIMATORS,
    ShardedPipeline,
    derive_shard_seed,
    shard_sizes,
)
from repro.streaming.source import as_source
from repro.streaming.supervisor import EstimatorShardProgram

pytestmark = pytest.mark.timeout(120)

NAMES = [
    "count",
    "transitivity",
    "exact",
    "sample",
    "sliding-window",
    "cliques4",
    "triest-fd",
    "dynamic-sampler",
]
OPTIONS = {
    "sliding-window": {"window": 512},
    "triest-fd": {"memory": 256},
    "dynamic-sampler": {"p": 0.5},
}


@pytest.fixture(scope="module")
def stream_array():
    edges = holme_kim(300, 4, 0.5, seed=21)
    return np.asarray(edges, dtype=np.int64)


def _simulate(sharded: ShardedPipeline, arr, batch_size):
    """Run the sharded plan sequentially in-process and merge the live
    estimators (no state round-trip, unlike the parent's merge)."""
    per_worker = []
    for specs in sharded.worker_specs():
        program = EstimatorShardProgram(specs)
        program.build()
        for batch in as_source(arr).batches(batch_size):
            program.consume(batch)
        per_worker.append(dict(program._pairs))
    merged = {}
    for name in sharded.names:
        for worker in per_worker:
            if name not in worker:
                continue
            if name not in merged:
                merged[name] = worker[name]
            else:
                merged[name].merge(worker[name])
    return merged


class TestPlan:
    def test_shard_sizes_split_evenly(self):
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(1, 4) == [1, 0, 0, 0]
        assert shard_sizes(8, 1) == [8]
        with pytest.raises(InvalidParameterError):
            shard_sizes(0, 2)
        with pytest.raises(InvalidParameterError):
            shard_sizes(4, 0)

    def test_derive_shard_seed_is_deterministic_and_distinct(self):
        seeds = {
            derive_shard_seed(7, name, worker)
            for name in ("count", "sample")
            for worker in range(4)
        }
        assert len(seeds) == 8  # no collisions across names or workers
        assert derive_shard_seed(7, "count", 2) == derive_shard_seed(7, "count", 2)
        assert derive_shard_seed(None, "count", 0) is None

    def test_shard_seeds_disjoint_from_single_process_derivation(self):
        """Regression: SeedSequence zero-pads entropy, so an unsalted
        [seed, crc, 0] collides with derive_seed's [seed, crc] -- worker
        0 would replay the single-process pool's exact random stream."""
        from repro.streaming import derive_seed

        for name in ("count", "sample", "sliding-window"):
            single = derive_seed(7, name)
            for worker in range(4):
                assert derive_shard_seed(7, name, worker) != single

    def test_unknown_estimator_fails_fast(self):
        with pytest.raises(InvalidParameterError, match="unknown estimator"):
            ShardedPipeline(["count", "nope"], workers=2)

    def test_small_pools_run_on_fewer_workers(self):
        sharded = ShardedPipeline(["exact", "count"], workers=3, num_estimators=2)
        specs = sharded.worker_specs()
        # exact has a pool of one: only worker 0 builds it
        assert [any(s["name"] == "exact" for s in w) for w in specs] == [
            True,
            False,
            False,
        ]
        # count's pool of 2 lands on the first two workers
        assert [any(s["name"] == "count" for s in w) for w in specs] == [
            True,
            True,
            False,
        ]


class TestExecution:
    BATCH = 256

    def test_multiprocess_matches_in_process_merge_bit_exactly(
        self, stream_array
    ):
        sharded = ShardedPipeline(
            NAMES, workers=2, num_estimators=16, seed=7, options=OPTIONS
        )
        report = sharded.run(stream_array, batch_size=self.BATCH)

        reference = ShardedPipeline(
            NAMES, workers=2, num_estimators=16, seed=7, options=OPTIONS
        )
        merged = _simulate(reference, stream_array, self.BATCH)
        for name in NAMES:
            expected = ESTIMATORS.get(name).report(merged[name])
            assert report[name].results == expected, name

    def test_sharded_run_is_reproducible(self, stream_array):
        results = []
        for _ in range(2):
            sharded = ShardedPipeline(
                ["count", "exact"], workers=2, num_estimators=32, seed=5
            )
            report = sharded.run(stream_array, batch_size=self.BATCH)
            results.append([r.results for r in report.estimators])
        assert results[0] == results[1]

    def test_single_worker_runs_in_process(self, stream_array):
        sharded = ShardedPipeline(
            ["count", "exact"], workers=1, num_estimators=32, seed=5
        )
        report = sharded.run(stream_array, batch_size=self.BATCH)
        assert report.edges == stream_array.shape[0]
        # workers=1 uses the same seed derivation as the sharded plan
        merged = _simulate(
            ShardedPipeline(["count", "exact"], workers=1, num_estimators=32, seed=5),
            stream_array,
            self.BATCH,
        )
        assert report["count"].results == ESTIMATORS.get("count").report(
            merged["count"]
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_io_seconds_times_the_parent_read(self, stream_array, tmp_path, workers):
        from repro.graph import write_edge_list

        path = tmp_path / "g.edges"
        write_edge_list(str(path), [tuple(e) for e in stream_array.tolist()])
        sharded = ShardedPipeline(["count"], workers=workers, num_estimators=32, seed=5)
        report = sharded.run(str(path), batch_size=self.BATCH)
        assert report.edges == stream_array.shape[0]
        assert 0.0 < report.io_seconds <= report.seconds

    def test_exact_estimator_with_more_workers_than_pool(self, stream_array):
        from repro.exact import count_triangles

        sharded = ShardedPipeline(["exact"], workers=3, seed=0)
        report = sharded.run(stream_array, batch_size=self.BATCH)
        truth = count_triangles([tuple(e) for e in stream_array.tolist()])
        assert report["exact"].results["triangles"] == truth

    def test_merged_estimators_answer_further_queries(self, stream_array):
        sharded = ShardedPipeline(
            ["count"], workers=2, num_estimators=32, seed=3
        )
        sharded.run(stream_array, batch_size=self.BATCH)
        merged = sharded.estimator("count")
        assert merged.num_estimators == 32
        assert merged.edges_seen == stream_array.shape[0]
        # the merged pool keeps streaming
        merged.update_batch([(1, 2), (2, 3)])
        with pytest.raises(KeyError):
            sharded.estimator("nope")

    def test_estimator_before_run_raises(self):
        sharded = ShardedPipeline(["count"], workers=2)
        with pytest.raises(InvalidParameterError, match="run"):
            sharded.estimator("count")

    def test_matches_single_process_distribution(self, stream_array):
        """Sharded estimates agree with the fan-out in distribution:
        same pool totals, same stream, estimates land within the pool's
        sampling noise of the exact count."""
        from repro.exact import count_triangles

        truth = count_triangles([tuple(e) for e in stream_array.tolist()])
        sharded = ShardedPipeline(
            ["count"], workers=2, num_estimators=4096, seed=11
        )
        report = sharded.run(stream_array, batch_size=self.BATCH)
        estimate = report["count"].results["triangles"]
        assert estimate == pytest.approx(truth, rel=0.5)

    def test_worker_error_propagates(self, stream_array):
        """An estimator blowing up in a worker surfaces as the original
        exception, not a hang."""
        stream = [tuple(e) for e in stream_array.tolist()] + [(5, 5)]  # self-loop
        sharded = ShardedPipeline(
            ["count"], workers=2, num_estimators=8, seed=1
        )
        with pytest.raises(InvalidParameterError):
            sharded.run(iter(stream), batch_size=64)

    def test_non_checkpointable_estimator_fails_before_streaming(self):
        """An estimator that cannot ship state back is rejected up
        front, not discovered inside a worker after the stream pass."""
        from repro.streaming import register_estimator

        @register_estimator("opaque-for-shard-test", default_estimators=4)
        def _make_opaque(num_estimators, seed):
            class Opaque:
                def update_batch(self, batch):
                    pass

                def estimate(self):
                    return 0.0

            return Opaque()

        sharded = ShardedPipeline(["opaque-for-shard-test"], workers=2)
        with pytest.raises(InvalidParameterError, match="state_dict"):
            sharded.run([(0, 1), (1, 2)], batch_size=2)

    def test_failure_after_stream_does_not_deadlock(self, stream_array):
        """Regression: an exception raised *after* the sentinel was
        consumed (e.g. inside state_dict) used to re-drain the empty
        queue and hang worker and parent forever. The module timeout
        turns a regression back into a failure."""
        import multiprocessing

        from repro.streaming import register_estimator

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("test-registered estimator needs fork inheritance")

        @register_estimator("boom-state-for-shard-test", default_estimators=4)
        def _make_boom(num_estimators, seed):
            class BoomState:
                def update_batch(self, batch):
                    pass

                def estimate(self):
                    return 0.0

                def load_state_dict(self, state):
                    pass

                def merge(self, other):
                    pass

                def state_dict(self):
                    raise RuntimeError("post-stream snapshot failure")

            return BoomState()

        sharded = ShardedPipeline(["boom-state-for-shard-test"], workers=2)
        with pytest.raises(RuntimeError, match="post-stream"):
            sharded.run(stream_array[:256], batch_size=64)


class TestSharedFront:
    """Sharded runs read the stream through Pipeline's front: the same
    validation, signed-input guard, coercion and journal as a
    single-process run, with the guard applied in the parent before any
    batch reaches a worker."""

    SIGNED_TRIPLES = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 2, -1)] * 50

    @staticmethod
    def _front_end(kind, workers, max_restarts):
        from repro.core.parallel import ParallelTriangleCounter

        if kind == "sharded":
            sharded = ShardedPipeline(
                ["count"],
                workers=workers,
                num_estimators=16,
                seed=0,
                max_restarts=max_restarts,
            )
            return lambda source, batch_size: sharded.run(
                source, batch_size=batch_size
            )
        counter = ParallelTriangleCounter(
            16, workers=workers, seed=0, max_restarts=max_restarts
        )
        return lambda source, batch_size: counter.count(
            source, batch_size=batch_size
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_restarts", [0, 2])
    @pytest.mark.parametrize("kind", ["sharded", "parallel"])
    def test_undeclared_signed_batch_fails_in_the_parent(
        self, kind, max_restarts, workers
    ):
        """A generator of (u, v, sign) triples does not declare itself
        signed; its first signed batch must fail the run as a parameter
        error, not be retried as a worker crash."""
        import warnings

        from repro.errors import WorkerRestartedWarning

        run = self._front_end(kind, workers, max_restarts)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidParameterError, match="signed batch"):
                run(iter(self.SIGNED_TRIPLES), 16)
        restarts = [
            w for w in caught if issubclass(w.category, WorkerRestartedWarning)
        ]
        assert restarts == []

    @pytest.mark.parametrize("kind", ["sharded", "parallel"])
    def test_bad_batch_size_is_a_parameter_error(self, kind, stream_array):
        run = self._front_end(kind, 2, 0)
        with pytest.raises(InvalidParameterError, match="batch_size"):
            run(stream_array, 0)

    def test_coercible_tuple_lists_are_journaled(self, stream_array, tmp_path):
        """A custom source yielding plain tuple lists is coerced before
        the journal append, by the sharded parent as by Pipeline."""
        from repro.streaming import EdgeSource, Pipeline, journal_records

        edges = [tuple(e) for e in stream_array.tolist()]

        class TupleListSource(EdgeSource):
            def batches(self, batch_size):
                for i in range(0, len(edges), batch_size):
                    yield edges[i : i + batch_size]

        Pipeline.from_registry(["count"], num_estimators=16, seed=0).run(
            TupleListSource(), batch_size=128, journal_dir=tmp_path / "single"
        )
        report = ShardedPipeline(
            ["count"], workers=2, num_estimators=16, seed=0
        ).run(TupleListSource(), batch_size=128, journal_dir=tmp_path / "sharded")
        assert report.edges == len(edges)
        single = [b.array.tolist() for b, _ in journal_records(tmp_path / "single")]
        sharded = [b.array.tolist() for b, _ in journal_records(tmp_path / "sharded")]
        assert sharded == single
        assert sum(len(b) for b in sharded) == len(edges)

    def test_both_drivers_journal_and_count_alike(self, stream_array, tmp_path):
        from repro.graph import write_edge_list
        from repro.streaming import FileSource, Pipeline, journal_records

        path = tmp_path / "g.edges"
        write_edge_list(str(path), [tuple(e) for e in stream_array.tolist()])
        single = Pipeline.from_registry(
            ["count", "exact"], num_estimators=16, seed=0
        ).run(FileSource(path), batch_size=100, journal_dir=tmp_path / "single")
        sharded = ShardedPipeline(
            ["count", "exact"], workers=2, num_estimators=16, seed=0
        ).run(FileSource(path), batch_size=100, journal_dir=tmp_path / "sharded")
        assert (sharded.edges, sharded.batches) == (single.edges, single.batches)
        assert sharded["exact"].results == single["exact"].results

        def records(directory):
            return [
                (b.array.tolist(), position)
                for b, position in journal_records(directory)
            ]

        assert records(tmp_path / "sharded") == records(tmp_path / "single")

    def test_parent_builds_no_batch_context(self, stream_array, monkeypatch):
        """The shared index is a worker-side cost: the sharded parent only
        reads, coerces, guards and journals."""
        from repro.streaming.batch import EdgeBatch

        built = []
        context = EdgeBatch.context

        def counting(batch):
            built.append(1)
            return context.fget(batch)

        monkeypatch.setattr(EdgeBatch, "context", property(counting))
        report = ShardedPipeline(
            ["count", "transitivity"], workers=2, num_estimators=16, seed=0
        ).run(stream_array, batch_size=128)
        assert report.edges == stream_array.shape[0]
        assert built == []
