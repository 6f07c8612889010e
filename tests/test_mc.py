import numpy as np
import pytest

from cslinks.mc import (MCEstimate, combined_stderr, default_workers,
                        run_sharded, shard_stream)


def weight_batch(rng, count):
    return rng.uniform(0, 2, size=count), 0


class TestDeterminism:
    def test_same_seed_identical(self):
        a = run_sharded(weight_batch, 10 ** 4, seed=5, shards=8)
        b = run_sharded(weight_batch, 10 ** 4, seed=5, shards=8)
        assert a.value == b.value and a.stderr == b.stderr
        assert a.shard_means == b.shard_means

    def test_worker_count_invariant(self):
        a = run_sharded(weight_batch, 10 ** 4, seed=5, shards=8, workers=1)
        b = run_sharded(weight_batch, 10 ** 4, seed=5, shards=8, workers=4)
        assert a.value == b.value and a.shard_means == b.shard_means

    def test_different_seed_differs(self):
        a = run_sharded(weight_batch, 10 ** 4, seed=5, shards=8)
        b = run_sharded(weight_batch, 10 ** 4, seed=6, shards=8)
        assert a.value != b.value

    def test_streams_are_counter_based(self):
        a = shard_stream(3, 1).uniform(size=4)
        b = shard_stream(3, 1).uniform(size=4)
        assert np.array_equal(a, b)
        c = shard_stream(3, 2).uniform(size=4)
        assert not np.array_equal(a, c)


class TestEstimates:
    def test_mean_and_error(self):
        est = run_sharded(weight_batch, 10 ** 5, seed=0, shards=16)
        assert abs(est.value - 1.0) < 5 * est.stderr
        assert 0 < est.stderr < 0.01

    def test_sample_accounting(self):
        est = run_sharded(weight_batch, 1000, seed=0, shards=16)
        assert est.samples == 16 * 63  # ceil(1000/16) = 63 per shard

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MCEstimate(value=float("nan"), stderr=0.0, samples=1, seed=0,
                       shards=1)

    def test_combined(self):
        a = MCEstimate(1.0, 0.3, 1, 0, 1)
        b = MCEstimate(1.0, 0.4, 1, 0, 1)
        assert abs(combined_stderr(a, b) - 0.5) < 1e-12

    def test_rejection_counting(self):
        def rej_batch(rng, count):
            w = rng.uniform(size=count)
            return np.where(w < 0.5, 0.0, w), int(np.sum(w < 0.5))

        est = run_sharded(rej_batch, 10 ** 4, seed=1, shards=4)
        assert 0.4 < est.rejected / est.samples < 0.6


class TestDefaults:
    def test_environment_sets_no_count(self, monkeypatch):
        # a value left in the shell must not change a seeded result
        monkeypatch.setenv("CSLINKS_SHARDS", "4")
        monkeypatch.setenv("CSLINKS_WORKERS", "3")
        est = run_sharded(weight_batch, 1600, seed=0, shards=None)
        assert est.shards == 16 and len(est.shard_means) == 16
        assert default_workers() == 1


class TestBadCounts:
    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one(self, samples):
        with pytest.raises(ValueError, match="sample count"):
            run_sharded(weight_batch, samples, seed=0, shards=4)

    @pytest.mark.parametrize("shards", [0, 1, -3])
    def test_shards_below_two(self, shards):
        # the error comes from the spread of the shard means, and 0 is not
        # a request for the default
        with pytest.raises(ValueError, match="shard count"):
            run_sharded(weight_batch, 100, seed=0, shards=shards)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        # only None asks for the default worker count
        with pytest.raises(ValueError, match="worker count"):
            run_sharded(weight_batch, 100, seed=0, shards=4, workers=workers)
