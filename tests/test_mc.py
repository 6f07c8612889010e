import numpy as np
import pytest

from cslinks.anomaly import disc_integral, f_gamma
from cslinks.curves import catalog
from cslinks.diagrams import THETA, Diagram, std_oriented
from cslinks.integrate import (chord_quadrature, integrate_diagram,
                               two_chord_quadrature)
from cslinks.invariants import self_linking
from cslinks.mc import (BATCH, Estimate, combined_stderr, default_workers,
                        run_sharded, shard_stream)
from cslinks.support import circles


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

    def test_both_error_estimates(self):
        # two batches per shard, so the moments merge across batches too
        samples, shards = 2 * (BATCH + 1000), 2
        est = run_sharded(weight_batch, samples, seed=4, shards=shards)
        weights = np.concatenate([
            weight_batch(rng, b)[0]
            for rng in (shard_stream(4, k) for k in range(shards))
            for b in (BATCH, 1000)])
        diag = est.diagnostics
        assert diag["stderr_samples"] == pytest.approx(
            np.std(weights, ddof=1) / np.sqrt(samples), rel=1e-12)
        assert diag["stderr_shards"] == pytest.approx(
            np.std(est.shard_means, ddof=1) / np.sqrt(shards), rel=1e-12)
        assert est.stderr == max(diag["stderr_shards"],
                                 diag["stderr_samples"])

    def test_error_sees_a_tail_the_shards_miss(self):
        # one huge weight per shard: the shard means agree, but the weights
        # do not, and the error bar must say so
        def spike_batch(rng, count):
            w = np.zeros(count)
            w[0] = 1e6
            return w, 0

        est = run_sharded(spike_batch, 1600, seed=0, shards=16)
        assert est.diagnostics["stderr_shards"] == 0.0
        assert est.stderr == est.diagnostics["stderr_samples"] > 1e3

    def test_sample_accounting(self):
        est = run_sharded(weight_batch, 1000, seed=0, shards=16)
        # ceil(1000/16) = 63 per shard
        assert est.diagnostics["samples"] == 16 * 63

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Estimate(value=float("nan"), stderr=0.0, method="monte-carlo",
                     diagnostics={"samples": 1, "seed": 0, "shards": 1})

    def test_combined(self):
        a = Estimate(1.0, 0.3, "monte-carlo", {})
        b = Estimate(1.0, 0.4, "quadrature", {})
        assert abs(combined_stderr(a, b) - 0.5) < 1e-12

    def test_rejection_counting(self):
        def rej_batch(rng, count):
            w = rng.uniform(size=count)
            return np.where(w < 0.5, 0.0, w), int(np.sum(w < 0.5))

        est = run_sharded(rej_batch, 10 ** 4, seed=1, shards=4)
        diag = est.diagnostics
        assert 0.4 < diag["rejected"] / diag["samples"] < 0.6


MC_FIELDS = ["samples", "seed", "shards", "rejected", "rejection_rate",
             "stderr_shards", "stderr_samples"]

# every integral entry point, the method it reports and its diagnostics
ENTRY_POINTS = {
    "run_sharded": (lambda: run_sharded(weight_batch, 64, seed=0, shards=2),
                    "monte-carlo", MC_FIELDS),
    "integrate_diagram": (
        lambda: integrate_diagram(std_oriented(THETA), catalog("trefoil"),
                                  samples=64, shards=2),
        "monte-carlo", MC_FIELDS),
    "f_gamma": (lambda: f_gamma("theta", samples=64, shards=2),
                "monte-carlo", MC_FIELDS),
    "chord_quadrature": (
        lambda: chord_quadrature(std_oriented(THETA), catalog("trefoil")),
        "quadrature", ["grid"]),
    "two_chord_quadrature": (
        lambda: two_chord_quadrature(
            std_oriented(Diagram(circles(1), ((0, 1, 2, 3),), frozenset(),
                                 frozenset({frozenset((0, 2)),
                                            frozenset((1, 3))}))),
            catalog("trefoil")),
        "quadrature", ["grid"]),
    "self_linking": (lambda: self_linking(catalog("hopf-link"), 1),
                     "quadrature", ["grid"]),
    "disc_integral": (lambda: disc_integral(catalog("trefoil")),
                      "quadrature", ["grid", "base_point"]),
}


class TestOneRecord:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_entry_points_return_estimate(self, name):
        call, method, fields = ENTRY_POINTS[name]
        est = call()
        assert type(est) is Estimate
        d = est.as_dict()
        assert list(d) == ["method", "value", "stderr"] + fields
        assert d["method"] == est.method == method
        assert (d["value"], d["stderr"]) == (est.value, est.stderr)
        # plain floats, which the report's json.dumps takes as they are
        assert type(d["value"]) is float and type(d["stderr"]) is float

    @pytest.mark.parametrize("value, stderr", [
        (float("nan"), 0.0), (float("inf"), 0.0), (1.0, -1e-9)])
    def test_quadrature_record_checked(self, value, stderr):
        with pytest.raises(ValueError):
            Estimate(value, stderr, "quadrature", {})


class TestDefaults:
    def test_environment_sets_no_count(self, monkeypatch):
        # a value left in the shell must not change a seeded result
        monkeypatch.setenv("CSLINKS_SHARDS", "4")
        monkeypatch.setenv("CSLINKS_WORKERS", "3")
        est = run_sharded(weight_batch, 1600, seed=0, shards=None)
        assert est.diagnostics["shards"] == 16 and len(est.shard_means) == 16
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

    @pytest.mark.parametrize("samples, shards", [(3, 4), (15, None)])
    def test_more_shards_than_samples(self, samples, shards):
        # every shard takes at least one sample, so more shards than
        # samples would report more samples than were asked for
        with pytest.raises(ValueError, match="shard count"):
            run_sharded(weight_batch, samples, seed=0, shards=shards)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        # only None asks for the default worker count
        with pytest.raises(ValueError, match="worker count"):
            run_sharded(weight_batch, 100, seed=0, shards=4, workers=workers)
