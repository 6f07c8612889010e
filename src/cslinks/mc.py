"""Deterministic sharded Monte Carlo driver.

Each shard owns a counter-based random stream keyed by (seed, shard), so the
full estimate is reproducible bit-for-bit for fixed (seed, samples, shards)
and independent of how many worker threads execute the shards.  Batch sums
are Kahan-compensated within a shard; shard results merge in index order.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

BATCH = 1 << 16
SHARDS = 16


def shard_stream(seed: int, shard: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, shard], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def default_workers():
    # kept as a function: the benchmark's tracer (perfbench/tracing.py)
    # calls it for the worker count it records
    return 1


@dataclass
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    shards: int
    rejected: int = 0
    shard_means: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("Monte Carlo produced a non-finite value")
        if self.stderr < 0:
            raise ValueError("negative standard error")

    def as_dict(self):
        return {"value": self.value, "stderr": self.stderr,
                "samples": self.samples, "seed": self.seed,
                "shards": self.shards, "rejected": self.rejected,
                "rejection_rate": self.rejected / self.samples if self.samples else 0.0}


class _Kahan:
    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, x):
        y = x - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def run_sharded(batch_fn, samples, seed, shards=None,
                workers=None) -> MCEstimate:
    """Estimate the mean of the weights produced by batch_fn.

    batch_fn(rng, count) returns (weights, rejected_count) with weights an
    array of length count (rejected samples contribute weight 0 but stay in
    the denominator: their limit contribution vanishes).  The error comes
    from the spread of the shard means, so at least two shards are needed,
    and each shard takes at least one sample.
    """
    shards = SHARDS if shards is None else shards
    workers = default_workers() if workers is None else workers
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    if shards < 2:
        raise ValueError(f"shard count must be at least 2, got {shards}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if shards > samples:
        raise ValueError(f"shard count {shards} exceeds the sample count "
                         f"{int(samples)}")
    per_shard = -(-int(samples) // shards)   # ceil; actual count reported

    def run_shard(idx):
        rng = shard_stream(seed, idx)
        acc = _Kahan()
        rejected = 0
        done = 0
        while done < per_shard:
            b = min(BATCH, per_shard - done)
            w, rej = batch_fn(rng, b)
            if len(w) != b:
                raise ValueError("batch_fn returned a wrong-sized batch")
            acc.add(float(np.sum(w)))
            rejected += int(rej)
            done += b
        return acc.total / per_shard, rejected

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_shard, range(shards)))
    else:
        results = [run_shard(i) for i in range(shards)]

    means = np.array([r[0] for r in results])
    rejected = sum(r[1] for r in results)
    value = float(np.mean(means))
    stderr = float(np.sqrt(np.sum((means - value) ** 2)
                           / (shards * (shards - 1))))
    return MCEstimate(value=value, stderr=stderr, samples=per_shard * shards,
                      seed=seed, shards=shards, rejected=rejected,
                      shard_means=tuple(means.tolist()))


def combined_stderr(*estimates):
    return float(np.sqrt(sum(e.stderr ** 2 for e in estimates)))
