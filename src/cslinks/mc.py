"""Deterministic sharded Monte Carlo driver, and Estimate, the record of
every integral (Monte Carlo or quadrature).

Each shard owns a counter-based random stream keyed by (seed, shard), so the
full estimate is reproducible bit-for-bit for fixed (seed, samples, shards)
and independent of how many worker threads execute the shards.  The
samplers draw from it one block of uniforms per batch and map it to their
configurations, so the points' only source is u in the unit cube.  A shard
adds its batch sums in order; shard results merge in index order.
Each shard also keeps the second moment of its weights about their mean,
merged batch by batch (Chan, Golub and LeVeque's pairwise update of
Welford's), so the error bar sees the spread of the weights themselves and
not only that of the 16 shard means.

A batch writes its (count,)-sized arrays into a Workspace, one per thread,
that outlives the batch: freed temporaries let glibc trim the heap between
batches, and every page regrown after a trim is a minor page fault, which
cost a sampled integral 20-30 % of its time.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import prod

import numpy as np

BATCH = 1 << 16
SHARDS = 16


def shard_stream(seed: int, shard: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, shard], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class Workspace(threading.local):
    """Scratch arrays that outlive a Monte Carlo batch, one set per thread.

    work(name, shape, dtype) returns a C-contiguous array of that shape,
    the front of the calling thread's buffer of that name, which grows to
    the largest size asked for and is never freed.  Its contents are those
    of the last array handed out under the name: a caller owns a name's
    array until it asks for the name again.  Threads never share a buffer.
    """

    def __init__(self):
        self.buffers = {}

    def __call__(self, name, shape, dtype=float):
        size = prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self.buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def fresh(name, shape, dtype=float):
    """A Workspace's signature with a new array on every call: the default
    of the functions that take a workspace, for calls outside a batch."""
    return np.empty(shape, dtype)


def default_workers():
    # kept as a function: the benchmark's tracer (perfbench/tracing.py)
    # calls it for the worker count it records
    return 1


@dataclass
class Estimate:
    """An integral's estimate, whatever computed it: its value, the error
    estimate stderr, the method ("monte-carlo" or "quadrature") and that
    method's diagnostics, in report order.  A Monte Carlo estimate also
    keeps its shard means (bit for bit, for the determinism checks)."""
    value: float
    stderr: float
    method: str
    diagnostics: dict
    shard_means: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"{self.method} produced a non-finite value")
        if self.stderr < 0:
            raise ValueError("negative standard error")

    def as_dict(self):
        return {"method": self.method, "value": self.value,
                "stderr": self.stderr, **self.diagnostics}


def check_counts(samples, shards, workers):
    """Raise ValueError unless the counts make a run: at least one sample,
    two shards (the error comes from the spread of the shard means) and
    one worker, and no more shards than samples (each shard takes one)."""
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    if shards < 2:
        raise ValueError(f"shard count must be at least 2, got {shards}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if shards > samples:
        raise ValueError(f"shard count {shards} exceeds the sample count "
                         f"{int(samples)}")


def run_sharded(batch_fn, samples, seed, shards=None,
                workers=None) -> Estimate:
    """Estimate the mean of the weights produced by batch_fn.

    batch_fn(rng, count) returns (weights, rejected_count) with weights an
    array of length count (rejected samples contribute weight 0 but stay in
    the denominator: their limit contribution vanishes).  The weights'
    deviations from their batch mean go through one Workspace buffer per
    thread.

    The error is estimated twice: stderr_shards from the spread of the shard
    means (see check_counts), and stderr_samples from the sample variance of
    all the weights.  Both are reported, and stderr is the larger.  Heavy-
    tailed weights (the tripod's) make either one read low on some runs:
    the shard spread has only shards - 1 degrees of freedom, and the sample
    variance misses the tail a run did not draw.
    """
    shards = SHARDS if shards is None else shards
    workers = default_workers() if workers is None else workers
    check_counts(samples, shards, workers)
    per_shard = -(-int(samples) // shards)   # ceil; actual count reported
    work = Workspace()

    def run_shard(idx):
        rng = shard_stream(seed, idx)
        acc = 0.0
        rejected = 0
        done = 0
        mean = m2 = 0.0     # running mean and sum of squared deviations
        while done < per_shard:
            b = min(BATCH, per_shard - done)
            w, rej = batch_fn(rng, b)
            if len(w) != b:
                raise ValueError("batch_fn returned a wrong-sized batch")
            total = float(np.sum(w))
            acc += total
            delta = total / b - mean
            dev = np.subtract(w, total / b, out=work("deviation", (b,)))
            m2 += (float(np.sum(np.square(dev, out=dev)))
                   + delta * delta * done * b / (done + b))
            mean += delta * b / (done + b)
            rejected += int(rej)
            done += b
        return acc / per_shard, m2, rejected

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_shard, range(shards)))
    else:
        results = [run_shard(i) for i in range(shards)]

    means = np.array([r[0] for r in results])
    rejected = sum(r[2] for r in results)
    value = float(np.mean(means))
    spread = float(np.sum((means - value) ** 2))
    samples = per_shard * shards
    # the weights' squared deviations about value: within each shard about
    # its mean, plus each shard mean's offset from value
    m2 = sum(r[1] for r in results) + per_shard * spread
    stderr_shards = float(np.sqrt(spread / (shards * (shards - 1))))
    stderr_samples = float(np.sqrt(m2 / (samples * (samples - 1))))
    return Estimate(value, max(stderr_shards, stderr_samples), "monte-carlo",
                    {"samples": samples, "seed": seed, "shards": shards,
                     "rejected": rejected,
                     "rejection_rate": rejected / samples,
                     "stderr_shards": stderr_shards,
                     "stderr_samples": stderr_samples},
                    shard_means=tuple(means.tolist()))


def combined_stderr(*estimates):
    return float(np.sqrt(sum(e.stderr ** 2 for e in estimates)))
