#!/usr/bin/env python3
"""cslinks benchmark: four CLI workloads, end to end and layer by layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it imports cslinks from ./src).  Each
workload repetition runs its commands through cslinks.cli.main in a fresh
interpreter, so every repetition pays cold caches as a CLI user does.

--trace 0 measures the end-to-end metrics with tracing off: repetitions are
run until --seconds is used up (at least one) and medians are reported.
--trace 1 runs the workload once untraced and at least twice traced, and
reports the per-layer metrics; it also checks that every traced report is
bit-identical to the untraced one and that the exact counts repeat.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (environment, every
repetition, every verdict) and the span dumps go to .perfbench/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import VARIANCE_STATS  # noqa: E402
from workloads import (CLI_SPANS, VARIANCE_LABELS, WORKLOADS,  # noqa: E402
                       check, comparable)

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 11
HARD_LIMIT_S = 170.0        # every run, traced or not, ends before this

LAYER_METRICS = [
    "mc.samples", "mc.batches", "mc.rejected_frac", "mc.self_s",
    "mc.batch_ms_p50", "mc.batch_ms_p90", "mc.worker_busy_frac",
    "integrate.sample_ns", "integrate.integrand_ns", "integrate.det_ns",
    "curves.eval_ns_per_point", "curves.points_per_sample",
    "curves.validate_s",
    "anomaly.sample_ns", "anomaly.integrand_ns", "anomaly.det_ns",
    "anomaly.disc_s",
    "projection.oracle_s", "projection.segment_pairs",
    "projection.crossings",
    "algebra.reduction_s", "algebra.reduction_hit_ratio", "algebra.gluing_s",
    "diagrams.enumerate_s", "diagrams.count", "diagrams.canonical_calls",
]
# counts that must repeat exactly between two traced runs
EXACT_COUNTS = ["mc.samples", "mc.batches", "curves.points_per_sample",
                "projection.segment_pairs", "diagrams.count",
                "diagrams.canonical_calls"]
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "ok_frac": "1"}


def per_layer_names():
    names = list(LAYER_METRICS)
    for spans in CLI_SPANS.values():
        names += [f"{s}_s" for s in spans]
    for labels in VARIANCE_LABELS.values():
        names += [f"{label}.{stat}" for label in labels
                  for stat in VARIANCE_STATS]
    return names + ["trace.overhead_s"]


def unit_of(name):
    if name.endswith("_ns") or name.endswith("_ns_per_point"):
        return "ns"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name in ("mc.samples", "mc.batches", "projection.segment_pairs",
                "projection.crossings", "diagrams.count",
                "diagrams.canonical_calls"):
        return "count"
    return "1"


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        # at most one MC worker per two CPUs: a run that occupies every CPU
        # of a shared VM waits on whichever one the host preempts
        self.workers = max(1, min(2, self.nproc // 2))
        self.commands = WORKLOADS[workload](seed, self.workers)
        self.env = dict(os.environ)
        # one BLAS thread per MC worker keeps the threads of a run <= nproc
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        for var in ("CSLINKS_SHARDS", "CSLINKS_WORKERS"):
            self.env.pop(var, None)

    def child(self, mode, trace=False, spans=None):
        spec = {"src": SRC, "commands": self.commands, "mode": mode,
                "trace": trace, "spans": spans,
                "run_id": f"{self.workload}:{self.seed}:{time.time_ns()}"}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("out of time before a repetition could start")
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-I", os.path.join(HERE, "child.py"),
             json.dumps(spec)],
            capture_output=True, text=True, env=self.env, cwd=ROOT,
            timeout=timeout)
        finished = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed ({proc.returncode}):\n"
                               + proc.stderr[-3000:])
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        payload["setup_s"] = payload["ready"] - spawned
        payload["elapsed_s"] = finished - spawned
        return payload

    def environment(self, numpy_version):
        return {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": self.nproc,
            "openblas_threads": self.env["OPENBLAS_NUM_THREADS"],
            "workers": self.workers if self.workload == "anomaly-deg3" else 1,
            "git_commit": git_commit(),
            "platform": platform.platform(),
        }


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def verdicts_of(workload, reps):
    out = []
    for rep in reps:
        out.extend(check(workload, rep["results"]))
    return out


def run_untraced(runner, seconds):
    start = time.monotonic()
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        reps.append(runner.child("run"))
        longest = max(r["elapsed_s"] for r in reps)
        if time.monotonic() + longest > start + seconds:
            break
    setups += [r["setup_s"] for r in reps]
    verdicts = verdicts_of(runner.workload, reps)
    failed = sum(not ok for ok, _ in verdicts)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kib"] / 1024 for r in reps),
        "ok_frac": 1 - failed / len(verdicts),
    }
    record = {"reps": reps, "setup_samples": setups, "verdicts": verdicts}
    for i, r in enumerate(reps):
        print(f"rep {i}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['maxrss_kib'] / 1024:.1f}")
    print(f"failed_frac = {failed / len(verdicts):.4f} 1 "
          f"({failed} of {len(verdicts)} commands)")
    return metrics, verdicts, [], record


def run_traced(runner, seconds, tag):
    start = time.monotonic()
    base = runner.child("run")
    traced = []
    while True:
        spans = os.path.join(OUT, f"spans-{tag}-{len(traced)}.jsonl")
        traced.append(runner.child("run", trace=True, spans=spans))
        longest = max(r["elapsed_s"] for r in traced)
        if len(traced) >= 2 and time.monotonic() + longest > start + seconds:
            break
    verdicts = verdicts_of(runner.workload, [base] + traced)
    problems = []
    # non-perturbation: traced reports equal the untraced ones, bit for bit
    for i, rep in enumerate(traced):
        for a, b in zip(base["results"], rep["results"]):
            if (a["rc"], comparable(a["stdout"])) != (b["rc"], comparable(b["stdout"])):
                problems.append(f"traced run {i} changed the report of "
                                f"{' '.join(a['argv'])}")
    # exact counts repeat between traced runs
    for name in EXACT_COUNTS:
        values = {rep["layers"].get(name, 0) for rep in traced}
        if len(values) != 1:
            problems.append(f"count {name} does not repeat: {sorted(values)}")
    names = per_layer_names()
    unlisted = set(traced[0]["layers"]) - set(names)
    for name in sorted(unlisted):
        print(f"note: unlisted per-layer figure {name}")
    metrics = {}
    for name in names[:-1]:
        if name in EXACT_COUNTS or unit_of(name) == "count":
            metrics[name] = traced[0]["layers"].get(name, 0)
        else:
            metrics[name] = statistics.median(rep["layers"].get(name, 0)
                                              for rep in traced)
    overhead = (statistics.median(r["wall_s"] for r in traced) - base["wall_s"])
    metrics["trace.overhead_s"] = overhead
    print(f"untraced wall_s={base['wall_s']:.4f}; traced wall_s="
          + ", ".join(f"{r['wall_s']:.4f}" for r in traced)
          + f"; tracing overhead {overhead:+.4f} s; "
          f"spans per run {traced[0]['spans']}")
    for label, row in sorted(traced[0]["costs"].items()):
        print(f"cost {label}: " + ", ".join(
            f"{part} {row[part]:.0f}" for part in
            ("sample", "curve", "integrand", "det"))
            + f" ns per sample over {row['samples']} samples")
    for p in problems:
        print(f"FAIL: {p}")
    record = {"untraced": base, "traced": traced, "verdicts": verdicts,
              "problems": problems}
    return metrics, verdicts, problems, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cslinks", "cli.py")):
        print(f"error: no cslinks source under {SRC}; run from the root of "
              "the source tree", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    runner = Runner(args.workload, args.seed, deadline)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, verdicts, problems, record = run_traced(
                runner, args.seconds, tag)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, verdicts, problems, record = run_untraced(
                runner, args.seconds)
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = record["reps"][0] if "reps" in record else record["untraced"]
    env = runner.environment(first.get("numpy"))
    print("env " + json.dumps(env))
    for (ok, msg), res in zip(verdicts, _all_results(record)):
        if not ok:
            print(f"FAIL: {' '.join(res['argv'])}: {msg}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")

    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "commands": runner.commands,
                   "env": env, "metrics": metrics})
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    failed = sum(not ok for ok, _ in verdicts)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _all_results(record):
    reps = record["reps"] if "reps" in record else \
        [record["untraced"]] + record["traced"]
    for rep in reps:
        yield from rep["results"]


if __name__ == "__main__":
    sys.exit(main())
