"""Outside-in tracing of the cslinks layers.

The wrappers are installed from the benchmark on module attributes of the
program; no file of the program changes.  Each wrapped call records a span
(id, name, start, end, parent) in memory; the spans are written out when the
run ends.  Counts are recorded at the same boundaries, so per-sample ratios
are taken where the work happens.  The wrappers only read arguments and
results, so every value the program reports is unchanged.
"""

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

# variance diagnostics emitted for each integral label
VARIANCE_STATS = ("sigma2", "ess_frac", "max_w_share", "wnv_s")


class MCRun:
    """Pass-through accumulator on the weights batch_fn hands to run_sharded."""

    def __init__(self, sid, layer, target, workers):
        self.sid = sid
        self.layer = layer          # "integrate" or "anomaly"
        self.target = target        # curve or gamma named on the command line
        self.workers = workers
        self.diagram = None         # set by the first sampler call
        self.lock = threading.Lock()
        self.n = 0
        self.rejected = 0
        self.s1 = 0.0
        self.s2 = 0.0
        self.sabs = 0.0
        self.wmax = 0.0

    def add(self, w, rejected):
        w = np.asarray(w, dtype=float)
        s1 = float(np.sum(w))
        s2 = float(np.dot(w, w))
        a = np.abs(w)
        sabs = float(np.sum(a))
        wmax = float(np.max(a)) if a.size else 0.0
        with self.lock:
            self.n += w.size
            self.rejected += int(rejected)
            self.s1 += s1
            self.s2 += s2
            self.sabs += sabs
            self.wmax = max(self.wmax, wmax)

    @property
    def label(self):
        if self.layer == "anomaly":
            return f"anomaly.{self.target}"
        return f"integrate.{self.diagram}.{self.target}"


def diagram_name(od):
    """Short stable name of a closed-link diagram: theta, chord, crossed,
    parallel, tripod, or a u/t vertex count."""
    d = od.diagram
    edges = [tuple(sorted(e)) for e in d.edges]
    if not d.trivalent:
        if len(edges) == 1:
            a, b = edges[0]
            same = d.component_of(a) == d.component_of(b)
            return "theta" if same else "chord"
        if len(edges) == 2 and len(d.placements[0]) == 4:
            pos = {v: i for i, v in enumerate(d.placements[0])}
            (a, b), (c, e) = [sorted((pos[x], pos[y])) for x, y in edges]
            crossed = (a < c < b) != (a < e < b)
            return "crossed" if crossed else "parallel"
    elif len(d.trivalent) == 1 and len(edges) == 3:
        return "tripod"
    return f"u{len(d.univalent)}t{len(d.trivalent)}"


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []             # (id, name, start, end, parent)
        self.counts = {}
        self.runs = []              # MCRun per run_sharded call
        self.reduction_miss = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches = []
        self.target = None          # curve/gamma of the command being run

    # -- spans -----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        par = stack[-1] if stack else parent
        stack.append(sid)
        return sid, par, time.perf_counter()

    def close(self, name, sid, par, t0):
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, t0, t1, par))

    def count(self, key, n):
        with self._count_lock:
            self.counts[key] = self.counts.get(key, 0) + n

    @property
    def current_run(self):
        return getattr(self._local, "run", None)

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, par, t0 = tracer.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(name, sid, par, t0)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, orig, new):
        """Replace orig on every cslinks module that holds it by name, so the
        wrapper is hit wherever the program looks the function up."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cslinks" or mod_name.startswith("cslinks."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, new)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def install(self):
        import cslinks.cli  # noqa: F401  (loads every module that is patched)
        from cslinks import (algebra, anomaly, curves, diagrams, integrate,
                             mc, projection)

        # mc: run_sharded and, through it, every batch_fn
        for layer, mod in (("integrate", integrate), ("anomaly", anomaly)):
            self._patch(mod, "run_sharded",
                        self._wrap_run_sharded(mod.run_sharded, layer, mc))

        # samplers and integrands
        def sampled(layer):
            def after(args, kwargs, result):
                sampler, count = args[0], args[2]
                self.count(f"{layer}.samples", count)
                run = self.current_run
                if run is not None and run.diagram is None and layer == "integrate":
                    run.diagram = diagram_name(sampler.geo.od)
            return after

        self._patch(integrate.ConfigurationSampler, "sample",
                    self.wrap("integrate.sample",
                              integrate.ConfigurationSampler.sample,
                              sampled("integrate")))
        self._patch_everywhere(integrate.integrand_batch,
                               self.wrap("integrate.integrand",
                                         integrate.integrand_batch))
        self._patch(anomaly.WSampler, "sample",
                    self.wrap("anomaly.sample", anomaly.WSampler.sample,
                              sampled("anomaly")))
        self._patch_everywhere(anomaly.w_integrand_batch,
                               self.wrap("anomaly.integrand",
                                         anomaly.w_integrand_batch))
        self._patch_everywhere(anomaly.disc_integral,
                               self.wrap("anomaly.disc", anomaly.disc_integral))

        # curves
        def points(args, kwargs, result):
            n = int(np.size(args[2] if len(args) > 2 else kwargs["t"]))
            self.count("curves.points", n)
            if self.current_run is not None:
                self.count("curves.mc_points", n)

        for attr in ("eval", "deriv"):
            self._patch(curves.LinkCurve, attr,
                        self.wrap("curves.eval", getattr(curves.LinkCurve, attr),
                                  points))
        self._patch_everywhere(curves.validate_embedding,
                               self.wrap("curves.validate",
                                         curves.validate_embedding))

        self._patch(np.linalg, "det", self.wrap("det", np.linalg.det))

        # projection oracles
        def crossings(args, kwargs, result):
            curve = args[0]
            n = args[1] if len(args) > 1 else kwargs.get("samples", 4096)
            c = curve.n_components
            self.count("projection.segment_pairs", c * (c + 1) // 2 * (n - 1) ** 2)
            self.count("projection.crossings", len(result))

        self._patch_everywhere(projection.diagram_crossings,
                               self.wrap("projection.crossings",
                                         projection.diagram_crossings,
                                         crossings))
        self._patch_everywhere(projection.linking_oracle,
                               self.wrap("projection.oracle",
                                         projection.linking_oracle))

        # exact algebra
        self._patch_everywhere(algebra.reduction,
                               self._wrap_reduction(algebra.reduction))
        for attr in ("check_ihx_prime", "check_stu_prime"):
            self._patch_everywhere(getattr(algebra, attr),
                                   self.wrap("algebra.gluing",
                                             getattr(algebra, attr)))

        # diagrams
        self._patch_everywhere(
            diagrams.enumerate_diagrams,
            self.wrap("diagrams.enumerate", diagrams.enumerate_diagrams,
                      lambda a, k, result: self.count("diagrams.count",
                                                      len(result))))
        self._patch_everywhere(
            diagrams.canonical_form,
            self.wrap("diagrams.canonical", diagrams.canonical_form,
                      lambda a, k, result: self.count(
                          "diagrams.canonical_calls", 1)))

    def _wrap_run_sharded(self, orig, layer, mc):
        tracer = self

        @functools.wraps(orig)
        def run_sharded(batch_fn, samples, seed, shards=None, workers=None,
                        *rest, **kwargs):
            sid, par, t0 = tracer.open()
            run = MCRun(sid, layer, tracer.target,
                        workers or mc.default_workers())
            tracer.runs.append(run)

            def batch(rng, count):
                tracer._local.run = run
                bsid, bpar, b0 = tracer.open(parent=sid)
                try:
                    w, rejected = batch_fn(rng, count)
                finally:
                    tracer.close("mc.batch", bsid, bpar, b0)
                    tracer._local.run = None
                run.add(w, rejected)
                return w, rejected

            try:
                return orig(batch, samples, seed, shards, workers, *rest,
                            **kwargs)
            finally:
                tracer.close("mc.run_sharded", sid, par, t0)
        return run_sharded

    def _wrap_reduction(self, orig):
        tracer = self

        @functools.wraps(orig)
        def reduction(*args, **kwargs):
            misses = orig.cache_info().misses
            sid, par, t0 = tracer.open()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close("algebra.reduction", sid, par, t0)
                if orig.cache_info().misses > misses:
                    tracer.reduction_miss.add(sid)
        reduction.cache_info = orig.cache_info
        reduction.cache_clear = orig.cache_clear
        return reduction

    # -- output ----------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, par in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "name": name, "start": t0, "end": t1,
                                     "parent": par}) + "\n")


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(tracer, algebra_reduction):
    """Per-layer figures of one traced workload run (times in s or ns)."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))

    def self_time(s):
        return (s[3] - s[2]) - _union_length(children.get(s[0], []))

    total = {}
    selft = {}
    for s in spans:
        total[s[1]] = total.get(s[1], 0.0) + (s[3] - s[2])
        selft[s[1]] = selft.get(s[1], 0.0) + self_time(s)
    det = {"integrate": 0.0, "anomaly": 0.0}
    for s in spans:
        if s[1] == "det":
            owner = _ancestor(s, by_id, lambda a: a[1].endswith(".integrand"))
            if owner is not None:
                det[owner[1].split(".")[0]] += s[3] - s[2]

    counts = tracer.counts
    out = {}
    runs = [s for s in spans if s[1] == "mc.run_sharded"]
    batches = [s for s in spans if s[1] == "mc.batch"]
    batch_ms = sorted((s[3] - s[2]) * 1e3 for s in batches)
    mc_samples = sum(r.n for r in tracer.runs)
    workers = {r.sid: r.workers for r in tracer.runs}
    out["mc.samples"] = mc_samples
    out["mc.batches"] = len(batches)
    out["mc.rejected_frac"] = (sum(r.rejected for r in tracer.runs) / mc_samples
                               if mc_samples else 0.0)
    out["mc.self_s"] = sum(self_time(s) for s in runs)
    out["mc.batch_ms_p50"] = _quantile(batch_ms, 0.5)
    out["mc.batch_ms_p90"] = _quantile(batch_ms, 0.9)
    capacity = sum(workers[s[0]] * (s[3] - s[2]) for s in runs)
    out["mc.worker_busy_frac"] = (sum(s[3] - s[2] for s in batches) / capacity
                                  if capacity else 0.0)

    for layer in ("integrate", "anomaly"):
        n = counts.get(f"{layer}.samples", 0)
        per = 1e9 / n if n else 0.0
        out[f"{layer}.sample_ns"] = selft.get(f"{layer}.sample", 0.0) * per
        out[f"{layer}.integrand_ns"] = selft.get(f"{layer}.integrand", 0.0) * per
        out[f"{layer}.det_ns"] = det[layer] * per

    points = counts.get("curves.points", 0)
    mc_points = counts.get("curves.mc_points", 0)
    out["curves.eval_ns_per_point"] = (total.get("curves.eval", 0.0) * 1e9 / points
                                       if points else 0.0)
    out["curves.points_per_sample"] = mc_points / mc_samples if mc_samples else 0.0
    out["curves.validate_s"] = total.get("curves.validate", 0.0)
    out["anomaly.disc_s"] = total.get("anomaly.disc", 0.0)

    out["projection.oracle_s"] = total.get("projection.oracle", 0.0)
    out["projection.segment_pairs"] = counts.get("projection.segment_pairs", 0)
    out["projection.crossings"] = counts.get("projection.crossings", 0)

    out["algebra.reduction_s"] = sum(
        s[3] - s[2] for s in spans
        if s[0] in tracer.reduction_miss
        and _ancestor(s, by_id, lambda a: a[0] in tracer.reduction_miss) is None)
    info = algebra_reduction.cache_info()
    calls = info.hits + info.misses
    out["algebra.reduction_hit_ratio"] = info.hits / calls if calls else 0.0
    out["algebra.gluing_s"] = total.get("algebra.gluing", 0.0)
    out["diagrams.enumerate_s"] = sum(
        s[3] - s[2] for s in spans if s[1] == "diagrams.enumerate"
        and _ancestor(s, by_id, lambda a: a[1] == "diagrams.enumerate") is None)
    out["diagrams.count"] = counts.get("diagrams.count", 0)
    out["diagrams.canonical_calls"] = counts.get("diagrams.canonical_calls", 0)

    out["costs"] = integral_costs(tracer.runs, spans, by_id, self_time)
    for label, stats in variance_stats(tracer.runs, by_id).items():
        for key, value in stats.items():
            out[f"{label}.{key}"] = value
    for s in spans:
        if s[1].startswith("cli."):
            key = s[1] + "_s"
            out[key] = out.get(key, 0.0) + (s[3] - s[2])
    return out


def integral_costs(runs, spans, by_id, self_time):
    """Per integral label: self time per sample of the sampler, the
    integrand, det and curve evaluation (summed over worker threads)."""
    label = {r.sid: r.label for r in runs}
    samples = {}
    for r in runs:
        samples[r.label] = samples.get(r.label, 0) + r.n
    parts = {"integrate.sample": "sample", "anomaly.sample": "sample",
             "integrate.integrand": "integrand",
             "anomaly.integrand": "integrand", "det": "det",
             "curves.eval": "curve"}
    out = {}
    for s in spans:
        part = parts.get(s[1])
        run = part and _ancestor(s, by_id, lambda a: a[1] == "mc.run_sharded")
        if not run:
            continue
        row = out.setdefault(label[run[0]], {p: 0.0 for p in
                                          ("sample", "curve", "integrand",
                                           "det")})
        row[part] += self_time(s)
    for name, row in out.items():
        for part in row:
            row[part] *= 1e9 / samples[name]
        row["samples"] = samples[name]
    return out


def variance_stats(runs, by_id):
    """sigma^2 per sample, ESS fraction, largest weight's share and
    work-normalised variance (sigma^2 x wall seconds per sample), pooled
    over the runs that share a label."""
    pooled = {}
    for r in runs:
        p = pooled.setdefault(r.label, [0, 0.0, 0.0, 0.0, 0.0, 0.0])
        s = by_id[r.sid]
        p[0] += r.n
        p[1] += r.s1
        p[2] += r.s2
        p[3] += r.sabs
        p[4] = max(p[4], r.wmax)
        p[5] += s[3] - s[2]
    out = {}
    for label, (n, s1, s2, sabs, wmax, secs) in pooled.items():
        if not n:
            continue
        mean = s1 / n
        sigma2 = max(s2 / n - mean * mean, 0.0)
        out[label] = {
            "sigma2": sigma2,
            "ess_frac": (sabs * sabs / s2) / n if s2 else 0.0,
            "max_w_share": wmax / sabs if sabs else 0.0,
            "wnv_s": sigma2 * secs / n,
        }
    return out


def _ancestor(s, by_id, pred):
    """The nearest span above s that satisfies pred, or None."""
    p = s[4]
    while p is not None:
        if pred(by_id[p]):
            return by_id[p]
        p = by_id[p][4]
    return None


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]
