"""The benchmark's tracer (perfbench/tracing.py) wraps the samplers, the
integrands and run_sharded by their names.  A refactor that deletes or
bypasses one of them leaves the tracer's figures for it at 0, so a short run
here, with the tracer installed in-process, must pass through every one.
perfbench is only read."""

import sys
from pathlib import Path

from cslinks import anomaly, integrate
from cslinks.curves import catalog
from cslinks.diagrams import tripod_positive

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402


def test_sampled_integrals_pass_through_the_tracers_wrappers():
    originals = (integrate.ConfigurationSampler.sample,
                 anomaly.WSampler.sample, integrate.run_sharded,
                 anomaly.run_sharded, integrate.integrand_batch,
                 anomaly.w_integrand_batch)
    tracer = Tracer("tier-1")
    tracer.install()
    try:
        integrate.integrate_diagram(tripod_positive(), catalog("trefoil"),
                                    samples=2000, seed=1)
        anomaly.f_gamma("a1", samples=2000, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.counts["integrate.samples"] == 2000
    assert tracer.counts["anomaly.samples"] == 2000
    assert [run.n for run in tracer.runs] == [2000, 2000]
    names = {span[1] for span in tracer.spans}
    assert {"integrate.sample", "integrate.integrand", "anomaly.sample",
            "anomaly.integrand"} <= names
    assert originals == (integrate.ConfigurationSampler.sample,
                         anomaly.WSampler.sample, integrate.run_sharded,
                         anomaly.run_sharded, integrate.integrand_batch,
                         anomaly.w_integrand_batch)
