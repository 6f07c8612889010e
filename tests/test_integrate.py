from math import factorial

import numpy as np
import pytest

from cslinks.anomaly import WGeometry, WSampler, line_diagram_catalog
from cslinks.curves import LinkCurve, catalog
from cslinks.diagrams import (THETA, Diagram, std_oriented, tripod,
                              tripod_positive)
from cslinks.integrate import (COLLISION_TOL, ConfigurationSampler,
                               DiagramGeometry, column_tangents, gauss_kernel,
                               integrand_at, integrand_batch,
                               integrate_diagram, jacobian_values,
                               sample_configuration, univalent_jets, z_n)
from cslinks.support import circles


def fs(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def gaussian_bump_integral(sampler, seed=2):
    """Importance estimate of the integral of a Gaussian bump in every
    trivalent point over the sampler's configuration space."""
    rng = np.random.default_rng(seed)
    total = 0.0
    n = 0
    center = np.array([0.5, -0.3, 0.4])
    for _ in range(10):
        *_, x, density = sampler.sample(rng, 10 ** 5)
        g = np.exp(-0.5 * np.sum((x - center) ** 2, axis=(1, 2)))
        total += float(np.sum(g / density))
        n += 10 ** 5
    return total / n


def hopf_chord():
    return std_oriented(Diagram(circles(2), ((0,), (1,)), frozenset(),
                                fs((0, 1))))


def crossed_chord():
    return std_oriented(Diagram(circles(1), ((0, 1, 2, 3),), frozenset(),
                                fs((0, 2), (1, 3))))


def reference_integrand(geo, t_univ, x_triv):
    """The integrand assembled from separate curve evaluations: eval for
    the univalent points, deriv for their velocities."""
    pos = {}
    vel = {}
    for v in geo.univ:
        m = geo.d.component_of(v)
        tv = t_univ[:, geo.univ_index[v]]
        pos[v] = geo.curve.eval(m, tv)
        vel[v] = geo.curve.deriv(m, tv) * geo.univ_sign[v]
    for v in geo.triv:
        pos[v] = x_triv[:, geo.triv_index[v], :]
    tangents = column_tangents(geo.columns, t_univ.shape[0], vel.__getitem__)
    return jacobian_values(geo, pos, tangents, COLLISION_TOL * geo.diameter)


class CountingCurve(LinkCurve):
    """A LinkCurve that counts the parameters it evaluates at."""

    points = 0

    def eval(self, m, t):
        self.points += np.size(t)
        return super().eval(m, t)

    def deriv(self, m, t):
        self.points += np.size(t)
        return super().deriv(m, t)

    def jet(self, m, t):
        self.points += np.size(t)
        return super().jet(m, t)


class TestPointwise:
    def test_planar_gauss_kernel_vanishes(self):
        c = catalog("unknot-round")
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 2 * np.pi, 1000)
        t = rng.uniform(0, 2 * np.pi, 1000)
        keep = np.abs(s - t) > 1e-3
        vals = gauss_kernel(c, (0, s[keep]), (0, t[keep]))
        assert np.max(np.abs(vals)) == 0.0

    def test_planar_theta_integrand_vanishes(self):
        c = catalog("unknot-round")
        od = std_oriented(THETA)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            s, t = rng.uniform(0, 2 * np.pi, 2)
            if abs(s - t) < 1e-3:
                continue
            worst = max(worst, abs(integrand_at(od, c, {0: s, 1: t}, {})))
        assert worst == 0.0

    def test_chord_integrand_matches_gauss_kernel(self):
        c = catalog("trefoil")
        od = std_oriented(THETA)
        rng = np.random.default_rng(2)
        for _ in range(100):
            s, t = rng.uniform(0, 2 * np.pi, 2)
            if abs(s - t) < 1e-2:
                continue
            v = integrand_at(od, c, {0: s, 1: t}, {})
            g = float(gauss_kernel(c, (0, s), (0, t)))
            assert abs(v - g) <= 1e-10 * max(1.0, abs(g))

    def test_two_chord_product(self):
        c = catalog("trefoil")
        od = crossed_chord()
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = np.sort(rng.uniform(0, 2 * np.pi, 4))
            v = integrand_at(od, c, dict(enumerate(t)), {})
            g = float(gauss_kernel(c, (0, t[0]), (0, t[2]))
                      * gauss_kernel(c, (0, t[1]), (0, t[3])))
            assert abs(v - g) <= 1e-10 * max(1.0, abs(g))

    def test_orientation_flip_negates(self):
        c = catalog("unknot-round")
        od = std_oriented(tripod())
        t = next(iter(od.diagram.trivalent))
        cfg_u = {0: 0.3, 1: 1.7, 2: 4.0}
        cfg_t = {3: (0.2, 0.1, 0.5)}
        a = integrand_at(od, c, cfg_u, cfg_t)
        b = integrand_at(od.flip_vertex(t), c, cfg_u, cfg_t)
        assert a != 0 and abs(a + b) < 1e-14

    def test_univalent_flip_negates(self):
        c = catalog("trefoil")
        od = std_oriented(THETA)
        a = integrand_at(od, c, {0: 0.5, 1: 2.5}, {})
        b = integrand_at(od.flip_vertex(0), c, {0: 0.5, 1: 2.5}, {})
        assert a != 0 and abs(a + b) < 1e-14

    def test_edge_reversal_and_relabelling_invariance(self):
        c = catalog("unknot-round")
        od = std_oriented(tripod())
        t = np.array([[0.3, 1.9, 4.4]])
        x = np.array([[[0.2, -0.1, 0.6]]])

        def value(geo):
            return integrand_batch(geo, *univalent_jets(geo, t), x)[0][0]

        base = value(DiagramGeometry(od, c))
        for flip in [frozenset({frozenset((0, 3))}),
                     frozenset({frozenset((1, 3)), frozenset((2, 3))})]:
            v = value(DiagramGeometry(od, c, flip_edges=flip))
            assert abs(v - base) < 1e-14
        for order in ([1, 2, 0], [2, 1, 0]):
            v = value(DiagramGeometry(od, c, edge_order=order))
            assert abs(v - base) < 1e-14

    @pytest.mark.parametrize("od, name", [
        (std_oriented(THETA), "trefoil"), (crossed_chord(), "trefoil"),
        (std_oriented(tripod()), "trefoil"), (hopf_chord(), "hopf-link")])
    def test_integrand_equals_separate_evaluations(self, od, name):
        geo = DiagramGeometry(od, catalog(name))
        rng = np.random.default_rng(8)
        t, x_univ, v_univ, x, _ = ConfigurationSampler(geo).sample(rng, 4096)
        values, rejected = integrand_batch(geo, x_univ, v_univ, x)
        ref_values, ref_rejected = reference_integrand(geo, t, x)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(rejected, ref_rejected)
        assert np.any(values != 0)


class TestSampler:
    def test_single_configuration(self):
        rng = np.random.default_rng(0)
        univ, triv, density = sample_configuration(
            std_oriented(tripod()), catalog("unknot-round"), rng)
        assert set(univ) == {0, 1, 2} and set(triv) == {3}
        assert density > 0

    def test_chord_proposal_density_constant(self):
        geo = DiagramGeometry(std_oriented(THETA), catalog("unknot-round"))
        sampler = ConfigurationSampler(geo)
        rng = np.random.default_rng(1)
        *_, density = sampler.sample(rng, 128)
        expected = 1.0 / (2 * np.pi) ** 2
        assert np.allclose(density, expected)

    def test_importance_weights_reproduce_gaussian_integral(self):
        # known closed form: integral over the tripod configuration space of
        # a Gaussian bump in the space vertex equals (volume of the cyclic
        # order class) times (2 pi)^(3/2)
        geo = DiagramGeometry(std_oriented(tripod()), catalog("unknot-round"))
        estimate = gaussian_bump_integral(ConfigurationSampler(geo))
        expected = ((2 * np.pi) ** 3 / 2) * (2 * np.pi) ** 1.5
        assert abs(estimate - expected) / expected < 0.01

    @pytest.mark.parametrize("name", ["d2", "a1"])
    def test_w_importance_weights_reproduce_gaussian_integral(self, name):
        # the anomaly side of the shared trivalent proposal: area of S^2
        # times the volume 1/(u-2)! of the ordered interior legs times
        # (2 pi)^(3/2) per trivalent vertex (standard error 0.2 % for d2,
        # 0.4 % for a1)
        geo = WGeometry(line_diagram_catalog(name))
        estimate = gaussian_bump_integral(WSampler(geo))
        expected = (4 * np.pi / factorial(len(geo.univ) - 2)
                    * (2 * np.pi) ** (1.5 * len(geo.triv)))
        assert abs(estimate - expected) / expected < 0.02


class TestIntegrals:
    @pytest.mark.parametrize("od, name", [(crossed_chord(), "trefoil"),
                                          (std_oriented(tripod()), "trefoil"),
                                          (hopf_chord(), "hopf-link")])
    def test_one_curve_evaluation_per_sample(self, od, name):
        # each univalent parameter of a sample is evaluated once, for its
        # point and its velocity together; besides, the geometry samples
        # the curve once for its diameter
        curve = CountingCurve(catalog(name).components)
        curve.diameter()
        diameter_points = curve.points
        curve.points = 0
        integrate_diagram(od, curve, samples=1000, shards=2)
        univalent = len(od.diagram.univalent)
        assert curve.points == diameter_points + univalent * 1000

    def test_hopf_chord(self):
        est = integrate_diagram(hopf_chord(), catalog("hopf-link"),
                                samples=2 * 10 ** 5, seed=3)
        assert abs(est.value - 1.0) < 0.02

    def test_round_unknot_tripod_both_orientations(self):
        c = catalog("unknot-round")
        pos = integrate_diagram(tripod_positive(), c, samples=3 * 10 ** 5,
                                seed=5)
        assert abs(pos.value - 0.125) < 0.01
        neg = integrate_diagram(std_oriented(tripod()), c,
                                samples=3 * 10 ** 5, seed=6)
        # the product I(Γ,o)[Γ,o] is orientation independent
        assert abs(pos.value + neg.value) < 3 * (pos.stderr + neg.stderr)

    def test_planar_theta_estimate_exactly_zero(self):
        est = integrate_diagram(std_oriented(THETA), catalog("unknot-round"),
                                samples=10 ** 4, seed=0)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_bit_reproducibility_and_worker_independence(self):
        od = tripod_positive()
        c = catalog("unknot-round")
        a = integrate_diagram(od, c, samples=5 * 10 ** 4, seed=9, shards=8)
        b = integrate_diagram(od, c, samples=5 * 10 ** 4, seed=9, shards=8)
        w = integrate_diagram(od, c, samples=5 * 10 ** 4, seed=9, shards=8,
                              workers=4)
        assert a.value == b.value == w.value
        assert a.shard_means == b.shard_means == w.shard_means


class TestZn:
    def test_z0_is_unit(self):
        vec, errs, ests = z_n(catalog("unknot-round"), 0)
        assert list(vec.terms.values()) == [1.0]

    def test_z1_hopf_linking_coefficient(self):
        vec, errs, ests = z_n(catalog("hopf-link"), 1, samples=10 ** 5,
                              seed=2)
        coeffs = {k: v for k, v in vec.terms.items()}
        # inter-component chord class carries the linking number; the two
        # self-chord classes are zero for the planar circles
        values = sorted(round(float(v), 2) for v in coeffs.values())
        assert values[-1] == pytest.approx(1.0, abs=0.05)
        assert all(abs(v) < 0.05 for v in values[:-1])

    def test_z2_unknot_crossed_coefficient(self):
        from cslinks.invariants import crossed_chord_key
        vec, errs, ests = z_n(catalog("unknot-round"), 2,
                              samples=2 * 10 ** 5, seed=4)
        coeff = float(vec.terms.get(crossed_chord_key(), 0.0))
        assert abs(coeff + 1.0 / 24.0) < 0.01
