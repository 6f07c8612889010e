from math import factorial

import numpy as np
import pytest
from test_integrate import (CountingCurve, UnitRng, assert_fold_matches,
                            assert_weighted_histogram, folded_and_full,
                            half_cauchy, jacobian_density, leg_preimages,
                            preimage_blocks, samples_first,
                            trivalent_preimages)

from cslinks import anomaly
from cslinks.algebra import ClassVector, reduction
from cslinks.anomaly import (LINE_CATALOG, WGeometry, WSampler,
                             anomaly_alpha, degree3_region_predicates,
                             disc_integral, f_gamma, framing_report,
                             is_square, line_diagram_catalog, psi_image_a1,
                             psi_image_a3,
                             square_substitution_invariant,
                             symmetry_check_central, symmetry_check_s1_even,
                             w_config_positions, w_integrand_batch)
from cslinks.curves import CATALOG_NAMES, catalog
from cslinks.diagrams import automorphism_count, canonical_oriented
from cslinks.errors import EmbeddingError
from cslinks.integrate import (chart_frame, has_trivalent_triangle,
                               sphere_chart)
from cslinks.support import R1


class TestGauge:
    def test_f_theta_exactly_one(self):
        est = f_gamma("theta", samples=10 ** 4, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_catalog_names(self):
        for name in LINE_CATALOG:
            line_diagram_catalog(name)
        with pytest.raises(KeyError):
            line_diagram_catalog("theta9")


class TestFold:
    @pytest.mark.parametrize("name", ["theta", "a1", "a2", "a3"])
    def test_matches_full_determinant(self, monkeypatch, name):
        # the wedge kernel against the full assembly on the gauge slice;
        # d2 and the wheel vanish pointwise (TestVanishingIntegrands)
        geo = WGeometry(line_diagram_catalog(name))
        rng = np.random.default_rng(12)
        s, t, x, _ = WSampler(geo).sample(rng, 4096)
        values, full, shortest = folded_and_full(
            monkeypatch, anomaly, w_integrand_batch, geo, s, t, x)
        assert_fold_matches(values, full, shortest >= 1e-2)


class TestSampler:
    def test_density_is_the_maps_jacobian(self):
        # a1's density at 300 configurations against the sum, over the
        # blocks u that the sampler maps to each, of 1/|det| of the map's
        # Jacobian in (z, phi, interior legs, trivalent points): both
        # orders of the interior rows, and per trivalent vertex every
        # anchor with weight 1/K
        geo = WGeometry(line_diagram_catalog("a1"))
        sampler = WSampler(geo)
        legs = len(geo.univ)
        u = 0.02 + 0.96 * np.random.default_rng(43).random((sampler.dim, 300))

        def coords(u):
            s, t, x = (samples_first(a) for a in
                       sampler.sample(UnitRng(u), u.shape[1])[:3])
            return np.hstack([s[:, 2:], np.arctan2(s[:, 1:2], s[:, :1]),
                              t[:, 1:-1], x.reshape(len(s), -1)])

        s, t, x, density = (a.copy() for a in sampler.sample(UnitRng(u), 300))
        pos = {v: samples_first(p).copy()
               for v, p in w_config_positions(geo, s, t, x).items()}
        s, t, x = (samples_first(a) for a in (s, t, x))
        interior = [(j + 1, t[:, j]) for j in range(1, legs - 1)]
        axis = {0: (s[:, 2] + 1) / 2,
                1: np.arctan2(s[:, 1], s[:, 0]) / (2 * np.pi) % 1}
        options = [leg_preimages(axis, interior)]
        options += trivalent_preimages(geo, pos, legs, 1.0)
        preimages = list(preimage_blocks(u.shape, options))
        assert len(preimages) == 2 * 2 * 3    # interior orders x anchors
        for _, v in preimages:
            assert np.allclose(coords(v), coords(u), rtol=0, atol=1e-9)
        rows = [r for r in range(sampler.dim)
                if r < legs or (r - legs) % 4]
        want = jacobian_density(coords, preimages, rows, angles=(1,))
        assert np.allclose(density, want, rtol=1e-6, atol=0)

    def test_axis_histogram_matches_density(self):
        # weighted by pi / density, for pi the uniform axis and interior
        # legs times the half-Cauchy about each vertex's first anchor, the
        # axis's z has pi's marginal: uniform on [-1, 1], ten bins of mass
        # 0.1.  The weights are at most the product of the anchor counts.
        geo = WGeometry(line_diagram_catalog("a1"))
        sampler = WSampler(geo)
        s, t, x, density = sampler.sample(np.random.default_rng(44), 10 ** 5)
        pos = {v: samples_first(p)
               for v, p in w_config_positions(geo, s, t, x).items()}
        s = samples_first(s)
        weights = factorial(len(geo.univ) - 2) / (4 * np.pi) / density
        for v, anchors in geo.placement_order:
            weights *= half_cauchy(
                np.linalg.norm(pos[v] - pos[anchors[0]], axis=1), 1.0)
        assert_weighted_histogram(s[:, 2], weights, np.linspace(-1, 1, 11),
                                  [0.1] * 10)

    def test_sphere_chart_is_the_z_phi_chart(self):
        # cos and sin from sincos's half-angle tangent give the point at
        # phi = 2 pi u, on the unit sphere
        z, phi = np.random.default_rng(46).random((2, 4096))
        r = np.sqrt(1 - (2 * z - 1) ** 2)
        want = [r * np.cos(2 * np.pi * phi), r * np.sin(2 * np.pi * phi),
                2 * z - 1]
        s = sphere_chart(z.copy(), phi.copy(), np.empty((3, 4096)))
        assert np.max(np.abs(s - want)) <= 1e-15
        assert np.max(np.abs(np.sum(s * s, axis=0) - 1)) <= 1e-15

    def test_chart_frame_orthonormal(self):
        # f1 x f2 = s with no pole branch: sphere_chart points and the two
        # poles
        z, phi = np.random.default_rng(45).random((2, 4096))
        rows = sphere_chart(z, phi, np.empty((3, 4096)))
        s = samples_first(rows)
        s[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        f1, f2 = (samples_first(f) for f in chart_frame(rows))
        frame = np.stack([f1, f2, s], axis=1)
        gram = np.einsum("nij,nkj->nik", frame, frame)
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-15
        assert np.max(np.abs(np.cross(f1, f2) - s)) <= 1e-15


class TestVanishingIntegrands:
    @pytest.mark.parametrize("name", ["d2", "w3"])
    def test_pointwise_zero(self, name):
        # the sphere directions of these diagrams are constrained to lower
        # dimensional varieties, so the density vanishes identically
        geo = WGeometry(line_diagram_catalog(name))
        sampler = WSampler(geo)
        rng = np.random.default_rng(3)
        s, t, x, _ = sampler.sample(rng, 2000)
        v, _ = w_integrand_batch(geo, s, t, x)
        assert np.max(np.abs(v)) < 1e-7


class TestSymmetries:
    @pytest.mark.parametrize("name", ["theta", "d2", "a1", "a3"])
    def test_central_symmetry_sign(self, name):
        assert symmetry_check_central(name, points=60, seed=1)

    def test_central_symmetry_catches_a_broken_integrand(self, monkeypatch):
        # an integrand that is not odd under s -> -s fails the check; it
        # would pass if both calls returned one shared array
        kernel = anomaly.w_integrand_batch

        def broken(geo, s, t_params, x_triv):
            values, rejected = kernel(geo, s, t_params, x_triv)
            values *= 1 + s[2]
            return values, rejected

        monkeypatch.setattr(anomaly, "w_integrand_batch", broken)
        assert not symmetry_check_central("a1", points=60, seed=1)

    @pytest.mark.parametrize("name", ["theta", "a1"])
    def test_s1_even(self, name):
        assert symmetry_check_s1_even(name, samples=4 * 10 ** 4, seed=2,
                                      points=60)

    def test_degree2_vanishing(self):
        est = f_gamma("d2", samples=10 ** 5, seed=4)
        assert abs(est.value) <= max(3 * est.stderr, 1e-9)

    def test_a1_equals_a3(self):
        a1 = f_gamma("a1", samples=3 * 10 ** 5, seed=5)
        a3 = f_gamma("a3", samples=3 * 10 ** 5, seed=6)
        err = 3 * np.hypot(a1.stderr, a3.stderr)
        assert abs(a1.value - a3.value) <= err
        assert abs(a1.value) > 5 * a1.stderr  # the integrals themselves are
        # nonzero; only the difference cancels


class TestAlpha:
    def test_degree1(self):
        series, ests = anomaly_alpha(1, samples=10 ** 4, seed=0)
        coeffs = list(series[1].terms.values())
        assert coeffs == [pytest.approx(0.5, abs=1e-12)]

    def test_degree2_zero(self):
        series, ests = anomaly_alpha(2, samples=10 ** 5, seed=0)
        assert all(abs(c) < 1e-9 for c in series[2].terms.values())

    def test_degree3_vanishes(self):
        # [a2] = 0 and [a3] = -[a1] exactly; the wheel integrand vanishes
        # pointwise; so alpha_3 is (f_a1 - f_a3)/2 times one class
        series, ests = anomaly_alpha(3, samples=3 * 10 ** 5, seed=0)
        err = np.hypot(ests["a1"].stderr, ests["a3"].stderr)
        assert all(abs(c) <= 3 * err for c in series[3].terms.values())

    def test_triangle_classes_not_sampled(self, monkeypatch):
        integrated = []
        oracle = anomaly.f_gamma

        def spy(od, **kwargs):
            integrated.append(od.diagram)
            return oracle(od, **kwargs)

        monkeypatch.setattr(anomaly, "f_gamma", spy)
        samples, seed = 2 * 10 ** 4, 0
        series, ests = anomaly_alpha(3, samples=samples, seed=seed)
        assert integrated
        assert not any(has_trivalent_triangle(d) for d in integrated)
        # α₃ with the wheel sampled as before (its seed offset is 3)
        wheel = line_diagram_catalog("w3")
        f_w3 = oracle(wheel, samples=samples, seed=seed + 101 * 3 + 3)
        key, sign = canonical_oriented(wheel)
        term = ClassVector(R1, 3, {key: sign * f_w3.value
                                   / (2 * automorphism_count(wheel.diagram))})
        sampled = series[3] + reduction(R1, 3).reduce(term)
        err = np.sqrt(sum(ests[g].stderr ** 2 for g in ("a1", "a3"))
                      + f_w3.stderr ** 2)
        for k in set(series[3].terms) | set(sampled.terms):
            assert abs(series[3].terms.get(k, 0.0)
                       - sampled.terms.get(k, 0.0)) <= 3 * err

    def test_only_live_classes_sampled(self, monkeypatch):
        # d2 vanishes pointwise (its edge directions lie on one great
        # circle), a2's class is 0 in A_3(R¹) and w3 has a triangle
        integrated = []
        oracle = anomaly.f_gamma

        def spy(od, **kwargs):
            integrated.append(od.diagram)
            return oracle(od, **kwargs)

        monkeypatch.setattr(anomaly, "f_gamma", spy)
        series, ests = anomaly_alpha(3, samples=2000, seed=0)
        live = ("theta", "a1", "a3")
        assert integrated == [line_diagram_catalog(g).diagram for g in live]
        assert list(ests) == list(live)
        assert series[2].is_zero()


class TestDisc:
    def test_round_circle_half(self):
        d = disc_integral(catalog("unknot-round"))
        assert d.value == pytest.approx(0.5, abs=1e-9)
        assert d.stderr < 1e-9
        assert d.diagnostics["grid"] == anomaly.DISC_SAMPLES == 20000

    def test_one_tangent_indicatrix(self):
        # the grid's tangents once, the half grid read from them, and the
        # default base point's own samples
        curve = CountingCurve(catalog("trefoil").components)
        disc_integral(curve)
        assert curve.points == (anomaly.DISC_SAMPLES
                                + anomaly.BASE_POINT_SAMPLES)

    def test_base_point_changes_by_integer(self):
        c = catalog("unknot-round")
        a = disc_integral(c, base_point=(0, 0, 1))
        b = disc_integral(c, base_point=(0, 0, -1))
        assert (a.value - b.value) == pytest.approx(round(a.value - b.value),
                                                    abs=1e-9)

    def test_antipode_proximity_rejected(self):
        with pytest.raises(EmbeddingError):
            disc_integral(catalog("unknot-round"), base_point=(1, 0, 0))

    def test_framing_integers(self):
        rows = framing_report(catalog("hopf-link"))
        for row in rows:
            assert row["residual"] < 1e-6  # planar circles are exact

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_framing_integers_to_quadrature_accuracy(self, name):
        for row in framing_report(catalog(name)):
            assert row["residual"] <= 1e-5


class TestRegionPredicates:
    def test_forward_a1(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = np.sort(rng.uniform(0, 1, 4))
            s = rng.normal(size=3)
            s /= np.linalg.norm(s)
            pts = [zz * s for zz in z]
            res = degree3_region_predicates(
                psi_image_a1(pts, rng.normal(size=3), rng.normal(size=3)))
            assert res["square"] and res["region"] == "A1"

    def test_forward_a3(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            z = np.sort(rng.uniform(0, 1, 4))
            s = rng.normal(size=3)
            s /= np.linalg.norm(s)
            pts = [zz * s for zz in z]
            res = degree3_region_predicates(
                psi_image_a3(pts, rng.normal(size=3), rng.normal(size=3)))
            assert res["square"] and res["region"] == "A3"

    def test_substitution_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            e = rng.normal(size=(4, 3))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            assert square_substitution_invariant(*e)

    def test_central_symmetry_swaps_components(self):
        rng = np.random.default_rng(8)
        found = 0
        for _ in range(500):
            e = rng.normal(size=(4, 3))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            if not is_square(*e):
                continue
            found += 1
            s1 = np.sign(np.linalg.det(e[:3]))
            em = -e
            assert is_square(*em)
            s2 = np.sign(np.linalg.det(em[:3]))
            assert s1 != s2
        assert found > 10

    def test_degenerate_input_boundary(self):
        e = np.eye(3)
        assert is_square(e[0], e[0], e[1], e[2]) is None
