from math import factorial

import numpy as np
import pytest
from test_integrate import (CountingCurve, UnitRng, assert_fold_matches,
                            assert_weighted_histogram, chart_frame,
                            half_cauchy, jacobian_density, leg_preimages,
                            preimage_blocks, rotations_to_pole,
                            samples_first, trivalent_preimages, w_oracle,
                            w_oracle_inputs)

from cslinks import anomaly
from cslinks.algebra import ClassVector, reduction
from cslinks.anomaly import (LINE_CATALOG, WGeometry, WSampler,
                             anomaly_alpha, degree3_region_predicates,
                             disc_integral, f_gamma, framing_report,
                             is_square, line_diagram_catalog, psi_image_a1,
                             psi_image_a3,
                             square_substitution_invariant,
                             vanishes_on_w, w_config_positions,
                             w_integrand_batch)
from cslinks.curves import CATALOG_NAMES, catalog
from cslinks.diagrams import (Diagram, OrientedDiagram, automorphism_count,
                              canonical_oriented, degree)
from cslinks.errors import EmbeddingError
from cslinks.integrate import has_trivalent_triangle, sphere_chart
from cslinks.mc import run_sharded
from cslinks.support import R1

# the arguments by which vanishes_on_w finds an integrand 0 at every point
VANISHING = {"d2": "trivalent vertex on three legs",
             "w3": "trivalent triangle"}


def pole_samples(name, count, seed):
    """(geo, t, x, density) of count samples of the W sampler, copied and
    samples first: (count, legs), (count, trivalent, 3) and (count,)."""
    geo = WGeometry(line_diagram_catalog(name))
    drawn = WSampler(geo).sample(np.random.default_rng(seed), count)
    return (geo, *(samples_first(a).copy() for a in drawn))


def sampled_f(od, samples, seed, shards=None, workers=None):
    """f_γ by Monte Carlo for any line diagram: WSampler's weights through
    run_sharded, the path f_gamma takes for every diagram to which
    vanishes_on_w gives no argument."""
    geo = WGeometry(od)
    sampler = WSampler(geo)

    def batch(rng, count):
        t_params, x_triv, density = sampler.sample(rng, count)
        values, rejected = w_integrand_batch(geo, t_params, x_triv)
        return np.divide(values, density, out=values), int(np.sum(rejected))

    return run_sharded(batch, samples, seed, shards, workers)


def term_bounds(name, count, seed):
    """(values, bounds) at count samples of the W sampler: the integrand,
    and the product over the edges of 1/(4 pi |e|^2).  Each entry of an
    edge's 2-form is D_c/(4 pi r^3) times at most two leg parameters in
    [0, 1], with |D_c| <= r, so the bound holds for every term of the
    wedge."""
    geo = WGeometry(line_diagram_catalog(name))
    t, x, _ = WSampler(geo).sample(np.random.default_rng(seed), count)
    values, _ = w_integrand_batch(geo, t, x)
    pos = w_config_positions(geo, t, x)
    bounds = np.ones(count)
    for p, q in geo.edges:
        bounds /= 4 * np.pi * np.sum((pos[q] - pos[p]) ** 2, axis=0)
    return values, bounds


def pole_values(geo, t, x):
    """w_integrand_batch at samples-first leg parameters and points."""
    return w_integrand_batch(geo, t.T.copy(), np.moveaxis(x, 0, -1).copy())


def random_axes(rng, count):
    s = rng.normal(size=(count, 3))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def reverse_line_diagram(od: OrientedDiagram) -> OrientedDiagram:
    """The reversed line diagram: the total order of the legs flipped."""
    d = od.diagram
    nd = Diagram(R1, (tuple(reversed(d.placements[0])),), d.trivalent, d.edges)
    return OrientedDiagram(nd, od.triv_orient, od.univ_orient)


def symmetry_check_s1_even(gamma, samples=10 ** 5, seed=0, points=100):
    """The anomaly integral is unchanged by reversing the line's order.

    Pointwise part: a slice configuration over the axis s maps to one of
    the reversed diagram over the antipodal axis by the affine
    reparametrisation t -> 1 - t (vertices keep their positions up to the
    gauge translation), and the edge directions agree exactly; s runs over
    random axes.  Numeric part: the two estimates agree within three
    combined errors.
    """
    od = line_diagram_catalog(gamma)
    rev = reverse_line_diagram(od)
    geo, t, x, _ = pole_samples(gamma, points, seed)
    geo_r = WGeometry(rev)
    s = random_axes(np.random.default_rng(seed), points)
    pos, _ = w_oracle_inputs(geo, s, t, x)
    # transported configuration: s' = -s, params 1 - t, points shifted by -s;
    # the reversed diagram lists its legs backwards, so row j holds what
    # was the (u-1-j)-th leg
    pos2, _ = w_oracle_inputs(geo_r, -s, 1.0 - t[:, ::-1], x - s[:, None])
    for e in od.diagram.edges:
        p, q = tuple(sorted(e))
        d1 = pos[q] - pos[p]
        d2 = pos2[q] - pos2[p]
        if not np.allclose(d1 / np.linalg.norm(d1, axis=1, keepdims=True),
                           d2 / np.linalg.norm(d2, axis=1, keepdims=True),
                           atol=1e-9):
            return False
    fa = f_gamma(od, samples=samples, seed=seed)
    fb = f_gamma(rev, samples=samples, seed=seed + 1)
    err = 3 * np.hypot(fa.stderr, fb.stderr) + 1e-12
    return abs(fa.value - fb.value) <= err


def symmetry_check_central(gamma, points=100, seed=0, integrand=w_oracle):
    """Central symmetry sends slice configurations over s to configurations
    over -s with every edge direction antipodal and a sign (-1)^degree;
    verified pointwise on the integrand at any axis (w_oracle), at random
    axes s and the pole configurations rotated from e_z to s (with the
    edge-reversal factor the machinery absorbs).  This is what kills the
    even-degree anomaly."""
    geo, t, y, _ = pole_samples(gamma, points, seed)
    n = degree(geo.od.diagram)
    s = random_axes(np.random.default_rng(seed), points)
    x = np.einsum("nji,ntj->nti", rotations_to_pole(s), y)
    v1, rej1 = integrand(geo, s, t, x)
    # central symmetry: positions negate; with the axis -s the slice
    # parameters are unchanged; trivalent points negate
    v2, rej2 = integrand(geo, -s, t, -x)
    keep = ~(rej1 | rej2)
    # reversing every edge changes neither class nor integral; the direction
    # tuple is antipodal edge-reversed, and the densities compare by (-1)^n
    # together with the reversal factor (-1)^{#E} absorbed in the machinery
    lhs = v2[keep]
    rhs = v1[keep] * (-1) ** n * (-1) ** len(geo.edges)
    return bool(np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12))


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
    def test_matches_full_determinant(self, name):
        # the wedge kernel at the pole against the full assembly at
        # s = e_z, where the chart frame is (e_y, -e_x); d2 and the wheel
        # vanish pointwise (TestVanishingIntegrands)
        geo, t, x, _ = pole_samples(name, 4096, 12)
        values, rejected = pole_values(geo, t, x)
        pole = np.tile([0.0, 0.0, 1.0], (4096, 1))
        full, full_rejected = w_oracle(geo, pole, t, x)
        assert np.array_equal(rejected, full_rejected)
        assert_fold_matches(values, full, shortest_edges(geo, pole, t, x)
                            >= 1e-2)

    @pytest.mark.parametrize("name", ["theta", "a1", "a2", "a3"])
    def test_rotation_equivariance(self, name):
        # the pole integrand at the configurations R x, R taking s to e_z,
        # equals the integrand at any axis at (s, x), for random axes s and
        # both poles (100 samples each)
        geo, t, y, _ = pole_samples(name, 4096, 13)
        values, _ = pole_values(geo, t, y)
        s = random_axes(np.random.default_rng(14), 4096)
        s[:100], s[100:200] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        x = np.einsum("nji,ntj->nti", rotations_to_pole(s), y)
        full, _ = w_oracle(geo, s, t, x)
        keep = shortest_edges(geo, s, t, x) >= 1e-2
        assert keep[:100].any() and keep[100:200].any()
        assert_fold_matches(values, full, keep)

    def test_rotations_take_the_axis_to_the_pole(self):
        s = random_axes(np.random.default_rng(15), 1000)
        s[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        R = rotations_to_pole(s)
        assert np.allclose(np.einsum("nij,nj->ni", R, s), [0.0, 0.0, 1.0],
                           rtol=0, atol=1e-14)
        assert np.allclose(R @ np.transpose(R, (0, 2, 1)), np.eye(3),
                           rtol=0, atol=1e-14)
        assert np.allclose(np.linalg.det(R), 1.0, rtol=0, atol=1e-14)


def shortest_edges(geo, s, t, x):
    pos, _ = w_oracle_inputs(geo, s, t, x)
    return np.min([np.linalg.norm(pos[q] - pos[p], axis=1)
                   for p, q in geo.edges], axis=0)


class TestSampler:
    def test_density_is_the_maps_jacobian(self):
        # a1's density at 300 configurations against the sum, over the
        # blocks u that the sampler maps to each, of 1/|det| of the map's
        # Jacobian in (interior legs, trivalent points), over 4 pi: both
        # orders of the interior rows, and per trivalent vertex every
        # anchor with weight 1/K
        geo = WGeometry(line_diagram_catalog("a1"))
        sampler = WSampler(geo)
        legs = len(geo.univ)
        assert sampler.dim == legs - 2 + 4 * len(geo.triv)
        u = 0.02 + 0.96 * np.random.default_rng(43).random((sampler.dim, 300))

        def coords(u):
            t, x = (samples_first(a) for a in
                    sampler.sample(UnitRng(u), u.shape[1])[:2])
            return np.hstack([t[:, 1:-1], x.reshape(len(t), -1)])

        t, x, density = (a.copy() for a in sampler.sample(UnitRng(u), 300))
        pos = {v: samples_first(p).copy()
               for v, p in w_config_positions(geo, t, x).items()}
        t = samples_first(t)
        assert np.array_equal(t[:, [0, -1]], np.tile([0.0, 1.0], (300, 1)))
        interior = [(j - 1, t[:, j]) for j in range(1, legs - 1)]
        options = [leg_preimages({}, interior)]
        options += trivalent_preimages(geo, pos, legs - 2, 1.0)
        preimages = list(preimage_blocks(u.shape, options))
        assert len(preimages) == 2 * 2 * 3    # interior orders x anchors
        for _, v in preimages:
            assert np.allclose(coords(v), coords(u), rtol=0, atol=1e-9)
        rows = [r for r in range(sampler.dim)
                if r < legs - 2 or (r - legs + 2) % 4]
        want = jacobian_density(coords, preimages, rows)
        # the density keeps the uniform axis's 1/(4 pi), which is not drawn
        assert np.allclose(density, want / (4 * np.pi), rtol=1e-6, atol=0)

    def test_leg_histogram_matches_density(self):
        # weighted by pi / density, for pi the uniform interior legs (with
        # the axis's 1/(4 pi)) times the half-Cauchy about each vertex's
        # first anchor, the first interior leg has pi's marginal 2 (1 - t)
        # on [0, 1]: ten bins of mass (1 - a)^2 - (1 - b)^2.  The weights
        # are at most the product of the anchor counts.
        geo = WGeometry(line_diagram_catalog("a1"))
        sampler = WSampler(geo)
        t, x, density = sampler.sample(np.random.default_rng(44), 10 ** 5)
        pos = {v: samples_first(p)
               for v, p in w_config_positions(geo, t, x).items()}
        weights = factorial(len(geo.univ) - 2) / (4 * np.pi) / density
        for v, anchors in geo.placement_order:
            weights *= half_cauchy(
                np.linalg.norm(pos[v] - pos[anchors[0]], axis=1), 1.0)
        edges = np.linspace(0, 1, 11)
        assert_weighted_histogram(t[1], weights, edges,
                                  (1 - edges[:-1]) ** 2 - (1 - edges[1:]) ** 2)

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
        # the oracle's frame: f1 x f2 = s with no pole branch, at
        # sphere_chart points and the two poles, and (e_y, -e_x) at e_z
        z, phi = np.random.default_rng(45).random((2, 4096))
        s = samples_first(sphere_chart(z, phi, np.empty((3, 4096)))).copy()
        s[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        f1, f2 = chart_frame(s)
        frame = np.stack([f1, f2, s], axis=1)
        gram = np.einsum("nij,nkj->nik", frame, frame)
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-15
        assert np.max(np.abs(np.cross(f1, f2) - s)) <= 1e-15
        assert np.array_equal(f1[0], [0.0, 1.0, 0.0])
        assert np.array_equal(f2[0], [-1.0, 0.0, 0.0])


class TestVanishingIntegrands:
    @pytest.mark.parametrize("name", ["d2", "w3"])
    def test_pointwise_zero(self, name):
        # the sphere directions of these diagrams are constrained to lower
        # dimensional varieties, so the density vanishes identically
        geo = WGeometry(line_diagram_catalog(name))
        sampler = WSampler(geo)
        rng = np.random.default_rng(3)
        t, x, _ = sampler.sample(rng, 2000)
        v, _ = w_integrand_batch(geo, t, x)
        assert np.max(np.abs(v)) < 1e-7

    def test_values_at_rounding_of_their_terms(self):
        # the numeric evidence for f_gamma's exact zero, at 10^5 proposal
        # samples each: every value of d2 and w3 lies within 64 rounding
        # units of the bound on its wedge's terms, while a live integral of
        # the same sampler, a1, has its median value above 10^-6 of it
        eps = np.finfo(float).eps
        for name in VANISHING:
            values, bounds = term_bounds(name, 10 ** 5, 17)
            assert np.all(np.abs(values) <= 64 * eps * bounds)
        values, bounds = term_bounds("a1", 10 ** 5, 17)
        assert np.all(np.abs(values) <= bounds)
        assert np.median(np.abs(values) / bounds) > 1e-6


class TestExactZero:
    def test_vanishing_arguments(self):
        # over the catalog, exactly d2 and w3 vanish pointwise, each by its
        # own argument
        found = {name: vanishes_on_w(line_diagram_catalog(name).diagram)
                 for name in LINE_CATALOG}
        assert found == {name: VANISHING.get(name) for name in LINE_CATALOG}

    @pytest.mark.parametrize("name", sorted(VANISHING))
    def test_no_samples_drawn(self, monkeypatch, name):
        def refused(*args, **kwargs):
            raise AssertionError("a vanishing integral was sampled")

        monkeypatch.setattr(anomaly.WSampler, "sample", refused)
        monkeypatch.setattr(anomaly, "run_sharded", refused)
        est = f_gamma(name, samples=10 ** 5, seed=4)
        assert (est.value, est.stderr, est.method) == (0.0, 0.0, "exact")
        assert est.diagnostics == {"argument": VANISHING[name]}
        assert est.shard_means == ()

    @pytest.mark.parametrize("name", sorted(VANISHING))
    @pytest.mark.parametrize("kwargs", [
        {"samples": 0}, {"shards": 1}, {"workers": 0},
        {"samples": 3, "shards": 4}, {"samples": 15}, {"seed": -1},
        {"seed": 1 << 64}], ids=["samples-0", "shards-1", "workers-0",
                                 "shards-above-samples", "samples-15",
                                 "seed-negative", "seed-2**64"])
    def test_bad_counts_still_refused(self, name, kwargs):
        with pytest.raises(ValueError):
            f_gamma(name, **{"samples": 1000, **kwargs})

    @pytest.mark.parametrize("name", ["theta", "a1", "a2", "a3"])
    def test_live_classes_sampled_as_before(self, name):
        # every other catalog diagram keeps its Monte Carlo bit for bit
        est = f_gamma(name, samples=4000, seed=9, shards=4)
        want = sampled_f(line_diagram_catalog(name), 4000, 9, shards=4)
        assert est.method == "monte-carlo"
        assert (est.value, est.stderr, est.shard_means, est.diagnostics) \
            == (want.value, want.stderr, want.shard_means, want.diagnostics)


class TestSymmetries:
    @pytest.mark.parametrize("name", ["theta", "d2", "a1", "a3"])
    def test_central_symmetry_sign(self, name):
        assert symmetry_check_central(name, points=60, seed=1)

    def test_central_symmetry_catches_a_broken_integrand(self):
        # an integrand that is not odd under s -> -s fails the check
        def broken(geo, s, t, x):
            values, rejected = w_oracle(geo, s, t, x)
            return values * (1 + s[:, 2]), rejected

        assert not symmetry_check_central("a1", points=60, seed=1,
                                          integrand=broken)

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
        f_w3 = sampled_f(wheel, samples=samples, seed=seed + 101 * 3 + 3)
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
