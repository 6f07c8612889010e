from itertools import combinations
from math import factorial

import numpy as np
import pytest

from cslinks import anomaly, integrate
from cslinks.anomaly import WGeometry, WSampler, f_gamma, line_diagram_catalog
from cslinks.curves import LinkCurve, catalog
from cslinks.diagrams import (THETA, Diagram, canonical_oriented,
                              enumerate_diagrams, is_subprincipal,
                              std_oriented, tripod, tripod_positive)
from cslinks.errors import DiagramError
from cslinks.integrate import (ConfigurationSampler, DiagramGeometry,
                               chord_quadrature, chord_sign, gauss_kernel,
                               has_trivalent_triangle, integrand_at,
                               integrand_batch, integrate_diagram,
                               sphere_frames, two_chord_quadrature,
                               univalent_jets, z_n)
from cslinks.mc import BATCH, Estimate
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


def parallel_chord():
    return std_oriented(Diagram(circles(1), ((0, 1, 2, 3),), frozenset(),
                                fs((0, 1), (2, 3))))


def reference_integrand(geo, t_univ, x_triv):
    """The integrand assembled from separate curve evaluations: eval for
    the univalent points, deriv for their velocities."""
    x_univ, v_univ = [], []
    for v in geo.univ:
        m = geo.d.component_of(v)
        tv = t_univ[:, geo.univ_index[v]]
        x_univ.append(geo.curve.eval(m, tv))
        v_univ.append(geo.curve.deriv(m, tv) * geo.univ_sign[v])
    return integrand_batch(geo, x_univ, v_univ, x_triv)


def full_jacobian_values(geo, pos, tangents, tol):
    """The integrand from the full 2E x 2E determinant, two frame rows per
    edge and one column per coordinate, with nothing folded: the oracle of
    jacobian_values.  A trivalent coordinate's velocity is its unit axis."""
    count = len(pos[geo.univ[0]])
    E = len(geo.edges)
    lengths = np.empty((count, E))
    edge = []
    for ei, (p, q) in enumerate(geo.edges):
        diff = pos[q] - pos[p]
        r = np.linalg.norm(diff, axis=1)
        lengths[:, ei] = r
        safe = np.maximum(r, 1e-300)[:, None]
        dvec = diff / safe
        edge.append((dvec, *sphere_frames(dvec), safe))
    rejected = np.any(lengths < tol, axis=1)
    M = np.zeros((count, geo.dim, geo.dim))
    for ci, v, ei, sign in geo.entries:
        col = geo.jacobian_columns[ci]
        if col[0] == "t":
            tangent = np.zeros((count, 3))
            tangent[:, col[2]] = 1.0
        else:
            tangent = tangents[ci, v]
        dvec, f1, f2, safe = edge[ei]
        proj = tangent - dvec * np.sum(dvec * tangent, axis=1)[:, None]
        entry = sign * proj / safe
        M[:, 2 * ei, ci] += np.sum(f1 * entry, axis=1)
        M[:, 2 * ei + 1, ci] += np.sum(f2 * entry, axis=1)
    values = geo.sign * np.linalg.det(M) / (4 * np.pi) ** E
    return np.where(rejected, 0.0, values), rejected


def folded_and_full(monkeypatch, module, integrand, *args):
    """(folded values, oracle values, shortest edge) of one integrand call:
    the kernel's own inputs are handed to the oracle as well."""
    seen = []
    kernel = module.jacobian_values

    def spy(geo, pos, tangents, tol):
        seen.append((geo, pos, tangents, tol))
        return kernel(geo, pos, tangents, tol)

    monkeypatch.setattr(module, "jacobian_values", spy)
    values, rejected = integrand(*args)
    (geo, pos, tangents, tol), = seen
    full, full_rejected = full_jacobian_values(geo, pos, tangents, tol)
    assert np.array_equal(rejected, full_rejected)
    shortest = np.min([np.linalg.norm(pos[q] - pos[p], axis=1)
                       for p, q in geo.edges], axis=0)
    return values, full, shortest


def assert_fold_matches(values, full, keep):
    # near collisions the oracle's projection cancels digits, so only
    # configurations with every edge at least 1e-2 of the scale count
    assert np.count_nonzero(keep) > len(keep) // 2
    err = np.max(np.abs(values - full)[keep])
    assert err <= 1e-12 * np.max(np.abs(full[keep]))


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


class TestFold:
    @pytest.mark.parametrize("name", ["trefoil", "figure8", "hopf-link"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_full_determinant(self, monkeypatch, name, n):
        # the folded kernel against the full 2E x 2E assembly on every
        # subprincipal class; triangle classes vanish pointwise and have
        # their own test below
        curve = catalog(name)
        for idx, d in enumerate(enumerate_diagrams(circles(curve.n_components),
                                                   n)):
            if not is_subprincipal(d) or has_trivalent_triangle(d):
                continue
            geo = DiagramGeometry(std_oriented(d), curve)
            rng = np.random.default_rng(idx)
            _, x_univ, v_univ, x, _ = ConfigurationSampler(geo).sample(rng,
                                                                       4096)
            values, full, shortest = folded_and_full(
                monkeypatch, integrate, integrand_batch, geo, x_univ, v_univ,
                x)
            assert_fold_matches(values, full,
                                shortest >= 1e-2 * geo.diameter)

    def test_triangle_class_vanishes_pointwise(self, monkeypatch):
        curve = catalog("trefoil")
        d, = [d for d in enumerate_diagrams(circles(1), 3)
              if is_subprincipal(d) and has_trivalent_triangle(d)]
        geo = DiagramGeometry(std_oriented(d), curve)
        rng = np.random.default_rng(11)
        _, x_univ, v_univ, x, _ = ConfigurationSampler(geo).sample(rng, 4096)
        _, full, _ = folded_and_full(monkeypatch, integrate, integrand_batch,
                                     geo, x_univ, v_univ, x)
        assert np.max(np.abs(full)) < 1e-12

    def test_z_n_skips_triangle_classes(self, monkeypatch):
        integrated = []

        def fake(od, curve, samples, seed, shards, workers):
            integrated.append(od.diagram)
            return Estimate(0.0, 0.0, "monte-carlo", {})

        monkeypatch.setattr(integrate, "integrate_diagram", fake)
        z_n(catalog("trefoil"), 3, samples=100)
        assert integrated
        assert not any(has_trivalent_triangle(d) for d in integrated)

    @pytest.mark.parametrize("od, name", [
        (std_oriented(THETA), "trefoil"), (crossed_chord(), "trefoil"),
        (parallel_chord(), "trefoil"), (hopf_chord(), "hopf-link")])
    def test_chord_diagrams_take_no_determinant(self, monkeypatch, od, name):
        def refuse(matrix):
            raise AssertionError("a chord diagram called det")

        monkeypatch.setattr(np.linalg, "det", refuse)
        geo = DiagramGeometry(od, catalog(name))
        rng = np.random.default_rng(4)
        _, x_univ, v_univ, x, _ = ConfigurationSampler(geo).sample(rng, 256)
        values, _ = integrand_batch(geo, x_univ, v_univ, x)
        assert np.any(values != 0)

    @pytest.mark.parametrize("trivalent, shape", [(1, (3, 3)), (2, (6, 6))])
    def test_reduced_determinant_shape(self, monkeypatch, trivalent, shape):
        d = next(d for d in enumerate_diagrams(circles(1), trivalent + 1)
                 if is_subprincipal(d) and len(d.trivalent) == trivalent)
        shapes = []
        det = np.linalg.det

        def record(matrix):
            shapes.append(matrix.shape)
            return det(matrix)

        monkeypatch.setattr(np.linalg, "det", record)
        geo = DiagramGeometry(std_oriented(d), catalog("trefoil"))
        rng = np.random.default_rng(5)
        _, x_univ, v_univ, x, _ = ConfigurationSampler(geo).sample(rng, 64)
        integrand_batch(geo, x_univ, v_univ, x)
        assert shapes == [(64, *shape)]


class TestSampler:
    def test_single_configuration(self):
        rng = np.random.default_rng(0)
        geo = DiagramGeometry(std_oriented(tripod()), catalog("unknot-round"))
        t_univ, _, _, x_triv, density = ConfigurationSampler(geo).sample(rng, 1)
        assert geo.univ == [0, 1, 2] and geo.triv == [3]
        assert t_univ.shape == (1, 3) and x_triv.shape == (1, 1, 3)
        assert density[0] > 0

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


def reversed_hopf():
    c = catalog("hopf-link")
    const, cos, sin = c.components[1]
    return LinkCurve([c.components[0], (const, cos, -np.asarray(sin))])


CHORD_CASES = [(std_oriented(THETA), catalog(name), name)
               for name in ("trefoil", "trefoil-alt", "figure8",
                            "unknot-planar-perturbed", "trefoil-framed")] + [
    (hopf_chord(), catalog("hopf-link"), "hopf-link"),
    (hopf_chord(), reversed_hopf(), "reversed-hopf"),
    (hopf_chord(), catalog("unlink-2"), "unlink-2")]


class TestChordQuadrature:
    @pytest.mark.parametrize("od, curve, name", CHORD_CASES,
                             ids=[c[2] for c in CHORD_CASES])
    def test_matches_monte_carlo(self, od, curve, name):
        est = chord_quadrature(od, curve)
        mc = integrate_diagram(od, curve, samples=10 ** 6, seed=1)
        assert abs(est.value - mc.value) <= 3 * mc.stderr

    @pytest.mark.parametrize("od, curve, name", CHORD_CASES,
                             ids=[c[2] for c in CHORD_CASES])
    def test_error_estimate_covers_finest_grid(self, od, curve, name,
                                               monkeypatch):
        est = chord_quadrature(od, curve)
        assert est.diagnostics["grid"] >= integrate.QUADRATURE_GRID
        assert est.stderr <= integrate.QUADRATURE_TOL
        monkeypatch.setattr(integrate, "QUADRATURE_TOL", 0.0)
        finest = chord_quadrature(od, curve)
        assert est.stderr >= abs(est.value - finest.value)

    @pytest.mark.parametrize("od, name", [(std_oriented(THETA), "trefoil"),
                                          (hopf_chord(), "hopf-link")])
    def test_grid_values_are_gauss_kernel(self, od, name):
        # pins the chord sign: on grid pairs, the kernel is the classical
        # Gauss linking density
        curve = catalog(name)
        geo = DiagramGeometry(od, curve)
        t = np.arange(64) * (2 * np.pi / 64)
        s_idx, t_idx = np.nonzero(~np.eye(64, dtype=bool))
        pairs = np.stack([t[s_idx], t[t_idx]], axis=1)
        values, rejected = integrand_batch(
            geo, *univalent_jets(geo, pairs), np.empty((len(pairs), 0, 3)))
        a, b = (geo.d.component_of(v) for v in geo.univ)
        gauss = gauss_kernel(curve, (a, pairs[:, 0]), (b, pairs[:, 1]))
        assert not np.any(rejected)
        assert np.max(np.abs(values - gauss)) <= 1e-12 * np.max(np.abs(gauss))

    @pytest.mark.parametrize("od, name, pairs", [
        (std_oriented(THETA), "trefoil-framed", lambda n: n * (n - 1) // 2),
        (hopf_chord(), "hopf-link", lambda n: n * n)])
    def test_nested_grids_evaluate_each_pair_once(self, monkeypatch, od,
                                                  name, pairs):
        # one jet per grid point, and each pair of the final grid (i < j
        # for the symmetric one-component integrand) is evaluated once,
        # in blocks of at most one Monte Carlo batch
        blocks = []
        kernel = integrate.integrand_batch

        def spy(geo, x_univ, v_univ, x_triv):
            blocks.append(len(x_univ[0]))
            return kernel(geo, x_univ, v_univ, x_triv)

        monkeypatch.setattr(integrate, "integrand_batch", spy)
        curve = CountingCurve(catalog(name).components)
        curve.diameter()
        diameter_points = curve.points
        curve.points = 0
        est = chord_quadrature(od, curve)
        comps = len({od.diagram.component_of(v) for v in od.diagram.univalent})
        assert curve.points == diameter_points \
            + comps * integrate.QUADRATURE_MAX_GRID
        assert sum(blocks) == pairs(est.diagnostics["grid"])
        assert max(blocks) <= BATCH

    def test_one_chord_only(self):
        with pytest.raises(DiagramError):
            chord_quadrature(crossed_chord(), catalog("trefoil"))

    def test_report_fields(self):
        d = chord_quadrature(hopf_chord(), catalog("hopf-link")).as_dict()
        assert list(d) == ["method", "value", "stderr", "grid"]
        assert d["method"] == "quadrature"
        assert d["value"] == pytest.approx(1.0, abs=1e-12)
        assert d["grid"] == integrate.QUADRATURE_GRID
        mc = integrate_diagram(hopf_chord(), catalog("hopf-link"),
                               samples=64, shards=2)
        assert mc.as_dict()["method"] == "monte-carlo"
        assert list(mc.as_dict())[:3] == ["method", "value", "stderr"]


TWO_CHORD_CASES = [
    pytest.param(chords(), name, id=f"{chords.__name__[:-6]}-{name}")
    for name in ("trefoil", "trefoil-alt", "figure8",
                 "unknot-planar-perturbed", "trefoil-framed")
    for chords in (crossed_chord, parallel_chord)]


def circle_and_trefoil():
    """A two-component link: the round unknot and, far from it, the
    trefoil, so the two circles' self-chord integrals differ (0 and the
    trefoil's)."""
    const, cos, sin = catalog("trefoil").components[0]
    return LinkCurve([catalog("unknot-round").components[0],
                      (const + [10.0, 0.0, 0.0], cos, sin)])


def second_component_chords(pairs):
    """Two chords with all four ends on component 1, the vertices placed
    out of label order, so both the component and the slot patterns come
    from the placement."""
    return std_oriented(Diagram(circles(2), ((), (3, 1, 0, 2)), frozenset(),
                                fs(*pairs)))


def curve_named(name):
    return circle_and_trefoil() if name == "circle+trefoil" else catalog(name)


LINK_TWO_CHORD_CASES = [
    pytest.param(second_component_chords(pairs), name,
                 id=f"{kind}-{name}-component-1")
    for kind, pairs in (("crossed", ((3, 0), (1, 2))),
                        ("parallel", ((3, 1), (0, 2))))
    for name in ("circle+trefoil", "hopf-link")]


class TestTwoChordQuadrature:
    @pytest.mark.parametrize("od, sign", [
        (crossed_chord(), 1), (parallel_chord(), 1),
        (crossed_chord().flip_vertex(0), -1),
        (parallel_chord().flip_vertex(3), -1)],
        ids=["crossed", "parallel", "crossed-flipped", "parallel-flipped"])
    def test_integrand_is_product_of_grid_kernels(self, od, sign):
        # on grid quadruples, the integrand is chord_sign times the two
        # chords' entries of the kernel matrix the quadrature sums
        curve = catalog("trefoil")
        n = 64
        upper = integrate._kernel_triangle(curve, 0, n)
        kernel = upper + upper.T
        geo = DiagramGeometry(od, curve)
        rng = np.random.default_rng(5)
        idx = np.array([rng.choice(n, 4, replace=False) for _ in range(2000)])
        values, rejected = integrand_batch(
            geo, *univalent_jets(geo, idx * (2 * np.pi / n)),
            np.empty((len(idx), 0, 3)))
        product = sign * np.prod(
            [kernel[idx[:, geo.univ.index(p)], idx[:, geo.univ.index(q)]]
             for p, q in geo.edges], axis=0)
        assert not np.any(rejected)
        assert chord_sign(geo) == sign
        assert np.max(np.abs(values - product)) \
            <= 1e-12 * np.max(np.abs(product))

    def test_pair_sums_match_direct_sums(self):
        rng = np.random.default_rng(6)
        n = 13
        upper = np.triu(rng.normal(size=(n, n)), 1)
        g = upper + upper.T
        direct = {1: 0.0, 2: 0.0, 3: 0.0}
        for a, b, c, d in combinations(range(n), 4):
            direct[1] += g[a, b] * g[c, d]
            direct[2] += g[a, c] * g[b, d]
            direct[3] += g[a, d] * g[b, c]
        sums = integrate._ordered_pair_sums(upper)
        assert sums == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("od, name",
                             TWO_CHORD_CASES + LINK_TWO_CHORD_CASES)
    def test_matches_monte_carlo(self, od, name):
        curve = curve_named(name)
        est = two_chord_quadrature(od, curve)
        mc = integrate_diagram(od, curve, samples=10 ** 6, seed=1)
        assert abs(est.value - mc.value) <= 3 * mc.stderr

    @pytest.mark.parametrize("od, name", TWO_CHORD_CASES)
    def test_error_estimate_covers_finer_grid(self, od, name, monkeypatch):
        curve = catalog(name)
        est = two_chord_quadrature(od, curve)
        monkeypatch.setattr(integrate, "TWO_CHORD_GRID", 2048)
        finer = two_chord_quadrature(od, curve)
        assert (est.diagnostics["grid"], finer.diagnostics["grid"]) \
            == (512, 2048)
        assert est.stderr >= abs(est.value - finer.value)

    def test_planar_circle_exactly_zero(self):
        for od in (crossed_chord(), parallel_chord()):
            est = two_chord_quadrature(od, catalog("unknot-round"))
            assert est.value == 0.0 and est.stderr == 0.0

    @pytest.mark.parametrize("od, name", [
        (std_oriented(tripod()), "trefoil"),
        (std_oriented(THETA), "trefoil"),
        (std_oriented(Diagram(circles(2), ((0, 1), (2, 3)), frozenset(),
                              fs((0, 2), (1, 3)))), "hopf-link")],
        ids=["tripod", "one-chord", "two-components"])
    def test_two_chords_on_one_circle_only(self, od, name):
        with pytest.raises(DiagramError):
            two_chord_quadrature(od, catalog(name))

    @pytest.mark.parametrize("name, kinds", [
        ("trefoil", {(True, True), (False, False)}),
        ("hopf-link", {(True, True), (True, False), (False, False)})])
    def test_z_n_methods(self, name, kinds):
        # kind: (only chords, all ends on one circle); one-circle two-chord
        # classes by quadrature, the tripod and the two-chord classes that
        # span two components by Monte Carlo
        curve = catalog(name)
        _, _, ests = z_n(curve, 2, samples=2000)
        seen = set()
        for d in enumerate_diagrams(circles(curve.n_components), 2):
            key, _ = canonical_oriented(std_oriented(d))
            if key in ests:
                kind = (not d.trivalent, max(map(len, d.placements)) == 4)
                assert ests[key].method == ("quadrature" if all(kind)
                                            else "monte-carlo")
                seen.add(kind)
        assert seen == kinds


class TestTracePatchPoints:
    # the benchmark's tracer wraps these functions by replacing them on the
    # modules that hold them, so the integrals must look each one up there
    # at call time
    @pytest.mark.parametrize("module, integrand, integral", [
        (integrate, "integrand_batch",
         lambda: integrate_diagram(std_oriented(THETA),
                                   catalog("unknot-round"), samples=64,
                                   shards=2)),
        (anomaly, "w_integrand_batch",
         lambda: f_gamma("theta", samples=64, shards=2))],
        ids=["integrate_diagram", "f_gamma"])
    def test_looked_up_through_own_module(self, monkeypatch, module,
                                          integrand, integral):
        calls = {}

        def spy(name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return counted

        for name in (integrand, "run_sharded"):
            monkeypatch.setattr(module, name, spy(name))
        integral()
        assert calls == {"run_sharded": 1, integrand: 2}
