import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

import numpy as np
import pytest

from cslinks import anomaly, integrate
from cslinks.algebra import ClassVector, reduction
from cslinks.anomaly import WGeometry, WSampler, f_gamma, line_diagram_catalog
from cslinks.curves import LinkCurve, catalog
from cslinks.diagrams import (THETA, Diagram, automorphism_count,
                              canonical_oriented, enumerate_diagrams,
                              is_subprincipal, std_oriented, tripod,
                              tripod_positive)
from cslinks.errors import DiagramError
from cslinks.integrate import (ConfigurationSampler, DiagramGeometry,
                               chord_quadrature, chord_sign, gauss_kernel,
                               has_trivalent_triangle, integrand_at,
                               integrand_batch, integrate_diagram,
                               sort_rows, two_chord_quadrature,
                               univalent_jets, z_n)
from cslinks.mc import BATCH, Estimate
from cslinks.support import circles


def fs(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def samples_first(a):
    """A sampler's or the kernel's rows, (..., count), as a (count, ...)
    view: the layout of the tests' oracles."""
    return np.moveaxis(a, -1, 0)


def gaussian_bump_integral(sampler, seed=2):
    """Importance estimate of the integral of a Gaussian bump in every
    trivalent point over the sampler's configuration space."""
    rng = np.random.default_rng(seed)
    total = 0.0
    n = 0
    center = np.array([0.5, -0.3, 0.4])
    for _ in range(10):
        *_, x, density = sampler.sample(rng, 10 ** 5)
        x = samples_first(x)
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
    for i, v in enumerate(geo.univ):
        m = geo.d.component_of(v)
        tv = t_univ[i]
        x_univ.append(geo.curve.eval(m, tv).T)
        v_univ.append(geo.curve.deriv(m, tv).T * geo.univ_sign[v])
    return integrand_batch(geo, x_univ, v_univ, x_triv)


class UnitRng:
    """A stand-in for a numpy Generator whose random(out) returns the block
    u: a sampler run on it is its map of u."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u
        return out


def trivalent_preimages(geo, pos, row, scale):
    """Per trivalent vertex in placement order, the (weight, {row: values})
    that propose_trivalent maps to its position pos[v], one per anchor:
    the anchor's row at the middle of its 1/K range (weight 1/K) and the
    inverse chart of the radius and direction about it."""
    options = []
    for v, anchors in geo.placement_order:
        choices = []
        for a, c in enumerate(anchors):
            delta = pos[v] - pos[c]
            rho = np.linalg.norm(delta, axis=1)
            omega = delta / rho[:, None]
            choices.append((1 / len(anchors), {
                row: np.full(len(rho), (a + 0.5) / len(anchors)),
                row + 1: np.arctan(rho / scale) / (np.pi / 2),
                row + 2: (omega[:, 2] + 1) / 2,
                row + 3: np.arctan2(omega[:, 1], omega[:, 0])
                / (2 * np.pi) % 1}))
        options.append(choices)
        row += 4
    return options


def leg_preimages(fixed, sorted_rows):
    """(1, {row: values}) for every order of the sorted rows, which the
    sampler sorts back, each with the fixed {row: values}; sorted_rows
    lists (row, values)."""
    rows = [r for r, _ in sorted_rows]
    return [(1.0, {**fixed, **dict(zip(rows, order))})
            for order in permutations([values for _, values in sorted_rows])]


def preimage_blocks(shape, options):
    """(weight, u) of the given shape for every choice of one option per
    group."""
    for choice in product(*options):
        u = np.empty(shape)
        for _, rows in choice:
            for r, values in rows.items():
                u[r] = values
        yield prod(w for w, _ in choice), u


def jacobian_density(coords, preimages, rows, angles=(), h=1e-7):
    """The density of coords(u) for uniform u at a batch of configurations:
    the sum of weight / |det J| over their preimages (weight, u), J the
    Jacobian of coords in the given rows of u by central differences.
    Differences in the angles columns are taken modulo 2 pi."""
    total = 0.0
    for weight, u in preimages:
        columns = []
        for r in rows:
            up, down = u.copy(), u.copy()
            up[r] += h
            down[r] -= h
            diff = coords(up) - coords(down)
            for a in angles:
                diff[:, a] = (diff[:, a] + np.pi) % (2 * np.pi) - np.pi
            columns.append(diff / (2 * h))
        total = total + weight / np.abs(
            np.linalg.det(np.stack(columns, axis=2)))
    return total


def half_cauchy(rho, scale):
    """propose_trivalent's density about one anchor at distance rho."""
    return scale / (2 * np.pi ** 2 * rho ** 2 * (scale ** 2 + rho ** 2))


def assert_weighted_histogram(values, weights, edges, mass):
    """The weights' sums over the bins of values, per sample, match the
    expected masses within four standard errors."""
    which = np.digitize(values, edges) - 1
    for b, m in enumerate(mass):
        w = np.where(which == b, weights, 0.0)
        assert abs(np.mean(w) - m) <= 4 * np.std(w) / np.sqrt(len(w)), b


def hopf_tripod():
    """A tripod with two legs on the first circle and one on the second."""
    return std_oriented(Diagram(circles(2), ((0, 1), (2,)), frozenset({3}),
                                fs((0, 3), (1, 3), (2, 3))))


def full_jacobian_values(geo, pos, tangents, tol):
    """The integrand from the full 2E x 2E determinant of frame_rows: the
    oracle of jacobian_values."""
    M, lengths = frame_rows(geo, pos, tangents)
    rejected = np.any(lengths < tol, axis=1)
    values = geo.sign * np.linalg.det(M) / (4 * np.pi) ** len(geo.edges)
    return np.where(rejected, 0.0, values), rejected


def sphere_frames(d):
    """Oriented frames f1, f2 with f1 x f2 = d at the unit vectors d:
    Gram-Schmidt against the z-axis, against the x-axis near the poles."""
    near_pole = np.abs(d[..., 2]) > 0.99
    a = np.where(near_pole[..., None], (1., 0., 0.), (0., 0., 1.))
    f1 = np.cross(a, d)
    f1 /= np.sqrt(np.einsum("...i,...i->...", f1, f1))[..., None]
    return f1, np.cross(d, f1)


def frame_rows(geo, pos, tangents):
    """The full Jacobian, two frame rows per edge and one column per
    coordinate, and the (count, E) edge lengths.  A trivalent coordinate's
    velocity is its unit axis."""
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
    return M, lengths


def folded_and_full(monkeypatch, module, integrand, *args):
    """(kernel values, oracle values, shortest edge) of one integrand call:
    the kernel's own inputs are handed to the oracle as well."""
    seen = []
    kernel = module.jacobian_values

    def spy(geo, pos, tangents, tol):
        seen.append((geo, pos, tangents, tol))
        return kernel(geo, pos, tangents, tol)

    monkeypatch.setattr(module, "jacobian_values", spy)
    values, rejected = integrand(*args)
    (geo, pos, tangents, tol), = seen
    pos, tangents = samples_first_dicts(pos, tangents)
    full, full_rejected = full_jacobian_values(geo, pos, tangents, tol)
    assert np.array_equal(rejected, full_rejected)
    shortest = np.min([np.linalg.norm(pos[q] - pos[p], axis=1)
                       for p, q in geo.edges], axis=0)
    return values, full, shortest


def samples_first_dicts(*dicts):
    """The kernel's dicts of (3, count) rows with (count, 3) values."""
    return [{k: samples_first(a) for k, a in d.items()} for d in dicts]


def assert_fold_matches(values, full, keep):
    # near collisions the oracle's projection cancels digits, so only
    # configurations with every edge at least 1e-2 of the scale count
    assert np.count_nonzero(keep) > len(keep) // 2
    err = np.max(np.abs(values - full)[keep])
    assert err <= 1e-12 * np.max(np.abs(full[keep]))


class CountingCurve(LinkCurve):
    """A LinkCurve that counts the parameters it evaluates at."""

    points = 0

    def jet(self, m, t, *buffers):
        self.points += np.size(t)
        return super().jet(m, t, *buffers)


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
            return integrand_batch(geo, *univalent_jets(geo, t.T),
                                   x.transpose(1, 2, 0))[0][0]

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

    def test_sphere_frames_orthonormal(self):
        # both branches: Gram-Schmidt against z, and against x near the poles
        rng = np.random.default_rng(9)
        d = rng.normal(size=(4096, 3)) * [1.0, 1.0, 20.0]
        d /= np.linalg.norm(d, axis=1)[:, None]
        near_pole = np.abs(d[:, 2]) > 0.99
        assert 0 < np.count_nonzero(near_pole) < len(d)
        f1, f2 = sphere_frames(d)
        gram = np.einsum("nij,nkj->nik", np.stack([f1, f2, d], axis=1),
                         np.stack([f1, f2, d], axis=1))
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-15
        assert np.max(np.abs(np.cross(f1, f2) - d)) <= 1e-15


class TestFold:
    @pytest.mark.parametrize("name", ["trefoil", "figure8", "hopf-link"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_full_determinant(self, monkeypatch, name, n):
        # the wedge kernel against the full 2E x 2E assembly on every
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
    def test_chord_diagrams_take_no_determinant(self, od, name):
        # the wedge of chords is a single term: one pair, one transition
        # per chord
        geo = DiagramGeometry(od, catalog(name))
        assert geo.plan.transitions == len(geo.edges)
        assert [len(pairs) for pairs in geo.plan.pairs] == [1] * len(geo.edges)
        rng = np.random.default_rng(4)
        _, x_univ, v_univ, x, _ = ConfigurationSampler(geo).sample(rng, 256)
        values, _ = integrand_batch(geo, x_univ, v_univ, x)
        assert np.any(values != 0)


def plan_geometries(source):
    """The kernel geometries of the W catalog, or of every subprincipal
    class through degree 3 on a catalog curve."""
    if source == "W":
        return [WGeometry(line_diagram_catalog(name))
                for name in anomaly.LINE_CATALOG]
    curve = catalog(source)
    return [DiagramGeometry(std_oriented(d), curve) for n in (1, 2, 3)
            for d in enumerate_diagrams(circles(curve.n_components), n)
            if is_subprincipal(d)]


def edge_matrices(geo, rng, count):
    """Random (count, 2E, 2E) matrices with the Jacobian's structure: edge
    e's rows 2e, 2e + 1 are nonzero only on the columns that move e, and
    the columns of one axis at both trivalent ends of e are opposite there.
    Returns them with {(edge, column): its opposite column}."""
    a = np.zeros((count, geo.dim, geo.dim))
    for ci, v, ei, _ in geo.entries:
        a[:, 2 * ei:2 * ei + 2, ci] = rng.normal(size=(count, 2))
    opposite = {}
    for ei, (p, q) in enumerate(geo.edges):
        if p in geo.triv_index and q in geo.triv_index:
            for axis in range(3):
                cp, cq = (geo.jacobian_columns.index(("t", v, axis))
                          for v in (p, q))
                a[:, 2 * ei:2 * ei + 2, cq] = -a[:, 2 * ei:2 * ei + 2, cp]
                opposite[ei, cp], opposite[ei, cq] = cq, cp
    return a, opposite


def plan_det(plan, a):
    """The plan's wedge of the 2x2 minors of each edge's rows of a."""
    minors = [[sign * (a[:, 2 * e, j] * a[:, 2 * e + 1, k]
                       - a[:, 2 * e + 1, j] * a[:, 2 * e, k])
               for j, k, sign, _ in pairs]
              for e, pairs in enumerate(plan.pairs)]
    return plan.wedge(minors)


class TestDeterminant:
    @pytest.mark.parametrize("near_singular", [False, True])
    @pytest.mark.parametrize("source", ["W", "trefoil", "hopf-link"])
    def test_plan_matches_lapack(self, source, near_singular):
        # random matrices with each geometry's structure, each scaled by up
        # to three decades either way.  Near singular: one entry of the
        # first edge's rows, with its opposite if it has one, is set to the
        # root of the determinant, which is affine in it.
        for k, geo in enumerate(plan_geometries(source)):
            rng = np.random.default_rng(k)
            a, opposite = edge_matrices(geo, rng, 4096)
            a *= 10.0 ** rng.uniform(-3, 3, (4096, 1, 1))
            if near_singular:
                e = geo.plan.first
                j = geo.plan.pairs[e][0][0]

                def put(x):
                    a[:, 2 * e, j] = x
                    if (e, j) in opposite:
                        a[:, 2 * e, opposite[e, j]] = -x

                put(0.0)
                at_zero = np.linalg.det(a)
                put(1.0)
                put(-at_zero / (np.linalg.det(a) - at_zero))
            bound = 1e-12 * np.prod(np.linalg.norm(a, axis=2), axis=1)
            assert np.all(np.abs(plan_det(geo.plan, a) - np.linalg.det(a))
                          <= bound)

    def test_plan_sizes(self):
        # transitions per geometry; the first leg's s-velocity is 0 and
        # lists no entries
        transitions = {name: WGeometry(line_diagram_catalog(name)).plan
                       .transitions for name in anomaly.LINE_CATALOG}
        assert transitions == {"theta": 1, "d2": 17, "a1": 59, "a2": 59,
                               "a3": 47, "w3": 181}

    @pytest.mark.parametrize("trivalent, transitions", [(1, 12), (2, 24)])
    def test_closed_link_plan_sizes(self, trivalent, transitions):
        # the tripod, and every degree-3 class with two trivalent vertices
        # and no triangle
        sizes = {DiagramGeometry(std_oriented(d), catalog("trefoil"))
                 .plan.transitions
                 for d in enumerate_diagrams(circles(1), trivalent + 1)
                 if is_subprincipal(d) and len(d.trivalent) == trivalent
                 and not has_trivalent_triangle(d)}
        assert sizes == {transitions}

    @pytest.mark.parametrize("source", ["W", "trefoil", "hopf-link"])
    def test_two_forms_are_frame_minors(self, monkeypatch, source):
        # every vector the plan is handed, times its pair's sign, is the
        # 2x2 minor of its edge's frame rows on the pair's columns, to
        # rounding of the product of the two columns' norms; near
        # collisions the oracle's projection cancels digits, so only
        # configurations with every edge at least 1e-2 of the scale count
        kernel = integrate.jacobian_values
        for seed, geo in enumerate(plan_geometries(source)):
            rng = np.random.default_rng(seed)
            inputs, handed = [], []
            wedge = geo.plan.wedge

            def record(geo, pos, tangents, tol):
                inputs.append((pos, tangents))
                return kernel(geo, pos, tangents, tol)

            def record_minors(minors):
                handed.append(minors)
                return wedge(minors)

            monkeypatch.setattr(geo.plan, "wedge", record_minors)
            if source == "W":
                monkeypatch.setattr(anomaly, "jacobian_values", record)
                s, t, x, _ = WSampler(geo).sample(rng, 512)
                anomaly.w_integrand_batch(geo, s, t, x)
            else:
                monkeypatch.setattr(integrate, "jacobian_values", record)
                _, x_univ, v_univ, x, _ = ConfigurationSampler(geo).sample(
                    rng, 512)
                integrand_batch(geo, x_univ, v_univ, x)
            (pos, tangents), = inputs
            pos, tangents = samples_first_dicts(pos, tangents)
            minors, = handed
            M, lengths = frame_rows(geo, pos, tangents)
            keep = np.min(lengths, axis=1) >= 1e-2 * (
                1.0 if source == "W" else geo.diameter)
            assert np.count_nonzero(keep) > len(keep) // 2
            for e, pairs in enumerate(geo.plan.pairs):
                rows = M[:, 2 * e:2 * e + 2]
                for (j, k, sign, _), vector in zip(pairs, minors[e]):
                    want = (rows[:, 0, j] * rows[:, 1, k]
                            - rows[:, 1, j] * rows[:, 0, k])
                    scale = (np.linalg.norm(rows[:, :, j], axis=1)
                             * np.linalg.norm(rows[:, :, k], axis=1))
                    assert np.all((np.abs(sign * vector - want)
                                   <= 1e-12 * scale)[keep])


class TestSampler:
    def test_single_configuration(self):
        rng = np.random.default_rng(0)
        geo = DiagramGeometry(std_oriented(tripod()), catalog("unknot-round"))
        t_univ, _, _, x_triv, density = ConfigurationSampler(geo).sample(rng, 1)
        t_univ, x_triv = samples_first(t_univ), samples_first(x_triv)
        assert geo.univ == [0, 1, 2] and geo.triv == [3]
        assert t_univ.shape == (1, 3) and x_triv.shape == (1, 1, 3)
        assert density[0] > 0

    @pytest.mark.parametrize("od, name", [(tripod_positive(), "trefoil"),
                                          (hopf_tripod(), "hopf-link")])
    def test_density_is_the_maps_jacobian(self, od, name):
        # the density at 300 configurations against the sum, over the
        # blocks u that the sampler maps to each, of 1/|det| of the map's
        # Jacobian in the continuous rows: every order of a circle's offset
        # rows, and per trivalent vertex every anchor with weight 1/K
        geo = DiagramGeometry(od, catalog(name))
        sampler = ConfigurationSampler(geo)
        u = 0.02 + 0.96 * np.random.default_rng(41).random((sampler.dim, 300))

        def coords(u):
            t, _, _, x, _ = sampler.sample(UnitRng(u), u.shape[1])
            t, x = samples_first(t), samples_first(x)
            return np.hstack([t, x.reshape(len(t), -1)])

        t, x_univ, _, x, density = sampler.sample(UnitRng(u), 300)
        t, x, density = (samples_first(t).copy(), samples_first(x).copy(),
                         density.copy())
        x_univ = [samples_first(a).copy() for a in x_univ]
        options, start = [], 0
        for comp in geo.d.placements:
            legs = t[:, start:start + len(comp)] / (2 * np.pi)
            if comp:
                options.append(leg_preimages(
                    {start: legs[:, 0]},
                    [(start + j, legs[:, j] - legs[:, 0])
                     for j in range(1, len(comp))]))
            start += len(comp)
        pos = dict(zip(geo.univ, x_univ))
        pos.update((v, x[:, i]) for v, i in geo.triv_index.items())
        options += trivalent_preimages(geo, pos, start, sampler.scale)
        preimages = list(preimage_blocks(u.shape, options))
        assert len(preimages) == (6 if name == "trefoil" else 3)
        for _, v in preimages:
            assert np.allclose(coords(v), coords(u), rtol=0, atol=1e-9)
        rows = [r for r in range(sampler.dim)
                if r < start or (r - start) % 4]
        want = jacobian_density(coords, preimages, rows)
        assert np.allclose(density, want, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("od, name", [(tripod_positive(), "trefoil"),
                                          (hopf_tripod(), "hopf-link")])
    def test_radius_histogram_matches_density(self, od, name):
        # weighted by pi / density, for pi the legs' uniform density times
        # the half-Cauchy about the vertex's first anchor, the radius about
        # that anchor has pi's marginal 2 scale / (pi (scale^2 + r^2)): ten
        # bins of mass 0.1.  The weights are at most the anchor count.
        geo = DiagramGeometry(od, catalog(name))
        sampler = ConfigurationSampler(geo)
        _, x_univ, _, x, density = sampler.sample(
            np.random.default_rng(42), 10 ** 5)
        x_univ, x = [samples_first(a) for a in x_univ], samples_first(x)
        (v, anchors), = geo.placement_order
        rho = np.linalg.norm(x[:, 0] - x_univ[geo.univ.index(anchors[0])],
                             axis=1)
        legs = np.prod([factorial(len(c) - 1) / (2 * np.pi) ** len(c)
                        for c in geo.d.placements])
        weights = legs * half_cauchy(rho, sampler.scale) / density
        edges = np.append(sampler.scale * np.tan(np.linspace(0, 0.45, 10)
                                                 * np.pi), np.inf)
        assert_weighted_histogram(rho, weights, edges, [0.1] * 10)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6])
    def test_sort_rows_is_numpys_sort(self, k):
        rows = np.random.default_rng(k).random((k, 1000))
        rows[:, :10] = 0.5      # ties
        want = np.sort(rows, axis=0)
        assert np.array_equal(sort_rows(rows, np.empty(1000)), want)

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

    @pytest.mark.parametrize("name, n", [("trefoil", 2), ("trefoil", 3),
                                         ("hopf-link", 1), ("hopf-link", 2)])
    def test_z_n_is_the_reduced_class_sum(self, name, n):
        # the raw vector of the returned estimates, reduced as a whole, and
        # each class's unit reduced alone for the errors
        curve = catalog(name)
        vec, errs, ests = z_n(curve, n, samples=2000, seed=3)
        support = circles(curve.n_components)
        red = reduction(support, n)
        raw, var = {}, {}
        for d in enumerate_diagrams(support, n):
            key, sign = canonical_oriented(std_oriented(d))
            if key not in ests:
                continue
            aut = automorphism_count(d)
            raw[key] = raw.get(key, 0.0) + sign * ests[key].value / aut
            unit = red.reduce(ClassVector(support, n, {key: Fraction(1)}))
            for bk, c in unit.terms.items():
                var[bk] = var.get(bk, 0.0) + (float(c) * ests[key].stderr
                                              / aut) ** 2
        assert len(raw) == len(ests)
        old = red.reduce(ClassVector(support, n, raw))
        assert vec.terms.keys() == old.terms.keys()
        for bk, c in old.terms.items():
            assert vec.terms[bk] == pytest.approx(c, rel=1e-12)
        assert errs.keys() == {bk for bk, v in var.items() if v}
        for bk, v in errs.items():
            assert v == pytest.approx(np.sqrt(var[bk]), rel=1e-12)


def reversed_hopf():
    c = catalog("hopf-link")
    const, cos, sin = c.components[1]
    return LinkCurve([c.components[0], (const, cos, -np.asarray(sin))])


CHORD_CASES = [(std_oriented(THETA), catalog(name), name)
               for name in ("trefoil", "trefoil-alt", "figure8",
                            "unknot-planar-perturbed", "trefoil-framed",
                            "unknot-round")] + [
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
            geo, *univalent_jets(geo, pairs.T), np.empty((0, 3, len(pairs))))
        a, b = (geo.d.component_of(v) for v in geo.univ)
        gauss = gauss_kernel(curve, (a, pairs[:, 0]), (b, pairs[:, 1]))
        assert not np.any(rejected)
        assert np.max(np.abs(values - gauss)) <= 1e-12 * np.max(np.abs(gauss))

    @pytest.mark.parametrize("od, name", [
        (std_oriented(THETA), "trefoil-framed"), (hopf_chord(), "hopf-link")])
    def test_one_blocked_kernel_pass_per_grid(self, monkeypatch, od, name):
        # no integrand_batch call; per grid, one jet per component and one
        # pass over the kernel's rows, in blocks of at most one Monte Carlo
        # batch
        def forbidden(*args):
            raise AssertionError("chord_quadrature called integrand_batch")

        blocks = []
        kernel_rows = integrate._kernel_rows

        def spy(curve, m1, m2, n):
            for start, block in kernel_rows(curve, m1, m2, n):
                blocks.append((n, block.size))
                yield start, block

        monkeypatch.setattr(integrate, "integrand_batch", forbidden)
        monkeypatch.setattr(integrate, "_kernel_rows", spy)
        curve = CountingCurve(catalog(name).components)
        curve.diameter()
        diameter_points = curve.points
        curve.points = 0
        est = chord_quadrature(od, curve)
        grids = [integrate.QUADRATURE_GRID]
        while grids[-1] < est.diagnostics["grid"]:
            grids.append(2 * grids[-1])
        comps = len({od.diagram.component_of(v) for v in od.diagram.univalent})
        assert curve.points == diameter_points + comps * sum(grids)
        assert [sum(size for m, size in blocks if m == n) for n in grids] \
            == [n * n for n in grids]
        assert max(size for _, size in blocks) <= BATCH

    def test_finest_grid_holds_no_full_matrix(self, monkeypatch):
        # a 4096^2 kernel matrix would take 128 MiB
        monkeypatch.setattr(integrate, "QUADRATURE_TOL", 0.0)
        tracemalloc.start()
        try:
            est = chord_quadrature(std_oriented(THETA), catalog("trefoil"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.diagnostics["grid"] == integrate.QUADRATURE_MAX_GRID
        assert peak <= 16 * 2 ** 20

    @pytest.mark.parametrize("od, name", [(std_oriented(THETA), "trefoil"),
                                          (hopf_chord(), "hopf-link")])
    def test_flipping_an_end_negates(self, od, name):
        # pins the one-chord orientation sign: chord_sign carries it
        curve = catalog(name)
        est = chord_quadrature(od, curve)
        for v in sorted(od.diagram.univalent):
            flipped = chord_quadrature(od.flip_vertex(v), curve)
            assert flipped.value == -est.value
            assert flipped.stderr == est.stderr
            assert flipped.diagnostics == est.diagnostics

    def test_strided_sums_are_coarse_grids(self, monkeypatch):
        # at N = 384 the row blocks (170, 170, 44) start off the coarse
        # grids, so the N/2 and N/4 rules read rows 2 and 4 apart from an
        # offset; they equal the sums of the coarse grids' own matrices
        monkeypatch.setattr(integrate, "QUADRATURE_GRID", 384)
        monkeypatch.setattr(integrate, "QUADRATURE_TOL", np.inf)
        od, curve = std_oriented(THETA), catalog("trefoil")
        est = chord_quadrature(od, curve)
        rule = {n: (2 * np.pi / n) ** 2 * sum(
            np.sum(b) for _, b in integrate._kernel_rows(curve, 0, 0, n))
            for n in (96, 192, 384)}
        richardson = [(4 * rule[2 * n] - rule[n]) / 3 for n in (192, 96)]
        sign = chord_sign(DiagramGeometry(od, curve))
        assert est.diagnostics["grid"] == 384
        assert est.value == pytest.approx(sign * richardson[0], rel=1e-13)
        assert est.stderr == pytest.approx(
            abs(richardson[0] - richardson[1]), rel=1e-6)

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


class TestKernelRows:
    @pytest.mark.parametrize("name, m2", [("trefoil", 0), ("hopf-link", 1)])
    def test_blocks_are_gauss_kernel(self, name, m2):
        # n = 384 leaves a partial last block; on one circle the diagonal
        # reads exactly 0
        curve, n = catalog(name), 384
        blocks = list(integrate._kernel_rows(curve, 0, m2, n))
        assert [(start, len(block)) for start, block in blocks] \
            == [(0, 170), (170, 170), (340, 44)]
        g = np.concatenate([block for _, block in blocks])
        t = np.arange(n) * (2 * np.pi / n)
        off = ~np.eye(n, dtype=bool) if m2 == 0 else np.ones((n, n), bool)
        i, j = np.nonzero(off)
        gauss = gauss_kernel(curve, (0, t[i]), (m2, t[j]))
        assert np.max(np.abs(g[i, j] - gauss)) \
            <= 1e-12 * np.max(np.abs(gauss))
        assert np.all(g[~off] == 0.0)
        for s in (2, 4):
            strided = sum(np.sum(block[-start % s::s, ::s])
                          for start, block in blocks)
            coarse = integrate._kernel_rows(curve, 0, m2, n // s)
            assert strided == pytest.approx(
                sum(np.sum(block) for _, block in coarse), rel=1e-12)

    @pytest.mark.parametrize("name", ["trefoil", "trefoil-alt",
                                      "unknot-round"])
    def test_triangle_is_the_upper_part_of_whole_rows(self, name):
        # the triangle evaluates each block from its first row's diagonal
        # on, and every entry keeps the bits of the whole rows
        curve, n = catalog(name), 384
        whole = np.concatenate(
            [block for _, block in integrate._kernel_rows(curve, 0, 0, n)])
        assert np.array_equal(integrate._kernel_triangle(curve, 0, n),
                              np.triu(whole, 1))


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
            geo, *univalent_jets(geo, idx.T * (2 * np.pi / n)),
            np.empty((0, 3, len(idx))))
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

    @pytest.mark.parametrize("name, components", [
        ("trefoil", [0]), ("hopf-link", [0, 1])])
    def test_z_n_builds_one_kernel_per_circle(self, monkeypatch, name,
                                              components):
        # the crossed and parallel classes of a circle share its matrix,
        # and their values are those of separate calls, bit for bit
        curve = catalog(name)
        built = []
        triangle = integrate._kernel_triangle

        def record(curve, m, n):
            built.append(m)
            return triangle(curve, m, n)

        monkeypatch.setattr(integrate, "_kernel_triangle", record)
        _, _, ests = z_n(curve, 2, samples=2000)
        assert sorted(built) == components
        shared = 0
        for d in enumerate_diagrams(circles(curve.n_components), 2):
            if integrate.two_chords_on_one_circle(d):
                key, _ = canonical_oriented(std_oriented(d))
                alone = two_chord_quadrature(std_oriented(d), curve)
                assert ests[key].value == alone.value
                assert ests[key].stderr == alone.stderr
                shared += 1
        assert shared == 2 * len(components)


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
