"""Anomaly integrals over configurations on a moving tangent line.

A connected line diagram is configured with its legs on the oriented axis
through a direction s, modulo translations along the axis and dilations;
these quotients fibre over s in the sphere.  The gauge slice pins the
first leg at 0 and the last at 1, which is a global section, and the
quotient orientation contributes an explicit permutation parity.  The
integrand and its proposal are rotation-equivariant, so every fibre holds
the same integral: it is evaluated on the fibre over s = e_z, and f_γ is
4 pi times it.

Also here: the disc extension of the tangent indicatrix and its area
integral (the framing correction), and the spherical region predicates
behind the degree-3 vanishing argument.
"""

from functools import partial
from math import factorial

import numpy as np

from .algebra import Series, reduction
from .curves import LinkCurve
from .diagrams import (Diagram, OrientedDiagram, automorphism_count, degree,
                       is_connected, std_oriented)
from .errors import DiagramError, EmbeddingError
from .integrate import (KernelGeometry, class_sum, has_trivalent_triangle,
                        jacobian_values, permutation_sign, propose_trivalent,
                        sort_rows)
from .invariants import self_linking
from .mc import Estimate, check_counts, check_seed, run_sharded
from .support import R1

# pinned so that f_theta = +1 (the W-fibration over S² has degree one for
# the single-chord diagram); see the acceptance suite
W_GAUGE_SIGN = -1.0
DISC_SAMPLES = 20000        # tangent points of the disc integral
BASE_POINT_SAMPLES = 1024   # tangent points of the default base point


def line_diagram_catalog(name: str) -> OrientedDiagram:
    """Connected line diagrams by name.

    theta   the single chord
    d2      the only connected degree-2 line diagram (three legs on a
            trivalent vertex)
    a1/a2/a3  degree-3: two trivalent vertices joined by an edge, legs in
            the patterns aabb / abab / abba along the line
    w3      degree-3 wheel: a triangle with three legs
    """
    if name == "theta":
        d = Diagram(R1, ((0, 1),), frozenset(), frozenset({frozenset((0, 1))}))
    elif name == "d2":
        d = Diagram(R1, ((0, 1, 2),), frozenset({3}),
                    frozenset(frozenset((i, 3)) for i in range(3)))
    elif name in ("a1", "a2", "a3"):
        pattern = {"a1": "AABB", "a2": "ABAB", "a3": "ABBA"}[name]
        edges = {frozenset((4, 5))}
        for i, who in enumerate(pattern):
            edges.add(frozenset((i, 4 if who == "A" else 5)))
        d = Diagram(R1, ((0, 1, 2, 3),), frozenset({4, 5}), frozenset(edges))
    elif name == "w3":
        edges = {frozenset((0, 3)), frozenset((1, 4)), frozenset((2, 5)),
                 frozenset((3, 4)), frozenset((4, 5)), frozenset((3, 5))}
        d = Diagram(R1, ((0, 1, 2),), frozenset({3, 4, 5}), frozenset(edges))
    else:
        raise KeyError(f"unknown line diagram {name!r}")
    return std_oriented(d)


LINE_CATALOG = ("theta", "d2", "a1", "a2", "a3", "w3")


class WGeometry(KernelGeometry):
    """Kernel geometry of a line diagram on the gauge slice of W(γ) over
    the axis s = e_z.

    Jacobian columns: the two frame directions of s first, then the kept
    half-edge coordinates (all but the two gauge legs).  The chart frame
    at e_z is (e_y, -e_x), so every column moves its vertices along an
    axis: the s-columns move each leg v but the first (at the origin) by
    t_v e_y and -t_v e_x, scaled by the interior legs' parameter rows (the
    last leg sits at t = 1), and an interior leg's slice column moves it
    by its orientation sign times e_z.
    """

    def __init__(self, od: OrientedDiagram):
        d = od.diagram
        if d.support != R1:
            raise DiagramError("anomaly diagrams live on the line support")
        if not is_connected(d.vertices, d.edges):
            raise DiagramError("anomaly diagrams are connected")
        super().__init__(od, sorted(tuple(sorted(e)) for e in d.edges))
        if len(self.univ) < 2:
            raise DiagramError("the gauge slice needs at least two legs")
        gauge = [("u", self.univ[0]), ("u", self.univ[-1])]
        self.kept = [c for c in self.columns if c not in gauge]
        # parity of the shuffle moving the two gauge coordinates to the end,
        # (first, last) in that order; the translation/dilation block then
        # contributes determinant +1
        self.gauge_sign = permutation_sign(
            [i for i, c in enumerate(self.columns) if c not in gauge]
            + [self.columns.index(c) for c in gauge])
        self.sign = W_GAUGE_SIGN * (-1) ** len(self.edges) * self.gauge_sign
        interior = self.univ[1:-1]
        legs = [(v, v if v in interior else None) for v in self.univ[1:]]
        axes = {("s", 0): [(v, 1, 1, f) for v, f in legs],
                ("s", 1): [(v, 0, -1, f) for v, f in legs]}
        axes.update((("u", v), [(v, 2, self.univ_sign[v], None)])
                    for v in interior)
        self.set_entries([("s", 0), ("s", 1)] + self.kept, axes)


def w_config_positions(geo: WGeometry, t_params, x_triv=None):
    """Positions of all vertices for gauge-slice configurations, given the
    (legs, count) leg parameters and the (trivalent, 3, count) points: the
    legs' (0, 0, t_v) in geo.work, valid until the next call on geo in the
    same thread, and views of the trivalent points (none if x_triv is
    None)."""
    pos = {}
    for v, t in zip(geo.univ, t_params):
        pos[v] = geo.work(("w.leg", v), (3, len(t)))
        pos[v][:2] = 0.0
        pos[v][2] = t
    if x_triv is not None:
        pos.update((v, x_triv[geo.triv_index[v]]) for v in geo.triv)
    return pos


def w_integrand_batch(geo: WGeometry, t_params, x_triv):
    """Density of the pulled-back sphere forms on the slice chart of W(γ)
    at s = e_z, per unit area of the axis sphere; rows as in the
    closed-link integrand.  Every column is an axis column (WGeometry), so
    each 2-form value is +-D_c / r^3 times at most two leg parameters.
    Returns (values, rejected_mask), new arrays (jacobian_values); the
    positions are kept in geo.work."""
    return jacobian_values(geo, w_config_positions(geo, t_params, x_triv),
                           {}, 1e-9, dict(zip(geo.univ, t_params)))


class WSampler:
    """Importance sampler on the gauge slice over s = e_z, as a map of one
    block of uniforms per batch, dim rows of count: the interior legs from
    the first (legs - 2) rows sorted, and propose_trivalent's points at
    unit scale.  The density keeps the uniform axis's 1/(4 pi): the
    proposal and the integrand are rotation-equivariant, so the slice
    integral is the same at every axis, and 4 pi times it at e_z, the
    weight's mean, is f_γ."""

    def __init__(self, geo: WGeometry):
        self.geo = geo
        self.dim = len(geo.univ) - 2 + 4 * len(geo.triv)
        self.density = factorial(len(geo.univ) - 2) / (4 * np.pi)

    def sample(self, rng, count):
        """(t_params, x_triv, density) for count configurations from one
        rng.random block: the (legs, count) leg parameters, the
        (trivalent, 3, count) points and the proposal density, all in
        geo.work until the next sample in the same thread."""
        geo, work = self.geo, self.geo.work
        legs = len(geo.univ)
        u = rng.random(out=work("w.u", (self.dim, count)))
        density = work("w.density", (count,))     # scratch until filled
        t_params = work("w.t", (legs, count))
        t_params[0] = 0.0
        t_params[-1] = 1.0
        t_params[1:-1] = sort_rows(u[:legs - 2], density)
        density.fill(self.density)
        x_triv = propose_trivalent(geo, u[legs - 2:], w_config_positions(
            geo, t_params), density, 1.0)
        return t_params, x_triv, density


def f_gamma(gamma, samples=10 ** 6, seed=0, shards=None,
            workers=None) -> Estimate:
    """The anomaly integral of a connected line diagram (by name or as an
    oriented diagram).

    Where vanishes_on_w names an argument (d2, the wheel w3), the integral
    is an exact 0: method "exact", stderr 0, the argument in the
    diagnostics, and no sample drawn, once the counts and the seed pass
    the checks that a sampled run makes.  Every other diagram is sampled:
    a batch samples into the geometry's workspace and divides the
    integrand's new values array by the density in place."""
    od = line_diagram_catalog(gamma) if isinstance(gamma, str) else gamma
    if degree(od.diagram) > 3:
        raise DiagramError("anomaly integrals support degree <= 3")
    geo = WGeometry(od)
    argument = vanishes_on_w(od.diagram)
    if argument:
        check_counts(samples, shards, workers)
        check_seed(seed)
        return Estimate(0.0, 0.0, "exact", {"argument": argument})
    sampler = WSampler(geo)

    def batch(rng, count):
        t_params, x_triv, density = sampler.sample(rng, count)
        values, rejected = w_integrand_batch(geo, t_params, x_triv)
        return np.divide(values, density, out=values), int(np.sum(rejected))

    return run_sharded(batch, samples, seed, shards, workers)


def vanishes_on_w(d):
    """The argument by which the integrand of d on W(γ) is 0 at every
    point, or None: "trivalent triangle" or "trivalent vertex on three
    legs".  The three edge directions of either lie on one great circle
    (the triangle's plane; the plane of the axis and the vertex), so their
    6-form pulls back through a map of rank at most 5."""
    if has_trivalent_triangle(d):
        return "trivalent triangle"
    if any(set(d.neighbors(t)) <= d.univalent for t in d.trivalent):
        return "trivalent vertex on three legs"
    return None


def anomaly_alpha(max_degree, samples=10 ** 6, seed=0, shards=None,
                  workers=None):
    """The anomaly series up to max_degree: sum of f_γ/(2|γ|) [γ].

    Returns (series, estimates): class_sum's vector per degree and the f
    estimates per catalog name.  Only theta, a1 and a3 are integrated: d2
    and the wheel w3 vanish pointwise (vanishes_on_w), and the class of a2
    is 0 in A_3(R¹), so degree two is the zero vector.
    """
    if max_degree > 3:
        raise DiagramError("anomaly supports degree <= 3")
    by_degree = {1: ["theta"], 2: ["d2"], 3: ["a1", "a2", "a3", "w3"]}
    series = Series(R1)
    estimates = {}
    for n in range(1, max_degree + 1):
        ods = {name: line_diagram_catalog(name) for name in by_degree[n]}
        series[n], _, ests = class_sum(reduction(R1, n), (
            (name, od, 2 * automorphism_count(od.diagram),
             partial(f_gamma, od, samples=samples, shards=shards,
                     workers=workers, seed=seed + 101 * n + offset))
            for offset, (name, od) in enumerate(ods.items())
            if not vanishes_on_w(od.diagram)))
        estimates.update(ests)
    return series, estimates


# ---------------------------------------------------------------------------
# Disc extension of the tangent indicatrix and the framing integer

def _default_base_point(curve: LinkCurve, m):
    ts = np.linspace(0, 2 * np.pi, BASE_POINT_SAMPLES, endpoint=False)
    tang = curve.tangent(m, ts)
    dt = np.roll(tang, -1, axis=0) - tang
    binormal = np.cross(tang, dt)
    cand = binormal.sum(axis=0)
    if np.linalg.norm(cand) < 1e-8:
        cand = tang.sum(axis=0)
    if np.linalg.norm(cand) < 1e-8:
        cand = np.array([0.0, 0.0, 1.0])
    return cand / np.linalg.norm(cand)


def disc_integral(curve: LinkCurve, m=0, base_point=None) -> Estimate:
    """Signed area (mass-1 normalisation) of the geodesic cone from the base
    point to the tangent indicatrix, with the disc oriented opposite to the
    usual plane orientation: the boundary basis (tangent, outward normal)
    is direct.

    The extension is valid only when the indicatrix keeps an angular margin
    of 0.05 radians from the antipode of the base point.  A quadrature on
    DISC_SAMPLES tangent points (the record's grid); stderr is its change
    from the half grid.
    """
    q = _default_base_point(curve, m) if base_point is None else \
        np.asarray(base_point, dtype=float)
    q = q / np.linalg.norm(q)
    ts = np.linspace(0, 2 * np.pi, DISC_SAMPLES, endpoint=False)
    tang = curve.tangent(m, ts)
    if np.max(tang @ -q) > np.cos(0.05):
        raise EmbeddingError(
            "tangent indicatrix approaches the antipode of the base point; "
            "choose another base point", witness=q)

    def cone_area(a):
        b = np.roll(a, -1, axis=0)
        # signed solid angle of the geodesic triangle (q, a, b)
        num = np.sum(q * np.cross(a, b), axis=1)
        den = 1 + a @ q + np.sum(a * b, axis=1) + b @ q
        return float(np.sum(2 * np.arctan2(num, den)))

    area = cone_area(tang)
    area_half = cone_area(tang[::2])
    # the disc orientation (boundary tangent followed by outward normal
    # direct) resolves to this sign; it is pinned by the framing-integer
    # checks: every catalog knot lands on an odd integer
    return Estimate(area / (4 * np.pi), abs(area - area_half) / (4 * np.pi),
                    "quadrature",
                    {"grid": DISC_SAMPLES, "base_point": tuple(q.tolist())})


def framing_report(curve: LinkCurve):
    """Per component: the Gauss self-integral (with its error estimate and
    grid), the disc integral, their framing combination and its distance
    to the nearest integer."""
    rows = []
    for m in range(curve.n_components):
        est = self_linking(curve, m)
        disc = disc_integral(curve, m)
        total = est.value + 2 * disc.value
        rows.append({
            "component": m,
            "gauss_self_integral": est.value,
            "gauss_stderr": est.stderr,
            "gauss_grid": est.diagnostics["grid"],
            "disc_integral": disc.value,
            "disc_error": disc.stderr,
            "framing": total,
            "nearest_integer": round(total),
            "residual": abs(total - round(total)),
        })
    return rows


# ---------------------------------------------------------------------------
# Degree-3 region predicates on the sphere

def _sign_det(a, b, c):
    d = float(np.linalg.det(np.stack([a, b, c])))
    if abs(d) < 1e-12:
        return 0
    return 1 if d > 0 else -1


def is_square(e1, e2, e3, e4):
    """The four sign conditions: every triple has the same determinant sign
    (each point on the same side of the plane of the other adjacent pair).
    Returns None on a boundary (degenerate) configuration."""
    signs = {_sign_det(e1, e2, e3), _sign_det(e1, e2, e4),
             _sign_det(e1, e3, e4), _sign_det(e2, e3, e4)}
    if 0 in signs:
        return None
    return len(signs) == 1


def square_pole(e1, e2, e3, e4):
    """The north pole of a square: the intersection of the planes (e1,e2)
    and (e3,e4), signed so that moving from e1 to e2 along their meridian
    approaches the pole."""
    d = np.cross(np.cross(e1, e2), np.cross(e3, e4))
    n = np.linalg.norm(d)
    if n < 1e-12:
        raise ValueError("degenerate square")
    d = d / n
    if np.dot(e2 - e1, d) < 0:
        d = -d
    return d


def _positive_combination(e5, basis):
    try:
        coeff = np.linalg.solve(np.stack(basis, axis=1), e5)
    except np.linalg.LinAlgError:
        return None
    if np.min(np.abs(coeff)) < 1e-12:
        return None
    return coeff


def region_of(e1, e2, e3, e4, e5):
    """Classify e5 relative to a square: 'A1' when e5 = a e2 + b e3 + c s
    with a, b, c > 0, 'A3' when e5 = a e2 + b e4 - c s (equivalently
    a' e1 + b' e3 + c' s), else None."""
    if not is_square(e1, e2, e3, e4):
        return None
    s = square_pole(e1, e2, e3, e4)
    c1 = _positive_combination(e5, (e2, e3, s))
    if c1 is not None and np.all(c1 > 0):
        return "A1"
    c3 = _positive_combination(e5, (e2, e4, s))
    c3b = _positive_combination(e5, (e1, e3, s))
    if (c3 is not None and c3[0] > 0 and c3[1] > 0 and c3[2] < 0
            and c3b is not None and np.all(c3b > 0)):
        return "A3"
    return None


def square_substitution_invariant(e1, e2, e3, e4):
    """(e1,e2,e3,e4) is a square iff (e2,e3,-e1,-e4) is."""
    return is_square(e1, e2, e3, e4) == is_square(e2, e3, -e1, -e4)


def _psi_image(down, up, ta, tb):
    """Unit edge directions (e1..e5): the legs `down` from the first vertex
    ta, the legs `up` into the second vertex tb, and the internal edge from
    ta to tb."""
    def unit(v):
        return v / np.linalg.norm(v)

    return (*(unit(z - ta) for z in down), *(unit(tb - z) for z in up),
            unit(tb - ta))


def psi_image_a1(z, ta, tb):
    """Edge directions of an a1 (legs aabb) configuration: legs z1<z2 into
    the first vertex pointing down, z3<z4 into the second pointing up, and
    the internal edge from the first to the second."""
    z1, z2, z3, z4 = z
    return _psi_image((z1, z2), (z3, z4), ta, tb)


def psi_image_a3(z, ta, tb):
    """Edge directions of an a3 (legs abba) configuration with the
    labelling that matches the region description: the outer legs point
    down from the first vertex, the inner legs up into the second."""
    z1, z2, z3, z4 = z
    return _psi_image((z1, z4), (z2, z3), ta, tb)


def degree3_region_predicates(vectors):
    """Spec surface: five unit vectors -> {'square': bool|None,
    'region': 'A1'|'A3'|None, 'substitution_invariant': bool}."""
    e1, e2, e3, e4, e5 = [np.asarray(v, dtype=float) for v in vectors]
    sq = is_square(e1, e2, e3, e4)
    return {
        "square": sq,
        "region": region_of(e1, e2, e3, e4, e5) if sq else None,
        "substitution_invariant": square_substitution_invariant(e1, e2, e3, e4),
    }
