"""Anomaly integrals over configurations on a moving tangent line.

A connected line diagram is configured with its legs on the oriented axis
through a direction s, modulo translations along the axis and dilations;
these quotients fibre over s in the sphere.  The gauge slice pins the
first leg at 0 and the last at 1, which is a global section, and the
quotient orientation contributes an explicit permutation parity.

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
from .integrate import (KernelGeometry, chart_frame, class_sum,
                        has_trivalent_triangle, jacobian_values,
                        permutation_sign, propose_trivalent, sort_rows,
                        sphere_chart)
from .invariants import self_linking
from .mc import Estimate, run_sharded
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
    """Kernel geometry of a line diagram on the gauge slice of W(γ).

    Jacobian columns: the two frame directions of s first, then the kept
    half-edge coordinates (all but the two gauge legs).
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
        # s-variation columns move every leg but the first, which the gauge
        # pins at the origin; slice columns one vertex each
        self.set_entries([("s", 0), ("s", 1)] + self.kept, self.univ[1:])


def w_config_positions(geo: WGeometry, s, t_params, x_triv=None):
    """Positions of all vertices for gauge-slice configurations, given the
    (3, count) axes s, the (legs, count) leg parameters and the (trivalent,
    3, count) points: the legs' t_v s in geo.work, valid until the next
    call on geo in the same thread, and views of the trivalent points
    (none if x_triv is None)."""
    pos = {v: np.multiply(t, s, out=geo.work(("w.leg", v), s.shape))
           for v, t in zip(geo.univ, t_params)}
    if x_triv is not None:
        pos.update((v, x_triv[geo.triv_index[v]]) for v in geo.triv)
    return pos


def w_integrand_batch(geo: WGeometry, s, t_params, x_triv):
    """Density of the pulled-back sphere forms on the slice chart of W(γ);
    rows as in the closed-link integrand.  The two s-columns move s along
    its chart_frame, whose area element is the sampler's dz dphi.  Returns
    (values, rejected_mask), new arrays (jacobian_values); the frames,
    positions and tangents are kept in geo.work."""
    work, shape = geo.work, np.shape(s)
    tangents = {}
    # s-variation columns: univalent positions move by t_v * delta, except
    # the first leg at t = 0
    for ci, delta in enumerate(chart_frame(s, work)):
        for v, t in zip(geo.univ[1:], t_params[1:]):
            tangents[ci, v] = np.multiply(t, delta,
                                          out=work(("w.s", ci, v), shape))
    for v in geo.univ[1:-1]:    # the interior legs' slice columns
        tangents[2 + geo.kept.index(("u", v)), v] = np.multiply(
            s, geo.univ_sign[v], out=work(("w.slice", v), shape))
    return jacobian_values(geo, w_config_positions(geo, s, t_params, x_triv),
                           tangents, 1e-9)


class WSampler:
    """Importance sampler on S² x (gauge slice), as a map of one block of
    uniforms per batch, dim rows of count: the axis s from the sphere_chart
    of the first two rows, the interior legs from the next (legs - 2) rows
    sorted, and propose_trivalent's points at unit scale.  The axis is not
    stratified: the proposal and the integrand are rotation-equivariant,
    so the weight's mean given s is f_γ for every s."""

    def __init__(self, geo: WGeometry):
        self.geo = geo
        self.dim = len(geo.univ) + 4 * len(geo.triv)
        self.density = factorial(len(geo.univ) - 2) / (4 * np.pi)

    def sample(self, rng, count):
        """(s, t_params, x_triv, density) for count configurations from one
        rng.random block: the (3, count) axes, the (legs, count) leg
        parameters, the (trivalent, 3, count) points and the proposal
        density, all in geo.work until the next sample in the same
        thread."""
        geo, work = self.geo, self.geo.work
        legs = len(geo.univ)
        u = rng.random(out=work("w.u", (self.dim, count)))
        density = work("w.density", (count,))     # scratch until filled
        s = sphere_chart(u[0], u[1], work("w.s", (3, count)))
        t_params = work("w.t", (legs, count))
        t_params[0] = 0.0
        t_params[-1] = 1.0
        t_params[1:-1] = sort_rows(u[2:legs], density)
        density.fill(self.density)
        x_triv = propose_trivalent(geo, u[legs:], w_config_positions(
            geo, s, t_params), density, 1.0)
        return s, t_params, x_triv, density


def f_gamma(gamma, samples=10 ** 6, seed=0, shards=None,
            workers=None) -> Estimate:
    """The anomaly integral of a connected line diagram (by name or as an
    oriented diagram).  A batch samples into the geometry's workspace and
    divides the integrand's new values array by the density in place."""
    od = line_diagram_catalog(gamma) if isinstance(gamma, str) else gamma
    if degree(od.diagram) > 3:
        raise DiagramError("anomaly integrals support degree <= 3")
    geo = WGeometry(od)
    sampler = WSampler(geo)

    def batch(rng, count):
        s, t_params, x_triv, density = sampler.sample(rng, count)
        values, rejected = w_integrand_batch(geo, s, t_params, x_triv)
        return np.divide(values, density, out=values), int(np.sum(rejected))

    return run_sharded(batch, samples, seed, shards, workers)


def vanishes_on_w(d) -> bool:
    """Whether the integrand of d on W(γ) is 0 at every point: d has a
    trivalent triangle, or a trivalent vertex on three legs, whose edge
    directions lie on one great circle (the plane of the axis and the
    vertex), so their 6-form pulls back through a map of rank at most 5."""
    return has_trivalent_triangle(d) or any(
        set(d.neighbors(t)) <= d.univalent for t in d.trivalent)


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
# Symmetry checks (the S¹-evenness and the central symmetry)

def reverse_line_diagram(od: OrientedDiagram) -> OrientedDiagram:
    """The reversed line diagram: the total order of the legs flipped."""
    d = od.diagram
    nd = Diagram(R1, (tuple(reversed(d.placements[0])),), d.trivalent, d.edges)
    return OrientedDiagram(nd, od.triv_orient, od.univ_orient)


def symmetry_check_s1_even(gamma, samples=10 ** 5, seed=0, points=100):
    """The anomaly integral is unchanged by reversing the line's order.

    Pointwise part: a slice configuration maps to one of the reversed
    diagram over the antipodal direction by the affine reparametrisation
    t -> 1 - t (vertices keep their positions up to the gauge translation),
    and the edge directions agree exactly.  Numeric part: the two estimates
    agree within three combined errors.
    """
    od = line_diagram_catalog(gamma) if isinstance(gamma, str) else gamma
    rev = reverse_line_diagram(od)
    geo, geo_r = WGeometry(od), WGeometry(rev)
    rng = np.random.default_rng(seed)
    sampler = WSampler(geo)
    s, t, x, _ = sampler.sample(rng, points)
    pos = w_config_positions(geo, s, t, x)
    # transported configuration: s' = -s, params 1 - t, points shifted by -s
    t2 = 1.0 - t[::-1]
    x2 = x - s
    pos2 = w_config_positions(geo_r, -s, t2, x2)
    # the reversed diagram lists its legs backwards, so row j holds what
    # was the (u-1-j)-th leg
    for e in od.diagram.edges:
        p, q = tuple(sorted(e))
        d1 = pos[q] - pos[p]
        d2 = pos2[q] - pos2[p]
        if not np.allclose(d1 / np.linalg.norm(d1, axis=0),
                           d2 / np.linalg.norm(d2, axis=0), atol=1e-9):
            return False
    fa = f_gamma(od, samples=samples, seed=seed)
    fb = f_gamma(rev, samples=samples, seed=seed + 1)
    err = 3 * np.hypot(fa.stderr, fb.stderr) + 1e-12
    return abs(fa.value - fb.value) <= err


def symmetry_check_central(gamma, points=100, seed=0):
    """Central symmetry sends slice configurations over s to configurations
    over -s with every edge direction antipodal and a sign (-1)^degree;
    verified pointwise on the integrand (with the edge-reversal factor the
    machinery absorbs).  This is what kills the even-degree anomaly."""
    od = line_diagram_catalog(gamma) if isinstance(gamma, str) else gamma
    n = degree(od.diagram)
    geo = WGeometry(od)
    sampler = WSampler(geo)
    rng = np.random.default_rng(seed)
    s, t, x, _ = sampler.sample(rng, points)
    v1, rej1 = w_integrand_batch(geo, s, t, x)
    # central symmetry: positions negate; with the axis -s the slice
    # parameters are unchanged; trivalent points negate
    v2, rej2 = w_integrand_batch(geo, -s, t, -x)
    keep = ~(rej1 | rej2)
    # reversing every edge changes neither class nor integral; the direction
    # tuple is antipodal edge-reversed, and the densities compare by (-1)^n
    # together with the reversal factor (-1)^{#E} absorbed in the machinery
    lhs = v2[keep]
    rhs = v1[keep] * (-1) ** n * (-1) ** len(geo.edges)
    return bool(np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12))


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

    def cone_area(t_arr):
        a = curve.tangent(m, t_arr)
        b = np.roll(a, -1, axis=0)
        # signed solid angle of the geodesic triangle (q, a, b)
        num = np.sum(q * np.cross(a, b), axis=1)
        den = 1 + a @ q + np.sum(a * b, axis=1) + b @ q
        return float(np.sum(2 * np.arctan2(num, den)))

    area = cone_area(ts)
    area_half = cone_area(ts[::2])
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
