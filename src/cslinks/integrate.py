"""Evaluation of the configuration space integrals I_L(Γ), by Monte Carlo
and, for one chord or two chords on one circle, by quadrature; and the
configuration-space kernel that the anomaly integrals share.

The integrand is the density of the pulled-back product of unit-area sphere
forms against the coordinate volume of the configuration space: a square
Jacobian determinant whose rows are the two frame components of each edge
direction differential and whose columns are the half-edge-ordered
coordinates (one circle parameter per univalent vertex, three space
coordinates per trivalent vertex, ordered by the vertex orientations).

A column that moves one edge only (a univalent parameter) is expanded out
exactly: the two frame rows of its edge fold into one frame-free row, the
Biot-Savart field of the moving end, and a chord folds away entirely into
a Gauss-kernel factor.  So the tripod needs a 3x3 determinant, the
degree-3 classes with two trivalent vertices a 6x6 one, and a chord
diagram none.  A trivalent vertex moves freely in R^3, so its three
columns take the components of each of its edge rows as they stand.

chord_quadrature sums the same integrand over a grid on the torus of the
chord's two circle parameters.  Two chords on one circle factor into two
Gauss kernels (chord_sign), so two_chord_quadrature sums their products
over the ordered grid quadruples from one kernel matrix.  integrate_diagram
samples the integrand and stays the oracle for every diagram, the chord
diagrams included.

The kernel has three parts, used by both the closed-link integrals here and
the anomaly integrals over W(γ): KernelGeometry (columns, placement order,
Jacobian entries and their fold plan), propose_trivalent (the radial
proposal for the trivalent vertices) and jacobian_values (edge lengths,
chord factors and the reduced determinant).

Sign conventions are pinned empirically (Hopf linking +1, round-unknot
tripod +1/8): frames satisfy f1 x f2 = direction (outward) and the whole
determinant carries a factor (-1)^{#edges}, which makes the single-chord
density equal the classical Gauss linking integrand exactly.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np

from .algebra import ClassVector, reduction
from .curves import LinkCurve
from .diagrams import OrientedDiagram, automorphism_count, \
    canonical_oriented, enumerate_diagrams, is_subprincipal, std_oriented
from .errors import DiagramError, SamplingError
from .mc import BATCH, Estimate, run_sharded
from .support import circles

COLLISION_TOL = 1e-6     # edges shorter than this times the curve diameter
                         # are rejected (collision singularity ball)
QUADRATURE_GRID = 256    # chord_quadrature's first grid (points per circle),
QUADRATURE_MAX_GRID = 4096   # its finest grid,
QUADRATURE_TOL = 1e-6    # and the change of its estimate that ends refinement
TWO_CHORD_GRID = 512     # two_chord_quadrature's grid (points per circle)


def gauss_kernel(curve: LinkCurve, a, b):
    """The Gauss linking density for one chord, in mass-1 normalisation:
    (1/4pi) (L'(s) x L'(t)) . (L(t) - L(s)) / |L(t) - L(s)|^3.

    a = (component, parameter), b likewise; parameters may be arrays.
    """
    m1, s = a
    m2, t = b
    return _gauss(*curve.jet(m1, s), *curve.jet(m2, t))


def _gauss(x, dx, y, dy):
    """gauss_kernel from the points and velocities of the two ends."""
    diff = y - x
    r = np.linalg.norm(diff, axis=-1)
    if np.any(r < 1e-12):
        raise SamplingError("coincident curve points in gauss_kernel")
    num = np.sum(_cross(dx, dy) * diff, axis=-1)
    return num / (4 * np.pi * r ** 3)


def _cross(a, b):
    """np.cross over the last axis, bit for bit, without its axis
    handling (which costs more than the products at batch sizes)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=-1)


def sphere_frames(directions):
    """Deterministic oriented frames: f1 x f2 = direction (outward).

    Gram-Schmidt against the global z-axis, falling back to the x-axis near
    the poles; vectorized over the leading axes.
    """
    d = np.asarray(directions, dtype=float)
    z = np.zeros_like(d)
    z[..., 2] = 1.0
    x = np.zeros_like(d)
    x[..., 0] = 1.0
    near_pole = np.abs(d[..., 2]) > 0.99
    a = np.where(near_pole[..., None], x, z)
    f1 = _cross(a, d)
    n = np.linalg.norm(f1, axis=-1, keepdims=True)
    f1 = f1 / n
    f2 = _cross(d, f1)
    return f1, f2


class KernelGeometry:
    """Structure of an oriented diagram with a directed edge list, shared by
    the closed-link and the anomaly integrands and samplers.

    columns: the half-edge coordinate order, ('u', v) for a univalent vertex
    or ('t', v, axis) for a trivalent one; placement_order: the trivalent
    vertices, each with its already placed neighbours; jacobian_columns and
    entries: the Jacobian's column labels and the (column, vertex, edge,
    sign) of each of its contributions, set by the subclass through
    set_entries.

    The fold plan.  In the full 2E x 2E matrix, edge e owns two frame rows
    (f1 . b, f2 . b), where b is a column's entry vector on e (the signed
    velocity of the edge's moved ends over the edge length).  A column
    whose entries all lie on one edge e (a univalent parameter; in W the
    interior leg parameters and, for theta, both s columns) is removed by
    Laplace expansion.  The two frame rows of e become one frame-free
    folded row d . (a x b), with d the edge direction and a the folded
    column's entry vector, by (f1.a)(f2.b) - (f2.a)(f1.b) = (f1 x f2).(a x b).
    A second such column on a folded edge (a chord) leaves the scalar
    factor d . (a x a'), the Gauss kernel.  Each step contributes
    (-1)^(row + column) at its current position; fold_sign is their
    product.

    A trivalent coordinate moves its vertex along one axis, so its entry on
    a row is that component of the row over the edge length, signed by the
    end: rows list their trivalent ends and take no velocity for them.

    rows: the reduced matrix rows, (edge, 0 | 1) for a frame row and
    (edge, 'w') for a folded row; folded: {edge: folded column}; chords:
    the (edge, second column) scalar factors; blocks: {(edge, column):
    [(vertex, sign)]} for the columns that are not trivalent coordinates;
    cells: per reduced row, the (position, column) of those columns'
    nonzero entries; ends: per reduced row, its edge's trivalent ends as
    (the positions of the vertex's three columns, ordered by axis; the
    end's sign).
    """

    def __init__(self, od: OrientedDiagram, edges):
        d = od.diagram
        self.od = od
        self.d = d
        self.univ = [v for comp in d.placements for v in comp]
        self.univ_sign = {u: od.univ_sign(u) for u in self.univ}
        self.triv = sorted(d.trivalent)
        self.triv_index = {v: i for i, v in enumerate(self.triv)}
        self.edges = edges
        self.edge_index = {frozenset(e): i for i, e in enumerate(edges)}
        self.dim = 2 * len(edges)
        self.columns = self._column_order()
        self.placement_order = self._placement_order()

    def _column_order(self):
        cols = {}
        for ei, (p, q) in enumerate(self.edges):
            for half, v in ((2 * ei, p), (2 * ei + 1, q)):
                if v in self.d.univalent:
                    cols[half] = ("u", v)
                else:
                    # axis of this half-edge at v: position of the far
                    # neighbour in the cyclic order rotated to start at the
                    # lowest-index incident edge
                    far = q if v == p else p
                    cyc = self._rotated_cyclic(v)
                    cols[half] = ("t", v, cyc.index(far))
        return [cols[h] for h in range(self.dim)]

    def _rotated_cyclic(self, t):
        cyc = self.od.triv_cyclic(t)
        keyed = [self.edge_index[frozenset((t, n))] for n in cyc]
        start = keyed.index(min(keyed))
        return tuple(cyc[(start + i) % 3] for i in range(3))

    def _placement_order(self):
        """Trivalent vertices ordered so each has a placed neighbour."""
        placed = set(self.univ)
        order = []
        pending = set(self.triv)
        while pending:
            for v in sorted(pending):
                nbs = [w for w in self.d.neighbors(v) if w in placed]
                if nbs:
                    order.append((v, tuple(nbs)))
                    placed.add(v)
                    pending.discard(v)
                    break
            else:
                raise DiagramError("component without univalent anchor")
        return order

    def set_entries(self, columns):
        """Jacobian entries of the columns, each ('u', v) or ('t', v, axis)
        as in self.columns or ('s', k), which moves every univalent vertex;
        the tail of an edge enters with sign -1.  Then their fold plan."""
        self.jacobian_columns = columns
        self.entries = [(ci, v, ei, -1 if v == p else 1)
                        for ci, col in enumerate(columns)
                        for v in (self.univ if col[0] == "s" else (col[1],))
                        for ei, (p, q) in enumerate(self.edges) if v in (p, q)]
        self.blocks = {}
        for ci, v, ei, s in self.entries:
            if columns[ci][0] != "t":
                self.blocks.setdefault((ei, ci), []).append((v, s))
        on_edges = {}
        for ei, ci in self.blocks:
            on_edges.setdefault(ci, []).append(ei)
        rows = [(ei, f) for ei in range(len(self.edges)) for f in (0, 1)]
        kept = list(range(self.dim))
        self.folded = {}
        self.chords = []
        self.fold_sign = 1
        for ci, on in on_edges.items():
            if len(on) != 1:
                continue
            ei, = on
            at = [i for i, row in enumerate(rows) if row[0] == ei]
            self.fold_sign *= (-1) ** (at[0] + kept.index(ci))
            kept.remove(ci)
            if len(at) == 2:
                rows[at[0]:at[0] + 2] = [(ei, "w")]
                self.folded[ei] = ci
            else:
                del rows[at[0]]
                self.chords.append((ei, ci))
        self.rows = rows
        self.cells = [[(j, ci) for j, ci in enumerate(kept)
                       if (ei, ci) in self.blocks] for ei, _ in rows]
        self.ends = [[([kept.index(columns.index(("t", v, k)))
                        for k in range(3)], s)
                       for v, s in zip(self.edges[ei], (-1, 1))
                       if v in self.d.trivalent] for ei, _ in rows]


def propose_trivalent(geo: KernelGeometry, rng, pos, density, scale):
    """Radial half-Cauchy proposals for the trivalent vertices.

    In placement order, each vertex is centred at a uniformly chosen placed
    neighbour; the 1/r^2 density core matches the collision singularity of
    the integrand, the r^-4 tail covers escapes to infinity.  Adds the new
    positions to pos, multiplies density by the mixture density in place,
    and returns the (count, trivalent, 3) positions.
    """
    count = len(density)
    x_triv = np.empty((count, len(geo.triv), 3))
    for v, anchors in geo.placement_order:
        anchor_pos = np.stack([pos[a] for a in anchors], axis=1)
        choice = rng.integers(0, len(anchors), size=count)
        centers = np.take_along_axis(
            anchor_pos, choice[:, None, None], axis=1)[:, 0, :]
        u = rng.uniform(0.0, 1.0, size=count)
        r = scale * np.tan(0.5 * np.pi * u)
        direc = rng.normal(size=(count, 3))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        x = centers + r[:, None] * direc
        q = np.zeros(count)
        for a in anchors:
            ra = np.maximum(np.linalg.norm(x - pos[a], axis=1), 1e-300)
            q += scale / (2 * np.pi ** 2 * ra ** 2 * (scale ** 2 + ra ** 2))
        q /= len(anchors)
        density *= q
        x_triv[:, geo.triv_index[v], :] = x
        pos[v] = x
    return x_triv


def jacobian_values(geo: KernelGeometry, pos, tangents, tol):
    """Signed densities sign * det(M) / (4pi)^E for a batch, from the fold
    plan of geo: the chord factors times the reduced determinant.

    pos: {vertex: (count, 3)}; tangents: {(column, vertex): (count, 3)},
    the velocity of the vertex along the column's coordinate, for every
    column but the trivalent coordinates (see ends).  Returns
    (values, rejected_mask); configurations with an edge shorter than tol
    are flagged and valued 0.
    """
    count = len(pos[geo.univ[0]])
    E = len(geo.edges)
    lengths = np.empty((count, E))
    diffs, safe = [], []
    for ei, (p, q) in enumerate(geo.edges):
        diff = pos[q] - pos[p]
        r = np.linalg.norm(diff, axis=1)
        lengths[:, ei] = r
        diffs.append(diff)
        safe.append(np.maximum(r, 1e-300))
    rejected = np.any(lengths < tol, axis=1)

    # velocity[e, c] = (vector, sign): the tangents of the ends of e that
    # column c moves, summed with their signs, where the sign of a single
    # end is kept apart so that no tangent is copied.  The entry vector b
    # is sign * vector / length, so a frame entry is f . b and a folded
    # entry d . (a x b) is (diff x vector_a) . vector_b * signs / length^3.
    velocity = {}
    for (ei, ci), moved in geo.blocks.items():
        if len(moved) == 1:
            (v, s), = moved
            velocity[ei, ci] = tangents[ci, v], s
        else:
            velocity[ei, ci] = sum(s * tangents[ci, v] for v, s in moved), 1
    folded = {}
    for ei, ci in geo.folded.items():
        vector, sign = velocity[ei, ci]
        folded[ei] = _cross(diffs[ei], vector), sign, safe[ei] ** 3

    values = np.full(count, geo.sign * geo.fold_sign / (4 * np.pi) ** E)
    for ei, ci in geo.chords:
        row, sign, scale = folded[ei]
        vector, s = velocity[ei, ci]
        values *= np.einsum("ij,ij->i", row, vector) / (sign * s * scale)
    if geo.rows:
        # filled transposed, so that each entry is one contiguous write
        M = np.zeros((len(geo.rows), len(geo.rows), count))
        for i, (ei, kind) in enumerate(geo.rows):
            if kind == "w":
                row, sign, scale = folded[ei]
            else:
                if kind == 0:
                    frames = sphere_frames(diffs[ei] / safe[ei][:, None])
                row, sign, scale = frames[kind], 1, safe[ei]
            for j, ci in geo.cells[i]:
                vector, s = velocity[ei, ci]
                M[j, i] = (np.einsum("ij,ij->i", row, vector)
                           / (sign * s * scale))
            for axes, s in geo.ends[i]:
                M[axes, i] = row.T / (sign * s * scale)
        values *= np.linalg.det(M.T)
    return np.where(rejected, 0.0, values), rejected


def chord_sign(geo: KernelGeometry):
    """For a diagram of chords only, the sign c with integrand = c * the
    product over its chords (p, q) of gauss_kernel(p, q).

    A chord's factor in jacobian_values is d . (a x b) over its two ends'
    signed velocities a (the folded end) and b; the ends enter with
    opposite signs, so it is -e_p e_q 4 pi gauss_kernel(p, q), e the
    vertex orientations, when p is the folded end and +e_p e_q 4 pi
    gauss_kernel(p, q) when q is."""
    sign = geo.sign * geo.fold_sign
    for ei, _ in geo.chords:
        p, q = geo.edges[ei]
        folded_end = geo.jacobian_columns[geo.folded[ei]][1]
        sign *= geo.univ_sign[p] * geo.univ_sign[q] * (
            -1 if folded_end == p else 1)
    return sign


class DiagramGeometry(KernelGeometry):
    """Kernel geometry of a closed-link diagram on a curve.

    edge_order permutes the edge labels and flip_edges reverses chosen
    half-edge pairs; the integrand is invariant under both (each flips the
    coordinate orientation together with the frame of the edge direction),
    which the tests assert pointwise.
    """

    def __init__(self, od: OrientedDiagram, curve: LinkCurve,
                 edge_order=None, flip_edges=frozenset()):
        d = od.diagram
        if curve.n_components != d.support.n_components:
            raise DiagramError("curve and diagram support size differ")
        if not all(d.support.is_circle(i) for i in range(d.support.n_components)):
            raise DiagramError("closed-link integrals need circle components")
        # default edge labelling: sorted edge list; direction low -> high id
        edges = sorted((tuple(sorted(e)) for e in d.edges))
        if edge_order is not None:
            edges = [edges[i] for i in edge_order]
        edges = [tuple(reversed(e)) if frozenset(e) in flip_edges else e
                 for e in edges]
        super().__init__(od, edges)
        self.curve = curve
        self.univ_index = {v: i for i, v in enumerate(self.univ)}
        self.sign = (-1) ** len(edges)
        self.diameter = curve.diameter()
        self.set_entries(self.columns)


def univalent_jets(geo: DiagramGeometry, t_univ):
    """Points and signed velocities of the univalent vertices: two lists of
    (count, 3) arrays in geo.univ order, from one curve jet per vertex; the
    velocity carries the vertex's orientation sign."""
    x_univ, v_univ = [], []
    for i, v in enumerate(geo.univ):
        x, dx = geo.curve.jet(geo.d.component_of(v), t_univ[:, i])
        x_univ.append(x)
        v_univ.append(dx * geo.univ_sign[v])
    return x_univ, v_univ


class ConfigurationSampler:
    """Importance sampler for configurations of a diagram on a curve.

    Univalent parameters: uniform per component, sorted and rotated into the
    placement's cyclic class (exact constant density with the multiplicity
    factor (k-1)!/(2pi)^k); their points and velocities come from
    univalent_jets.  Trivalent points: propose_trivalent at the scale of the
    curve's diameter.
    """

    def __init__(self, geo: DiagramGeometry):
        self.geo = geo
        self.scale = max(geo.diameter, 1e-6)
        k_total = 1.0
        for comp in geo.d.placements:
            k = len(comp)
            if k:
                k_total *= float(factorial(k - 1)) / (2 * np.pi) ** k
        self.univ_density = k_total

    def sample(self, rng, count):
        """(t_univ, x_univ, v_univ, x_triv, density) for count
        configurations: the circle parameters, the univalent points and
        signed velocities (see univalent_jets), the trivalent points and
        the proposal density."""
        geo = self.geo
        t_univ = np.empty((count, len(geo.univ)))
        for ci, comp in enumerate(geo.d.placements):
            k = len(comp)
            if not k:
                continue
            u = np.sort(rng.uniform(0.0, 2 * np.pi, size=(count, k)), axis=1)
            rot = rng.integers(0, k, size=count)
            for j, v in enumerate(comp):
                idx = (rot + j) % k
                t_univ[:, geo.univ_index[v]] = np.take_along_axis(
                    u, idx[:, None], axis=1)[:, 0]
        density = np.full(count, self.univ_density)
        x_univ, v_univ = univalent_jets(geo, t_univ)
        pos = dict(zip(geo.univ, x_univ))
        x_triv = propose_trivalent(geo, rng, pos, density, self.scale)
        return t_univ, x_univ, v_univ, x_triv, density


def integrand_batch(geo: DiagramGeometry, x_univ, v_univ, x_triv):
    """Signed density values for a batch of configurations, given the
    univalent points and signed velocities (as univalent_jets returns them)
    and the trivalent points.

    Returns (values, rejected_mask); configurations with an edge shorter
    than the collision tolerance are flagged and valued 0.
    """
    pos = dict(zip(geo.univ, x_univ))
    for v in geo.triv:
        pos[v] = x_triv[:, geo.triv_index[v], :]
    tangents = {(geo.columns.index(("u", v)), v): dv
                for v, dv in zip(geo.univ, v_univ)}
    return jacobian_values(geo, pos, tangents, COLLISION_TOL * geo.diameter)


def integrand_at(od: OrientedDiagram, curve: LinkCurve, univ_params,
                 triv_points):
    """Pointwise integrand for a single configuration.

    univ_params: {vertex: parameter}; triv_points: {vertex: (x, y, z)}.
    """
    geo = DiagramGeometry(od, curve)
    t = np.array([[univ_params[v] for v in geo.univ]], dtype=float)
    if geo.triv:
        x = np.array([[triv_points[v] for v in geo.triv]], dtype=float)
    else:
        x = np.zeros((1, 0, 3))
    values, rejected = integrand_batch(geo, *univalent_jets(geo, t), x)
    if rejected[0]:
        raise SamplingError("configuration within the collision tolerance")
    return float(values[0])


def integrate_diagram(od: OrientedDiagram, curve: LinkCurve, samples=10 ** 6,
                      seed=0, shards=None, workers=None) -> Estimate:
    """Importance-sampled estimate of the configuration space integral."""
    d = od.diagram
    if not d.vertices:
        raise DiagramError("the empty diagram has the empty integral (1)")
    geo = DiagramGeometry(od, curve)
    sampler = ConfigurationSampler(geo)

    def batch(rng, count):
        _, x_univ, v_univ, x_triv, density = sampler.sample(rng, count)
        values, rejected = integrand_batch(geo, x_univ, v_univ, x_triv)
        return values / density, int(np.sum(rejected))

    return run_sharded(batch, samples, seed, shards, workers)


def _refined_pairs(n, first, symmetric):
    """The index pairs (i, j) of the n-point grid that the n/2-point grid
    lacks (all of them on the first grid), only i < j when the integrand is
    symmetric, in blocks of at most BATCH pairs."""
    rows = max(1, BATCH // n)
    for start in range(0, n, rows):
        i, j = np.divmod(np.arange(start * n, min(start + rows, n) * n), n)
        keep = np.full(len(i), True) if first else ((i | j) & 1) == 1
        if symmetric:
            keep &= j > i
        yield i[keep], j[keep]


def chord_quadrature(od: OrientedDiagram, curve: LinkCurve) -> Estimate:
    """The integral of a one-chord diagram by the trapezoid rule on the
    torus of its two circle parameters, through integrand_batch.

    On the grid t_i = 2 pi i / N of each circle, the sampler's density
    1/(4 pi^2) makes the weight of a pair (2 pi / N)^2; the diagonal, which
    the kernel rejects, weighs 0.  Between two components the integrand is
    smooth and the rule T(N) converges spectrally.  On one component the
    integrand is symmetric with an |s - t| kink on the diagonal, so T(N)
    is O(h^2) and the estimate is R(N) = (4 T(N) - T(N/2)) / 3, O(h^4).
    N doubles from QUADRATURE_GRID while the estimate moves by more than
    QUADRATURE_TOL, up to QUADRATURE_MAX_GRID; stderr is the last move,
    or the rounding error of the sum where that is larger; the record's
    grid is the final N.  The grids are nested, so each doubling evaluates
    only the new pairs.
    """
    if len(od.diagram.edges) != 1:
        raise DiagramError("chord_quadrature takes a diagram of one chord")
    geo = DiagramGeometry(od, curve)
    grid = np.arange(QUADRATURE_MAX_GRID) * (2 * np.pi / QUADRATURE_MAX_GRID)
    comps = [geo.d.component_of(v) for v in geo.univ]
    jets = {m: curve.jet(m, grid) for m in set(comps)}
    points = [jets[m][0] for m in comps]
    velocities = [jets[m][1] * geo.univ_sign[v]
                  for m, v in zip(comps, geo.univ)]
    symmetric = comps[0] == comps[1]
    total = magnitude = 0.0
    rules, estimates = [], []
    # the first comparison, R(N) - R(N/2) at N = QUADRATURE_GRID, needs T(N/4)
    n = QUADRATURE_GRID // 4
    while True:
        stride = QUADRATURE_MAX_GRID // n
        for i, j in _refined_pairs(n, not rules, symmetric):
            i, j = i * stride, j * stride
            values, _ = integrand_batch(
                geo, [points[0][i], points[1][j]],
                [velocities[0][i], velocities[1][j]],
                np.empty((len(i), 0, 3)))
            total += float(np.sum(values))
            magnitude += float(np.sum(np.abs(values)))
        weight = (2 if symmetric else 1) * (2 * np.pi / n) ** 2
        rules.append(total * weight)
        if len(rules) > 1:
            estimates.append((4 * rules[-1] - rules[-2]) / 3 if symmetric
                             else rules[-1])
        if n >= QUADRATURE_GRID:
            change = abs(estimates[-1] - estimates[-2])
            if change <= QUADRATURE_TOL or n == QUADRATURE_MAX_GRID:
                rounding = np.finfo(float).eps * magnitude * weight
                return Estimate(float(estimates[-1]),
                                float(max(change, rounding)), "quadrature",
                                {"grid": n})
        n *= 2


def two_chords_on_one_circle(d) -> bool:
    """Whether the diagram is two chords with all four ends on one circle:
    the crossed and parallel classes of a knot, or the self-chord classes
    of one link component."""
    return (not d.trivalent and len(d.edges) == 2
            and any(len(comp) == 4 for comp in d.placements))


def _kernel_triangle(curve: LinkCurve, m, n):
    """The Gauss kernel of component m on the n-point grid t_i = 2 pi i / n:
    the n x n matrix of gauss_kernel((m, t_i), (m, t_j)) for i < j, zero on
    and below the diagonal, filled a row at a time."""
    x, dx = curve.jet(m, np.arange(n) * (2 * np.pi / n))
    upper = np.zeros((n, n))
    for i in range(n - 1):
        upper[i, i + 1:] = _gauss(x[i], dx[i], x[i + 1:], dx[i + 1:])
    return upper


def _ordered_pair_sums(upper):
    """The sums over grid quadruples a < b < c < d of G[a, x] G[y, z] for
    the three ways to pair the slots, keyed by slot 0's partner: 1
    (adjacent, G[a, b] G[c, d]), 2 (interleaved, G[a, c] G[b, d]) and 3
    (nested, G[a, d] G[b, c]).  G = upper + upper.T is symmetric with a
    zero diagonal.

    Each is one O(n^2) contraction against the summed-area table Q of G,
    Q[i, j] = the sum of G[:i + 1, :j + 1], which is symmetric: the inner
    sum, once the first chord is fixed, is a rectangle of G (interleaved:
    b in (a, c), d > c) or, halved, a square (nested: b, c in (a, d);
    adjacent: c, d > b), each a corner combination of Q.  The corners that
    depend on one end of the first chord only contract against the row
    and column sums of the upper triangle."""
    q = upper + upper.T
    np.cumsum(q, axis=0, out=q)
    np.cumsum(q, axis=1, out=q)
    rows, cols = upper.sum(axis=1), upper.sum(axis=0)
    diag, last = np.diagonal(q), q[-1]
    # Q[n-1, c-1] - Q[c, c-1] - Q[n-1, a] + Q[a, c]
    interleaved = (np.einsum("ij,ij->", upper, q) - rows @ last
                   + cols[1:] @ (last[:-1] - np.diagonal(q, -1)))
    # (Q[d-1, d-1] + Q[a, a]) / 2 - Q[a, d-1]
    nested = (0.5 * (cols[1:] @ diag[:-1] + rows @ diag)
              - np.einsum("ij,ij->", upper[:, 1:], q[:, :-1]))
    # (Q[n-1, n-1] + Q[b, b]) / 2 - Q[b, n-1]
    adjacent = cols @ (0.5 * (last[-1] + diag) - last)
    return {1: adjacent, 2: interleaved, 3: nested}


def two_chord_quadrature(od: OrientedDiagram, curve: LinkCurve) -> Estimate:
    """The integral of a diagram of two chords on one circle by quadrature
    on the grid t_i = 2 pi i / N, N = TWO_CHORD_GRID.

    The integrand is chord_sign times a product of two Gauss kernels, so
    one kernel matrix G of the circle serves every configuration.  The
    sampler's cyclic class is the union of its four rotations over the
    simplex a < b < c < d (density (k-1)!/(2 pi)^k, k = 4): rotation r puts
    the placement's j-th vertex in slot (r + j) mod 4, and the chords then
    pair the slots in one of three patterns (_ordered_pair_sums).  The
    strict sum S(N) h^4, h = 2 pi / N, leaves out the ties, so it is O(h);
    on the nested grids N/8, N/4, N/2, N (every 8th, 4th, 2nd point of the
    same G), R1(N) = 2 S(N) - S(N/2) is O(h^2) and the estimate
    R2(N) = (4 R1(N) - R1(N/2)) / 3 is O(h^3).  stderr is its last move,
    |R2(N) - R2(N/2)|, or the sum's rounding error where that is larger;
    the record's grid is N.
    """
    d = od.diagram
    if not two_chords_on_one_circle(d):
        raise DiagramError(
            "two_chord_quadrature takes two chords on one circle")
    sign = chord_sign(DiagramGeometry(od, curve))
    comp, = (c for c in d.placements if c)
    partner = {v: w for e in d.edges for v, w in (tuple(e), tuple(e)[::-1])}
    # the placement vertex in slot 0 under rotation r is comp[-r % 4]
    patterns = [(r + comp.index(partner[comp[-r % 4]])) % 4 for r in range(4)]
    upper = _kernel_triangle(curve, d.component_of(comp[0]), TWO_CHORD_GRID)
    h = 2 * np.pi / TWO_CHORD_GRID
    rules = []
    for step in (8, 4, 2, 1):
        sums = _ordered_pair_sums(upper[::step, ::step])
        rules.append((step * h) ** 4 * sum(sums[p] for p in patterns))
    first = [2 * b - a for a, b in zip(rules, rules[1:])]
    second = [(4 * b - a) / 3 for a, b in zip(first, first[1:])]
    # the four rotations' sums of |G G| are at most 4 (sum of |G|, i < j)^2
    rounding = np.finfo(float).eps * 4 * (h ** 2 * np.sum(np.abs(upper))) ** 2
    return Estimate(float(sign * second[-1]),
                    float(max(abs(second[-1] - second[-2]), rounding)),
                    "quadrature", {"grid": TWO_CHORD_GRID})


def has_trivalent_triangle(d) -> bool:
    """Whether three trivalent vertices are pairwise joined.  The integrand
    of such a diagram vanishes at every point: the directions of the three
    triangle edges depend only on (x1 - x2, x2 - x3) up to scale, so their
    6-form pulls back through a map of rank at most 5."""
    return any({frozenset((a, b)), frozenset((b, c)), frozenset((a, c))}
               <= d.edges for a, b, c in combinations(sorted(d.trivalent), 3))


def z_n(curve: LinkCurve, n: int, k=None, samples=10 ** 6, seed=0,
        shards=None, workers=None):
    """The degree-n part of the configuration space integral series.

    Returns (vector, errors, estimates): the reduced class vector with
    float coefficients, a dict basis-key -> standard error propagated
    through the reduction, and the per-diagram-class estimates.  Classes
    with a trivalent triangle are 0 exactly and are not sampled; one-chord
    classes are computed by chord_quadrature and classes of two chords on
    one circle by two_chord_quadrature.  Every other class, the two-chord
    classes that span two components included, is sampled.
    """
    support = circles(curve.n_components)
    if n == 0:
        empty = enumerate_diagrams(support, 0)[0]
        vec = ClassVector.of(std_oriented(empty), 1.0)
        return vec, {}, {}
    red = reduction(support, n, k)
    estimates = {}
    auts = {}
    vec_terms = {}
    for idx, d in enumerate(enumerate_diagrams(support, n)):
        if not is_subprincipal(d) or has_trivalent_triangle(d):
            continue
        od = std_oriented(d)
        key, sign = canonical_oriented(od)
        if sign == 0:
            continue
        if len(d.edges) == 1:
            est = chord_quadrature(od, curve)
        elif two_chords_on_one_circle(d):
            est = two_chord_quadrature(od, curve)
        else:
            est = integrate_diagram(od, curve, samples=samples,
                                    seed=seed + 7919 * idx,
                                    shards=shards, workers=workers)
        estimates[key] = est
        auts[key] = aut = automorphism_count(d)
        vec_terms[key] = vec_terms.get(key, 0.0) + sign * est.value / aut
    raw = ClassVector(support, n, vec_terms)
    reduced = red.reduce(raw)
    # propagate errors through the linear reduction
    coords_err = {bk: 0.0 for bk in red.basis}
    for key, est in estimates.items():
        unit = ClassVector(support, n, {key: Fraction(1)})
        coeffs = red.reduce(unit)
        for bk, c in coeffs.terms.items():
            coords_err[bk] += (float(c) * est.stderr / auts[key]) ** 2
    errors = {bk: float(np.sqrt(v)) for bk, v in coords_err.items() if v}
    return reduced, errors, estimates
