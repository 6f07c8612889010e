"""Evaluation of the configuration space integrals I_L(Γ), by Monte Carlo
and, for one chord or two chords on one circle, by quadrature; and the
configuration-space kernel that the anomaly integrals share.

The integrand is the density of the pulled-back product of unit-area sphere
forms against the coordinate volume of the configuration space: the wedge
of the edges' 2-forms phi_e^* omega on the half-edge-ordered coordinates
(one circle parameter per univalent vertex, three space coordinates per
trivalent vertex, ordered by the vertex orientations).  Its value is a sum
over the ways to hand each edge two of the coordinate columns, and edge e
on the columns j < k gives omega_e(j, k) = D . (B_j x B_k) / (4 pi r^3),
with D the edge vector, r its length and B_j, B_k the signed velocities of
its ends along the two coordinates.  That value is one of three things:
+-D_c / r^3 for two axes of trivalent ends, a component of (D / r^3) x V
for a velocity V and an axis, and a triple product for two velocities.
Each geometry plans the sum once (WedgePlan), so a chord diagram is a
single term, the product of its chords' Gauss kernels.

A diagram of chords has the integrand chord_sign times the product of its
chords' Gauss kernels, so its quadrature reads the kernel matrix of the
grid in blocks of rows (_kernel_rows; on one circle its upper triangle):
chord_quadrature sums it over the torus of one chord's circle parameters,
two_chord_quadrature over the ordered grid quadruples of one circle.
integrate_diagram samples the integrand and stays the oracle for every
diagram, chord diagrams included.

The kernel has three parts, used by both the closed-link integrals here and
the anomaly integrals over W(γ): KernelGeometry (columns, placement order,
Jacobian entries and their wedge plan), propose_trivalent (the radial
proposal for the trivalent vertices) and jacobian_values (edge lengths,
the edges' 2-form values and their wedge).

Sign conventions are pinned empirically (Hopf linking +1, round-unknot
tripod +1/8): the sphere form is outward, omega(a, b) = d . (a x b) at the
direction d, and the whole wedge carries a factor (-1)^{#edges}, which
makes the single-chord density equal the classical Gauss linking integrand
exactly.
"""

from functools import partial, reduce
from itertools import combinations
from math import factorial, prod
from operator import or_

import numpy as np

from .algebra import ClassVector, reduction
from .curves import LinkCurve, sincos
from .diagrams import OrientedDiagram, automorphism_count, \
    canonical_oriented, enumerate_diagrams, is_subprincipal, std_oriented
from .errors import DiagramError, SamplingError
from .mc import BATCH, Estimate, Workspace, run_sharded
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


def _gauss(x, dx, y, dy, diagonal=False):
    """gauss_kernel from the (3, ...) rows of the points and velocities of
    the two ends, which broadcast against each other.  diagonal: the rows
    and columns start at the same point of one circle; r = inf on the
    main diagonal, so it reads 0."""
    d0, d1, d2 = y - x
    a0, a1, a2 = dx
    b0, b1, b2 = dy
    r = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    if diagonal:
        np.fill_diagonal(r, np.inf)
    if np.any(r < 1e-12):
        raise SamplingError("coincident curve points in gauss_kernel")
    num = ((a1 * b2 - a2 * b1) * d0 + (a2 * b0 - a0 * b2) * d1
           + (a0 * b1 - a1 * b0) * d2)
    # 4 pi r^3: numpy's power is a scalar loop; in place, one temporary
    denominator = r * r
    denominator *= r
    denominator *= 4 * np.pi
    return num / denominator


def _kernel_rows(curve: LinkCurve, m1, m2, n):
    """The Gauss kernel matrix G[i, j] = gauss_kernel((m1, t_i), (m2, t_j))
    on the n-point grid t_i = 2 pi i / n, in blocks of rows of at most
    BATCH entries: yields (first row, block).  Between two circles a block
    is whole rows, block[i, j] = G[start + i, j].  On one circle (m1 == m2)
    G is symmetric bit for bit (swapping the ends negates both the cross
    product and the difference), so a block starts at its first row's
    diagonal column, block[i, j] = G[start + i, start + j], and reads 0 on
    and below the diagonal; there a block is at most n // 4 rows, so that
    a small grid's blocks skip most of the lower triangle."""
    t = np.arange(n) * (2 * np.pi / n)
    x, dx = curve.jet(m1, t)
    y, dy = (x, dx) if m1 == m2 else curve.jet(m2, t)
    rows = max(1, BATCH // n if m1 != m2 else min(BATCH // n, n // 4))
    for start in range(0, n, rows):
        stop, first = min(start + rows, n), start if m1 == m2 else 0
        block = _gauss(x[:, start:stop, None], dx[:, start:stop, None],
                       y[:, None, first:], dy[:, None, first:], m1 == m2)
        yield start, np.triu(block, 1) if m1 == m2 else block


def _cross(a, b, out, tmp):
    """The cross products of the columns of two (3, count) arrays into out,
    as np.cross computes them; tmp is a (count,) row for the second
    product."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    for k, (p, q, r, u) in enumerate(((a1, b2, a2, b1), (a2, b0, a0, b2),
                                      (a0, b1, a1, b0))):
        np.subtract(np.multiply(p, q, out=out[k]),
                    np.multiply(r, u, out=tmp), out=out[k])
    return out


def _dot(a, b, out, tmp):
    """The dot products of the columns of two (3, count) arrays into out,
    summed as (a0 b0 + a2 b2) + a1 b1, numpy's einsum order for a length-3
    axis; tmp is a (count,) row."""
    np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[2], b[2], out=tmp)
    out += np.multiply(a[1], b[1], out=tmp)
    return out


def _norms(x, out, tmp):
    """The Euclidean norms of the columns of a (3, count) array, into out,
    the squares summed in _dot's order; tmp is a (count,) row."""
    np.multiply(x[0], x[0], out=out)
    out += np.multiply(x[2], x[2], out=tmp)
    out += np.multiply(x[1], x[1], out=tmp)
    return np.sqrt(out, out=out)


def permutation_sign(seq):
    """The sign of a sequence of distinct numbers, by its inversions."""
    return (-1) ** sum(a > b for a, b in combinations(seq, 2))


def sphere_chart(z, phi, out):
    """The (z, phi) chart of S² as a map of two uniform rows, transformed in
    place: z = 2u - 1, phi = 2 pi u and the point (r cos phi, r sin phi, z),
    r = sqrt(1 - z^2), written into the (3, count) out, with cos and sin
    from sincos; the rows end holding r and sincos's scratch.  The area
    element is dz dphi, so the point is uniform on the sphere: density
    1/(4 pi)."""
    np.subtract(np.multiply(z, 2, out=z), 1, out=z)
    out[2] = z
    r = np.sqrt(np.subtract(1, np.square(z, out=z), out=z), out=z)
    sincos(np.multiply(phi, 2 * np.pi, out=phi), out[0], out[1], phi)
    out[:2] *= r
    return out


def sort_rows(rows, tmp):
    """Sorts every column of the few (k, count) rows in place: k rounds of
    an odd-even transposition network, each compare-exchange of two rows
    one elementwise minimum and maximum (numpy's sort along the short axis
    took 5 times as long for 5 rows and 35 times for 2); tmp is a (count,)
    scratch row."""
    for r in range(len(rows)):
        for i in range(r % 2, len(rows) - 1, 2):
            np.minimum(rows[i], rows[i + 1], out=tmp)
            np.maximum(rows[i], rows[i + 1], out=rows[i + 1])
            rows[i] = tmp
    return rows


class WedgePlan:
    """The wedge of E 2-forms on 2E coordinates for every batch of their
    values, expanded once: the determinant of a 2E x 2E matrix whose rows
    2e, 2e + 1 belong to edge e, from the 2x2 minors of each edge's rows.

    The expansion is a dynamic programme over the set S of columns already
    used: after n edges, the state S holds the signed sum, over the ways to
    hand those edges disjoint column pairs covering S, of the products of
    their values.  Handing the next edge the pair j < k outside S carries
    the sign (-1)^(the columns of S above j + those above k), the
    inversions that the pair adds.  Only the states that lie on a complete
    expansion are kept: those reachable from the empty set and, backwards,
    from the full one.  The edges are placed in one fixed order: next comes
    the edge after which the fewest column sets are reachable from the
    empty one by the pairs as given, ties going to the edge that shares the
    most columns with those placed, then to fewer columns, then to the
    lower index.

    Each state is stored times a sign fixed here, so the first edge's
    values are states as they stand and every later transition is one
    product and one in-place add or subtract of a (count,) vector.  The
    states of consecutive edges alternate between the two halves of one
    (2, width, count) array of the plan's Workspace, width the most states
    after any edge.

    pairs: per edge, the (j, k, sign, key) of its column pairs j < k whose
    value can be nonzero: sign times the vector handed to wedge for it,
    which key names for the caller.  The plan keeps, as pairs, only those
    on a complete expansion.  first: the first edge; steps: per later edge,
    (edge, the number of states after it, [(source, pair, target, op)])
    with pair a position in pairs[edge] and op 0 for the first transition
    into a state (which sets it) and +1 or -1 for the others; transitions:
    their number, the first edge's included; sign: that of the full state.
    """

    def __init__(self, pairs):
        pairs = [[(pair, 1 << pair[0] | 1 << pair[1]) for pair in edge]
                 for edge in pairs]
        columns = [reduce(or_, (m for _, m in edge), 0) for edge in pairs]
        # min keeps the first of its ties: fewer columns, then lower index
        rest = sorted(range(len(pairs)),
                      key=lambda e: (columns[e].bit_count(), e))
        order, placed, reached = [], 0, {0}

        def after(e):
            return {state | m for state in reached for _, m in pairs[e]
                    if not state & m}

        while rest:
            e = min(rest, key=lambda e: (len(after(e)),
                                         -(columns[e] & placed).bit_count()))
            rest.remove(e)
            order.append(e)
            placed |= columns[e]
            reached = after(e)
        # a column that no other edge has can only go to its own edge
        seen = shared = 0
        for c in columns:
            shared |= seen & c
            seen |= c
        pairs = [[(pair, m) for pair, m in edge if not c & ~shared & ~m]
                 for edge, c in zip(pairs, columns)]
        # per edge placed, the column sets after it that can still complete;
        # the states built from the empty set are the reachable ones
        ahead = [{(1 << 2 * len(pairs)) - 1}]
        for e in reversed(order[1:]):
            ahead.append({state & ~m for state in ahead[-1]
                          for _, m in pairs[e] if state & m == m})
        ahead.reverse()

        self.first = order[0]
        self.pairs = [[] for _ in pairs]
        self.steps = []
        self.transitions = 0
        index, signs = {0: 0}, [1]
        for n, e in enumerate(order):
            target, target_signs, transitions = {}, [], []
            for pair, m in pairs[e]:
                j, k, sign, _ = pair
                p, before = len(self.pairs[e]), len(transitions)
                for state, i in index.items():
                    new = state | m
                    if state & m or new not in ahead[n]:
                        continue
                    s = sign * signs[i] * (-1) ** (
                        (state >> j + 1).bit_count()
                        + (state >> k + 1).bit_count())
                    if new in target:
                        t = target[new]
                        transitions.append((i, p, t, s * target_signs[t]))
                    else:
                        target[new] = len(target)
                        target_signs.append(s)
                        transitions.append((i, p, target[new], 0))
                if len(transitions) > before:
                    self.pairs[e].append(pair)
            if n:
                self.steps.append((e, len(target), transitions))
            self.transitions += len(transitions)
            index, signs = target, target_signs
        self.sign = signs[0]
        self.width = max([1] + [size for _, size, _ in self.steps])
        self.work = Workspace()

    def wedge(self, minors):
        """The determinants for a batch; minors[e] lists the (count,)
        vectors of pairs[e].  The result is a view into the plan's
        workspace (or one of the minors), valid until the next wedge in
        the same thread."""
        values = minors[self.first]
        count = len(values[0])
        states = self.work("states", (2, self.width, count))
        term = self.work("term", (count,))
        for n, (e, size, transitions) in enumerate(self.steps):
            vectors, new = minors[e], states[n % 2]
            for i, p, t, op in transitions:
                if op == 0:
                    np.multiply(values[i], vectors[p], out=new[t])
                    continue
                np.multiply(values[i], vectors[p], out=term)
                if op > 0:
                    new[t] += term
                else:
                    new[t] -= term
            values = new
        if self.sign > 0:
            return values[0]
        return np.negative(values[0], out=states[len(self.steps) % 2, 0])


class KernelGeometry:
    """Structure of an oriented diagram with a directed edge list, shared by
    the closed-link and the anomaly integrands and samplers.

    columns: the half-edge coordinate order, ('u', v) for a univalent vertex
    or ('t', v, axis) for a trivalent one; placement_order: the trivalent
    vertices, each with its already placed neighbours.  The subclass hands
    the Jacobian's column labels to set_entries, which sets moves and plan
    (below).

    The wedge plan.  Edge e's 2-form on the columns j < k is
    D . (B_j x B_k) / r^3 (times 1/4pi, which jacobian_values applies
    once), where B_j is the velocity of the end of e that column j moves,
    signed -1 at the tail: the tangent V_j for a velocity column, or
    f e_a for an axis column along the axis a, f its scale (1, or a leg's
    parameter row).  With the signs kept apart, each pair is sign * one of
    these over r^3, times the scale rows of the legs in f:
      ('w', c, None, f)  D_c, for two axes a != b (c the third; two
                         columns of one axis give 0 and are not listed),
      ('x', j, a, f)     (D x V_j)_a, for the velocity column j and axis a,
      ('v', j, k, ())    (D x V_j) . V_k, for two velocity columns.
    moves: {(edge, velocity column): the vertex it moves}; plan: the
    WedgePlan of the pairs, each keyed as above; minor_keys: per edge, the
    keys that jacobian_values evaluates in order, those of the plan's
    pairs each after itself with its last scale left out.

    work: the mc.Workspace of the geometry's samplers and integrands, so
    that a batch allocates only the arrays it returns.
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
        self.work = Workspace()

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

    def set_entries(self, columns, axes={}):
        """Jacobian entries of the columns, each ('u', v) or ('t', v, axis)
        as in self.columns or a label of axes; the tail of an edge enters
        with sign -1.  Then the edges' 2-form pairs and their wedge plan.

        ('t', v, a) moves v along e_a.  axes maps a label to the (vertex,
        axis, sign, scale) that its column moves: the vertex along
        sign * e_axis, times the parameter row of the leg scale unless
        scale is None.  Any other ('u', v) is a velocity column, moving v
        along its tangent.  A column moves one end of an edge at most."""
        moved = [{} for _ in self.edges]
        for ci, col in enumerate(columns):
            axis = col[2] if col[0] == "t" else None
            for v, a, sign, scale in axes.get(col, [(col[1], axis, 1, None)]):
                for ei, (p, q) in enumerate(self.edges):
                    if v in (p, q):
                        moved[ei].setdefault(ci, []).append(
                            (v, -sign if v == p else sign, a, scale))
        # per edge and column, the one end it moves
        moved = [{ci: end for ci, (end,) in on.items()} for on in moved]
        self.moves = {(ei, ci): v for ei, on in enumerate(moved)
                      for ci, (v, _, a, _) in on.items() if a is None}
        pairs = []
        for on in moved:
            pairs.append([])
            for j, k in combinations(sorted(on), 2):
                (_, sj, a, fj), (_, sk, b, fk) = on[j], on[k]
                scales = tuple(f for f in (fj, fk) if f is not None)
                if a is None and b is None:
                    key = "v", j, k, ()
                elif a is None or b is None:
                    # D . (V x e_b) = (D x V)_b, and e_a x V is its negative
                    key = ("x", j, b, scales) if a is None else (
                        "x", k, a, scales)
                    sj *= 1 if a is None else -1
                elif a == b:
                    continue
                else:
                    # e_a x e_b = +-e_c, + when (a, b, c) is cyclic
                    key = "w", 3 - a - b, None, scales
                    sj *= 1 if (b - a) % 3 == 1 else -1
                pairs[-1].append((j, k, sj * sk, key))
        self.plan = WedgePlan(pairs)
        self.minor_keys = [list(dict.fromkeys(
            (*key[:3], key[3][:n]) for *_, key in edge
            for n in range(len(key[3]) + 1))) for edge in self.plan.pairs]


def pick_centre(a, centres, x, m, tmp):
    """The centre floor(K a) of the K (3, count) centres for the uniform
    row a, column by column, into the (3, count) x: the last k with
    a >= k / K.  Each later centre enters by the blend x - m x + m c of
    the 0/1 row m, which is x or c exactly where they are finite (a masked
    copy costs about 19 ns a sample); m, a (count,) float row, and tmp,
    (3, count), are scratch."""
    np.copyto(x, centres[0])
    for k, c in enumerate(centres[1:], 1):
        np.greater_equal(a, k / len(centres), out=m)
        x -= np.multiply(x, m, out=tmp)
        x += np.multiply(c, m, out=tmp)
    return x


def propose_trivalent(geo: KernelGeometry, u, pos, density, scale):
    """Radial half-Cauchy proposals for the trivalent vertices, as a map of
    the uniform rows u, (a, r, z, phi) per vertex in placement order, which
    it transforms in place: the centre is the placed neighbour floor(K a)
    of the K, the radius scale tan(pi r / 2) and the direction the
    sphere_chart point of (z, phi).  The radius's 1/r^2 density core
    matches the collision singularity of the integrand, its r^-4 tail
    covers escapes to infinity.  Adds the new positions to pos, as views
    into x_triv, multiplies density by the mixture density over the K
    centres in place, and returns the (trivalent, 3, count) positions
    x_triv, which come from geo.work with the scratch.
    """
    count, work = len(density), geo.work
    x_triv = work("triv.x", (len(geo.triv), 3, count))
    step = work("triv.step", (3, count))
    q = work("triv.q", (count,))
    for (v, anchors), (a, r, z, phi) in zip(geo.placement_order,
                                            u.reshape(-1, 4, count)):
        # q holds the pick's 0/1 row until the mixture density below
        x = pos[v] = pick_centre(a, [pos[c] for c in anchors],
                                 x_triv[geo.triv_index[v]], q, step)
        np.multiply(np.tan(np.multiply(r, 0.5 * np.pi, out=r), out=r), scale,
                    out=r)
        x += np.multiply(sphere_chart(z, phi, step), r, out=step)
        q.fill(0.0)
        for c in anchors:
            # q += scale / (2 pi^2 ra^2 (scale^2 + ra^2)), op by op, in the
            # spent rows r and a
            ra = _norms(np.subtract(x, pos[c], out=step), r, a)
            ra2 = np.square(np.maximum(ra, 1e-300, out=r), out=r)
            np.multiply(ra2, 2 * np.pi ** 2, out=a)
            np.multiply(a, np.add(ra2, scale ** 2, out=r), out=a)
            q += np.divide(scale, a, out=a)
        q /= len(anchors)
        density *= q
    return x_triv


def jacobian_values(geo: KernelGeometry, pos, tangents, tol, scales={}):
    """Signed densities sign * det(M) / (4pi)^E for a batch: the wedge of
    the edges' 2-forms through the plan of geo.

    pos: {vertex: (3, count)}; tangents: {(column, vertex): (3, count)},
    the velocity of the vertex along each velocity column; scales: {leg:
    (count,) parameter row} for the scaled axis columns.  Returns (values,
    rejected_mask), the batch's only new arrays: the 2-form values, one
    (values, count) array, and the scratch come from geo.work.
    Configurations with an edge shorter than tol are flagged and valued 0.
    """
    work = geo.work
    count = np.shape(pos[geo.univ[0]])[1]
    E = len(geo.edges)
    rows = iter(work("jv.minors", (sum(map(len, geo.minor_keys)), count)))
    diff = work("jv.diff", (3, count))
    r, r3 = work("jv.r", (count,)), work("jv.r3", (count,))
    short = work("jv.short", (count,), bool)
    rejected = np.zeros(count, bool)
    minors = []
    for ei, (p, q) in enumerate(geo.edges):
        r = _norms(np.subtract(pos[q], pos[p], out=diff), r, r3)
        rejected |= np.less(r, tol, out=short)
        np.maximum(r, 1e-300, out=r3)
        np.multiply(r3, np.square(r3, out=r), out=r3)
        crossed, minor = {}, {}
        for key in geo.minor_keys[ei]:
            kind, a, b, f = key
            row = next(rows)
            if f:       # the key with one scale fewer came first
                minor[key] = np.multiply(minor[kind, a, b, f[:-1]],
                                         scales[f[-1]], out=row)
                continue
            if kind == "w":
                top = diff[a]
            else:
                if a not in crossed:     # r is free once r3 is taken
                    crossed[a] = _cross(
                        diff, _velocity(geo, tangents, ei, a),
                        work(("jv.crossed", len(crossed)), (3, count)), r)
                top = (crossed[a][b] if kind == "x" else _dot(
                    crossed[a], _velocity(geo, tangents, ei, b), row, r))
            minor[key] = np.divide(top, r3, out=row)
        minors.append([minor[key] for *_, key in geo.plan.pairs[ei]])
    values = np.multiply(geo.plan.wedge(minors), geo.sign / (4 * np.pi) ** E)
    values[rejected] = 0.0
    return values, rejected


def _velocity(geo: KernelGeometry, tangents, ei, ci):
    """V for the velocity column ci on edge ei: the tangent of the end it
    moves, as it stands."""
    return tangents[ci, geo.moves[ei, ci]]


def chord_sign(geo: KernelGeometry):
    """For a diagram of chords only, the sign c with integrand = c * the
    product over its chords (p, q) of gauss_kernel(p, q).

    The plan is then a single term, of sign plan.sign: each chord (p, q)
    takes its two columns, the tail p's first as the half-edge order puts
    it, and their vector (D x V_p) . V_q / r^3 is e_p e_q 4 pi
    gauss_kernel(p, q), e the vertex orientations that the tangents carry.
    Every univalent vertex ends one chord."""
    return geo.sign * geo.plan.sign * prod(geo.univ_sign.values())


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
        self.sign = (-1) ** len(edges)
        self.diameter = curve.diameter()
        self.set_entries(self.columns)


def univalent_jets(geo: DiagramGeometry, t_univ):
    """Points and signed velocities of the univalent vertices, given their
    parameters as (univalent, count) rows: two lists of (3, count) arrays
    in geo.univ order, from one curve jet per vertex; the velocity carries
    the vertex's orientation sign.  The arrays live in geo.work until the
    next univalent_jets on geo in the same thread."""
    work, count = geo.work, np.shape(t_univ)[1]
    x_univ, v_univ = [], []
    for v, t in zip(geo.univ, t_univ):
        x, dx = geo.curve.jet(geo.d.component_of(v), t,
                              work(("univ.jet", v), (6, count)), work)
        x_univ.append(x)
        v_univ.append(np.multiply(dx, geo.univ_sign[v], out=dx))
    return x_univ, v_univ


class ConfigurationSampler:
    """Importance sampler for configurations of a diagram on a curve, as a
    map of one block of uniforms per batch: dim rows of count, one per
    univalent vertex in geo.univ order and four per trivalent vertex.

    On a circle with k legs the placement's first leg sits at 2 pi u and
    the other k - 1 at the sorted offsets 2 pi u after it, so they follow
    the placement's cyclic order with the constant density (k-1)!/(2pi)^k;
    their points and velocities come from univalent_jets.  Trivalent
    points: propose_trivalent at the scale of the curve's diameter.
    """

    def __init__(self, geo: DiagramGeometry):
        self.geo = geo
        self.scale = max(geo.diameter, 1e-6)
        self.dim = len(geo.univ) + 4 * len(geo.triv)
        self.univ_density = prod(factorial(k - 1) / (2 * np.pi) ** k
                                 for k in map(len, geo.d.placements) if k)

    def sample(self, rng, count):
        """(t_univ, x_univ, v_univ, x_triv, density) for count
        configurations from one rng.random block: the circle parameters as
        (univalent, count) rows, the univalent points and signed velocities
        (see univalent_jets), the (trivalent, 3, count) points and the
        proposal density.  All of them live in geo.work until the next
        sample in the same thread."""
        geo = self.geo
        u = rng.random(out=geo.work("sample.u", (self.dim, count)))
        density = geo.work("sample.density", (count,))   # scratch until filled
        start = 0
        for comp in geo.d.placements:
            if comp:
                legs = np.multiply(u[start:start + len(comp)], 2 * np.pi,
                                   out=u[start:start + len(comp)])
                sort_rows(legs[1:], density)
                legs[1:] += legs[0]
                start += len(comp)
        t_univ = u[:start]
        density.fill(self.univ_density)
        x_univ, v_univ = univalent_jets(geo, t_univ)
        x_triv = propose_trivalent(geo, u[start:], dict(zip(geo.univ, x_univ)),
                                   density, self.scale)
        return t_univ, x_univ, v_univ, x_triv, density


def integrand_batch(geo: DiagramGeometry, x_univ, v_univ, x_triv):
    """Signed density values for a batch of configurations, given the
    univalent points and signed velocities (as univalent_jets returns them)
    and the (trivalent, 3, count) points.

    Returns (values, rejected_mask), new arrays (jacobian_values);
    configurations with an edge shorter than the collision tolerance are
    flagged and valued 0.
    """
    pos = dict(zip(geo.univ, x_univ))
    for v in geo.triv:
        pos[v] = x_triv[geo.triv_index[v]]
    tangents = {(geo.columns.index(("u", v)), v): dv
                for v, dv in zip(geo.univ, v_univ)}
    return jacobian_values(geo, pos, tangents, COLLISION_TOL * geo.diameter)


def integrand_at(od: OrientedDiagram, curve: LinkCurve, univ_params,
                 triv_points):
    """Pointwise integrand for a single configuration.

    univ_params: {vertex: parameter}; triv_points: {vertex: (x, y, z)}.
    """
    geo = DiagramGeometry(od, curve)
    t = np.array([[univ_params[v]] for v in geo.univ], dtype=float)
    x = np.array([triv_points[v] for v in geo.triv], dtype=float)
    x = x.reshape(len(geo.triv), 3, 1)
    values, rejected = integrand_batch(geo, *univalent_jets(geo, t), x)
    if rejected[0]:
        raise SamplingError("configuration within the collision tolerance")
    return float(values[0])


def integrate_diagram(od: OrientedDiagram, curve: LinkCurve, samples=10 ** 6,
                      seed=0, shards=None, workers=None) -> Estimate:
    """Importance-sampled estimate of the configuration space integral.
    A batch samples into the geometry's workspace and divides the
    integrand's new values array by the density in place."""
    d = od.diagram
    if not d.vertices:
        raise DiagramError("the empty diagram has the empty integral (1)")
    geo = DiagramGeometry(od, curve)
    sampler = ConfigurationSampler(geo)

    def batch(rng, count):
        _, x_univ, v_univ, x_triv, density = sampler.sample(rng, count)
        values, rejected = integrand_batch(geo, x_univ, v_univ, x_triv)
        return np.divide(values, density, out=values), int(np.sum(rejected))

    return run_sharded(batch, samples, seed, shards, workers)


def chord_quadrature(od: OrientedDiagram, curve: LinkCurve,
                     kernels=None) -> Estimate:
    """The integral of a one-chord diagram by the trapezoid rule on the
    torus of its two circle parameters: chord_sign times the sum of the
    Gauss kernel matrix of _kernel_rows over the ordered grid pairs.

    On the grid t_i = 2 pi i / N of each circle, the sampler's density
    1/(4 pi^2) makes the weight of a pair h^2, h = 2 pi / N; the diagonal
    weighs 0.  Between two components the integrand is smooth and the
    rule T(N) converges spectrally.  On one component the integrand is
    symmetric with an |s - t| kink on the diagonal, so T(N) is O(h^2) and
    the estimate is R(N) = (4 T(N) - T(N/2)) / 3, O(h^4).  One pass over
    the blocks of the N-grid gives T(N), and T(N/2) and T(N/4) from its
    every 2nd and 4th row and column; on one circle the blocks hold the
    upper triangle, which counts twice.  N doubles from QUADRATURE_GRID
    while the estimate moves by more than QUADRATURE_TOL, up to
    QUADRATURE_MAX_GRID; stderr is the last move, or the rounding error of
    the sum where that is larger; the record's grid is the final N.

    kernels, when given, is a dict that one command's calls on the curve
    share (as two_chord_quadrature's): the estimate is kept under od, so
    that θ of a component, which z_n at degree 1 and self_linking both
    need, is computed once.
    """
    if kernels is not None:
        if od not in kernels:
            kernels[od] = chord_quadrature(od, curve)
        return kernels[od]
    if len(od.diagram.edges) != 1:
        raise DiagramError("chord_quadrature takes a diagram of one chord")
    geo = DiagramGeometry(od, curve)
    m1, m2 = (geo.d.component_of(v) for v in geo.edges[0])
    strides = np.array([1, 2, 4])
    n = QUADRATURE_GRID
    while True:
        sums, magnitude = np.zeros(3), 0.0
        for start, block in _kernel_rows(curve, m1, m2, n):
            j0 = start if m1 == m2 else 0    # G's column of block[:, 0]
            magnitude += np.sum(np.abs(block))
            sums += [np.sum(block[-start % s::s, -j0 % s::s]) for s in strides]
        if m1 == m2:    # the upper triangle of G = G^T, zero diagonal
            sums, magnitude = 2 * sums, 2 * magnitude
        rules = sums * (2 * np.pi * strides / n) ** 2    # T(N), T(N/2), T(N/4)
        # R(N) and R(N/2) on one circle, T(N) and T(N/2) between two
        estimate, previous = ((4 * rules[:2] - rules[1:]) / 3 if m1 == m2
                              else rules[:2])
        change = abs(estimate - previous)
        if change <= QUADRATURE_TOL or n == QUADRATURE_MAX_GRID:
            rounding = np.finfo(float).eps * magnitude * (2 * np.pi / n) ** 2
            return Estimate(float(chord_sign(geo) * estimate),
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
    and below the diagonal, written from the blocks of _kernel_rows."""
    upper = np.zeros((n, n))
    for start, block in _kernel_rows(curve, m, m, n):
        upper[start:start + len(block), start:] = block
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


PAIR_SUM_STEPS = (8, 4, 2, 1)    # the nested grids N/8, N/4, N/2, N


def _circle_pair_sums(curve: LinkCurve, m):
    """What two_chord_quadrature reads of component m: _ordered_pair_sums
    of its kernel triangle on every PAIR_SUM_STEPS-th grid point, and the
    sum of |G| over i < j.  The crossed and parallel classes share it."""
    upper = _kernel_triangle(curve, m, TWO_CHORD_GRID)
    return ([_ordered_pair_sums(upper[::step, ::step])
             for step in PAIR_SUM_STEPS], np.sum(np.abs(upper)))


def two_chord_quadrature(od: OrientedDiagram, curve: LinkCurve,
                         kernels=None) -> Estimate:
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

    kernels, when given, is a dict of the curve that calls share: under
    each component its _circle_pair_sums, so that each circle's G and its
    pair sums are built once.
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
    kernels = {} if kernels is None else kernels
    m = d.component_of(comp[0])
    if m not in kernels:
        kernels[m] = _circle_pair_sums(curve, m)
    grids, total = kernels[m]
    h = 2 * np.pi / TWO_CHORD_GRID
    rules = [(step * h) ** 4 * sum(sums[p] for p in patterns)
             for step, sums in zip(PAIR_SUM_STEPS, grids)]
    first = [2 * b - a for a, b in zip(rules, rules[1:])]
    second = [(4 * b - a) / 3 for a, b in zip(first, first[1:])]
    # the four rotations' sums of |G G| are at most 4 (sum of |G|, i < j)^2
    rounding = np.finfo(float).eps * 4 * (h ** 2 * total) ** 2
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


def class_sum(red, classes):
    """Σ sign · value / order · [class] in the basis of red, and each
    coordinate's standard error.  classes yields (label, od, order,
    estimate); a class is reduced first, and estimate() runs only if its
    unit is not 0.  Returns (vector, errors by basis key, estimates by
    label)."""
    coords, variances, estimates = {}, {}, {}
    for label, od, order, estimate in classes:
        unit = red.reduce(ClassVector.of(od))
        if unit.is_zero():
            continue
        est = estimates[label] = estimate()
        for bk, c in unit.terms.items():
            w = float(c) / order
            coords[bk] = coords.get(bk, 0.0) + w * est.value
            variances[bk] = variances.get(bk, 0.0) + (w * est.stderr) ** 2
    errors = {bk: float(np.sqrt(v)) for bk, v in variances.items() if v}
    return ClassVector(red.support, red.n, coords), errors, estimates


def z_n(curve: LinkCurve, n: int, k=None, samples=10 ** 6, seed=0,
        shards=None, workers=None, kernels=None):
    """The degree-n part of the configuration space integral series:
    class_sum's (vector, errors, estimates by canonical key) over the
    subprincipal classes.  Classes with a trivalent triangle are 0
    pointwise and are not integrated.  One-chord classes are computed by
    chord_quadrature and classes of two chords on one circle by
    two_chord_quadrature, both through kernels (a new dict unless given).
    Every other class, the two-chord classes that span two components
    included, is sampled.
    """
    support = circles(curve.n_components)
    if n == 0:
        empty = enumerate_diagrams(support, 0)[0]
        vec = ClassVector.of(std_oriented(empty), 1.0)
        return vec, {}, {}
    kernels = {} if kernels is None else kernels

    def classes():
        for idx, d in enumerate(enumerate_diagrams(support, n)):
            if not is_subprincipal(d) or has_trivalent_triangle(d):
                continue
            od = std_oriented(d)
            if len(d.edges) == 1:
                est = partial(chord_quadrature, od, curve, kernels)
            elif two_chords_on_one_circle(d):
                est = partial(two_chord_quadrature, od, curve, kernels)
            else:
                est = partial(integrate_diagram, od, curve, samples=samples,
                              seed=seed + 7919 * idx, shards=shards,
                              workers=workers)
            yield canonical_oriented(od)[0], od, automorphism_count(d), est

    return class_sum(reduction(support, n, k), classes())
