"""Combinatorial oracles from a generic planar projection of a polygonal
approximation: crossing signs, writhe, linking numbers, Gauss codes and the
degree-2 invariant counted from a Gauss diagram.

These are independent of the configuration space integrals and serve as
cross-checks: the linking oracle validates the Gauss integrals, the writhe
oracle the self-linking integral, and the Gauss-diagram count the v2
extraction.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import block, block_pairs
from .curves import LinkCurve, check_component
from .errors import SamplingError

# fixed generic rotation applied before projecting to the xy-plane, so that
# catalog curves avoid degenerate projections deterministically
_ANGLES = (0.31, 0.17)


def _rotation():
    a, b = _ANGLES
    ra = np.array([[1, 0, 0],
                   [0, np.cos(a), -np.sin(a)],
                   [0, np.sin(a), np.cos(a)]])
    rb = np.array([[np.cos(b), 0, np.sin(b)],
                   [0, 1, 0],
                   [-np.sin(b), 0, np.cos(b)]])
    return rb @ ra


@dataclass(frozen=True)
class Crossing:
    comp_over: int
    comp_under: int
    param_over: float    # polyline parameter in [0, 2pi)
    param_under: float
    sign: int


def _polyline(curve: LinkCurve, m, samples, rot):
    ts = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    pts = curve.eval(m, ts) @ rot.T
    return ts, pts


def _segment_intersections(p, q):
    """All (i, j, si, sj) with segment i of p crossing segment j of q in the
    xy-plane, in (i, j) order; si, sj are the interpolation fractions.  p
    and q are closed polylines: segment i runs from point i to point i + 1
    modulo the length.  Only block pairs whose xy-boxes overlap can cross."""
    a = p[:, :2]
    b = np.roll(p, -1, axis=0)[:, :2]
    c = q[:, :2]
    d = np.roll(q, -1, axis=0)[:, :2]
    out = []
    r = b - a
    s = d - c
    ka, kb, gap = block_pairs(a, c, closed=True)
    for rows, cols in zip(map(block, ka[gap == 0]), map(block, kb[gap == 0])):
        ai, ri = a[rows], r[rows]
        cj, sj = c[cols], s[cols]
        denom = ri[:, None, 0] * sj[None, :, 1] - ri[:, None, 1] * sj[None, :, 0]
        diff = cj[None, :, :] - ai[:, None, :]
        t_num = diff[..., 0] * sj[None, :, 1] - diff[..., 1] * sj[None, :, 0]
        u_num = diff[..., 0] * ri[:, None, 1] - diff[..., 1] * ri[:, None, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t_num / denom
            u = u_num / denom
        hit = (np.abs(denom) > 1e-14) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
        for i, j in zip(*np.nonzero(hit)):
            out.append((rows.start + int(i), cols.start + int(j),
                        float(t[i, j]), float(u[i, j])))
    return sorted(out)


def diagram_crossings(curve: LinkCurve, samples=4096):
    """All crossings of the rotated xy-projection, with signs, component
    pair by component pair: (0, 0), (0, 1), ..., (1, 1), ...

    The sign is +1 when the (over, under) tangent pair is positively
    oriented in the projection plane.
    """
    rot = _rotation()
    polys = [_polyline(curve, m, samples, rot)
             for m in range(curve.n_components)]
    return [c for mi in range(curve.n_components)
            for mj in range(mi, curve.n_components)
            for c in _pair_crossings(polys, mi, mj, samples)]


def component_crossings(curve: LinkCurve, m1, m2, samples=4096):
    """The crossings of diagram_crossings between components m1 and m2 (the
    self-crossings when m1 == m2), from a scan of that pair alone."""
    check_component(curve, m1)
    check_component(curve, m2)
    rot = _rotation()
    polys = {m: _polyline(curve, m, samples, rot) for m in {m1, m2}}
    return _pair_crossings(polys, min(m1, m2), max(m1, m2), samples)


def _pair_crossings(polys, mi, mj, samples):
    """Crossings of component mi over or under component mj (mi <= mj) in
    the order of their segment indices; polys[m] = (ts, points)."""
    ti, pi = polys[mi]
    tj, pj = polys[mj]
    crossings = []
    for i, j, si, sj in _segment_intersections(pi, pj):
        if mi == mj:
            if i >= j:
                continue   # each unordered pair once
            if abs(i - j) < 2 or abs(i - j) > samples - 2:
                continue   # neighbouring segments share a vertex
        step_i = 2 * np.pi / samples
        par_i = ti[i] + si * step_i
        par_j = tj[j] + sj * step_i
        zi = pi[i, 2] * (1 - si) + pi[(i + 1) % samples, 2] * si
        zj = pj[j, 2] * (1 - sj) + pj[(j + 1) % samples, 2] * sj
        di = pi[(i + 1) % samples, :2] - pi[i, :2]
        dj = pj[(j + 1) % samples, :2] - pj[j, :2]
        if abs(zi - zj) < 1e-12:
            raise SamplingError("projection is not generic here")
        # sign convention matches the gauss_kernel orientation (the Hopf
        # catalog entry scores +1 on both); it is the mirror of the
        # over-cross-under right-hand convention
        cross = dj[0] * di[1] - dj[1] * di[0]
        if zi > zj:
            sign = 1 if cross > 0 else -1
            crossings.append(Crossing(mi, mj, par_i, par_j, sign))
        else:
            sign = 1 if -cross > 0 else -1
            crossings.append(Crossing(mj, mi, par_j, par_i, sign))
    return crossings


def writhe_oracle(curve: LinkCurve, m=0, samples=4096) -> int:
    """Sum of crossing signs of component m with itself."""
    return sum(c.sign for c in component_crossings(curve, m, m, samples))


def linking_oracle(curve: LinkCurve, m1, m2, samples=4096) -> int:
    """Half the signed count of crossings between two components."""
    total = sum(c.sign for c in component_crossings(curve, m1, m2, samples))
    if total % 2:
        raise SamplingError("odd inter-component crossing count")
    return total // 2


# ---------------------------------------------------------------------------
# Gauss codes and the degree-2 invariant

def gauss_code(curve: LinkCurve, m=0, samples=4096):
    """Passages of component m through its self-crossings, in parameter
    order: a list of (crossing id, is_over, sign)."""
    crossings = component_crossings(curve, m, m, samples)
    passages = []
    for cid, c in enumerate(crossings):
        passages.append((c.param_over, cid, True, c.sign))
        passages.append((c.param_under, cid, False, c.sign))
    passages.sort()
    return [(cid, over, sign) for _, cid, over, sign in passages]


def v2_from_code(code) -> int:
    """The degree-2 invariant counted on a Gauss code.

    Counts interleaved crossing pairs whose first passages from the base
    point are (over, under) in traversal order, weighted by the product of
    signs.  The pattern is validated by the crossing-change recursion
    v2(K+) - v2(K-) = lk(smoothing) in the test suite.
    """
    pos = {}
    for i, (cid, over, sign) in enumerate(code):
        pos.setdefault(cid, []).append((i, over, sign))
    total = 0
    ids = sorted(pos)
    for a in range(len(ids)):
        for b in range(len(ids)):
            if a == b:
                continue
            ca, cb = ids[a], ids[b]
            (ia1, oa1, sa), (ia2, _, _) = pos[ca]
            (ib1, ob1, sb), (ib2, _, _) = pos[cb]
            # interleaved with ca met first: ia1 < ib1 < ia2 < ib2
            if not (ia1 < ib1 < ia2 < ib2):
                continue
            if oa1 and not ob1:
                total += sa * sb
    return total


def switch_crossing(code, cid):
    """The code of the diagram with one crossing switched (sign flips and
    the over/under passages swap)."""
    return [(c, (not over) if c == cid else over, -s if c == cid else s)
            for c, over, s in code]


def smoothing_linking(code, cid) -> int:
    """Linking number of the two-component link obtained by the oriented
    smoothing of one crossing: half the signed count of crossings whose
    passages interleave the smoothed one."""
    span = [i for i, (c, _, _) in enumerate(code) if c == cid]
    i1, i2 = span
    total = 0
    seen = set()
    for i, (c, _, s) in enumerate(code):
        if c == cid or c in seen:
            continue
        seen.add(c)
        js = [j for j, (cc, _, _) in enumerate(code) if cc == c]
        inside = sum(1 for j in js if i1 < j < i2)
        if inside == 1:
            total += s
    if total % 2:
        raise SamplingError("odd interleaving count in smoothing")
    return total // 2


def v2_oracle(curve: LinkCurve, samples=4096) -> int:
    """The degree-2 invariant of a knot from its Gauss diagram."""
    return v2_from_code(gauss_code(curve, 0, samples))
