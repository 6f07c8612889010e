"""Block pruning for the all-pairs scans over sampled curves.

A sampled curve is cut into blocks of BLOCK consecutive points, and each
block gets its axis-aligned bounding box.  The crossing scan of the
projection tests only the block pairs whose boxes overlap; the separation
scan of the embedding check visits block pairs in increasing order of box
gap and stops once the gap exceeds the least distance found.  Both apply
the same per-pair arithmetic as a scan of every pair, so they return the
same values, bit for bit, in near-linear time on a smooth curve.
"""

import numpy as np

BLOCK = 64


def _boxes(points, closed):
    """Per-block (lo, hi) corners.  With closed=True a block also takes the
    point after its last one (cyclically), so its box holds the end points
    of its segments, the closing segment N-1 -> 0 included."""
    n = len(points)
    starts = np.arange(0, n, BLOCK)
    lo = np.minimum.reduceat(points, starts)
    hi = np.maximum.reduceat(points, starts)
    if closed:
        after = points[np.minimum(starts + BLOCK, n) % n]
        lo = np.minimum(lo, after)
        hi = np.maximum(hi, after)
    return lo, hi


def block_pairs(p, q, closed=False):
    """(a, b, gap): every block pair (a of p, b of q) with the Euclidean gap
    between their boxes, in increasing order of gap, ties in (a, b) order.

    The gap is 0 exactly when the boxes overlap, and it never exceeds the
    np.linalg.norm distance of a point of block a to a point of block b,
    since it takes the same rounded steps on coordinate differences that
    are no larger."""
    plo, phi = _boxes(p, closed)
    qlo, qhi = _boxes(q, closed)
    axis_gap = np.maximum(np.maximum(qlo[None] - phi[:, None],
                                     plo[:, None] - qhi[None]), 0.0)
    gap = np.linalg.norm(axis_gap, axis=-1)
    order = np.argsort(gap, axis=None, kind="stable")
    a, b = np.unravel_index(order, gap.shape)
    return a, b, gap.ravel()[order]


def block(k):
    """The row slice of block k."""
    k = int(k)
    return slice(k * BLOCK, (k + 1) * BLOCK)


def closest_pair(p, q, allowed=None, upper=False):
    """(d, i, j): the least np.linalg.norm(p[i] - q[j]) over the pairs that
    count, and the first such (i, j) in row-major order; (inf, None, None)
    when no pair counts.

    allowed(rows, cols) gives the boolean mask of the pairs that count among
    p[rows] x q[cols] (all of them when None).  upper=True visits only the
    block pairs a <= b; use it when p is q and the mask is symmetric, since
    the first least pair then has i <= j."""
    best, bi, bj = np.inf, None, None
    for a, b, gap in zip(*block_pairs(p, q)):
        if gap > best:
            break
        if upper and a > b:
            continue
        rows, cols = block(a), block(b)
        dist = np.linalg.norm(p[rows, None, :] - q[None, cols, :], axis=-1)
        if allowed is not None:
            dist = np.where(allowed(rows, cols), dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        d, i, j = dist[i, j], rows.start + int(i), cols.start + int(j)
        if d < best or (d == best and bi is not None and (i, j) < (bi, bj)):
            best, bi, bj = float(d), i, j
    return best, bi, bj
