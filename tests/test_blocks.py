"""The block-pruned crossing and separation scans against the all-pairs
scans they replace: same hits in the same order with the same float bits,
the same minima, and the witness of the worst pair."""

import numpy as np
import pytest

from cslinks.blocks import BLOCK, closest_pair
from cslinks.curves import CATALOG_NAMES, LinkCurve, catalog, validate_embedding
from cslinks.errors import EmbeddingError
from cslinks.projection import _polyline, _rotation, _segment_intersections


def all_pairs_intersections(p, q):
    """Every segment pair of two closed polylines, tested in (i, j) order
    with the arithmetic of _segment_intersections."""
    a = p[:, :2]
    b = np.roll(p, -1, axis=0)[:, :2]
    c = q[:, :2]
    d = np.roll(q, -1, axis=0)[:, :2]
    out = []
    r = b - a
    s = d - c
    chunk = 256
    for i0 in range(0, len(a), chunk):
        ai, ri = a[i0:i0 + chunk], r[i0:i0 + chunk]
        denom = ri[:, None, 0] * s[None, :, 1] - ri[:, None, 1] * s[None, :, 0]
        diff = c[None, :, :] - ai[:, None, :]
        t_num = diff[..., 0] * s[None, :, 1] - diff[..., 1] * s[None, :, 0]
        u_num = diff[..., 0] * ri[:, None, 1] - diff[..., 1] * ri[:, None, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t_num / denom
            u = u_num / denom
        hit = (np.abs(denom) > 1e-14) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
        for i, j in zip(*np.nonzero(hit)):
            out.append((i0 + int(i), int(j), float(t[i, j]), float(u[i, j])))
    return out


def all_pairs_separations(curve, samples, delta):
    """(min_same, min_cross, witness) from every pair of sample points,
    components in the order (0, 0), (0, 1), ..., (1, 1), ...; the witness
    is the first pair, in that order and row-major within it, that attains
    the least of the two minima."""
    ts = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    pts = [curve.eval(m, ts) for m in range(curve.n_components)]
    min_same = min_cross = np.inf
    worst, witness = np.inf, None
    chunk = 512
    for m in range(curve.n_components):
        for m2 in range(m, curve.n_components):
            for i0 in range(0, samples, chunk):
                block = pts[m][i0:i0 + chunk]
                dist = np.linalg.norm(block[:, None, :] - pts[m2][None, :, :],
                                      axis=-1)
                if m == m2:
                    dt = np.abs(ts[i0:i0 + chunk, None] - ts[None, :])
                    ang = np.minimum(dt, 2 * np.pi - dt)
                    dist = np.where(ang > delta, dist, np.inf)
                j = np.unravel_index(np.argmin(dist), dist.shape)
                d = float(dist[j])
                if m == m2:
                    min_same = min(min_same, d)
                else:
                    min_cross = min(min_cross, d)
                if d < worst:
                    worst = d
                    witness = (m, m2, float(ts[i0 + j[0]]), float(ts[j[1]]))
    return min_same, min_cross, witness


def random_curve(seed, components, harmonics=3):
    rng = np.random.default_rng(seed)
    return LinkCurve([(rng.normal(size=3) * 2, rng.normal(size=(harmonics, 3)),
                       rng.normal(size=(harmonics, 3)))
                      for _ in range(components)])


def assert_crossings_match(curve, samples):
    rot = _rotation()
    polys = [_polyline(curve, m, samples, rot)[1]
             for m in range(curve.n_components)]
    for p in polys:
        for q in polys:
            assert _segment_intersections(p, q) == all_pairs_intersections(p, q)


def assert_separations_match(curve, samples, delta=0.05):
    min_same, min_cross, witness = all_pairs_separations(curve, samples, delta)
    # an eta above every distance exposes the witness of the worst pair
    with pytest.raises(EmbeddingError) as err:
        validate_embedding(curve, samples=samples, delta=delta, eta=np.inf)
    assert err.value.witness == witness
    try:
        rep = validate_embedding(curve, samples=samples, delta=delta)
    except EmbeddingError as exc:
        assert min(min_same, min_cross) < 1e-3
        assert exc.witness == witness
        return
    assert rep["min_separation_same"] == (min_same if np.isfinite(min_same)
                                          else None)
    assert rep["min_separation_cross"] == (min_cross if np.isfinite(min_cross)
                                           else None)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_crossings(name):
    assert_crossings_match(catalog(name), 4096)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_separations(name):
    assert_separations_match(catalog(name), 4096)


# fewer samples than one block, a partial last block, exactly one block,
# one point past it, and several blocks
SAMPLE_COUNTS = (4, 37, 63, 64, 65, 300)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_crossings(samples, seed):
    assert_crossings_match(random_curve(seed, 2), samples)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_separations(samples, seed):
    assert_separations_match(random_curve(seed, 2), samples)


def test_witness_of_failure():
    # two planar limaçons 0.008 apart, whose worst pair is a self-approach
    # (tests/test_curves.py pins the witness at 8192 samples)
    limacon = ([1, 0, 0], [[1, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 1, 0]])
    lifted = ([1, 0, 0.008],) + limacon[1:]
    assert_separations_match(LinkCurve([limacon, lifted]), 4096)


def test_closing_segment_of_a_later_block():
    # p's closing segment 65 -> 0 runs from x = 10 to x = -10 and is the
    # only segment of p that crosses the thin loop q near x = 0; the other
    # points of p's last block sit at x = 10
    p = np.zeros((BLOCK + 2, 3))
    p[0] = (-10, 0, 0)
    p[1:BLOCK, 0] = np.linspace(-9, 9, BLOCK - 1)
    p[1:BLOCK, 1] = 5
    p[BLOCK] = (10, 0, 0)
    p[BLOCK + 1] = (10, 0.1, 0)
    q = np.zeros((2 * BLOCK, 3))
    q[:BLOCK, 1] = np.linspace(-1, 1, BLOCK)
    q[BLOCK:, 0] = 0.05
    q[BLOCK:, 1] = np.linspace(1, -1, BLOCK)
    hits = _segment_intersections(p, q)
    assert [i for i, _, _, _ in hits] == [BLOCK + 1, BLOCK + 1]
    assert hits == all_pairs_intersections(p, q)


def test_tie_in_a_block_pair_at_gap_equal_to_best():
    # two pairs at distance exactly 1: (BLOCK, 0) in block pair (1, 0),
    # whose boxes overlap, and the earlier (0, BLOCK) in block pair (0, 1),
    # whose box gap is exactly 1, so it is visited second and must not be
    # pruned
    p = np.zeros((2 * BLOCK, 3))
    p[:BLOCK, 0] = -np.arange(BLOCK)
    p[BLOCK:] = (1000, 5, 0)
    p[BLOCK] = (1000, 0, 0)
    q = np.zeros((2 * BLOCK, 3))
    q[:BLOCK] = (999, 10, 0)
    q[0] = (1001, 0, 0)
    q[BLOCK:, 0] = 1 + np.arange(BLOCK)
    assert closest_pair(p, q) == (1.0, 0, BLOCK)
