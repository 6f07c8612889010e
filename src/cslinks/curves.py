"""Smooth embedded link curves given by truncated Fourier series.

Each component is a map S^1 -> R^3 evaluated from a constant term plus
cosine/sine coefficient triples; smooth tangents come for free, which the
integrands and the anomaly machinery rely on.  A catalog of standard curves
(unknots, trefoils, figure-eight, Hopf link, unlink) ships with documented
coefficients.
"""

import json

import numpy as np

from .blocks import closest_pair
from .errors import DiagramError, EmbeddingError
from .mc import fresh


CURVE_SCHEMA = '{"components": [{"const": [x,y,z], "cos": [[...]], "sin": [[...]]}]}'
DIAMETER_SAMPLES = 512   # points per component of the diameter's box
JET_BLOCK = 4096         # columns of one product in LinkCurve.jet
TWO_PI_HEAD = float(np.float32(2 * np.pi))   # 24 bits: k times it is exact
TWO_PI_TAIL = 2 * np.pi - TWO_PI_HEAD


class LinkCurve:
    """A link: one Fourier component per circle of the support.

    coeffs: list of (const, cos, sin) with const shape (3,), cos/sin shape
    (H, 3); harmonic h+1 multiplies row h.
    """

    def __init__(self, components):
        self.components = []
        self._jet_coefs = []
        for const, cos, sin in components:
            const = np.asarray(const, dtype=float).reshape(3)
            cos = np.asarray(cos, dtype=float).reshape(-1, 3)
            sin = np.asarray(sin, dtype=float).reshape(-1, 3)
            h = max(len(cos), len(sin))
            cos = np.vstack([cos, np.zeros((h - len(cos), 3))])
            sin = np.vstack([sin, np.zeros((h - len(sin), 3))])
            self.components.append((const, cos, sin))
            # columns (cos h t, sin h t) interleaved, the rows of the jet's
            # harmonics; rows: the point, then the velocity
            h = np.arange(1, h + 1, dtype=float)[:, None]
            coef = np.empty((6, 2 * len(cos)))
            coef[:3, 0::2], coef[3:, 0::2] = cos.T, (h * sin).T
            coef[:3, 1::2], coef[3:, 1::2] = sin.T, (-h * cos).T
            self._jet_coefs.append(coef)

    @property
    def n_components(self):
        return len(self.components)

    def eval(self, m, t):
        """Point L_m(t); t may be an array (... , ) giving (... , 3)."""
        return np.moveaxis(self.jet(m, t)[0], 0, -1)

    def deriv(self, m, t):
        """Velocity L'_m(t)."""
        return np.moveaxis(self.jet(m, t)[1], 0, -1)

    def jet(self, m, t, out=None, work=fresh):
        """(L_m(t), L'_m(t)) as rows: the views out[:3] and out[3:] of one
        (6, ...) block, out when given.  cos t and sin t, taken at t
        reduced to [-pi, pi] (where they cost a third less than on the
        samplers' [0, 4 pi)), give cos(ht) and sin(ht), h = 1..H, by the
        angle-sum recurrence, and one product with the component's (6, 2H)
        coefficients gives both rows.

        The product runs over blocks of at most JET_BLOCK columns: a larger
        one goes to OpenBLAS's thread pool, where it took 10-30 times as
        long.  work (a mc.Workspace, or new arrays by default) holds the
        2H rows of harmonics."""
        coef = self._jet_coefs[m]
        t = np.asarray(t, dtype=float)
        out = np.empty((6,) + t.shape) if out is None else out
        t, both = t.reshape(-1), out.reshape(6, -1)
        trig = work("jet.trig", (coef.shape[1], len(t)))
        if len(trig):
            (c1, s1), tmp = trig[:2], work("jet.tmp", (len(t),))
            # t - 2 pi k in two steps (Cody and Waite): k times the head
            # of 2 pi is exact, and the tail's product is small
            turns = np.rint(np.multiply(t, 0.5 / np.pi, out=c1), out=c1)
            np.subtract(t, np.multiply(turns, TWO_PI_HEAD, out=tmp), out=s1)
            np.subtract(s1, np.multiply(turns, TWO_PI_TAIL, out=tmp), out=tmp)
            np.cos(tmp, out=c1)
            np.sin(tmp, out=s1)
            for h in range(2, len(trig), 2):
                c, s = trig[h - 2], trig[h - 1]
                np.subtract(np.multiply(c, c1, out=trig[h]),
                            np.multiply(s, s1, out=tmp), out=trig[h])
                np.add(np.multiply(c, s1, out=trig[h + 1]),
                       np.multiply(s, c1, out=tmp), out=trig[h + 1])
        for start in range(0, len(t), JET_BLOCK):
            block = slice(start, start + JET_BLOCK)
            np.matmul(coef, trig[:, block], out=both[:, block])
        both[:3] += self.components[m][0][:, None]
        return out[:3], out[3:]

    def tangent(self, m, t):
        """Unit tangent; raises if the immersion degenerates, with the
        witness (m, t0) for the first parameter t0 of zero velocity."""
        v = self.deriv(m, t)
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        bad = norm[..., 0] < 1e-12
        if np.any(bad):
            t0 = np.asarray(t, dtype=float)[bad][0]
            raise EmbeddingError(f"zero velocity on component {m}",
                                 witness=(m, float(t0)))
        return v / norm

    def diameter(self):
        ts = np.linspace(0, 2 * np.pi, DIAMETER_SAMPLES, endpoint=False)
        pts = np.concatenate([self.eval(m, ts)
                              for m in range(self.n_components)])
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def to_json(self):
        comps = []
        for const, cos, sin in self.components:
            comps.append({"const": const.tolist(), "cos": cos.tolist(),
                          "sin": sin.tolist()})
        return json.dumps({"components": comps}, indent=1)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        try:
            comps = [(c["const"], c.get("cos", []), c.get("sin", []))
                     for c in data["components"]]
            if comps:
                return cls(comps)
        except (TypeError, KeyError):
            pass
        raise ValueError(f"a curve file must hold {CURVE_SCHEMA} with at "
                         "least one component")


def check_component(curve: LinkCurve, m):
    """Raise DiagramError unless m names a component of the curve."""
    if not 0 <= m < curve.n_components:
        raise DiagramError(f"component {m} out of range: the curve has "
                           f"components 0..{curve.n_components - 1}")


def validate_embedding(curve: LinkCurve, samples=4096, delta=0.05, eta=1e-3):
    """Sampled immersion/embedding check.

    Pairs of sample points closer than eta fail the check when their angular
    separation exceeds delta (same component) or always (distinct
    components), and so does a curve whose sampled points, speeds or
    separations are not finite.  Returns min-separation statistics; raises
    EmbeddingError with witness parameters on violation.
    """
    ts = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        jets = [curve.jet(m, ts) for m in range(curve.n_components)]
        pts = [x.T for x, _ in jets]
        speeds = [np.linalg.norm(v, axis=0) for _, v in jets]
        # a finite bounding-box diagonal bounds every separation found below
        extent = np.linalg.norm(np.ptp(np.concatenate(pts), axis=0))
    if not (np.isfinite(extent) and np.isfinite(np.concatenate(speeds)).all()):
        raise EmbeddingError("curve is not finite: a sampled point, speed or "
                             "separation is infinite or NaN")
    min_speed = min(float(s.min()) for s in speeds)
    if min_speed <= 0:
        m = int(np.argmin([s.min() for s in speeds]))
        raise EmbeddingError("immersion fails: zero velocity",
                             witness=(m, float(ts[np.argmin(speeds[m])])))
    report = {"samples": samples, "delta": delta, "eta": eta,
              "min_speed": min_speed}
    min_same = np.inf
    min_cross = np.inf
    worst, witness = np.inf, None

    def apart(rows, cols):
        dt = np.abs(ts[rows, None] - ts[None, cols])
        return np.minimum(dt, 2 * np.pi - dt) > delta

    for m in range(curve.n_components):
        for m2 in range(m, curve.n_components):
            if m == m2:
                d, i, j = closest_pair(pts[m], pts[m], apart, upper=True)
                min_same = min(min_same, d)
            else:
                d, i, j = closest_pair(pts[m], pts[m2])
                min_cross = min(min_cross, d)
            if d < worst:
                worst, witness = d, (m, m2, float(ts[i]), float(ts[j]))
    report["min_separation_same"] = min_same if np.isfinite(min_same) else None
    report["min_separation_cross"] = min_cross if np.isfinite(min_cross) else None
    if worst < eta:
        raise EmbeddingError(
            f"embedding fails at resolution: separation {worst:.2e} < {eta}",
            witness=witness)
    return report


def _fourier(const, cos=(), sin=()):
    return (const, list(cos), list(sin))


def catalog(name: str) -> LinkCurve:
    """Standard curves with fixed coefficients (all pass validate_embedding).

    unknot-round            unit circle in the z = 0 plane
    unknot-planar-perturbed limaçon with one small lifted curl (writhe +1)
    trefoil                 (2,3) torus knot on the torus R=2, r=1
    trefoil-alt             a different trefoil parametrization (isotopic)
    figure8                 standard figure-eight knot parametrization
    hopf-link               two unit circles through each other's centers
    unlink-2                two distant circles, one lifted out of plane
    trefoil-framed          trefoil plus a binormal wiggle tuned so the
                            self-linking integral sits near an integer
    """
    if name == "unknot-round":
        return LinkCurve([_fourier([0, 0, 0],
                                   cos=[[1, 0, 0]], sin=[[0, 1, 0]])])
    if name == "unknot-planar-perturbed":
        # limaçon r = 1 + 2cos(theta): one inner loop; the z-lift separates
        # the two strands at the crossing with a positive sign
        return LinkCurve([_fourier([1, 0, 0],
                                   cos=[[1, 0, 0], [1, 0, 0]],
                                   sin=[[0, 1, 0], [0, 1, -0.22]])])
    if name == "trefoil":
        # (2+cos 3t) (cos 2t, sin 2t, 0) + (0,0,sin 3t), expanded
        return LinkCurve([_fourier(
            [0, 0, 0],
            cos=[[0.5, 0, 0], [2, 0, 0], [0, 0, 0], [0, 0, 0], [0.5, 0, 0]],
            sin=[[0, -0.5, 0], [0, 2, 0], [0, 0, 1], [0, 0, 0], [0, 0.5, 0]])])
    if name == "trefoil-alt":
        return LinkCurve([_fourier(
            [0, 0, 0],
            cos=[[0, 1, 0], [0, -2, 0], [0, 0, 0]],
            sin=[[1, 0, 0], [2, 0, 0], [0, 0, -1]])])
    if name == "figure8":
        # (2+cos 2t)(cos 3t, sin 3t, 0) + (0,0,sin 4t), expanded
        return LinkCurve([_fourier(
            [0, 0, 0],
            cos=[[0.5, 0, 0], [0, 0, 0], [2, 0, 0], [0, 0, 0], [0.5, 0, 0]],
            sin=[[0, 0.5, 0], [0, 0, 0], [0, 2, 0], [0, 0, 1], [0, 0.5, 0]])])
    if name == "hopf-link":
        return LinkCurve([
            _fourier([0, 0, 0], cos=[[1, 0, 0]], sin=[[0, 1, 0]]),
            _fourier([1, 0, 0], cos=[[1, 0, 0]], sin=[[0, 0, 1]]),
        ])
    if name == "unlink-2":
        return LinkCurve([
            _fourier([0, 0, 0], cos=[[1, 0, 0]], sin=[[0, 1, 0]]),
            _fourier([4, 0, 0], cos=[[1, 0, 0]], sin=[[0, 1, 0], [0, 0, 0.5]]),
        ])
    if name == "trefoil-framed":
        # trefoil plus a 9-fold coil a (cos Nt e_r(2t) + sin Nt e_z); the
        # amplitude is tuned so the Gauss self-integral sits near the
        # integer 4 (measured by Monte Carlo; see the acceptance tests)
        a, n = FRAMED_TREFOIL_AMPLITUDE, 9
        base = catalog("trefoil")
        const, cos, sin = base.components[0]
        h = n + 2
        cos = np.vstack([cos, np.zeros((h - len(cos), 3))])
        sin = np.vstack([sin, np.zeros((h - len(sin), 3))])
        cos[n + 1, 0] += a / 2
        cos[n - 3, 0] += a / 2
        sin[n + 1, 1] += a / 2
        sin[n - 3, 1] -= a / 2
        sin[n - 1, 2] += a
        return LinkCurve([(const, cos, sin)])
    raise KeyError(f"unknown catalog curve {name!r}")


FRAMED_TREFOIL_AMPLITUDE = 0.193

CATALOG_NAMES = ("unknot-round", "unknot-planar-perturbed", "trefoil",
                 "trefoil-alt", "figure8", "hopf-link", "unlink-2",
                 "trefoil-framed")
