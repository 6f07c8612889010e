"""Assembled invariants: linking numbers, self-linking, the corrected
series Z0, the degree-2 invariant, and the rationality (lattice) check."""

from fractions import Fraction
from math import gcd

from .algebra import (ClassVector, Series, exp_action, lattice_generators,
                      reduction)
from .curves import LinkCurve, check_component
from .diagrams import (Diagram, canonical_oriented, check_degree, check_k,
                       std_oriented)
from .errors import ConvergenceError, DiagramError
from .integrate import chord_quadrature, z_n
from .projection import linking_oracle
from .support import R1, circles


def _theta_line_vector():
    d = Diagram(R1, ((0, 1),), frozenset(), frozenset({frozenset((0, 1))}))
    return ClassVector.of(std_oriented(d))


def alpha_exact() -> ClassVector:
    """The anomaly through degree 2, exactly: [θ]/2 in degree one and zero
    in degree two (the central symmetry kills even degrees)."""
    return _theta_line_vector().scale(Fraction(1, 2))


def _chord_integral(curve: LinkCurve, m1, m2):
    placements = tuple(tuple(v for v, m in enumerate((m1, m2)) if m == i)
                       for i in range(curve.n_components))
    chord = Diagram(circles(curve.n_components), placements, frozenset(),
                    frozenset({frozenset((0, 1))}))
    return chord_quadrature(std_oriented(chord), curve)


def linking_number(curve: LinkCurve, m1, m2):
    """Gauss double integral between two components (by chord_quadrature),
    its rounding, and the projection crossing-sign oracle."""
    check_component(curve, m1)
    check_component(curve, m2)
    if m1 == m2:
        raise DiagramError("linking number needs two distinct components")
    est = _chord_integral(curve, m1, m2)
    nearest = round(est.value)
    residual = abs(est.value - nearest)
    oracle = linking_oracle(curve, m1, m2)
    out = {"estimate": est, "integer": nearest, "residual": residual,
           "oracle": oracle, "warning": None}
    if residual > 0.1:
        out["warning"] = "linking integral far from an integer"
    return out


def self_linking(curve: LinkCurve, m=0):
    """The Gauss self-integral of one component (framing / writhe): the
    Estimate of chord_quadrature."""
    check_component(curve, m)
    return _chord_integral(curve, m, m)


def z_series(curve: LinkCurve, max_degree, samples=10 ** 6, seed=0,
             shards=None, workers=None):
    """Z through max_degree: reduced vectors, errors and raw estimates."""
    check_degree(max_degree)
    support = circles(curve.n_components)
    series = Series(support)
    errors, estimates = {}, {}
    for n in range(0, max_degree + 1):
        series[n], errors[n], estimates[n] = z_n(
            curve, n, samples=samples, seed=seed + 31 * n, shards=shards,
            workers=workers)
    return series, errors, estimates


def z0_series(curve: LinkCurve, max_degree=2, samples=10 ** 6, seed=0,
              shards=None, workers=None):
    """The framing-corrected invariant Z0 = Z * prod_m exp(-I(θ_m) α^(m)).

    Through degree 2 the exact anomaly [θ]/2 suffices (its degree-2 part
    vanishes).  Errors propagate from the Z parts; the self-linking
    factors are quadratures, good to QUADRATURE_TOL.
    """
    series, errors, estimates = z_series(curve, max_degree, samples=samples,
                                         seed=seed, shards=shards,
                                         workers=workers)
    alpha = alpha_exact()
    framings = []
    corrected = series
    for m in range(curve.n_components):
        est = self_linking(curve, m)
        framings.append(est)
        corrected = exp_action(alpha, -est.value, corrected, m, max_degree)
    reduced = Series(corrected.support)
    for n, vec in corrected.items():
        reduced[n] = reduction(vec.support, n).reduce(vec)
    return reduced, {"z_errors": errors, "framings": framings,
                     "z_series": series, "estimates": estimates}


def crossed_chord_key():
    """Canonical key of the crossed two-chord diagram on the circle."""
    d = Diagram(circles(1), ((0, 1, 2, 3),), frozenset(),
                frozenset({frozenset((0, 2)), frozenset((1, 3))}))
    key, sign = canonical_oriented(std_oriented(d))
    assert sign == 1
    return key


def v2(curve: LinkCurve, samples=10 ** 6, seed=0, shards=None, workers=None):
    """The degree-2 invariant: the crossed-chord coefficient of Z_2 plus
    1/24; reports the estimate, its error, and the nearest integer."""
    if curve.n_components != 1:
        raise DiagramError("v2 is an invariant of knots")
    vec, errs, ests = z_n(curve, 2, samples=samples, seed=seed,
                          shards=shards, workers=workers)
    key = crossed_chord_key()
    value = float(vec.terms.get(key, 0.0)) + 1.0 / 24.0
    stderr = errs.get(key, 0.0)
    nearest = round(value)
    out = {"value": value, "stderr": stderr, "integer": nearest,
           "residual": abs(value - nearest), "z2": vec, "warning": None}
    if abs(value - nearest) > 3 * max(stderr, 1e-12):
        out["warning"] = "v2 not within three errors of an integer"
    return out


# ---------------------------------------------------------------------------
# Lattice membership (the rationality statement)

def _hermite_basis(rows):
    """Hermite-style triangular basis of the integer row span; rows are
    Fraction vectors, output is a list of Fraction vectors."""
    denom = 1
    for row in rows:
        for x in row:
            d = Fraction(x).denominator
            denom = denom * d // gcd(denom, d)
    mats = [[int(x * denom) for x in row] for row in rows]
    cols = len(mats[0]) if mats else 0
    basis = []
    work = [r[:] for r in mats if any(r)]
    for c in range(cols):
        pivots = [r for r in work if r[c] != 0]
        rest = [r for r in work if r[c] == 0]
        if not pivots:
            work = rest
            continue
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[c]))
            p = pivots[0]
            out = [p]
            for r in pivots[1:]:
                q = r[c] // p[c]
                nr = [a - q * b for a, b in zip(r, p)]
                if nr[c] != 0:
                    out.append(nr)
                elif any(nr):
                    rest.append(nr)
            pivots = out
        basis.append(pivots[0])
        work = rest
    return [[Fraction(x, denom) for x in row] for row in basis]


def lattice_report(support, n, k):
    """Triangular lattice basis from the beta values of the principal
    degree-n diagrams, in the chord-diagram coordinate basis."""
    red = reduction(support, n, k)
    gens = lattice_generators(support, n, k)
    rows = []
    for bv in gens:
        rows.append([bv.vector.terms.get(key, Fraction(0))
                     for key in red.basis])
    basis = _hermite_basis(rows) if rows else []
    return red, gens, basis


def lattice_check(curve: LinkCurve, n, k, samples=10 ** 6, seed=0,
                  shards=None, workers=None):
    """Express the degree-n Monte Carlo estimate of Z in the integral
    lattice of beta generators and report the distance of its coordinates
    to integers.

    Requires every component's self-linking integral to sit within 0.05 of
    an integer (the rationality hypothesis)."""
    check_degree(n)
    check_k(n, k)
    framings = []
    for m in range(curve.n_components):
        est = self_linking(curve, m)
        framings.append(est)
        if abs(est.value - round(est.value)) > 0.05:
            raise ConvergenceError(
                f"component {m} framing {est.value:.4f} is not near an "
                "integer; the rationality hypothesis fails")
    support = circles(curve.n_components)
    vec, errs, ests = z_n(curve, n, k=k, samples=samples, seed=seed,
                          shards=shards, workers=workers)
    red, gens, basis = lattice_report(support, n, k)
    if not basis:
        raise DiagramError("no lattice generators at this degree")
    coords = _solve_triangular(basis, [float(vec.terms.get(key, 0.0))
                                       for key in red.basis])
    # propagate coefficient errors through the (linear) triangular solve
    variances = [0.0] * len(coords)
    for j, key in enumerate(red.basis):
        sigma = errs.get(key, 0.0)
        if not sigma:
            continue
        unit = [0.0] * len(red.basis)
        unit[j] = 1.0
        sens = _solve_triangular(basis, unit, require_span=False)
        for i, m in enumerate(sens):
            variances[i] += (m * sigma) ** 2
    rows = []
    for i, x in enumerate(coords):
        rows.append({"coordinate": x, "nearest_integer": round(x),
                     "residual": abs(x - round(x)),
                     "stderr": variances[i] ** 0.5})
    return {"framings": framings, "coordinates": rows, "z_vector": vec,
            "z_errors": errs, "basis": basis,
            "basis_keys": list(red.basis)}


def _solve_triangular(basis, target, require_span=True):
    """Solve sum_i x_i basis_i = target for the echelon basis produced by
    _hermite_basis (each row has a leading column not used by later rows)."""
    rows = [list(map(float, r)) for r in basis]
    target = list(target)
    coords = []
    for r in rows:
        lead = next(i for i, v in enumerate(r) if v != 0)
        x = target[lead] / r[lead]
        coords.append(x)
        target = [t - x * v for t, v in zip(target, r)]
    resid = max((abs(t) for t in target), default=0.0)
    if require_span and resid > 1e-6:
        raise ConvergenceError(
            f"estimate leaves the lattice span (residual {resid:.2e})")
    return coords


def z_roundtrip_residual(z0_result, curve, max_degree=2):
    """Recompute Z from Z0 by the forward exponential formula and return
    the worst coefficient difference against the measured Z (consistency of
    the correction)."""
    reduced, info = z0_result
    alpha = alpha_exact()
    forward = reduced
    for m, est in enumerate(info["framings"]):
        forward = exp_action(alpha, +est.value, forward, m, max_degree)
    worst = 0.0
    for n, vec in info["z_series"].items():
        diff = reduction(vec.support, n).reduce(forward.vector(n)) - vec
        for c in diff.terms.values():
            worst = max(worst, abs(float(c)))
    return worst
