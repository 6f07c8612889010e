"""Command-line interface.

Each command returns its report and exit code; main adds the wall time and
prints the report as JSON (or as a plain-text table with --table).  Every
report of a command that takes the Monte Carlo flags embeds their fully
resolved values (samples, seed, shards, workers) as "config", so a run can
be replayed exactly; identical commands with the same seed produce
byte-identical reports apart from the wall-time field.  The one-chord
commands (invariant linking and selflink, anomaly framing) compute by
quadrature: they check and echo the flags but do not use them.

Exit codes: 0 success, 2 input error (one line, argparse's too), 3
convergence failure.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from . import algebra, anomaly, diagram_io, invariants
from .curves import CATALOG_NAMES, LinkCurve, catalog, validate_embedding
from .diagrams import degree as diagram_degree
from .diagrams import enumerate_diagrams, is_principal, is_subprincipal, std_oriented
from .errors import ConvergenceError, DiagramError, EmbeddingError
from .integrate import integrate_diagram
from .mc import SHARDS, check_counts, default_workers
from .strata import enumerate_faces
from .support import S1, circles


def _count(flag, text):
    """A whole count, plain or in scientific notation (1e6)."""
    try:
        if float(text).is_integer():
            return int(float(text))
    except ValueError:
        pass
    raise ValueError(f"{flag} must be a whole finite count, got {text!r}")


def _mc_settings(args):
    """The resolved and checked Monte Carlo settings: both the keyword
    arguments of the library call and the report's replay config."""
    config = {"samples": _count("--samples", args.samples),
              "seed": args.seed, "shards": _count("--shards", args.shards),
              "workers": _count("--workers", args.workers)}
    check_counts(config["samples"], config["shards"], config["workers"])
    return config


def _load_curve(spec):
    """(curve, validation report): a catalog curve (pinned by the tests,
    report None) or a curve file, which must pass validate_embedding."""
    if spec in CATALOG_NAMES:
        return catalog(spec), None
    curve = LinkCurve.from_json(Path(spec).read_text())
    return curve, validate_embedding(curve)


def _support(name):
    upper = name.upper()
    if upper == "S1":
        return S1
    if upper[:3] == "S1X" and upper[3:].isdecimal() and int(upper[3:]) >= 1:
        return circles(int(upper[3:]))
    raise DiagramError(f"unknown support {name!r} (use S1 or S1xN, N >= 1)")


def _print_table(report, indent=0):
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_table(value, indent + 1)
        elif isinstance(value, (list, tuple)):
            print(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    line = "  ".join(f"{k}={_fmt(v)}" for k, v in item.items())
                    print(f"{pad}  {line}")
                else:
                    print(f"{pad}  {_fmt(item)}")
        else:
            print(f"{pad}{key:24s} {_fmt(value)}")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _keyed(terms):
    """{basis key: number} as JSON: string keys in string order."""
    return {str(key): float(c) for key, c in sorted(terms.items(),
                                                    key=lambda kv: str(kv[0]))}


def cmd_diagrams_enumerate(args):
    support = _support(args.support)
    diagrams = enumerate_diagrams(support, args.degree)
    texts = [diagram_io.serialize_diagram(std_oriented(d)) for d in diagrams]
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(texts):
            (outdir / f"degree{args.degree}_{i:03d}.diagram").write_text(text)
    report = {
        "command": "diagrams enumerate",
        "support": args.support, "degree": args.degree,
        "count": len(diagrams),
        "diagrams": texts if not args.out else None,
        "out": args.out,
    }
    return report, 0


def cmd_diagrams_classify(args):
    od = diagram_io.parse_diagram(Path(args.file).read_text())
    d = od.diagram
    faces = []
    for f in enumerate_faces(d):
        faces.append({
            "subset": sorted(f.subset) if f.subset is not None else "scale",
            "type": f.type,
            "degenerate": f.degenerate,
        })
    report = {
        "command": "diagrams classify", "file": args.file,
        "degree": diagram_degree(d),
        "principal": is_principal(d),
        "subprincipal": is_subprincipal(d),
        "faces": faces,
    }
    return report, 0


def cmd_algebra_reduce(args):
    terms = diagram_io.parse_class_vector(Path(args.file).read_text())
    if not terms:
        raise DiagramError("empty vector file")
    support = terms[0][1].diagram.support
    n = diagram_degree(terms[0][1].diagram)
    vec = algebra.ClassVector.zero(support, n)
    for coeff, od in terms:
        vec = vec + algebra.ClassVector.of(od, coeff)
    red = algebra.reduction(support, n, args.k)
    reduced = red.reduce(vec)
    report = {
        "command": "algebra reduce", "file": args.file, "degree": n,
        "k": args.k, "dimension": red.dimension,
        "coordinates": {str(key): str(reduced.terms.get(key, 0))
                        for key in red.basis},
    }
    return report, 0


def cmd_algebra_check_gluings(args):
    ihx = algebra.check_ihx_prime(S1, args.n, args.k)
    stu = algebra.check_stu_prime(S1, args.n, args.k)
    report = {
        "command": "algebra check-gluings", "n": args.n, "k": args.k,
        "ihx_prime": "PASS" if ihx else "FAIL",
        "stu_prime": "PASS" if stu else "FAIL",
    }
    return report, 0 if (ihx and stu) else 3


def cmd_integrate(args):
    od = diagram_io.parse_diagram(Path(args.diagram).read_text())
    curve, _ = _load_curve(args.curve)
    config = _mc_settings(args)
    est = integrate_diagram(od, curve, **config)
    report = {
        "command": "integrate", "diagram": args.diagram, "curve": args.curve,
        "estimate": est.as_dict(), "config": config,
    }
    return report, 0


def cmd_invariant(args):
    curve, _ = _load_curve(args.curve)
    config = _mc_settings(args)
    if args.which == "linking":
        res = invariants.linking_number(curve, args.m1, args.m2)
        report = {"command": "invariant linking", "curve": args.curve,
                  "components": [args.m1, args.m2],
                  "estimate": res["estimate"].as_dict(),
                  "integer": res["integer"], "residual": res["residual"],
                  "crossing_oracle": res["oracle"],
                  "warning": res["warning"]}
        code = 3 if res["warning"] else 0
    elif args.which == "selflink":
        est = invariants.self_linking(curve, args.m1)
        report = {"command": "invariant selflink", "curve": args.curve,
                  "component": args.m1, "estimate": est.as_dict()}
        code = 0
    elif args.which == "v2":
        res = invariants.v2(curve, **config)
        report = {"command": "invariant v2", "curve": args.curve,
                  "value": res["value"], "stderr": res["stderr"],
                  "integer": res["integer"], "residual": res["residual"],
                  "z2": _keyed(res["z2"].terms), "warning": res["warning"]}
        code = 3 if res["warning"] else 0
    elif args.which == "z0":
        series, info = invariants.z0_series(curve, args.degree, **config)
        report = {"command": "invariant z0", "curve": args.curve,
                  "degree": args.degree,
                  "coefficients": {str(n): _keyed(v.terms)
                                   for n, v in sorted(series.items())},
                  "errors": {str(n): _keyed(errs) for n, errs
                             in sorted(info["z_errors"].items())},
                  "framings": [e.as_dict() for e in info["framings"]]}
        code = 0
    elif args.which == "lattice":
        res = invariants.lattice_check(curve, args.degree, args.k, **config)
        report = {"command": "invariant lattice", "curve": args.curve,
                  "n": args.degree, "k": args.k,
                  "framings": [e.as_dict() for e in res["framings"]],
                  "coordinates": res["coordinates"]}
        code = 0
    else:
        raise DiagramError(f"unknown invariant {args.which!r}")
    report["config"] = config
    return report, code


def cmd_anomaly_f(args):
    config = _mc_settings(args)
    est = anomaly.f_gamma(args.gamma, **config)
    report = {"command": "anomaly f", "gamma": args.gamma,
              "estimate": est.as_dict(), "config": config}
    return report, 0


def cmd_anomaly_framing(args):
    curve, _ = _load_curve(args.curve)
    config = _mc_settings(args)
    rows = anomaly.framing_report(curve)
    report = {"command": "anomaly framing", "curve": args.curve,
              "components": rows, "config": config}
    return report, 0


def cmd_curve_validate(args):
    curve, checked = _load_curve(args.curve)
    report = {"command": "curve validate", "curve": args.curve,
              "report": checked or validate_embedding(curve)}
    return report, 0


class _Parser(argparse.ArgumentParser):
    """argparse with the one-line input errors of every other bad input."""

    def error(self, message):
        self.exit(2, f"input error: {message}\n")


def build_parser():
    p = _Parser(
        prog="cslinks",
        description="Configuration space integrals for links in R^3")
    sub = p.add_subparsers(dest="group", required=True)

    dg = sub.add_parser("diagrams", help="diagram combinatorics")
    dgs = dg.add_subparsers(dest="sub", required=True)
    de = dgs.add_parser("enumerate")
    de.add_argument("--support", default="S1")
    de.add_argument("--degree", type=int, required=True)
    de.add_argument("--out", default=None)
    de.set_defaults(func=cmd_diagrams_enumerate)
    dc = dgs.add_parser("classify")
    dc.add_argument("file")
    dc.set_defaults(func=cmd_diagrams_classify)

    al = sub.add_parser("algebra", help="diagram algebra over rationals")
    als = al.add_subparsers(dest="sub", required=True)
    ar = als.add_parser("reduce")
    ar.add_argument("file")
    ar.add_argument("--k", type=int, default=None)
    ar.set_defaults(func=cmd_algebra_reduce)
    ag = als.add_parser("check-gluings")
    ag.add_argument("--n", type=int, required=True)
    ag.add_argument("--k", type=int, required=True)
    ag.set_defaults(func=cmd_algebra_check_gluings)

    it = sub.add_parser("integrate", help="one configuration space integral")
    it.add_argument("--diagram", required=True)
    it.add_argument("--curve", required=True)
    _mc_args(it)
    it.set_defaults(func=cmd_integrate)

    inv = sub.add_parser("invariant", help="assembled invariants")
    inv.add_argument("which",
                     choices=["linking", "selflink", "v2", "z0", "lattice"])
    inv.add_argument("--curve", required=True)
    inv.add_argument("--m1", type=int, default=0)
    inv.add_argument("--m2", type=int, default=1)
    inv.add_argument("--degree", type=int, default=2)
    inv.add_argument("--k", type=int, default=2)
    _mc_args(inv)
    inv.set_defaults(func=cmd_invariant)

    an = sub.add_parser("anomaly", help="anomaly and framing integrals")
    ans = an.add_subparsers(dest="sub", required=True)
    af = ans.add_parser("f")
    af.add_argument("--gamma", required=True,
                    choices=list(anomaly.LINE_CATALOG))
    _mc_args(af)
    af.set_defaults(func=cmd_anomaly_f)
    afr = ans.add_parser("framing")
    afr.add_argument("--curve", required=True)
    _mc_args(afr)
    afr.set_defaults(func=cmd_anomaly_framing)

    cv = sub.add_parser("curve", help="curve utilities")
    cvs = cv.add_subparsers(dest="sub", required=True)
    cvv = cvs.add_parser("validate")
    cvv.add_argument("--curve", required=True)
    cvv.set_defaults(func=cmd_curve_validate)
    return p


def _mc_args(parser):
    parser.add_argument("--samples", default="1e6",
                        help="sample count; scientific notation accepted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", default=str(SHARDS),
                        help="logical shards (default 16)")
    parser.add_argument("--workers", default=str(default_workers()),
                        help="worker threads (result-independent)")
    parser.add_argument("--table", action="store_true",
                        help="plain-text table instead of JSON")


def main(argv=None):
    started = time.time()
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        report["wall_time_s"] = round(time.time() - started, 3)
        # serialised before anything is written, so that a value JSON
        # cannot hold fails the command instead of printing half a report
        text = json.dumps(report, indent=1)
        if getattr(args, "table", False):
            _print_table(report)
        else:
            sys.stdout.write(text + "\n")
        return code
    except (DiagramError, EmbeddingError, KeyError, OSError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
