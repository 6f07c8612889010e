"""The four workloads: their commands and the checks on their reports.

Every command of a run receives the workload seed as its --seed, so the
same seed gives the same inputs.  Each check is the README sign pin or the
acceptance criterion (tests/test_acceptance.py) for the same quantity, with
a tolerance no looser than the acceptance suite's; see README.md in this
directory for the sample counts and why they hold on every seed.
"""

import json
import math


def knot_v2(seed, workers):
    common = ["--seed", str(seed), "--workers", "1"]
    return [
        ["invariant", "v2", "--curve", "trefoil", "--samples", "4e5"] + common,
        ["invariant", "z0", "--curve", "trefoil-alt", "--degree", "2",
         "--samples", "2e5"] + common,
        ["invariant", "z0", "--curve", "unknot-round", "--degree", "2",
         "--samples", "2e5"] + common,
    ]


def anomaly_deg3(seed, workers):
    return [["anomaly", "f", "--gamma", g, "--samples", "1e5",
             "--seed", str(seed), "--workers", str(workers)]
            for g in ("theta", "d2", "a1", "a3", "w3")]


def link_framing(seed, workers):
    s = ["--seed", str(seed), "--workers", "1"]
    return [
        ["invariant", "linking", "--curve", "hopf-link", "--samples", "2e5"] + s,
        ["invariant", "linking", "--curve", "unlink-2", "--samples", "2e5"] + s,
        ["anomaly", "framing", "--curve", "trefoil", "--samples", "1e6"] + s,
        ["invariant", "lattice", "--curve", "trefoil-framed", "--degree", "1",
         "--k", "2", "--samples", "5e5"] + s,
        ["curve", "validate", "--curve", "figure8"],
        ["curve", "validate", "--curve", "trefoil-framed"],
    ]


GLUING_K = (3, 4, 5, 6, 7, 8)


def algebra_deg4(seed, workers):
    """Enumeration, then gluing checks at two k chosen by the seed (the
    checks after the first reuse the warm canonical-form cache)."""
    n = len(GLUING_K)
    first = seed % n
    second = (first + 1 + (seed // n) % (n - 1)) % n
    return [["diagrams", "enumerate", "--support", "S1", "--degree", "4"]] + [
        ["algebra", "check-gluings", "--n", "4", "--k", str(GLUING_K[i])]
        for i in (first, second)]


WORKLOADS = {
    "knot-v2": knot_v2,
    "anomaly-deg3": anomaly_deg3,
    "link-framing": link_framing,
    "algebra-deg4": algebra_deg4,
}

# the cli.<command>.<curve-or-gamma> spans of each workload
CLI_SPANS = {
    "knot-v2": ["cli.invariant_v2.trefoil", "cli.invariant_z0.trefoil-alt",
                "cli.invariant_z0.unknot-round"],
    "anomaly-deg3": [f"cli.anomaly_f.{g}" for g in
                     ("theta", "d2", "a1", "a3", "w3")],
    "link-framing": ["cli.invariant_linking.hopf-link",
                     "cli.invariant_linking.unlink-2",
                     "cli.anomaly_framing.trefoil",
                     "cli.invariant_lattice.trefoil-framed",
                     "cli.curve_validate.figure8",
                     "cli.curve_validate.trefoil-framed"],
    "algebra-deg4": ["cli.diagrams_enumerate.n4",
                     "cli.algebra_check-gluings.n4"],
}

# the integrals whose variance diagnostics the traced run reports
VARIANCE_LABELS = {
    "knot-v2": [f"integrate.{d}.trefoil"
                for d in ("crossed", "parallel", "tripod")]
               + [f"integrate.{d}.{c}" for c in ("trefoil-alt", "unknot-round")
                  for d in ("theta", "crossed", "parallel", "tripod")],
    "anomaly-deg3": [f"anomaly.{g}" for g in ("theta", "d2", "a1", "a3", "w3")],
    "link-framing": ["integrate.chord.hopf-link", "integrate.chord.unlink-2",
                     "integrate.theta.trefoil",
                     "integrate.theta.trefoil-framed"],
    "algebra-deg4": [],
}


def strict_json(text):
    """json.loads that refuses NaN and +-Infinity."""
    def refuse(token):
        raise ValueError(f"non-finite number {token} in report")
    return json.loads(text, parse_constant=refuse)


def check(workload, results):
    """One verdict (ok, message) per command result, in order.

    A command fails on a nonzero exit, a report that is not strict JSON, or
    a value off its target."""
    verdicts = []
    reports = []
    for res in results:
        report = None
        if res["rc"] != 0:
            msg = f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"
        else:
            try:
                report = strict_json(res["stdout"])
                msg = None
            except ValueError as exc:
                msg = f"report is not strict JSON: {exc}"
        reports.append(report)
        verdicts.append(msg)
    for i, (res, report) in enumerate(zip(results, reports)):
        if report is not None:
            try:
                verdicts[i] = _check_value(res["argv"], report, reports, results)
            except (KeyError, IndexError, TypeError) as exc:
                verdicts[i] = f"report lacks an expected field: {exc!r}"
    return [(msg is None, msg or "ok") for msg in verdicts]


def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


# Targets of the checks.  v2: README "0 on unknots, +1 on trefoils".  Test
# 06 holds v2 to 0.05 at 2e6 samples; at the sample counts here the
# tripod's heavy-tailed weights put a correct trefoil estimate outside 0.05
# on some seeds (seed 15: 0.940 +- 0.042), so the tolerance is 0.05 or three
# reported standard errors, whichever is larger, the form test 12 uses.  The
# crossed-chord coefficient of Z0_2 equals that of Z_2 (the framing factor
# only adds parallel chords), so crossed + 1/24 of Z0_2 is v2; the z0 report
# carries no error, so a trefoil is held to its integer and the unknot,
# whose chord integrals vanish pointwise, to 0.05.
V2_PIN = {"trefoil": 1, "trefoil-alt": 1, "unknot-round": 0}
LINKING_PIN = {"hopf-link": 1, "unlink-2": 0}
CROSSED_KEY = "((0, 2), (1, 3)))"


def _check_value(argv, report, reports, results):
    command = tuple(argv[:2])
    curve = _arg(argv, "--curve")
    if command == ("invariant", "v2"):
        target = V2_PIN[curve]
        if report["integer"] != target:
            return f"v2 integer {report['integer']} != {target}"
        tol = max(0.05, 3 * report["stderr"])
        if not abs(report["value"] - target) <= tol:
            return f"v2 {report['value']} not within {tol} of {target}"
    elif command == ("invariant", "z0"):
        coeffs = report["coefficients"]["2"]
        crossed = [v for k, v in coeffs.items() if k.endswith(CROSSED_KEY)]
        if len(crossed) != 1:
            return "Z0_2 has no crossed-chord coordinate"
        v2 = crossed[0] + 1.0 / 24.0
        tol = 0.05 if V2_PIN[curve] == 0 else 0.5
        if not abs(v2 - V2_PIN[curve]) < tol:
            return f"Z0_2 crossed + 1/24 = {v2} not within {tol} of {V2_PIN[curve]}"
    elif command == ("anomaly", "f"):
        gamma = _arg(argv, "--gamma")
        est = report["estimate"]
        if gamma == "theta" and not abs(est["value"] - 1.0) <= 0.005:
            return f"f_theta {est['value']} not within 0.005 of 1"
        if gamma in ("d2", "w3") and not (
                abs(est["value"]) <= 3 * max(est["stderr"], 1e-12)
                and est["stderr"] <= 0.01):
            return f"f_{gamma} {est['value']} +- {est['stderr']} not zero"
        if gamma == "a3":
            a1 = _report_for(reports, results, ("anomaly", "f"), "--gamma", "a1")
            if a1 is None:
                return "no a1 report to compare a3 with"
            e1, e3 = a1["estimate"], est
            err = math.hypot(e1["stderr"], e3["stderr"])
            if not (abs(e1["value"] - e3["value"]) <= 3 * err and err <= 0.05):
                return (f"f_a1 - f_a3 = {e1['value'] - e3['value']} "
                        f"beyond 3 sigma = {3 * err}")
    elif command == ("invariant", "linking"):
        target = LINKING_PIN[curve]
        value = report["estimate"]["value"]
        if not (report["integer"] == report["crossing_oracle"] == target):
            return (f"linking integer {report['integer']} / oracle "
                    f"{report['crossing_oracle']} != {target}")
        if not abs(value - target) < 0.02:
            return f"linking {value} not within 0.02 of {target}"
    elif command == ("anomaly", "framing"):
        for row in report["components"]:
            if not row["residual"] <= 0.02:
                return f"framing residual {row['residual']} > 0.02"
    elif command == ("invariant", "lattice"):
        row = report["coordinates"][0]
        if row["nearest_integer"] != 4:
            return f"lattice coordinate {row['coordinate']} not near 4"
        if not row["residual"] <= max(3 * row["stderr"], 0.05):
            return f"lattice residual {row['residual']} too large"
    elif command == ("curve", "validate"):
        rep = report["report"]
        if rep["samples"] != 4096 or not rep["min_speed"] > 0:
            return "validation report incomplete"
    elif command == ("diagrams", "enumerate"):
        if report["count"] != 69 or len(report["diagrams"]) != 69:
            return f"{report['count']} degree-4 diagrams, expected 69"
    elif command == ("algebra", "check-gluings"):
        if report["ihx_prime"] != "PASS" or report["stu_prime"] != "PASS":
            return "gluing identities FAIL"
    else:
        return f"no check for {' '.join(argv)}"
    return None


def _report_for(reports, results, command, flag, value):
    for res, report in zip(results, reports):
        if tuple(res["argv"][:2]) == command and _arg(res["argv"], flag) == value:
            return report
    return None


def comparable(report_text):
    """A report's text without its wall-time field, for bit-identity checks;
    floats print with every digit, so equal text means equal bits."""
    try:
        report = json.loads(report_text)
    except ValueError:
        return report_text
    if isinstance(report, dict):
        report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True)
