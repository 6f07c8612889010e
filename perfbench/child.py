"""One workload repetition in a fresh interpreter.

Usage: python3 -I child.py SPEC_JSON

SPEC_JSON keys: src (directory holding the cslinks package), commands (list
of argv lists for cslinks.cli.main), mode ("setup" stops once the CLI is
importable and the first command parses), trace (bool), spans (path for the
span dump, or null), run_id.  Prints one JSON object on stdout.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import cslinks.cli as cli
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"cslinks was imported from {cli.__file__}, not {src}")
    cli.build_parser().parse_args(spec["commands"][0])
    ready = time.monotonic()
    if spec["mode"] == "setup":
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()

    results = []
    first = time.perf_counter()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.target = command_target(argv)
            sid, par, t0 = tracer.open()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = -1
        end = time.perf_counter()
        if tracer is not None:
            tracer.close(cli_span(argv), sid, par, t0)
        results.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:],
                        "seconds": end - start})
    wall = time.perf_counter() - first

    payload = {"ready": ready, "wall_s": wall, "results": results,
               "numpy": sys.modules["numpy"].__version__,
               "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        from cslinks import algebra
        from tracing import layer_metrics
        payload["layers"] = layer_metrics(tracer, algebra.reduction)
        payload["costs"] = payload["layers"].pop("costs")
        payload["counts"] = dict(tracer.counts)
        payload["spans"] = len(tracer.spans)
        if spec.get("spans"):
            tracer.write(spec["spans"])
    print(json.dumps(payload))


def command_target(argv):
    for flag in ("--curve", "--gamma"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def cli_span(argv):
    """cli.<command>.<curve-or-gamma>; exact-algebra commands are named by
    their degree, so repeated checks at several k share one span name."""
    command = "_".join(argv[:2])
    target = command_target(argv)
    if target is None:
        for flag in ("--degree", "--n"):
            if flag in argv:
                target = f"n{argv[argv.index(flag) + 1]}"
    return f"cli.{command}.{target}"


if __name__ == "__main__":
    main()
