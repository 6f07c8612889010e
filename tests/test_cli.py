import json
import subprocess
import sys

import numpy as np
import pytest

from cslinks import cli, integrate, invariants
from cslinks.curves import catalog, validate_embedding
from cslinks.diagram_io import serialize_diagram
from cslinks.diagrams import std_oriented, tripod_positive
from cslinks.mc import Estimate


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cslinks.cli"] + list(args),
                          capture_output=True, text=True)


def report(result):
    assert result.stdout, result.stderr
    return json.loads(result.stdout)


TRIPOD_TEXT = "component 0: a b c\ntrivalent: t\nedges: a-t b-t c-t\n"
# diagram files that name an undeclared vertex, repeat an edge, hold a loop
# or break a valence, with the words their one-line error must contain
BAD_DIAGRAMS = [
    ("component 0: a b\nedges: a-c\n", ("'a-c'", "undeclared", "'c'")),
    ("component 0: a b\nedges: c-a\n", ("'c-a'", "undeclared", "'c'")),
    (TRIPOD_TEXT + "orient t: a b x\n", ("orient", "'t'", "undeclared",
                                         "'x'")),
    ("component 0: a b\nedges: a-b a-b\n", ("'a-b'", "repeats")),
    ("component 0: a b\nedges: a-b b-a\n", ("'b-a'", "repeats", "'a-b'")),
    ("component 0: a b c\ntrivalent: t\nedges: a-t b-t c-t t-t\n",
     ("'t-t'", "loop", "vertex 't'")),
    # errors of the diagram itself name the file's vertices
    ("component 0: a b c\ntrivalent: t\nedges: a-t b-t\n",
     ("univalent vertex 'c'", "0 edges")),
    (TRIPOD_TEXT + "orient t: a b b\n", ("cyclic order at 't'",)),
    ("component 0: a b\ntrivalent: t s\nedges: a-b t-s\n",
     ("trivalent vertex 's'", "1 edges")),
]


class TestDiagramCommands:
    def test_enumerate_degree1(self):
        r = run_cli("diagrams", "enumerate", "--support", "S1",
                    "--degree", "1")
        assert r.returncode == 0
        assert report(r)["count"] == 1

    def test_enumerate_writes_files(self, tmp_path):
        r = run_cli("diagrams", "enumerate", "--support", "S1",
                    "--degree", "2", "--out", str(tmp_path))
        assert r.returncode == 0
        assert len(list(tmp_path.glob("*.diagram"))) == 3

    def test_classify(self, tmp_path):
        f = tmp_path / "y.diagram"
        f.write_text(serialize_diagram(tripod_positive()))
        r = run_cli("diagrams", "classify", str(f))
        rep = report(r)
        assert rep["principal"] and rep["subprincipal"]
        types = {row["type"] for row in rep["faces"]}
        assert "a" in types and "c2" in types

    def test_degree_bound_is_input_error(self):
        r = run_cli("diagrams", "enumerate", "--support", "S1",
                    "--degree", "9")
        assert r.returncode == 2

    @pytest.mark.parametrize("support",
                             ["S1xabc", "S1x0", "S1x-1", "S1x", "foo"])
    def test_bad_support_is_input_error(self, support, capsys):
        assert cli.main(["diagrams", "enumerate", "--support", support,
                         "--degree", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"input error: unknown support {support!r} "
                       "(use S1 or S1xN, N >= 1)\n")

    def test_support_in_any_case(self, capsys):
        assert cli.main(["diagrams", "enumerate", "--support", "s1x2",
                         "--degree", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    def test_classify_empty_head_is_input_error(self, tmp_path):
        f = tmp_path / "y.diagram"
        f.write_text(": a b\n")
        one_line_input_error(run_cli("diagrams", "classify", str(f)),
                             "unrecognised line")

    @pytest.mark.parametrize("text, words", BAD_DIAGRAMS)
    def test_classify_bad_diagram_is_input_error(self, tmp_path, text, words):
        f = tmp_path / "y.diagram"
        f.write_text(text)
        one_line_input_error(run_cli("diagrams", "classify", str(f)), *words)


class TestAlgebraCommands:
    def test_check_gluings(self):
        r = run_cli("algebra", "check-gluings", "--n", "2", "--k", "3")
        rep = report(r)
        assert r.returncode == 0
        assert rep["ihx_prime"] == "PASS" and rep["stu_prime"] == "PASS"

    @pytest.mark.parametrize("coeff", ["1/0", "x"])
    def test_reduce_bad_coefficient(self, coeff, tmp_path):
        from cslinks.diagram_io import serialize_class_vector
        f = tmp_path / "vec.txt"
        f.write_text(serialize_class_vector(
            [(1, std_oriented(tripod_positive().diagram))]).replace(
                "coeff 1", f"coeff {coeff}"))
        one_line_input_error(run_cli("algebra", "reduce", str(f)),
                             f"coefficient {coeff!r}")

    def test_reduce_empty_head_is_input_error(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("coeff 1\n: a\n")
        one_line_input_error(run_cli("algebra", "reduce", str(f)),
                             "unrecognised line")

    @pytest.mark.parametrize("text, words", BAD_DIAGRAMS)
    def test_reduce_bad_diagram_is_input_error(self, tmp_path, text, words):
        f = tmp_path / "vec.txt"
        f.write_text("coeff 1\n" + text)
        one_line_input_error(run_cli("algebra", "reduce", str(f)), *words)

    def test_reduce_vector_file(self, tmp_path):
        from cslinks.diagram_io import serialize_class_vector
        from fractions import Fraction
        f = tmp_path / "vec.txt"
        f.write_text(serialize_class_vector(
            [(Fraction(1), std_oriented(tripod_positive().diagram))]))
        r = run_cli("algebra", "reduce", str(f))
        rep = report(r)
        assert rep["dimension"] == 2
        assert sorted(rep["coordinates"].values()) == ["-1", "1"]


class TestMonteCarloCommands:
    def test_integrate_and_determinism(self, tmp_path):
        f = tmp_path / "y.diagram"
        f.write_text(serialize_diagram(tripod_positive()))
        args = ("integrate", "--diagram", str(f), "--curve", "unknot-round",
                "--samples", "2e4", "--seed", "11", "--shards", "4")
        rep1 = report(run_cli(*args))
        rep2 = report(run_cli(*args))
        rep3 = report(run_cli(*args, "--workers", "4"))
        for rep in (rep1, rep2, rep3):
            rep.pop("wall_time_s")
            rep.pop("config", None)
        rep3["estimate"].pop("workers", None)
        assert rep1["estimate"] == rep2["estimate"] == rep3["estimate"]

    def test_invariant_linking(self):
        r = run_cli("invariant", "linking", "--curve", "hopf-link",
                    "--samples", "5e4", "--seed", "1")
        rep = report(r)
        assert rep["integer"] == 1 and rep["crossing_oracle"] == 1

    def test_invariant_v2_scientific_notation(self):
        r = run_cli("invariant", "v2", "--curve", "unknot-round",
                    "--samples", "1e5", "--seed", "3")
        rep = report(r)
        assert rep["integer"] == 0
        assert rep["config"]["samples"] == 100000

    def test_anomaly_f(self):
        r = run_cli("anomaly", "f", "--gamma", "theta", "--samples", "1e4")
        rep = report(r)
        assert rep["estimate"]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_anomaly_framing(self):
        r = run_cli("anomaly", "framing", "--curve", "unknot-round",
                    "--samples", "1e4")
        rep = report(r)
        assert rep["components"][0]["residual"] < 1e-6

    def test_z0_reports_errors(self):
        r = run_cli("invariant", "z0", "--curve", "trefoil", "--degree", "1",
                    "--samples", "1e3")
        rep = report(r)
        assert rep["errors"]["0"] == {}
        # the error of the theta coefficient of Z, by quadrature
        errors = list(rep["errors"]["1"].values())
        assert len(errors) == 1 and 0 < errors[0] <= 1e-6
        assert rep["framings"][0]["method"] == "quadrature"

    def test_unknown_curve_is_input_error(self):
        r = run_cli("invariant", "selflink", "--curve", "missing.json",
                    "--samples", "1e3")
        assert r.returncode == 2

    @pytest.mark.parametrize("command", [
        ("integrate", "--curve", "unknot-round"),
        ("invariant", "selflink", "--curve", "unknot-round"),
        ("anomaly", "f", "--gamma", "theta"),
        ("anomaly", "framing", "--curve", "unknot-round")],
        ids=["integrate", "selflink", "anomaly-f", "anomaly-framing"])
    def test_report_embeds_replay_config(self, command, tmp_path):
        if command[0] == "integrate":
            f = tmp_path / "y.diagram"
            f.write_text(serialize_diagram(tripod_positive()))
            command += ("--diagram", str(f))
        r = run_cli(*command, "--samples", "2e4", "--seed", "7",
                    "--shards", "4")
        assert report(r)["config"] == {"samples": 20000, "seed": 7,
                                       "shards": 4, "workers": 1}

    def test_table_output(self):
        r = run_cli("anomaly", "f", "--gamma", "theta", "--samples", "1e4",
                    "--seed", "2", "--table")
        assert r.returncode == 0 and r.stderr == ""
        lines = r.stdout.splitlines()
        assert lines[0].split() == ["command", "anomaly", "f"]
        assert "estimate:" in lines and "config:" in lines
        fields = dict(line.split(None, 1) for line in lines
                      if not line.endswith(":"))
        assert float(fields["value"]) == pytest.approx(1.0, abs=1e-12)
        assert fields["samples"] == "10000" and fields["seed"] == "2"
        assert fields["shards"] == "16" and fields["workers"] == "1"
        assert float(fields["wall_time_s"]) >= 0

    @pytest.mark.parametrize("table", [[], ["--table"]], ids=["json", "table"])
    @pytest.mark.parametrize("value", [
        Estimate(1.0, 0.0, "quadrature", {}), np.arange(3), {1, 2}],
        ids=["record", "array", "set"])
    def test_unserialisable_report_raises(self, value, table, monkeypatch,
                                          capsys):
        # a value JSON cannot hold is a bug: it fails before any output,
        # rather than reaching the report as a string
        def linking(curve, m1, m2):
            return {"estimate": Estimate(1.0, 0.0, "quadrature", {}),
                    "integer": value, "residual": 0.0, "oracle": 1,
                    "warning": None}

        monkeypatch.setattr(invariants, "linking_number", linking)
        with pytest.raises(TypeError):
            cli.main(["invariant", "linking", "--curve", "hopf-link"] + table)
        assert capsys.readouterr().out == ""


def one_line_input_error(r, *words):
    assert r.returncode == 2
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")
    for word in words:
        assert word in lines[0]


BAD_COUNTS = [
    ("--samples", "0"), ("--samples=-5",), ("--samples", "1e400"),
    ("--samples", "nan"), ("--shards", "0"), ("--shards", "1"),
    ("--shards=-3",), ("--workers", "0"), ("--workers=-3",),
    ("--samples", "15"), ("--samples", "3", "--shards", "4"),
    ("--samples", "1000.5"), ("--shards", "2.5"), ("--workers", "2.5"),
    ("--shards", "1e8"), ("--shards", "inf"), ("--workers", "nan"),
    ("--workers", "x")]


class TestBadCounts:
    @pytest.mark.parametrize("flags", BAD_COUNTS)
    def test_input_error(self, flags):
        one_line_input_error(run_cli("anomaly", "f", "--gamma", "theta",
                                     *flags))

    @pytest.mark.parametrize("flags", BAD_COUNTS)
    @pytest.mark.parametrize("command", [
        ("invariant", "linking", "--curve", "hopf-link"),
        ("invariant", "selflink", "--curve", "trefoil"),
        ("anomaly", "framing", "--curve", "trefoil")],
        ids=["linking", "selflink", "framing"])
    def test_quadrature_commands_check_counts(self, command, flags, capsys):
        # these commands sample nothing, yet refuse the counts that a
        # Monte Carlo command refuses
        assert cli.main([*command, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("input error:")

    def test_scientific_counts(self):
        r = run_cli("anomaly", "f", "--gamma", "theta", "--samples", "1e3",
                    "--shards", "1e1", "--workers", "2e0")
        assert r.returncode == 0
        config = report(r)["config"]
        assert (config["samples"], config["shards"], config["workers"]) \
            == (1000, 10, 2)


class TestArgparseErrors:
    @pytest.mark.parametrize("args", [
        ("anomaly", "f", "--gamma", "theta", "--seed", "1e3"),
        ("invariant", "z0", "--curve", "trefoil", "--degree", "x"),
        ("invariant", "lattice", "--curve", "trefoil-framed", "--k", "1.5"),
        ("invariant", "linking", "--curve", "hopf-link", "--m1", "a")],
        ids=["seed", "degree", "k", "m1"])
    def test_one_line(self, args):
        one_line_input_error(run_cli(*args), "invalid int value")


class TestBadComponent:
    @pytest.mark.parametrize("flags", [("--m2", "5"), ("--m1=-1",)])
    def test_linking(self, flags):
        r = run_cli("invariant", "linking", "--curve", "hopf-link",
                    "--samples", "1e3", *flags)
        one_line_input_error(r, "component")

    @pytest.mark.parametrize("m", ["1", "-1"])
    def test_selflink(self, m):
        r = run_cli("invariant", "selflink", "--curve", "unknot-round",
                    "--samples", "1e3", "--m1=" + m)
        one_line_input_error(r, "component")


class TestCurveFiles:
    def test_doubled_segment_rejected(self, tmp_path):
        # a segment traced back and forth: not an embedding
        f = tmp_path / "segment.json"
        f.write_text(json.dumps({"components": [
            {"const": [0, 0, 0], "cos": [[1, 0, 0]], "sin": [[1, 0, 0]]}]}))
        r = run_cli("invariant", "selflink", "--curve", str(f),
                    "--samples", "1e4")
        one_line_input_error(r, "separation")

    def test_file_validated_once(self, tmp_path, monkeypatch, capsys):
        f = tmp_path / "hopf.json"
        f.write_text(catalog("hopf-link").to_json())
        calls = []

        def counted(curve):
            calls.append(curve)
            return validate_embedding(curve)

        monkeypatch.setattr(cli, "validate_embedding", counted)
        assert cli.main(["curve", "validate", "--curve", str(f)]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["report"]["samples"] == 4096
        assert cli.main(["curve", "validate", "--curve", "hopf-link"]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("component", [
        {"const": [float("nan"), 0, 0], "cos": [[1, 0, 0]],
         "sin": [[0, 1, 0]]},
        {"const": [0, 0, 0], "cos": [[float("inf"), 0, 0]],
         "sin": [[0, 1, 0]]},
        {"const": [0, 0, 0], "cos": [[1e200, 0, 0]], "sin": [[0, 1e200, 0]]}],
        ids=["nan-point", "infinite-coefficient", "infinite-speed"])
    def test_nonfinite_curve_rejected(self, component, tmp_path):
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({"components": [component]}))
        r = run_cli("curve", "validate", "--curve", str(f))
        one_line_input_error(r, "not finite")

    def test_directory_is_input_error(self, tmp_path):
        r = run_cli("curve", "validate", "--curve", str(tmp_path))
        one_line_input_error(r, "directory")

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"components": {}}',
        '{"components": [{"const": {"x": 1}}]}',
        '{"components": [{"const": [0, 0, 0], "sin": {"a": 1}}]}',
        '{"components": [{"const": [0, 0], "cos": [[1, 0, 0]]}]}',
        '{"components": [{"const": [0, 0, 0], "cos": [[1, 0]]}]}',
        '{"components": [{"const": [0, "x", 0], "cos": [[1, 0, 0]]}]}'])
    def test_wrong_schema_is_input_error(self, tmp_path, text):
        f = tmp_path / "curve.json"
        f.write_text(text)
        r = run_cli("curve", "validate", "--curve", str(f))
        one_line_input_error(r, '{"components": [{"const"')


class TestBadDegree:
    @pytest.mark.parametrize("which", ["z0", "lattice"])
    def test_negative_degree(self, which, monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("an integral ran for a negative degree")

        # every integral z0_series and lattice_check run is reached through
        # one of these names
        for module, name in ((integrate, "integrate_diagram"),
                             (integrate, "chord_quadrature"),
                             (integrate, "two_chord_quadrature"),
                             (invariants, "chord_quadrature")):
            monkeypatch.setattr(module, name, refused)
        assert cli.main(["invariant", which, "--curve", "unknot-round",
                         "--degree", "-1", "--samples", "1e3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: degree must be nonnegative\n"

    def test_lattice_k_checked_before_framing(self, monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("a framing integral ran for k outside 0..2n")

        monkeypatch.setattr(invariants, "self_linking", refused)
        for k, message in (("9", "k must be at most 2n"),
                           ("-3", "k must be nonnegative")):
            assert cli.main(["invariant", "lattice", "--curve",
                             "unknot-round", "--degree", "1", "--k", k,
                             "--samples", "1e5"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"input error: {message}\n"

    @pytest.mark.parametrize("which,module,attr", [
        ("z0", integrate, "integrate_diagram"),
        ("lattice", invariants, "self_linking")], ids=["z0", "lattice"])
    def test_degree_above_four(self, which, module, attr, monkeypatch,
                               capsys):
        def refused(*args, **kwargs):
            raise AssertionError("an integral ran for a degree above 4")

        monkeypatch.setattr(module, attr, refused)
        assert cli.main(["invariant", which, "--curve", "trefoil-framed",
                         "--degree", "5", "--k", "2",
                         "--samples", "1e3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("input error: diagram enumeration supports "
                       "degree <= 4\n")

    @pytest.mark.parametrize("k, message", [("-1", "k must be nonnegative"),
                                            ("5", "k must be at most 2n")])
    def test_algebra_k_out_of_range(self, k, message, tmp_path, capsys):
        from cslinks.diagram_io import serialize_class_vector
        f = tmp_path / "vec.txt"
        f.write_text(serialize_class_vector(
            [(1, std_oriented(tripod_positive().diagram))]))
        for args in (["algebra", "check-gluings", "--n", "2", "--k", k],
                     ["algebra", "reduce", str(f), "--k", k]):
            assert cli.main(args) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"input error: {message}\n"

    @pytest.mark.parametrize("k", ["2", "-5"])
    def test_check_gluings_negative_degree(self, k, capsys):
        assert cli.main(["algebra", "check-gluings", "--n", "-1",
                         "--k", k]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: degree must be nonnegative\n"
