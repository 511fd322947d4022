"""CLI exit-code contract, report emission, and determinism tests."""
import argparse
import json

import numpy as np
import pytest

from poissonlab import report, surface
from poissonlab.cli import build_parser, main
from poissonlab.report import VerdictReport


class TestVerdictReport:
    def test_pass_semantics(self):
        assert VerdictReport("x", 1.0, 1.0).passed
        assert VerdictReport("x", 1.1, 1.0, tol=0.2).passed
        assert not VerdictReport("x", 1.3, 1.0, tol=0.2).passed

    def test_zero_conventions(self):
        assert VerdictReport("x", 0.0, 0.0).ratio == 0.0
        assert VerdictReport("x", 1.0, 0.0).ratio == np.inf
        assert VerdictReport("x", 0.0, 0.0).passed

    def test_dict_schema(self):
        d = VerdictReport("x", 1.0, 2.0, 0.1, "c").to_dict()
        assert set(d) == {"name", "lhs", "rhs", "ratio", "pass", "tol", "case"}
        assert isinstance(d["pass"], bool)
        json.dumps(d)  # native types only

    def test_csv_and_json_roundtrip(self, tmp_path):
        verdicts = [VerdictReport("a", 1.0, 2.0), VerdictReport("b", 3.0, 2.0)]
        jpath = tmp_path / "v.json"
        cpath = tmp_path / "v.csv"
        report.write_json(verdicts, jpath)
        report.write_csv(verdicts, cpath)
        rows = json.loads(jpath.read_text())
        assert [r["name"] for r in rows] == ["a", "b"]
        assert cpath.read_text().splitlines()[0] == "name,lhs,rhs,ratio,pass,tol,case"

    def test_empty_csv_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to report"):
            report.write_csv([], tmp_path / "v.csv")

    def test_svg_plot(self, tmp_path):
        p = tmp_path / "plot.svg"
        report.write_svg(p, [1, 2, 3], [2.0, 1.0, 3.0], xlabel="k", ylabel="v")
        text = p.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_svg_needs_points(self, tmp_path):
        with pytest.raises(ValueError, match="two points"):
            report.write_svg(tmp_path / "p.svg", [1], [1])


class TestExitCodes:
    def test_geometry_pass(self, capsys):
        assert main(["verify-geometry", "--metric", "flat", "--A", "0.0795775"]) == 0

    def test_geometry_sphere_invalid_case_still_passes(self, capsys):
        assert main(["verify-geometry", "--metric", "sphere", "--A", "0.1592",
                     "--p", "2"]) == 0

    def test_geometry_fail(self, capsys):
        # A far too small breaks the lower volume bound
        assert main(["verify-geometry", "--metric", "flat", "--A", "0.01"]) == 2

    def test_missing_input(self, capsys):
        assert main(["report", "--input", "/no/such/file.json"]) == 1
        assert "/no/such/file.json" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"name": "x",\n  broken]')
        assert main(["report", "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_empty_report(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert main(["report", "--input", str(empty)]) == 1
        assert "nothing to report" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"bogus": 1}',
        '{"n_r": "64"}',
        '[1, 2]',
        '{"n_r": 16, "n_theta": 16, "f": {"kind": "constant", "value": 1e400}}',
    ], ids=["unknown-key", "string-n_r", "array", "infinite-f"])
    def test_bad_case_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "case.json"
        path.write_text(text)
        assert main(["solve", "--case", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--kmin", "0"],
        ["--kmin", "16", "--kmax", "8"],
        ["--kmin", "12", "--kmax", "12"],
        ["--n-local", "0"],
    ], ids=["kmin-0", "kmax-below-kmin", "one-k", "n-local-0"])
    def test_bad_counterexample_one_line(self, capsys, argv):
        assert main(["counterexample", *argv]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["verify-geometry", "--A", "1", "--n-r", "0"],
        ["verify-geometry", "--A", "1", "--n-theta", "0"],
        ["interior", "--cases", "0"],
        ["harnack", "--ks", "0"],
        ["harnack", "--ks", "-8"],
        ["harnack", "--seed", "3"],
        ["counterexample", "--kmin", "abc"],
        [],
    ], ids=["n-r-0", "n-theta-0", "no-cases", "k-0", "k-negative", "unknown-option",
            "bad-type", "no-command"])
    def test_bad_argument_one_line(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("rows", [
        [[1, {}], [2, 3]],
        [[1, 2, 3, {}]],
        [[1, "2"]],
        [[1, 0.5], 3],
        [[10**400, 1]],
        [[1e200, 1e200]],
        [[1e300, 1e10], [1, 1]],
    ], ids=["object-entry", "object-entry-polar", "string-entry", "scalar-row", "huge-int",
            "overflowing-mass", "overflowing-pairing"])
    @pytest.mark.filterwarnings("error")
    def test_bad_norm_rows_one_line(self, tmp_path, capsys, rows):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(rows))
        assert main(["verify-norms", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--help"], ["global", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ")

    def test_seed_only_where_random_data_is_drawn(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        seeded = {name for name, sp in sub.choices.items()
                  if any("--seed" in a.option_strings for a in sp._actions)}
        assert seeded == {"interior", "global", "verify-norms"}

    def test_report_passthrough(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        report.write_json([VerdictReport("ok", 1.0, 2.0)], path)
        assert main(["report", "--input", str(path)]) == 0
        report.write_json([VerdictReport("bad", 3.0, 2.0)], path)
        assert main(["report", "--input", str(path)]) == 2


class TestSubcommands:
    def test_verify_norms_selfcheck(self, capsys):
        assert main(["verify-norms"]) == 0

    def test_verify_norms_input(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        path.write_text(json.dumps([[3.0, 0.1], [1.0, 0.2]]))
        assert main(["verify-norms", "--input", str(path)]) == 0

    def test_verify_norms_polar_rows(self, tmp_path, capsys):
        rows = [[1.0, 0.5, 0.0, 0.1], [2.0, 0.5, 3.14, 0.1]]
        path = tmp_path / "field.json"
        path.write_text(json.dumps(rows))
        assert main(["verify-norms", "--input", str(path)]) == 0

    def test_verify_norms_bad_rows(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        path.write_text(json.dumps([[1.0, 2.0, 3.0]]))
        assert main(["verify-norms", "--input", str(path)]) == 1

    def test_solve_case(self, tmp_path, capsys):
        case = {"metric": "flat", "n_r": 16, "n_theta": 16, "r_max": 1.0,
                "f": {"kind": "constant", "value": -4.0}}
        cpath = tmp_path / "case.json"
        cpath.write_text(json.dumps(case))
        out = tmp_path / "sol.json"
        assert main(["solve", "--case", str(cpath), "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        assert sol["converged"]
        assert sol["pole"] == pytest.approx(1.0, abs=1e-7)

    def test_interior_small(self, tmp_path, capsys):
        out = tmp_path / "interior.json"
        assert main(["interior", "--cases", "3", "--n-r", "16", "--n-theta", "16",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 3

    def test_convergence(self, capsys):
        assert main(["convergence", "--resolutions", "16,32,64",
                     "--metrics", "flat"]) == 0

    def test_counterexample_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["counterexample", "--kmin", "16", "--kmax", "32",
                         "--n-local", "96", "--format", "csv",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_counterexample_svg(self, tmp_path, capsys):
        out = tmp_path / "growth.svg"
        assert main(["counterexample", "--kmin", "16", "--kmax", "64",
                     "--n-local", "96", "--format", "svg", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_harnack_small(self, capsys):
        assert main(["harnack", "--ks", "8,16", "--n-r", "24",
                     "--n-theta", "32"]) == 0

    def test_global_small(self, capsys):
        assert main(["global", "--cases", "1", "--n-r", "24", "--n-theta", "32"]) == 0

    def test_global_computes_energy_constant_once(self, monkeypatch, capsys):
        calls = []
        iso = surface.isoperimetric_constant

        def counted(*args, **kwargs):
            calls.append(args)
            return iso(*args, **kwargs)

        monkeypatch.setattr(surface, "isoperimetric_constant", counted)
        assert main(["global", "--cases", "5"]) == 0
        assert len(calls) == 1

