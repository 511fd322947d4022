"""CLI exit-code contract, report emission, and determinism tests."""
import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from poissonlab import cli, estimates, pde, rearrange, report, surface
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
        report.write_svg(p, [1, 2, 3], [2.0, 1.0, 3.0], "k", "v", "")
        text = p.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_svg_needs_points(self, tmp_path):
        for x, y in (([], []), ([1], [1, 2])):
            with pytest.raises(ValueError, match="at least one point"):
                report.write_svg(tmp_path / "p.svg", x, y, "x", "y", "")


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
        # the sphere's G = sin r vanishes at pi, so no grid may reach it
        '{"metric": "sphere", "r_max": 3.3, "n_r": 16, "n_theta": 16}',
        f'{{"metric": "sphere", "r_max": {math.pi!r}, "n_r": 16, "n_theta": 16}}',
        # 728 TiB per grid array, past the 128 TiB x86-64 user address space
        '{"metric": "flat", "n_r": 10000000, "n_theta": 10000000}',
        # a NaN radius would zero the whole field
        '{"n_r": 16, "n_theta": 16, "f": {"kind": "constant", "value": 1.0, "support_radius": NaN}}',
        '{"n_r": 16, "n_theta": 16, "g": {"kind": "constant", "value": 1.0, "support_radius": NaN}}',
    ], ids=["unknown-key", "string-n_r", "array", "infinite-f", "sphere-past-antipode",
            "sphere-antipode", "huge-grid", "nan-support-f", "nan-support-g"])
    def test_bad_case_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "case.json"
        path.write_text(text)
        assert main(["solve", "--case", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("field", ["f", "g"])
    @pytest.mark.parametrize("bump", ['{"k": NaN, "amp": 1}', '{"k": 4, "amp": NaN}',
                                      '{"k": 4, "amp": 1, "center": [NaN, 0]}'],
                             ids=["k", "amp", "center"])
    def test_nan_bump_one_line(self, tmp_path, capsys, field, bump):
        path = tmp_path / "case.json"
        path.write_text(f'{{"n_r": 16, "n_theta": 16, "{field}": '
                        f'{{"kind": "bumps", "bumps": [{bump}]}}}}')
        assert main(["solve", "--case", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: f, g and boundary values must be finite"]

    @pytest.mark.parametrize("spec, key", [
        ('"f": {"kind": "bumps", "bumps": [{"amp": 1}]}', "k"),
        ('"f": {"kind": "bumps", "bumps": [{"amp": 1, "k": "4"}]}', "k"),
        ('"g": {"kind": "random_bumps", "count": "2"}', "count"),
        ('"boundary": {"kind": "fourier", "modes": 2.5}', "modes"),
        # modes above n_theta // 2 alias onto resolved ones
        ('"boundary": {"kind": "fourier", "modes": 9}', "modes"),
        ('"seed": -3, "f": {"kind": "random_bumps", "count": 2}', "seed"),
        # the boundary's seed is the case seed + 2, which numpy would accept
        ('"seed": -1, "boundary": {"kind": "fourier"}', "seed"),
        # k <= 0 makes eta(k |x - c|) = 1 everywhere: a constant, not a bump
        ('"f": {"kind": "bumps", "bumps": [{"amp": -1, "k": -8}]}', "k"),
        ('"f": {"kind": "random_bumps", "k": [-3, -1]}', "k"),
    ], ids=["bump-without-k", "string-k", "string-count", "fractional-modes", "aliased-modes",
            "negative-seed-bumps", "negative-seed-fourier", "negative-k",
            "negative-k-range"])
    def test_malformed_spec_one_line(self, tmp_path, capsys, spec, key):
        path = tmp_path / "case.json"
        path.write_text(f'{{"n_r": 16, "n_theta": 16, {spec}}}')
        assert main(["solve", "--case", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"'{key}'" in err

    def test_bump_count_capped_before_resolution(self, tmp_path, capsys, monkeypatch):
        # 10^9 bumps would take about a day to resolve; the cap refuses them unlooped
        def unreachable(*args):
            raise AssertionError("the bump loop ran")

        monkeypatch.setattr(estimates, "_random_bumps_spec", unreachable)
        path = tmp_path / "case.json"
        path.write_text('{"n_r": 16, "n_theta": 16, '
                        '"f": {"kind": "random_bumps", "count": 1000000000}}')
        assert main(["solve", "--case", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "'count'" in err

    @pytest.mark.parametrize("argv", [
        ["--kmin", "0"],
        ["--kmin", "16", "--kmax", "8"],
        ["--kmin", "12", "--kmax", "12"],
        ["--n-local", "0"],
        # a k past 2**53 need not be an exact double
        ["--n-local", "7", "--kmin", "11", "--kmax", str(2**53 + 1)],
        ["--n-local", "7", "--kmin", "11", "--kmax", str(10**23)],
    ], ids=["kmin-0", "kmax-below-kmin", "one-k", "n-local-0", "kmax-past-2**53", "kmax-1e23"])
    def test_bad_counterexample_one_line(self, capsys, argv):
        assert main(["counterexample", *argv]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("resolutions, message", [
        ("128,64,32", "resolutions must increase"), ("32,64", "need at least 3 resolutions")],
        ids=["decreasing", "two"])
    def test_bad_resolutions_refused_before_any_solve(self, capsys, monkeypatch, resolutions,
                                                      message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a manufactured solve ran")

        monkeypatch.setattr(pde, "solve_dirichlet", unreachable)
        assert main(["convergence", "--resolutions", resolutions]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_counterexample_kmax_up_to_2_53(self, capsys):
        assert main(["counterexample", "--n-local", "7", "--kmin", "11",
                     "--kmax", str(2**53)]) == 0

    @pytest.mark.parametrize("argv", [
        ["verify-geometry", "--A", "1", "--n-r", "0"],
        ["verify-geometry", "--A", "1", "--n-theta", "0"],
        ["interior", "--cases", "0"],
        ["harnack", "--ks", "0"],
        ["harnack", "--ks", "-8"],
        ["harnack", "--seed", "3"],
        ["counterexample", "--kmin", "abc"],
        [],
        ["interior", "--cases", "1", "--solver-tol", "0"],
        ["interior", "--cases", "1", "--solver-tol", "-1"],
        ["interior", "--cases", "1", "--solver-tol", "nan"],
        ["verify-geometry", "--A", "-1"],
        ["verify-geometry", "--A", "inf"],
        ["verify-geometry", "--A", "0"],
        ["verify-geometry", "--A", "1", "--p", "-1"],
        ["verify-geometry", "--A", "1", "--p", "0"],
        # (2 pi + A)^(p + 1), or r^2 / (4 A) for a tiny A, past the double range
        ["verify-geometry", "--A", "1", "--p", "400"],
        ["verify-geometry", "--A", "1e308"],
        ["verify-geometry", "--A", "5e-324"],
        # no grid node lies in the spike's support: k = 64 on 8x8, k = 256 on 48x64
        ["harnack", "--n-r", "8", "--n-theta", "8"],
        ["harnack", "--ks", "8,16,32,64,128,256"],
        ["verify-geometry", "--metric", "perturbed:-2", "--A", "1"],
        ["verify-geometry", "--metric", "perturbed:nan", "--A", "1"],
        ["interior", "--seed", "-1"],
        ["verify-norms", "--seed", "-1"],
        ["global", "--seed", "-1"],
        ["global", "--cases", "-1"],
        ["interior", "--cases", "1", "--n-r", "10000000", "--n-theta", "10000000"],
        # csv and svg need a file; refused before the harness prints its summary
        ["interior", "--cases", "3", "--n-r", "8", "--n-theta", "8", "--format", "svg"],
        ["harnack", "--ks", "8,16", "--n-r", "8", "--n-theta", "8", "--format", "csv"],
        ["global", "--cases", "0", "--n-r", "8", "--n-theta", "8", "--format", "svg"],
        ["convergence", "--metrics", "flat", "--resolutions", "8,16,32", "--format", "csv"],
        ["verify-norms", "--format", "svg"],
        ["counterexample", "--n-local", "7", "--format", "csv"],
    ], ids=["n-r-removed", "n-theta-removed", "no-cases", "k-0", "k-negative", "unknown-option",
            "bad-type", "no-command", "solver-tol-0", "solver-tol-negative", "solver-tol-nan",
            "A-negative", "A-inf", "A-0", "p-negative", "p-0", "p-overflow", "A-overflow",
            "A-tiny-overflow", "spike-unresolved-coarse-grid", "spike-unresolved-k256",
            "eps-negative", "eps-nan",
            "seed-negative-interior", "seed-negative-norms", "seed-negative-global",
            "cases-negative-global", "huge-grid-interior", "svg-no-out-interior",
            "csv-no-out-harnack", "svg-no-out-global", "csv-no-out-convergence",
            "svg-no-out-norms", "csv-no-out-counterexample"])
    @pytest.mark.filterwarnings("error")
    def test_bad_argument_one_line(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if argv[-2:] in (["--seed", "-1"], ["--cases", "-1"]):  # refused at parse time, by name
            assert f"argument {argv[-2]}: " in err
        if argv[-2:-1] == ["--format"]:
            assert err == f"error: {argv[-1]} output requires --out\n"

    @pytest.mark.parametrize("name", ["perturbedXYZ", "perturbed", "perturbed:", "perturbed:abc",
                                      "perturbedX:0.1"])
    def test_unknown_metric_one_line(self, capsys, name):
        # only perturbed:<eps> names the perturbed family; there is no default eps
        assert main(["verify-geometry", "--metric", name, "--A", "1"]) == 1
        assert capsys.readouterr().err == f"error: unknown metric {name!r}\n"

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

    @pytest.mark.parametrize("rows", [
        [{"name": "x", "lhs": 1.0, "rhs": None}],
        [{"name": "x", "lhs": 1.0, "rhs": 2.0, "tol": "a"}],
        [{"name": "x", "lhs": "1.5", "rhs": 2.0}],
        [{"name": ["x"], "lhs": 1.0, "rhs": 2.0}],
        [{"name": "x", "lhs": True, "rhs": 2.0}],
        [{"name": "x", "lhs": 1.0}],
        [{"name": "x", "lhs": 1.0, "rhs": 2.0, "case": 3}],
        [{"name": "x", "lhs": 10**400, "rhs": 2.0}],
        [{"name": "x", "lhs": 1.0, "rhs": float("inf")}],
        [{"name": "ok", "lhs": 1.0, "rhs": 2.0}, ["x", 1.0, 2.0]],
    ], ids=["null-rhs", "string-tol", "string-lhs", "list-name", "bool-lhs", "missing-rhs",
            "number-case", "huge-int-lhs", "infinite-rhs", "array-row"])
    def test_bad_verdict_rows_one_line(self, tmp_path, capsys, rows):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(rows))
        assert main(["report", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_report_reads_optional_and_extra_keys(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text(json.dumps([{"name": "x", "lhs": 1, "rhs": 2, "tol": 0, "case": "c",
                                     "ratio": "ignored", "pass": None}]))
        assert main(["report", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"name": "x", "lhs": 1.0, "rhs": 2.0, "ratio": 0.5, "pass": True, "tol": 0.0,
             "case": "c"}]

    @pytest.mark.parametrize("tol", ["0", "-1", "inf"])
    def test_bad_solver_tol_one_line(self, tmp_path, capsys, tol):
        case = tmp_path / "case.json"
        case.write_text(json.dumps({"n_r": 16, "n_theta": 16}))
        assert main(["solve", "--case", str(case), "--solver-tol", tol]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "tolerance" in err

    def test_interior_fails_when_every_case_is_skipped(self, monkeypatch, capsys):
        solve_case = estimates.solve_case

        def never_converges(case, tol=1e-10):
            sol = solve_case(case, tol=tol)
            return dataclasses.replace(sol, report=dataclasses.replace(sol.report,
                                                                       converged=False))

        monkeypatch.setattr(estimates, "solve_case", never_converges)
        assert main(["interior", "--cases", "2", "--n-r", "16", "--n-theta", "16"]) == 2
        assert "(0 cases, 2 skipped)" in capsys.readouterr().err

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

    def test_option_sets_are_pinned(self):
        # every option is a value some caller sets; a new one is added here on purpose
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {name: {o for a in sp._actions for o in a.option_strings if o.startswith("--")}
                   - {"--help"} for name, sp in sub.choices.items()}
        out = {"--out", "--format"}
        assert options == {
            "verify-geometry": {"--metric", "--A", "--p", *out},
            "verify-norms": {"--input", "--domain-measure", "--seed", *out},
            "solve": {"--case", "--out", "--solver-tol"},
            "interior": {"--cases", "--n-r", "--n-theta", "--solver-tol", "--seed", *out},
            "harnack": {"--ks", "--n-r", "--n-theta", *out},
            "global": {"--cases", "--n-r", "--n-theta", "--ladder", "--seed", *out},
            "counterexample": {"--kmin", "--kmax", "--n-local", *out},
            "convergence": {"--metrics", "--resolutions", *out},
            "report": {"--input", *out},
        }
        assert sum(map(len, options.values())) == 44

    def test_metric_fields_are_pinned(self):
        # a metric's domain is where its G vanishes, never a caller-set bound
        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                  for cls in (surface.Flat, surface.Sphere, surface.Hyperbolic, surface.Perturbed)}
        assert fields == {"Flat": [], "Sphere": [], "Hyperbolic": [], "Perturbed": ["eps"]}

    def test_result_fields_are_pinned(self):
        # every field is one that some caller reads; a new one is added here on purpose
        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                  for cls in (estimates.BmoDualityResult, estimates.CounterexampleRun,
                              surface.IsoperimetricEstimate, pde.SolveReport)}
        assert fields == {
            "BmoDualityResult": ["pairing_ratio", "naive_bound"],
            "CounterexampleRun": ["k", "u0_raw", "u0_standard", "zygmund", "l1", "mean",
                                  "size_bound_minimal", "atom_in_6k", "inner_lower_bound"],
            "IsoperimetricEstimate": ["A_iso", "A_curv", "volumes", "lengths"],
            # `solve` writes these as its JSON keys
            "SolveReport": ["residual", "iterations", "converged", "solver", "setup_s", "solve_s"],
        }

    def test_report_passthrough(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        report.write_json([VerdictReport("ok", 1.0, 2.0)], path)
        assert main(["report", "--input", str(path)]) == 0
        report.write_json([VerdictReport("bad", 3.0, 2.0)], path)
        assert main(["report", "--input", str(path)]) == 2

    def test_report_json_is_strict(self, tmp_path, capsys):
        # an infinite ratio (rhs = 0, lhs != 0) is written as null, never as
        # the non-standard Infinity, and the output reads back in
        def refuse(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text('[{"name": "x", "lhs": 1.0, "rhs": 0.0}, {"name": "y", "lhs": 1.0, "rhs": 2.0}]')
        assert main(["report", "--input", str(src), "--out", str(out)]) == 2
        rows = json.loads(out.read_text(), parse_constant=refuse)
        assert [r["ratio"] for r in rows] == [None, 0.5]
        assert main(["report", "--input", str(out)]) == 2
        with pytest.raises(ValueError):
            report.write_json({"residual": float("nan")}, tmp_path / "nan.json")


class TestSubcommands:
    @pytest.mark.parametrize("argv,name", [
        (["interior", "--cases", "1", "--n-r", "16", "--n-theta", "16"], "interior_ratio"),
        (["harnack", "--ks", "8"], "harnack_spike_k8"),
    ], ids=["interior", "harnack"])
    def test_svg_of_one_verdict(self, tmp_path, capsys, argv, name):
        out = tmp_path / "one.svg"
        assert main([*argv, "--format", "svg", "--out", str(out)]) == 0
        assert f"PASS {name} " in capsys.readouterr().err
        # a lone point is drawn at the lower-left corner of the plot area
        assert '<circle cx="60.00" cy="360.00"' in out.read_text()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_domain_measure_one_line(self, capsys, value):
        assert main(["verify-norms", "--domain-measure", value]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: domain measure must be finite and positive")

    def test_verify_norms_selfcheck(self, capsys):
        assert main(["verify-norms"]) == 0

    def test_verify_norms_rearranges_once(self, monkeypatch, capsys):
        calls = []
        original = rearrange.rearrange

        def counted(f):
            calls.append(f.values.size)
            return original(f)

        monkeypatch.setattr(rearrange, "rearrange", counted)
        monkeypatch.setattr(cli, "rearrange", counted)
        assert main(["verify-norms"]) == 0
        assert calls == [200]

    def test_zygmund_dominates_l1_checks_the_norm(self, tmp_path, capsys):
        # a constant field is the equality case: int f* ln(|X|/t) dt = int f* dt
        path = tmp_path / "field.json"
        path.write_text(json.dumps([[1.0, 1.0], [1.0, 1.0]]))
        assert main(["verify-norms", "--input", str(path)]) == 0
        row = json.loads(capsys.readouterr().out)[-1]
        assert row["name"] == "zygmund_dominates_l1" and row["pass"]
        assert (row["lhs"], row["rhs"]) == pytest.approx((2.0, 2.0), rel=1e-12)

    def test_verify_norms_input(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        path.write_text(json.dumps([[3.0, 0.1], [1.0, 0.2]]))
        assert main(["verify-norms", "--input", str(path)]) == 0

    def test_verify_norms_polar_rows(self, tmp_path, capsys):
        rows = [[1.0, 0.5, 0.0, 0.1], [2.0, 0.5, 3.14, 0.1]]
        path = tmp_path / "field.json"
        path.write_text(json.dumps(rows))
        assert main(["verify-norms", "--input", str(path)]) == 0

    def test_verify_norms_reads_value_and_measure(self, tmp_path, capsys):
        # no verdict reads positions: 4-wide rows and their (value, measure)
        # columns write the same bytes
        rng = np.random.default_rng([0, 3])
        rows = np.column_stack([rng.standard_t(3, 2000), rng.uniform(0, 1, 2000),
                                rng.uniform(0, 2 * np.pi, 2000), rng.uniform(1e-5, 1e-4, 2000)])
        written = []
        for name, cols in (("polar", rows), ("plain", rows[:, [0, 3]])):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}_out.json"
            path.write_text(json.dumps(cols.tolist()))
            assert main(["verify-norms", "--input", str(path), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

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

    def test_solve_case_inside_perturbed_domain(self, tmp_path, capsys):
        # perturbed:2 has G > 0 for r < 1/sqrt(2), so B_0.5 is a valid domain
        case = {"metric": "perturbed:2", "n_r": 16, "n_theta": 16, "r_max": 0.5,
                "R_outer": 0.5, "R_inner": 0.25, "f": {"kind": "constant", "value": -4.0}}
        cpath = tmp_path / "case.json"
        cpath.write_text(json.dumps(case))
        assert main(["solve", "--case", str(cpath)]) == 0
        assert json.loads(capsys.readouterr().out)["converged"]

    @pytest.mark.parametrize("g, solver", [(1.0, "cg"), (-1.0, "bicgstab")])
    def test_solve_reports_solver(self, tmp_path, capsys, g, solver):
        case = {"n_r": 16, "n_theta": 16, "f": {"kind": "constant", "value": -4.0},
                "g": {"kind": "constant", "value": g}}
        cpath = tmp_path / "case.json"
        cpath.write_text(json.dumps(case))
        out = tmp_path / "sol.json"
        assert main(["solve", "--case", str(cpath), "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        assert sol["solver"] == solver
        assert all(math.isfinite(sol[k]) and sol[k] >= 0 for k in ("setup_s", "solve_s"))
        err = capsys.readouterr().err
        assert f" solver={solver} " in err and " setup_s=" in err and " solve_s=" in err

    def test_solve_singular_mode_operator(self, tmp_path, capsys, monkeypatch):
        # a zero pivot in the theta-mode factorisation exits 1 with one line
        factor = pde.dgttrf
        monkeypatch.setattr(pde, "dgttrf", lambda *args: (*factor(*args)[:-1], 1))
        case = {"n_r": 16, "n_theta": 16, "f": {"kind": "constant", "value": -4.0},
                "g": {"kind": "constant", "value": -1.0}}
        cpath = tmp_path / "case.json"
        cpath.write_text(json.dumps(case))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--case", str(cpath)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "singular" in lines[0]

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

    def test_counterexample_slope_at_bench_resolution(self, tmp_path, capsys):
        # the benchmark's counterexample gate (bench/workloads.py CLI_SLOPE,
        # copied here): ln k fit of |u_k(0)| over k = 16..256 at n_local = 1024
        out = tmp_path / "ce.csv"
        assert main(["counterexample", "--n-local", "1024", "--format", "csv",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        ks = [int(r["k"]) for r in rows]
        assert ks == [16, 32, 64, 128, 256]
        slope = estimates.fit_log_slope(ks, [float(r["u0_raw"]) for r in rows])
        assert slope == pytest.approx(3.5765755466, rel=1e-9, abs=0.0)

    def test_counterexample_svg(self, tmp_path, capsys):
        out = tmp_path / "growth.svg"
        assert main(["counterexample", "--kmin", "16", "--kmax", "64",
                     "--n-local", "96", "--format", "svg", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_counterexample_lhs_is_lower_bound(self, tmp_path, capsys):
        # each row checks the paper's lower bound (pi/2) ln k + const against |u_k(0)|
        out = tmp_path / "ce.json"
        assert main(["counterexample", "--kmin", "16", "--kmax", "64",
                     "--n-local", "96", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["name"] for r in rows] == ["counterexample_k16", "counterexample_k32",
                                             "counterexample_k64"]
        for k, row in zip((16, 32, 64), rows):
            run = estimates.counterexample_family(k, 96)
            assert (row["lhs"], row["rhs"]) == (run.inner_lower_bound, run.u0_raw)
            assert 0 < row["lhs"] <= row["rhs"] and row["pass"]

    def test_verdict_bounds_match_acceptance_gate(self, tmp_path, capsys):
        # criterion 7: each spike ratio below 3 x the median; criterion 4: order in [1.7, 2.3]
        out = tmp_path / "harnack.json"
        assert main(["harnack", "--ks", "8,16,32", "--n-r", "24", "--n-theta", "32",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        med = float(np.median([r["lhs"] for r in rows]))
        assert [r["rhs"] for r in rows] == [3.0 * med] * 3
        out = tmp_path / "convergence.json"
        assert main(["convergence", "--metrics", "flat", "--resolutions", "16,32,64",
                     "--out", str(out)]) == 0
        lower, upper = json.loads(out.read_text())
        assert (lower["name"], lower["lhs"]) == ("convergence_order_flat", 1.7)
        assert (upper["name"], upper["rhs"]) == ("convergence_order_flat_upper", 2.3)

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


class TestColdStart:
    """A fresh process that runs commands loads no scipy subpackage the
    package does not use."""

    def test_commands_leave_unused_scipy_unloaded(self):
        script = (
            "import contextlib, io, sys\n"
            "from poissonlab import cli\n"
            "with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['verify-geometry', '--metric', 'sphere', '--A', '1.75']),\n"
            "             cli.main(['interior', '--cases', '2'])]\n"
            "assert codes == [0, 0], codes\n"
            "from poissonlab import pde, surface\n"
            "grid = pde.PolarGrid(surface.flat(), 16, 24, 1.0)\n"
            "_, rep = pde.solve_dirichlet(grid, pde.constant_field(grid, -1.0),\n"
            "                             pde.constant_field(grid, -4.0), 0.0)\n"
            "assert rep.converged, rep\n"
            "loaded = [m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.spatial',\n"
            "                      'scipy.special', 'scipy.fft') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
