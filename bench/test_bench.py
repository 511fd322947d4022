"""Self-tests of the benchmark (not part of the package's test suite):

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
                           "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_code():
    assert declared("per_layer") == layers.PER_LAYER
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _bindings():
    return {(mod.__name__, attr): val for mod in layers.MODULES
            for attr, val in vars(mod).items()}


def test_tracer_restores_every_attribute():
    before = _bindings()
    tr = layers.make_tracer()
    with tr:
        assert layers.pde.assemble_system is not before[("poissonlab.pde", "assemble_system")]
        assert layers.estimates.zygmund_norm is not before[("poissonlab.estimates",
                                                            "zygmund_norm")]
        tr.begin("case")
        workloads.solve_and_verdict(workloads.corpus_case(0, 0))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {span[0] for span in tr.spans}
    assert {"pde.cg", "pde.assemble_system", "estimates.resolve_field",
            "rearrange.zygmund_norm"} <= names
    assert tr.counts[("pde.krylov.iterations", "case")] > 0


def test_self_time_subtracts_children():
    mod = types.ModuleType("fake")

    def child():
        return sum(range(20000))

    def parent():
        return mod.child() + mod.child()

    mod.child, mod.parent = child, parent
    tr = Tracer({"fake.parent": parent, "fake.child": child}, [mod])
    with tr:
        mod.parent()
    assert mod.parent is parent and mod.child is child
    (p,) = [s for s in tr.spans if s[0] == "fake.parent"]
    kids = [s for s in tr.spans if s[0] == "fake.child"]
    assert len(kids) == 2 and all(k[3] == tr.spans.index(p) for k in kids)
    selfs = tr.self_times()
    assert selfs["fake.parent"] == pytest.approx(
        (p[2] - p[1]) - sum(k[2] - k[1] for k in kids), abs=1e-12)
    assert selfs["fake.child"] == pytest.approx(sum(k[2] - k[1] for k in kids), abs=1e-12)


def _scaled(sol, factor):
    u = sol.u.copy()
    u.values[:-1] *= factor
    u.pole *= factor
    return workloads.estimates.CaseSolution(sol.case, sol.grid, u, sol.f, sol.g, sol.report)


def test_interior_gates_fail_on_corrupted_results(tmp_path):
    wl = workloads.InteriorCorpus(0, tmp_path)
    sol, verdict = workloads.solve_and_verdict(wl.cases[0])
    assert wl.check(0, [(0, "c", (sol, verdict))]) == []
    bad = wl.check(0, [(0, "c", (_scaled(sol, 1.001), verdict))])
    assert any("true residual" in msg for _, msg in bad)
    wrong = workloads.estimates.VerdictReport(verdict.name, verdict.lhs * 1.0001, verdict.rhs,
                                              verdict.tol)
    bad = wl.check(0, [(0, "c", (sol, wrong))])
    assert any("interior ratio" in msg for _, msg in bad)


def test_seed0_gates_fail_on_corrupted_results(tmp_path, monkeypatch):
    wl = workloads.InteriorCorpus(1, tmp_path)
    wl.ratios = {"c": [0.1]}
    assert wl.finish() == []
    wl0 = workloads.InteriorCorpus(0, tmp_path)
    wl0.ratios = {"c": [0.1, workloads.SEED0_CONSTANT * (1 + 1e-7)]}
    assert [msg for _, _, msg in wl0.finish()] == [
        f"seed-0 corpus constant {workloads.SEED0_CONSTANT * (1 + 1e-7)!r} != "
        f"{workloads.SEED0_CONSTANT!r}"]
    real = workloads.solve_and_verdict

    def corrupted(case):
        sol, v = real(case)
        return sol, workloads.estimates.VerdictReport(v.name, v.lhs * (1 + 1e-6), v.rhs, v.tol)

    monkeypatch.setattr(workloads, "solve_and_verdict", corrupted)
    assert any("seed-0 reference" in msg for _, _, msg in wl.finish())


def test_ladder_gates_fail_on_corrupted_results(tmp_path):
    wl = workloads.SolveLadder(4, tmp_path)
    sol = workloads.solve_rung(wl.cases["sep.32"])
    wl.check(0, [(0, "sep.32", sol), (1, "sep.32", _scaled(sol, 1.01))])
    bad = wl.finish()
    assert bad and {i for _, i, _ in bad} == {1}
    assert any("pole" in msg for _, _, msg in bad)
    assert any("true residual" in msg for _, _, msg in bad)


@pytest.fixture(scope="module")
def cli_pass(tmp_path_factory):
    wl = workloads.CliSuite(5, tmp_path_factory.mktemp("cli"))
    wl.prepare()
    results = [(i, label, fn()) for i, (label, fn) in enumerate(wl.ops(0))]
    return wl, results


def test_cli_gates_pass_on_real_outputs(cli_pass):
    wl, results = cli_pass
    assert wl.check(0, results) == []


def test_cli_gates_fail_on_wrong_exit_code(cli_pass):
    wl, results = cli_pass
    broken = [(i, label, 2 if label == "harnack" else rc) for i, label, rc in results]
    bad = wl.check(0, broken)
    assert [msg.split(":")[0] for _, msg in bad] == ["harnack"]


def test_cli_gates_fail_on_corrupted_outputs(cli_pass):
    wl, results = cli_pass
    d = wl.outdir / "pass0"
    path = d / "norms.json"
    rows = json.loads(path.read_text())
    rows[0]["pass"] = False
    path.write_text(json.dumps(rows))
    csv_path = d / "counterexample.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * 1.001)
    csv_path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    bad = {msg.split(":")[0] for _, msg in wl.check(0, results)}
    assert bad == {"verify-norms", "counterexample"}


def test_krylov_counts_scale_with_iterations():
    f1, b1 = workloads.krylov_counts("cg", 100, 500, 1)
    f7, b7 = workloads.krylov_counts("cg", 100, 500, 7)
    assert (f7, b7) == (7 * f1, 7 * b1) and f1 == 2 * 500 + 13 * 100
    assert np.all(np.array(workloads.krylov_counts("bicgstab", 100, 500, 1))
                  > np.array((f1, b1)))
