"""The layers the traced run wraps, the counters recorded at their
boundaries, and the per-layer metrics built from the spans.

Layers are the package modules; every span is named ``<module>.<function>``
after the module that defines the function.
"""
from __future__ import annotations

import os
from collections import Counter

import poissonlab
from poissonlab import cli, estimates, pde, rearrange, report, surface

from tracer import Tracer
from workloads import RUNGS, krylov_counts

MODULES = (poissonlab, cli, estimates, pde, rearrange, report, surface)

CLI_COMMANDS = sorted(name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_"))
SUITE_COMMANDS = ("verify-geometry", "verify-norms", "harnack", "global", "counterexample",
                  "convergence", "report")

PER_LAYER = {
    "pde.krylov.self_s": "s",
    "pde.krylov.iterations": "count",
    **{f"pde.krylov.iterations.{r[0]}": "count" for r in RUNGS},
    "pde.krylov.flops_computed": "flop",
    "pde.krylov.bytes_computed": "B",
    "pde.assemble_system.self_s": "s",
    "pde.assemble_system.calls": "count",
    "pde.assemble_system.nnz": "count",
    **{f"pde.unknowns.{r[0]}": "count" for r in RUNGS},
    "pde.solve_dirichlet.self_s": "s",
    "pde.log_potential.self_s": "s",
    "estimates.fields.self_s": "s",
    "estimates.solve_case.self_s": "s",
    "estimates.verdict.self_s": "s",
    "estimates.skipped": "count",
    "estimates.counterexample_family.self_s": "s",
    "rearrange.rearrange.self_s": "s",
    "rearrange.rearrange.calls": "count",
    "rearrange.rearrange.elements": "count",
    "rearrange.zygmund_norm.self_s": "s",
    "rearrange.atom_check.self_s": "s",
    "surface.isoperimetric_constant.self_s": "s",
    "surface.isoperimetric_constant.calls": "count",
    "cli.main.self_s": "s",
    **{f"cli.{c}.s": "s" for c in SUITE_COMMANDS},
    "report.write.self_s": "s",
    "report.bytes_written": "B",
    "trace.overhead_s": "s",
}


def targets() -> dict:
    """{span name: function} for every wrapped layer entry point."""
    out = {f"pde.{n}": getattr(pde, n)
           for n in ("assemble_system", "solve_dirichlet", "cg", "bicgstab", "log_potential")}
    out.update({f"estimates.{n}": getattr(estimates, n)
                for n in ("solve_case", "resolve_field", "resolve_boundary", "interior_ratio",
                          "harnack_ratio", "counterexample_family")})
    out.update({f"rearrange.{n}": getattr(rearrange, n)
                for n in ("rearrange", "zygmund_norm", "atom_check")})
    out["surface.isoperimetric_constant"] = surface.isoperimetric_constant
    out["cli.main"] = cli.main
    out.update({f"cli.{c}": getattr(cli, "cmd_" + c.replace("-", "_")) for c in CLI_COMMANDS})
    out.update({f"report.{n}": getattr(report, n)
                for n in ("write_json", "write_csv", "write_svg")})
    return out


def _krylov_hooks(solver):
    """Count iterations with an attribute on the callback, and turn them into
    computed flops and bytes once the solve returns."""

    def before(tr, args, kwargs):
        inner = kwargs.get("callback")

        def counting(xk):
            counting.iterations += 1
            if inner is not None:
                inner(xk)

        counting.iterations = 0
        return dict(kwargs, callback=counting)

    def after(tr, args, kwargs, result):
        A, iterations = args[0], kwargs["callback"].iterations
        flops, nbytes = krylov_counts(solver, A.shape[0], A.nnz, iterations)
        tr.count("pde.krylov.calls")
        tr.count("pde.krylov.iterations", iterations)
        tr.count("pde.krylov.flops_computed", flops)
        tr.count("pde.krylov.bytes_computed", nbytes)

    return before, after


def _after_assemble(tr, args, kwargs, result):
    A = result[0]
    tr.count("pde.assemble_system.nnz", A.nnz)
    tr.counts[("pde.unknowns", tr.label)] = A.shape[0]


def _after_solve_case(tr, args, kwargs, result):
    if not result.report.converged:
        tr.count("estimates.skipped")


def _after_rearrange(tr, args, kwargs, result):
    tr.count("rearrange.rearrange.elements", args[0].values.size)


def _after_write(path_arg):
    def after(tr, args, kwargs, result):
        tr.count("report.bytes_written", os.path.getsize(args[path_arg]))

    return after


HOOKS = {
    "pde.cg": _krylov_hooks("cg"),
    "pde.bicgstab": _krylov_hooks("bicgstab"),
    "pde.assemble_system": (None, _after_assemble),
    "estimates.solve_case": (None, _after_solve_case),
    "rearrange.rearrange": (None, _after_rearrange),
    "report.write_json": (None, _after_write(1)),
    "report.write_csv": (None, _after_write(1)),
    "report.write_svg": (None, _after_write(0)),
}


def make_tracer() -> Tracer:
    return Tracer(targets(), MODULES, HOOKS)


def per_layer_metrics(tr: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-pass layer metrics from the spans and counters of ``passes``
    traced passes."""
    selfs = tr.self_times()
    totals = tr.total_times()
    calls = Counter(span[0] for span in tr.spans)

    def self_s(*names):
        return sum(selfs.get(n, 0.0) for n in names) / passes

    def counted(key, label=None):
        return sum(v for (k, lab), v in tr.counts.items()
                   if k == key and (label is None or lab == label))

    m = {
        "pde.krylov.self_s": self_s("pde.cg", "pde.bicgstab"),
        "pde.krylov.iterations": counted("pde.krylov.iterations") / passes,
        "pde.krylov.flops_computed": counted("pde.krylov.flops_computed") / passes,
        "pde.krylov.bytes_computed": counted("pde.krylov.bytes_computed") / passes,
        "pde.assemble_system.self_s": self_s("pde.assemble_system"),
        "pde.assemble_system.calls": calls["pde.assemble_system"] / passes,
        "pde.assemble_system.nnz": counted("pde.assemble_system.nnz") / passes,
        "pde.solve_dirichlet.self_s": self_s("pde.solve_dirichlet"),
        "pde.log_potential.self_s": self_s("pde.log_potential"),
        "estimates.fields.self_s": self_s("estimates.resolve_field", "estimates.resolve_boundary"),
        "estimates.solve_case.self_s": self_s("estimates.solve_case"),
        "estimates.verdict.self_s": self_s("estimates.interior_ratio", "estimates.harnack_ratio"),
        "estimates.skipped": counted("estimates.skipped") / passes,
        "estimates.counterexample_family.self_s": self_s("estimates.counterexample_family"),
        "rearrange.rearrange.self_s": self_s("rearrange.rearrange"),
        "rearrange.rearrange.calls": calls["rearrange.rearrange"] / passes,
        "rearrange.rearrange.elements": counted("rearrange.rearrange.elements") / passes,
        "rearrange.zygmund_norm.self_s": self_s("rearrange.zygmund_norm"),
        "rearrange.atom_check.self_s": self_s("rearrange.atom_check"),
        "surface.isoperimetric_constant.self_s": self_s("surface.isoperimetric_constant"),
        "surface.isoperimetric_constant.calls": calls["surface.isoperimetric_constant"] / passes,
        "cli.main.self_s": self_s("cli.main"),
        "report.write.self_s": self_s("report.write_json", "report.write_csv", "report.write_svg"),
        "report.bytes_written": counted("report.bytes_written") / passes,
        "trace.overhead_s": overhead_s,
    }
    for c in SUITE_COMMANDS:
        m[f"cli.{c}.s"] = totals.get(f"cli.{c}", 0.0) / passes
    for label, *_ in RUNGS:
        solves = counted("pde.krylov.calls", label)
        m[f"pde.krylov.iterations.{label}"] = (
            counted("pde.krylov.iterations", label) / solves if solves else 0.0)
        m[f"pde.unknowns.{label}"] = tr.counts.get(("pde.unknowns", label), 0)
    assert set(m) == set(PER_LAYER)
    return m
