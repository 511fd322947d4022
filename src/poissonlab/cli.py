"""Command-line experiment runner.

Exit codes: 0 all verdicts pass, 2 any verdict fails, 1 input error
(malformed JSON reported with line/column, missing files by path, usage
errors and grids past the node budget of 2**22 nodes as one line).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import estimates, pde, report, surface
from .rearrange import WeightedSamples, direct_pairing, rearrange
from .report import VerdictReport


class InputError(Exception):
    pass


# fixed verdict inputs; the last two are the bounds acceptance criteria 7 and 4 pin
GEOMETRY_RADII = (0.125, 0.25, 0.5, 0.75, 1.0)
HARNACK_SPREAD = 3.0  # each spike ratio stays below this multiple of the median
ORDER_RANGE = (1.7, 2.3)  # the measured order of the second-order scheme


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 1: argparse's exit 2 means a failed verdict
        raise InputError(f"{self.prog}: {message}")


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():  # digits only: no sign, point or blank
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _load_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file {path!r}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path!r} at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc


def _finite_number(x) -> bool:
    # a JSON number within double range: no bool, NaN, infinity or huge int
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _load_samples(path) -> WeightedSamples:
    rows = _load_json(path)
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{path!r}: expected a nonempty JSON array of rows")
    widths = {len(r) if isinstance(r, list) else -1 for r in rows}
    arr = None
    if widths in ({2}, {4}) and {type(x) for r in rows for x in r} <= {int, float}:  # no bools
        try:
            arr = np.asarray(rows, dtype=float)
        except OverflowError:  # an int beyond double range
            pass
    # NaN, infinities and +-max fail the bound; an int just above double range
    # rounds to +-max, so only then is each value checked
    if arr is None or not (np.max(np.abs(arr)) < sys.float_info.max
                           or all(_finite_number(x) for r in rows for x in r)):
        raise InputError(f"{path!r}: rows must be (value, measure) or (value, r, theta, measure) "
                         "arrays of finite numbers")
    # no verdict reads positions, so a 4-wide row's (r, theta) go unread
    return WeightedSamples(arr[:, 0], arr[:, -1])


def _emit(verdicts, args, series=None):
    fmt, out = args.format, args.out
    if fmt == "json":
        report.write_json(verdicts, out)
    elif fmt == "csv":
        report.write_csv(verdicts, out)
    else:
        x, y, xlabel, ylabel, title = series or (list(range(len(verdicts))),
                                                 [v.ratio for v in verdicts],
                                                 "verdict index", "lhs/rhs", "verdict ratios")
        report.write_svg(out, x, y, xlabel, ylabel, title)


def _finish(verdicts, args, series=None) -> int:
    _emit(verdicts, args, series)
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"{status} {v.name} lhs={v.lhs:.6g} rhs={v.rhs:.6g} "
              f"ratio={v.ratio:.6g}{' [' + v.case + ']' if v.case else ''}", file=sys.stderr)
    return 0 if all(v.passed for v in verdicts) else 2


def cmd_verify_geometry(args) -> int:
    metric = surface.from_name(args.metric)
    verdicts = surface.geometry_bounds_verdicts(metric, args.A, args.p, GEOMETRY_RADII)
    return _finish(verdicts, args)


def cmd_verify_norms(args) -> int:
    if args.input is not None:
        f = _load_samples(args.input)
    else:
        rng = np.random.default_rng(args.seed)
        f = WeightedSamples(rng.normal(size=200), rng.uniform(0.01, 1.0, size=200))
    domain = args.domain_measure if args.domain_measure is not None else f.total_measure
    # finite rows can still overflow a norm; the verdicts are checked below
    with np.errstate(over="ignore", invalid="ignore"):
        prof = rearrange(f)
        l1_direct = float(np.sum(np.abs(f.values) * f.measures))
        l1_star = float(np.sum(prof.values * np.diff(prof.breakpoints)))
        znorm = prof.zygmund_norm(domain)
        verdicts = [
            VerdictReport("rearrangement_mass", l1_star, l1_direct, 1e-9),
            VerdictReport("rearrangement_mass_rev", l1_direct, l1_star, 1e-9),
            VerdictReport("hardy_littlewood_self", direct_pairing(f, f), prof.pairing(prof), 1e-9),
            # ln(|X|/t) decreases with mean 1 on [0, |X|], so by Chebyshev's integral
            # inequality int f* ln(|X|/t) dt >= int f* dt; a larger domain only adds
            VerdictReport("zygmund_dominates_l1", l1_direct, znorm, 1e-9),
        ]
    if not np.all(np.isfinite([(v.lhs, v.rhs) for v in verdicts])):
        raise InputError("the field's norms overflow double precision")
    print(f"zygmund_norm = {znorm:.10g} (domain measure {domain:.6g})", file=sys.stderr)
    return _finish(verdicts, args)


def cmd_solve(args) -> int:
    case = estimates.ExperimentCase.from_dict(_load_json(args.case))
    sol = estimates.solve_case(case, tol=args.solver_tol)
    report.write_json({"case": asdict(case), "pole": sol.u.pole,
                       "values": sol.u.values.tolist(), **asdict(sol.report)}, args.out)
    print(f"{'PASS' if sol.report.converged else 'FAIL'} solve solver={sol.report.solver} "
          f"residual={sol.report.residual:.3g} iters={sol.report.iterations} "
          f"setup_s={sol.report.setup_s:.3g} solve_s={sol.report.solve_s:.3g}",
          file=sys.stderr)
    return 0 if sol.report.converged else 2


def cmd_interior(args) -> int:
    reports, constant, skipped = estimates.run_interior_corpus(
        args.cases, args.seed, args.n_r, args.n_theta, solver_tol=args.solver_tol)
    print(f"measured interior constant C = {constant:.6g} "
          f"({len(reports)} cases, {skipped} skipped)", file=sys.stderr)
    if not reports:  # no case converged, so nothing was verified
        return 2
    return _finish(reports, args)


def cmd_harnack(args) -> int:
    ks = [int(s) for s in args.ks.split(",")]
    ratios = estimates.harnack_spike_corpus(ks, n_r=args.n_r, n_theta=args.n_theta)
    med = float(np.median(ratios))
    verdicts = [VerdictReport(f"harnack_spike_k{k}", r, med * HARNACK_SPREAD)
                for k, r in zip(ks, ratios)]
    print(f"spike ratios: {np.array2string(ratios, precision=4)} median={med:.4g}",
          file=sys.stderr)
    return _finish(verdicts, args, series=(np.log(ks).tolist(), ratios.tolist(),
                                           "ln k", "ratio", "Harnack spike ratios"))


def cmd_global(args) -> int:
    verdicts, ratio = estimates.global_estimate({"kind": "constant", "value": -4.0},
                                                args.n_r, args.n_theta, args.ladder)
    print(f"end-to-end ratio = {ratio:.6g}", file=sys.stderr)
    A = estimates.energy_constant()
    for i in range(args.cases):
        spec = {"kind": "random_bumps", "count": 2, "amp": (0.5, 3.0), "k": (2, 8),
                "center_r_max": 0.6, "sign": "any", "seed": args.seed * 9973 + i}
        vs = estimates.global_energy_checks(spec, A, args.n_r, args.n_theta)
        verdicts.extend(VerdictReport(v.name, v.lhs, v.rhs, v.tol, f"energy-{i}") for v in vs)
    return _finish(verdicts, args)


def cmd_counterexample(args) -> int:
    # up to 2**53 every integer k is an exact double
    if args.kmin <= 10 or not 2 * args.kmin <= args.kmax <= 2**53:
        raise ValueError(f"need --kmin > 10 and 2 * --kmin <= --kmax <= 2**53, "
                         f"got {args.kmin}, {args.kmax}")
    ks = []
    k = args.kmin
    while k <= args.kmax:
        ks.append(k)
        k *= 2
    runs = [estimates.counterexample_family(k, args.n_local) for k in ks]
    slope = surface.fit_log_slope(ks, [r.u0_raw for r in runs])
    if args.format == "csv":
        header = ["k", "u0_raw", "u0_standard", "zygmund_norm", "l1_norm", "atom_size_bound",
                  "min_radius"]
        report.write_table(args.out, header, [
            [r.k] + [f"{x:.10g}" for x in (r.u0_raw, r.u0_standard, r.zygmund, r.l1,
                                           r.size_bound_minimal, r.atom_in_6k.min_radius)]
            for r in runs])
    else:
        rows = [VerdictReport(f"counterexample_k{r.k}", r.inner_lower_bound, r.u0_raw,
                              case=f"zygmund={r.zygmund:.6g};atom={r.size_bound_minimal:.6g}")
                for r in runs]
        _emit(rows, args, series=(np.log(ks).tolist(), [r.u0_raw for r in runs],
                                  "ln k", "|u_k(0)|", "potential growth"))
    print(f"fitted slope of |u_k(0)| vs ln k: {slope:.6g}", file=sys.stderr)
    for r in runs:
        print(f"k={r.k}: |u_k(0)|={r.u0_raw:.6g} zygmund={r.zygmund:.6g} "
              f"atom_size={r.size_bound_minimal:.6g}", file=sys.stderr)
    return 0 if slope > 0 else 2


def cmd_convergence(args) -> int:
    resolutions = [int(s) for s in args.resolutions.split(",")]
    verdicts = []
    series = None
    for kind in args.metrics.split(","):
        errors, order = estimates.manufactured_convergence(kind, resolutions)
        verdicts.append(VerdictReport(f"convergence_order_{kind}", ORDER_RANGE[0], order))
        verdicts.append(VerdictReport(f"convergence_order_{kind}_upper", order, ORDER_RANGE[1]))
        print(f"{kind}: errors {['%.3e' % e for e in errors]} order={order:.3f}",
              file=sys.stderr)
        series = (np.log(resolutions).tolist(), np.log(errors).tolist(),
                  "ln n_r", "ln error", f"convergence ({kind})")
    return _finish(verdicts, args, series=series)


def cmd_report(args) -> int:
    rows = _load_json(args.input)
    if not isinstance(rows, list):
        raise InputError(f"{args.input!r}: expected a JSON array of verdicts")
    for i, r in enumerate(rows):  # other keys (ratio, pass) are recomputed, not read
        if not (isinstance(r, dict) and isinstance(r.get("name"), str)
                and _finite_number(r.get("lhs")) and _finite_number(r.get("rhs"))
                and _finite_number(r.get("tol", 0.0)) and isinstance(r.get("case", ""), str)):
            raise InputError(f"{args.input!r}: verdict row {i} needs a string name, finite numbers "
                             "lhs and rhs, and optionally a finite number tol and a string case")
    verdicts = [VerdictReport(r["name"], float(r["lhs"]), float(r["rhs"]), float(r.get("tol", 0.0)),
                              r.get("case", "")) for r in rows]
    if not verdicts:
        raise InputError("nothing to report")
    return _finish(verdicts, args)


@functools.lru_cache(maxsize=1)  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="poissonlab",
                description="Verification laboratory for Zygmund-class "
                            "Poisson estimates on model surfaces.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False):
        sp.add_argument("--out", default=None, help="output file (default: stdout/none)")
        sp.add_argument("--format", default="json", choices=["json", "csv", "svg"])
        if seed:  # only the commands that draw random data take a seed
            sp.add_argument("--seed", type=_non_negative_int, default=0)

    sp = sub.add_parser("verify-geometry", help="isoperimetric/curvature volume and length bounds")
    sp.add_argument("--metric", default="flat")
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    common(sp)
    sp.set_defaults(func=cmd_verify_geometry)

    sp = sub.add_parser("verify-norms", help="rearrangement/norm self-checks on a field")
    sp.add_argument("--input", default=None,
                    help="JSON array of (value, measure) or (value, r, theta, measure)")
    sp.add_argument("--domain-measure", type=float, default=None)
    common(sp, seed=True)
    sp.set_defaults(func=cmd_verify_norms)

    sp = sub.add_parser("solve", help="solve one ExperimentCase JSON")
    sp.add_argument("--case", required=True)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.add_argument("--solver-tol", type=float, default=pde.SOLVE_TOL)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("interior", help="interior-estimate random corpus")
    sp.add_argument("--cases", type=int, default=100)
    sp.add_argument("--n-r", type=int, default=32)
    sp.add_argument("--n-theta", type=int, default=48)
    sp.add_argument("--solver-tol", type=float, default=estimates.CORPUS_TOL)
    common(sp, seed=True)
    sp.set_defaults(func=cmd_interior)

    sp = sub.add_parser("harnack", help="Harnack spike-family corpus")
    sp.add_argument("--ks", default="8,16,32,64")
    sp.add_argument("--n-r", type=int, default=48)
    sp.add_argument("--n-theta", type=int, default=64)
    common(sp)
    sp.set_defaults(func=cmd_harnack)

    sp = sub.add_parser("global", help="global pipeline and energy checks")
    sp.add_argument("--cases", type=_non_negative_int, default=5)
    sp.add_argument("--n-r", type=int, default=48)
    sp.add_argument("--n-theta", type=int, default=64)
    sp.add_argument("--ladder", action="store_true")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_global)

    sp = sub.add_parser("counterexample", help="logarithmic blow-up family")
    sp.add_argument("--kmin", type=int, default=16)
    sp.add_argument("--kmax", type=int, default=256)
    sp.add_argument("--n-local", type=int, default=384)
    common(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("convergence", help="manufactured-solution order study")
    sp.add_argument("--metrics", default="flat,sphere")
    sp.add_argument("--resolutions", default="32,64,128")
    common(sp)
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("report", help="re-emit a verdict JSON file")
    sp.add_argument("--input", required=True)
    common(sp)
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "format", "json") != "json" and args.out is None:  # solve has no --format
            raise InputError(f"{args.format} output requires --out")  # refused before any work
        return args.func(args)
    except (InputError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
