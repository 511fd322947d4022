"""Inequality harnesses: interior estimate, mean-value deviation, Harnack
ratios, BMO-duality pairing, global energy pipeline, Sobolev check, the
sup-norm iteration resolver, and the logarithmic-potential counterexample
family.

All "C" comparisons use measured constants with declared headroom; verdicts
assert boundedness, never unspecified constants from the literature.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import pde, surface
from .rearrange import (CHUNK, AtomVerdict, StepProfile, WeightedSamples, bmo_norm, rearrange,
                        zygmund_norm)
from .report import VerdictReport


# ---------------------------------------------------------------------------
# smooth bump
# ---------------------------------------------------------------------------

def _s(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)


def smoothstep(t):
    """C-infinity monotone blend: 0 at t <= 0, 1 at t >= 1, 1/2 at t = 1/2."""
    a = _s(t)
    b = _s(1.0 - np.asarray(t, dtype=float))
    with np.errstate(invalid="ignore"):  # 0/0 only for NaN t, which stays NaN
        return a / (a + b)


def eta_radial(s):
    """Radial profile of the cutoff bump: 1 on [0, 1], 0 on [2, inf).  The
    smoothstep is evaluated on the transition band only; NaN falls in the
    band and stays NaN."""
    s = np.asarray(s, dtype=float)
    out = np.where(s <= 1.0, 1.0, 0.0)
    band = ~((s <= 1.0) | (s >= 2.0))
    out[band] = smoothstep(2.0 - s[band])
    return out


# ---------------------------------------------------------------------------
# experiment cases
# ---------------------------------------------------------------------------

@dataclass
class ExperimentCase:
    """A full problem instance resolvable to grid fields."""

    metric: str = "flat"
    n_r: int = 64
    n_theta: int = 96
    r_max: float = 1.0
    f: dict = field(default_factory=lambda: {"kind": "zero"})
    g: dict = field(default_factory=lambda: {"kind": "zero"})
    boundary: dict = field(default_factory=lambda: {"kind": "zero"})
    seed: int = 0
    case_id: str = ""
    R_outer: float = 1.0
    R_inner: float = 0.5

    def __post_init__(self):
        if self.seed < 0:  # numpy's default_rng would refuse it without naming the key
            raise ValueError(f"case key 'seed': {self.seed!r} is not a non-negative int")
        if not self.R_inner < self.R_outer <= self.r_max * (1 + 1e-12):
            raise ValueError("need R_inner < R_outer <= r_max")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentCase":
        """Case from a JSON object; ValueError names the first bad key."""
        if not isinstance(d, dict):
            raise ValueError(f"a case must be a JSON object, not {type(d).__name__}")
        for key, val in d.items():
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown case key {key!r}")
            kind = cls.__dataclass_fields__[key].type  # the annotation, as a string
            if (isinstance(val, bool) or not isinstance(val, _JSON_TYPES[kind])
                    or (kind == "float" and not abs(val) <= sys.float_info.max)):
                raise ValueError(f"case key {key!r}: {val!r} is not a valid {kind}")
        return cls(**d)


# JSON values accepted for each annotation of ExperimentCase; floats must be finite
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "dict": dict}


def _is_number(v) -> bool:
    # a real that converts to a double; NaN and infinities pass here and are
    # rejected with the other non-finite data before the solve
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (isinstance(v, float) or abs(v) <= sys.float_info.max))


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))


_SPEC_KINDS = {
    "a number": _is_number,
    "a non-NaN number": lambda v: _is_number(v) and not np.isnan(v),
    # NaN passes here and is rejected with the other non-finite data
    "a positive number": lambda v: _is_number(v) and not (v <= 0 or v == np.inf),
    "a non-negative integer": lambda v: (isinstance(v, numbers.Integral)
                                         and not isinstance(v, bool) and v >= 0),
    "a pair of numbers": _is_pair,
    "a finite (low, high) range": lambda v: _is_pair(v) and bool(np.all(np.isfinite(v))),
    "a finite positive (low, high) range": lambda v: (_is_pair(v)
                                                      and all(0 < x < np.inf for x in v)),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(b, dict) for b in v),
    "'any', 'pos' or 'neg'": lambda v: v in ("any", "pos", "neg"),
}
_REQUIRED = object()


def _param(spec: dict, key: str, kind: str, default=_REQUIRED):
    """spec[key], or the default when the key is absent; ValueError names the
    key when a required key is absent or its value is not of the kind."""
    if key not in spec:
        if default is _REQUIRED:
            raise ValueError(f"spec needs key {key!r}")
        return default
    if not _SPEC_KINDS[kind](spec[key]):
        raise ValueError(f"spec key {key!r}: {spec[key]!r} is not {kind}")
    return spec[key]


def _resolve_bumps(grid: pde.PolarGrid, bumps) -> pde.DiscreteField:
    X, Y = grid.node_positions()
    vals = np.zeros_like(X)
    pole = 0.0
    for b in bumps:
        cx, cy = _param(b, "center", "a pair of numbers", (0.0, 0.0))
        k = _param(b, "k", "a positive number")  # k <= 0 would make the bump constant
        amp = _param(b, "amp", "a number")
        vals += amp * eta_radial(k * np.hypot(X - cx, Y - cy))
        pole += amp * float(eta_radial(k * np.hypot(cx, cy)))
    return pde.DiscreteField(grid, vals, pole)


def _random_bumps_spec(rng, spec, count: int) -> list:
    lo_a, hi_a = _param(spec, "amp", "a finite (low, high) range", (0.0, 1.0))
    lo_k, hi_k = _param(spec, "k", "a finite positive (low, high) range", (2.0, 8.0))
    cmax = _param(spec, "center_r_max", "a number", 0.5)
    sign = _param(spec, "sign", "'any', 'pos' or 'neg'", "any")
    out = []
    for _ in range(count):
        amp = rng.uniform(lo_a, hi_a)
        if sign == "neg":
            amp = -abs(amp)
        elif sign == "pos":
            amp = abs(amp)
        elif rng.uniform() < 0.5:
            amp = -amp
        rad = cmax * np.sqrt(rng.uniform())
        ang = rng.uniform(0, 2 * np.pi)
        out.append({"amp": amp, "k": rng.uniform(lo_k, hi_k),
                    "center": (rad * np.cos(ang), rad * np.sin(ang))})
    return out


def resolve_field(grid: pde.PolarGrid, spec: dict, seed: int) -> pde.DiscreteField:
    """Named generators for f/g fields: zero | constant | bumps | random_bumps."""
    kind = spec.get("kind", "zero")
    if kind == "zero":
        out = pde.constant_field(grid, 0.0)
    elif kind == "constant":
        out = pde.constant_field(grid, _param(spec, "value", "a number"))
    elif kind == "bumps":
        out = _resolve_bumps(grid, _param(spec, "bumps", "a list of objects"))
    elif kind == "random_bumps":
        rng = np.random.default_rng(_param(spec, "seed", "a non-negative integer", seed))
        count = _param(spec, "count", "a non-negative integer", 1)
        if count * (grid.n_r * grid.n_theta + 4096) > 4e8:  # 100 us a bump, 28 ns a node: 11 s
            raise ValueError(f"spec key 'count': {count} is too many bumps for this grid")
        out = _resolve_bumps(grid, _random_bumps_spec(rng, spec, count))
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    # a NaN radius would mask every ring
    out.values[~grid.ring_mask(_param(spec, "support_radius", "a non-NaN number", None))] = 0.0
    return out


def resolve_boundary(grid: pde.PolarGrid, spec: dict, seed: int) -> np.ndarray:
    kind = spec.get("kind", "zero")
    th = grid.theta_nodes
    if kind == "zero":
        return np.zeros(grid.n_theta)
    if kind == "constant":
        return np.full(grid.n_theta, float(_param(spec, "value", "a number")))
    if kind == "fourier":
        rng = np.random.default_rng(_param(spec, "seed", "a non-negative integer", seed))
        amp = _param(spec, "amp", "a number", 1.0)
        vals = np.full(grid.n_theta, float(_param(spec, "offset", "a number", 0.0)))
        modes, top = _param(spec, "modes", "a non-negative integer", 3), grid.n_theta // 2
        if modes > top:  # a higher mode aliases onto a resolved one
            raise ValueError(f"spec key 'modes': {modes} exceeds n_theta // 2 = {top}")
        for m in range(1, modes + 1):
            vals += amp / m * (rng.uniform(-1, 1) * np.cos(m * th)
                               + rng.uniform(-1, 1) * np.sin(m * th))
        return vals
    raise ValueError(f"unknown boundary kind {kind!r}")


@dataclass
class CaseSolution:
    case: ExperimentCase
    grid: pde.PolarGrid
    u: pde.DiscreteField
    f: pde.DiscreteField
    g: pde.DiscreteField | None
    report: pde.SolveReport


def solve_case(case: ExperimentCase, tol: float = pde.SOLVE_TOL) -> CaseSolution:
    grid = pde.PolarGrid(surface.from_name(case.metric), case.n_r, case.n_theta, case.r_max)
    f = resolve_field(grid, case.f, case.seed)
    gspec = case.g or {"kind": "zero"}
    g = None if gspec.get("kind") == "zero" else resolve_field(grid, gspec, case.seed + 1)
    boundary = resolve_boundary(grid, case.boundary, case.seed + 2)
    u, rep = pde.solve_dirichlet(grid, g, f, boundary, tol=tol)
    return CaseSolution(case, grid, u, f, g, rep)


def field_zygmund_norm(fld: pde.DiscreteField, radius: float | None = None) -> float:
    samples = WeightedSamples(*fld.quadrature(radius))
    return zygmund_norm(samples, samples.total_measure)


# ---------------------------------------------------------------------------
# interior estimate and Harnack
# ---------------------------------------------------------------------------

def interior_ratio(sol: CaseSolution) -> VerdictReport:
    """sup |u| on the inner ball against ||u||_L1 + ||f||*; the report ratio is
    the measured interior constant for this case."""
    case = sol.case
    lhs = sol.u.sup_norm(case.R_inner)
    rhs = sol.u.l1_norm(case.R_outer) + field_zygmund_norm(sol.f, case.R_outer)
    return VerdictReport("interior_ratio", lhs, rhs, 9.0, case.case_id)


def random_interior_case(seed: int, n_r: int, n_theta: int, metric: str) -> ExperimentCase:
    return ExperimentCase(
        metric=metric, n_r=n_r, n_theta=n_theta,
        f={"kind": "random_bumps", "count": 3, "amp": (0.5, 3.0), "k": (2, 8),
           "center_r_max": 0.6, "sign": "any", "seed": seed * 7919 + 1},
        g={"kind": "random_bumps", "count": 2, "amp": (0.0, 4.0), "k": (2, 8),
           "center_r_max": 0.6, "sign": "pos", "seed": seed * 7919 + 2},
        boundary={"kind": "fourier", "seed": seed * 7919 + 3, "modes": 3,
                  "amp": 0.5, "offset": 0.3},
        seed=seed, case_id=f"interior-{seed}",
    )


CORPUS_TOL = 1e-9  # the interior corpus's solver tolerance, also `interior`'s default


def run_interior_corpus(n_cases: int, seed: int, n_r: int, n_theta: int,
                        solver_tol: float = CORPUS_TOL):
    """Measured interior constant (sup of per-case ratios) over a random
    corpus of flat and perturbed-metric cases with g >= 0."""
    if n_cases < 1:
        raise ValueError(f"need at least one case, got {n_cases}")
    metrics = ["flat", "perturbed:0.05"]
    reports = []
    skipped = 0
    for i in range(n_cases):
        case = random_interior_case(seed * 100003 + i, n_r, n_theta, metrics[i % 2])
        sol = solve_case(case, tol=solver_tol)
        if not sol.report.converged:
            skipped += 1
            continue
        reports.append(interior_ratio(sol))
    constant = max((r.ratio for r in reports), default=0.0)
    return reports, constant, skipped


def harnack_ratio(sol: CaseSolution) -> VerdictReport | None:
    """max u over B_{1/2} against min u + ||f||* for nonnegative solutions of
    Lap u = f; returns None for cases that fail the positivity screen."""
    if sol.g is not None and (np.any(sol.g.values) or sol.g.pole):
        raise ValueError("Harnack harness requires g = 0")
    umin_all, umax_all = sol.u.min_max()
    if umin_all < -1e-8 * (max(-umin_all, umax_all) + 1e-30):  # the scale is sup|u|
        return None
    umin, umax = sol.u.min_max(sol.case.R_inner)
    umin = max(umin, 0.0)
    fnorm = field_zygmund_norm(sol.f, sol.case.R_outer)
    return VerdictReport("harnack_ratio", umax, umin + fnorm, 9.0, sol.case.case_id)


def harnack_spike_corpus(ks, n_r: int, n_theta: int):
    """Sink spikes scaled to unit Zygmund norm with boundary data 1; the
    point is that the resulting ratios stay bounded in k."""
    if any(k <= 0 for k in ks):
        raise ValueError(f"spike widths k must be positive, got {list(ks)}")
    grid = pde.PolarGrid(surface.flat(), n_r, n_theta, 1.0)
    ratios = []
    for k in ks:
        sink = {"k": k, "center": (0.3, 0.0)}
        norm = field_zygmund_norm(_resolve_bumps(grid, [dict(sink, amp=-1.0)]))
        if norm == 0.0:
            raise ValueError(f"spike k={k}: no node of the {n_r}x{n_theta} grid lies in its "
                             f"support, the disk of radius 2/k about (0.3, 0)")
        case = ExperimentCase(n_r=n_r, n_theta=n_theta,
                              f={"kind": "bumps", "bumps": [dict(sink, amp=-1.0 / norm)]},
                              boundary={"kind": "constant", "value": 1.0}, case_id=f"spike-k{k}")
        verdict = harnack_ratio(solve_case(case))
        if verdict is None:
            raise RuntimeError(f"positivity screen rejected spike case k={k}")
        ratios.append(verdict.ratio)
    return np.array(ratios)


# ---------------------------------------------------------------------------
# mean-value deviation and iteration resolver
# ---------------------------------------------------------------------------

def mean_value_deviation(sol: CaseSolution, rho: float, C: float) -> VerdictReport:
    """|u(center) - weighted boundary average at rho| against
    C [ ||f||* + (||g||* + rho) sup|u| ] on B_rho, the bound's rho^(2-2/p)
    at p = 2."""
    grid, u = sol.grid, sol.u
    if not 0 < rho <= grid.r_max * (1 + 1e-12):
        raise ValueError("rho exceeds domain")
    i = int(round(rho / grid.dr)) - 1
    i = min(max(i, 0), grid.n_r - 1)
    r_i = grid.r_nodes[i]
    gvals = grid.metric.G(r_i, grid.theta_nodes)
    avg = float(np.sum(u.values[i] * gvals) / np.sum(gvals))
    lhs = abs(u.pole - avg)
    fnorm = field_zygmund_norm(sol.f, r_i)
    gnorm = 0.0 if sol.g is None else field_zygmund_norm(sol.g, r_i)
    sup_u = u.sup_norm(r_i)
    rhs = C * (fnorm + (gnorm + r_i) * sup_u)
    return VerdictReport("mean_value_deviation", lhs, rhs, case=sol.case.case_id)


def moser_resolve(a: float, b: float, rho0: float) -> float:
    """Resolved limit of the shrinking-radii sup-norm recursion
    w(t_k) <= 4^(k+2) a / rho0^2 + b + w(t_{k+1}) / 8:
    sum_{i>=1} 8^(1-i) (4^(i+2) a / rho0^2 + b) = 128 a / rho0^2 + 8 b / 7."""
    if not (a >= 0 and b >= 0):
        raise ValueError("coefficients must be nonnegative")
    if not 0 < rho0 < 0.5:
        raise ValueError("rho0 out of range (0, 1/2)")
    return 128.0 * a / rho0**2 + 8.0 * b / 7.0


# ---------------------------------------------------------------------------
# BMO duality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BmoDualityResult:
    pairing_ratio: float
    naive_bound: float


def kernel_bmo_estimate(rho: float) -> float:
    """BMO lower bound for the truncated log kernel ln(rho/|x|) chi_{B_rho},
    sampled on a flat polar grid over B_{2 rho}, over a dyadic ball family
    about the origin; scale-invariant by construction."""
    base = surface.sample_ball(surface.flat(), 2 * rho, 192, 128)
    d = base.distances((0.0, 0.0))
    samples = WeightedSamples(np.where(d < rho, np.log(rho / np.maximum(d, 1e-300)), 0.0),
                              base.measures, base.positions)
    family = []
    for m in range(4):
        rad = rho / 2**m
        family.append(((0.0, 0.0), rad))
        for off in ((rho / 2, 0.0), (-rho / 2, 0.0), (0.0, rho / 2), (0.0, -rho / 2)):
            family.append((off, rad))
    return bmo_norm(samples, family)


def bmo_duality_check(f: WeightedSamples, x0, rho: float) -> BmoDualityResult:
    """Pairing of a mean-zero f with the truncated log kernel: the duality
    route (atom proxy) versus the divergent naive sup bound."""
    d = f.distances(x0)
    mean = float(np.sum(f.values * f.measures))
    scale = float(np.sum(np.abs(f.values) * f.measures)) + 1e-300
    if abs(mean) > 1e-8 * scale:
        raise ValueError("pairing requires mean-zero data")
    kern = np.where(d < rho, np.log(rho / np.maximum(d, 1e-300)), 0.0)
    lhs = abs(float(np.sum(f.values * kern * f.measures)))
    supp = np.abs(f.values) > 0
    # the atomic-norm proxy of a signed blob pair: sup|f| times the area of
    # the smallest ball about x0 that holds the support
    r_min = float(d[supp].max()) if np.any(supp) else 0.0
    proxy = float(np.max(np.abs(f.values)) * np.pi * r_min**2)
    sup_kernel = float(np.max(np.abs(kern[supp]))) if np.any(supp) else 0.0
    return BmoDualityResult(lhs / proxy if proxy > 0 else 0.0, scale * sup_kernel)


# ---------------------------------------------------------------------------
# global pipeline
# ---------------------------------------------------------------------------

def sobolev_check(u: pde.DiscreteField, q: float, A: float) -> VerdictReport:
    """||u||_q <= (q sqrt(A)/2) V^(1/q) ||grad u||_2 for zero-boundary u."""
    if q < 1:
        raise ValueError("q must be >= 1")
    scale = u.sup_norm() + 1e-30
    if np.max(np.abs(u.values[-1])) > 1e-10 * scale:
        raise ValueError("nonzero boundary values rejected")
    lhs = pde.lq_norm(u, q)
    rhs = (q * np.sqrt(A) / 2.0) * u.grid.total_measure ** (1.0 / q) * pde.gradient_l2(u)
    return VerdictReport(f"sobolev_q{q:g}", lhs, rhs, 1e-9)


def random_zero_boundary_field(grid: pde.PolarGrid, seed: int) -> pde.DiscreteField:
    rng = np.random.default_rng(seed)
    bumps = _random_bumps_spec(rng, {"amp": (0.2, 2.0), "k": (1, 6),
                                     "center_r_max": 0.7 * grid.r_max, "sign": "any"}, 3)
    fld = _resolve_bumps(grid, bumps)
    c0 = rng.uniform(-1, 1)
    fld.values += c0
    fld.pole += c0
    taper = 1.0 - (grid.r_nodes / grid.r_max) ** 2
    fld.values *= taper[:, None]
    fld.values[-1] = 0.0
    return fld


def energy_constant() -> float:
    """The constant A of the energy chain on B_2 of the flat surface: the
    larger of the probed isoperimetric constant and the curvature L^2 bound of
    one estimate."""
    est = surface.isoperimetric_constant(surface.flat(), np.linspace(0.1, 2.0, 8))
    return max(est.A_iso, est.A_curv)


def _extended_case(f_spec: dict, n_r: int, n_theta: int, case_id: str) -> ExperimentCase:
    # f restricted to B_1 (or its own smaller support) and extended by zero to B_2
    radius = min(_param(f_spec, "support_radius", "a non-NaN number", 1.0), 1.0)
    return ExperimentCase(n_r=n_r, n_theta=n_theta, r_max=2.0,
                          f=dict(f_spec, support_radius=radius), case_id=case_id)


def global_energy_checks(f_spec: dict, A: float, n_r: int, n_theta: int):
    """Solve Lap v = f (f supported in B_1, extended by zero) on B_2 with zero
    boundary and verify the exponential-integrability chain:
    (i)  int (e^{|v| / (2e sqrt(A) ||grad v||)} - 1) <= V(B_2)
    (ii) v*(t) <= 1.2 * 2e sqrt(A) ||grad v|| ln(2 V / t)
    (iii) ||grad v|| <= 1.2 * 2e sqrt(A) ||f||*_{L ln L(B_1)}
    with 20% headroom in (ii) and (iii).  A is the surface's constant, one per
    run (see energy_constant).
    """
    case = _extended_case(f_spec, n_r, n_theta, "global-energy")
    sol = solve_case(case)
    v, V = sol.u, sol.grid.total_measure
    C0 = 2.0 * np.e * np.sqrt(A)
    gn = pde.gradient_l2(v)
    if gn == 0.0 and v.sup_norm() > 1e-12:
        raise RuntimeError("zero gradient with nonzero field: discretization fault")

    Cm = C0 * 1.2
    if gn == 0.0:
        exp_int = 0.0
        v_re = VerdictReport("rearrangement_log_bound", 0.0, 0.0, case=case.case_id)
    else:
        samples = WeightedSamples(*v.quadrature())
        exp_int = float(np.sum(np.expm1(np.abs(samples.values) / (C0 * gn)) * samples.measures))
        prof = rearrange(samples)
        t = prof.breakpoints[1:]
        bound = Cm * gn * np.log(2 * V / t)
        worst = int(np.argmax(prof.values / np.maximum(bound, 1e-300)))
        v_re = VerdictReport("rearrangement_log_bound", float(prof.values[worst]),
                             float(bound[worst]), case=case.case_id)
    v_jn = VerdictReport("john_nirenberg", exp_int, V, 1e-9, case.case_id)

    fnorm = field_zygmund_norm(sol.f, 1.0)
    v_en = VerdictReport("energy_bound", gn, Cm * fnorm, case=case.case_id)
    return [v_jn, v_re, v_en]


def _cutoff_eta_n(grid: pde.PolarGrid, n: int) -> np.ndarray:
    # radial cutoff: 1 on B_{1-1/n}, 0 outside B_1 (smoothstep is 0 for r >= 1)
    return np.asarray(smoothstep(n * (1.0 - grid.r_nodes)))


def global_estimate(f_spec: dict, n_r: int, n_theta: int, run_ladder: bool):
    """The whole zero-boundary pipeline: solve u on B_1, extend f by zero and
    solve v on B_2, check the maximum-principle comparison
    ||u||_C(B_1) <= 2 ||v||_C(B_1) + 0.01 and return the verdicts with
    ||u||_C / ||f||*.  The optional ladder cuts f off at 1 - 1/n and checks
    that v_16 - v_8 is bounded by its source's norm."""
    inner = ExperimentCase(n_r=n_r, n_theta=n_theta, f=dict(f_spec), case_id="global-u")
    sol_u = solve_case(inner)
    sol_v = solve_case(_extended_case(f_spec, 2 * n_r, n_theta, "global-v"))
    sup_u = sol_u.u.sup_norm(1.0)
    fnorm = field_zygmund_norm(sol_u.f, 1.0)
    verdicts = [VerdictReport("max_principle", sup_u, 2.0 * sol_v.u.sup_norm(1.0) + 1e-2,
                              case="global")]
    if run_ladder:
        grid2 = sol_v.grid
        # v_16 - v_8 solves the source f (eta_16 - eta_8) with zero data, by linearity
        eta_ab = _cutoff_eta_n(grid2, 16) - _cutoff_eta_n(grid2, 8)
        dfn = pde.DiscreteField(grid2, sol_v.f.values * eta_ab[:, None])
        diff, _ = pde.solve_dirichlet(grid2, None, dfn, np.zeros(grid2.n_theta))
        verdicts.append(VerdictReport("ladder_cauchy", diff.sup_norm(1.5),
                                      5.0 * field_zygmund_norm(dfn, 1.0) + 1e-9, case="global"))
    return verdicts, (sup_u / fnorm if fnorm > 0 else 0.0)


# ---------------------------------------------------------------------------
# solver verification harnesses
# ---------------------------------------------------------------------------

def manufactured_convergence(kind: str, resolutions):
    """Sup-norm errors and measured order against a manufactured exact
    solution with zero boundary data on B_1.  The angular resolution refines
    together with the radial one (n_theta = n_r) so both error contributions
    shrink at the same rate.  The order is the least-squares slope of
    -ln error on ln n_r."""
    if kind not in ("flat", "sphere"):
        raise ValueError(f"no manufactured case for metric {kind!r}")
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must increase")
    metric = surface.from_name(kind)
    errors = []
    for n_r in resolutions:
        grid = pde.PolarGrid(metric, n_r, n_r, 1.0)
        R, T = grid.mesh()
        if kind == "flat":
            exact = pde.DiscreteField(grid, 1.0 - R**2 + (R - R**3) * np.cos(T), 1.0)
            f = pde.DiscreteField(grid, -4.0 - 8.0 * R * np.cos(T), -4.0)
        else:
            exact = pde.DiscreteField(grid, np.cos(R) - np.cos(1.0) + 0.0 * T,
                                      1.0 - np.cos(1.0))
            f = pde.DiscreteField(grid, -2.0 * np.cos(R) + 0.0 * T, -2.0)
        u, rep = pde.solve_dirichlet(grid, None, f, np.zeros(n_r), tol=1e-11)
        if not rep.converged:
            raise RuntimeError(f"manufactured solve failed at n_r={n_r}")
        err = max(abs(u.pole - exact.pole), float(np.max(np.abs(u.values - exact.values))))
        errors.append(err)
    return errors, -fit_log_slope(resolutions, np.log(errors))


def max_principle_corpus(n_cases: int, seed: int, n_r: int = 24,
                         n_theta: int = 32) -> int:
    """Count discrete maximum-principle violations (u < 0 somewhere) over
    random cases with f <= 0, g >= 0, zero boundary."""
    violations = 0
    for i in range(n_cases):
        case = ExperimentCase(
            n_r=n_r, n_theta=n_theta,
            f={"kind": "random_bumps", "count": 2, "amp": (0.2, 3.0), "k": (2, 8),
               "center_r_max": 0.6, "sign": "neg", "seed": seed * 65537 + 2 * i},
            g={"kind": "random_bumps", "count": 2, "amp": (0.0, 4.0), "k": (2, 8),
               "center_r_max": 0.6, "sign": "pos", "seed": seed * 65537 + 2 * i + 1},
            seed=seed, case_id=f"maxp-{i}")
        sol = solve_case(case)
        umin, _ = sol.u.min_max()
        if umin < -1e-8 * (sol.u.sup_norm() + 1.0):
            violations += 1
    return violations


# ---------------------------------------------------------------------------
# counterexample family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleRun:
    k: int
    u0_raw: float
    u0_standard: float
    zygmund: float
    l1: float
    mean: float
    size_bound_minimal: float
    atom_in_6k: object
    inner_lower_bound: float


@lru_cache(maxsize=1)
def _unit_bump_cells(n_local: int):
    """The k-independent coefficients of `counterexample_family` at one n_local:
    (h, U1, l1, Z, S, max D, max eta, n_core, sum ln D_core), from the
    n_local^2 midpoint grid over [-2, 2]^2 in z = k(y - y_k), where
    D = |(4, 4) + z| = k|y| and the core is |z| < 1.  U1 = (1/2pi) sum (eta/2)
    h^2 ln D needs no near-cell rule, as D > 4 sqrt 2 - 2 > h/sqrt(pi)."""
    if n_local < 1 or n_local**2 > pde.NODE_BUDGET:
        raise ValueError("need n_local >= 1 and n_local**2 within the node budget of 2**22")
    h = 4.0 / n_local
    c = -2.0 + h * (np.arange(n_local) + 0.5)
    # support cells have |z| < 2, so their squares fit in |z| < 2 + h: a bound on their number
    size, rows = int(np.pi * (n_local / 2 + 1) ** 2) + 1, max(1, CHUNK // n_local)
    terms, ev, log_core, n, d_max = np.empty(size), np.empty(size), [], 0, 0.0
    for i in range(0, n_local, rows):  # row blocks of about CHUNK cells
        s = np.hypot(c[i:i + rows, None], c)
        e = eta_radial(s)
        supp = e > 0.0
        e, core = e[supp], s[supp] < 1.0
        d = np.hypot(c[i:i + rows, None] + 4.0, c + 4.0)[supp]
        terms[n:n + e.size] = e / 2.0 * (h * h) * np.log(d)
        ev[n:n + e.size] = e
        log_core.append(np.log(d[core]))
        n, d_max = n + e.size, max(d_max, float(np.max(d, initial=0.0)))
    u1 = float(np.sum(terms[:n])) / (2 * np.pi)
    del terms
    ev, log_core = ev[:n], np.concatenate(log_core)
    s1, l1, eta_max = 2.0 * h * h * n, 2.0 * h * h * float(ev.sum()), float(ev.max())
    ev.sort()
    # |f_1| repeats each eta twice on cells of measure h^2; each pair is one step of 2h^2
    steps = np.arange(n + 1, dtype=float)
    steps *= 2.0 * h * h
    zyg1 = StepProfile(steps, ev[::-1]).zygmund_norm(s1)
    return (h, u1, l1, zyg1, s1, d_max, eta_max, log_core.size, float(np.sum(log_core)))


def counterexample_family(k: int, n_local: int) -> CounterexampleRun:
    """The paired-bump source f_k = k^2 eta(k(x-y_k)) - k^2 eta(k(x+y_k)) with
    y_k = (4/k, 4/k), the damped Laplacian source f_k / A_k, and the potential
    at the origin in both Green conventions.

    The potential is that of the density
    rho = k^2 eta(k(x-y_k)) - (1/2) k^2 eta(k(x+y_k)); `u0_standard` is
    (1/2pi) int ln|y| rho(y) dy and `u0_raw` = 2pi |u0_standard|.  Since
    ln|y| is even in y, it is the potential of the folded density
    (1/2) k^2 eta(k(y-y_k)) over the first bump.  `inner_lower_bound` is
    (1/2) int k^2 eta ln(1/|y|) restricted to the core |y - y_k| < 1/k, where
    eta = 1: (pi/2) ln k + const, the paper's lower bound, and <= u0_raw.

    Every output is a midpoint sum on one n_local^2 grid over [-2, 2]^2 in
    z = k(y - y_k), whose cells have measure (h/k)^2 and lie at |y| = D/k with
    D = |(4, 4) + z|.  Cell radii and distances scale together, so each sum is
    affine in ln k with coefficients taken once per n_local
    (`_unit_bump_cells`): u0_standard = U1 - (l1 / 8pi) ln k, the Zygmund
    norm on |X| = pi is Z + l1 ln(pi k^2 / S) for the unit profile's norm Z
    on its own support measure S, and the core sum is
    (h^2/2)(n_core ln k - sum ln D_core).  The L1 norm 2 h^2 sum eta, the
    minimal atom size pi (max D)^2 and sup|f_k| |B_{6/k}| = 36 pi max eta do
    not depend on k, and the mean of the odd f_k vanishes identically."""
    if k <= 10:
        raise ValueError("need k > 10")
    h, u1, l1, zyg1, s1, d_max, eta_max, n_core, log_core = _unit_bump_cells(n_local)
    lnk = float(np.log(k))
    u0_std = u1 - l1 / (8.0 * np.pi) * lnk
    radius, r_min = 6.0 / k, d_max / k
    atom = AtomVerdict(r_min <= radius, 0.0, 36.0 * np.pi * eta_max, ((0.0, 0.0), radius), r_min)
    return CounterexampleRun(k, 2 * np.pi * abs(u0_std), u0_std,
                             zyg1 + float(np.log(np.pi * k * k / s1)) * l1, l1, 0.0,
                             np.pi * d_max**2, atom, 0.5 * h * h * (n_core * lnk - log_core))


def fit_log_slope(ks, values) -> float:
    return float(np.polyfit(np.log(np.asarray(ks, float)), np.asarray(values, float), 1)[0])
