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
from dataclasses import dataclass, field, asdict
from functools import lru_cache

import numpy as np

from . import pde, surface
from .rearrange import (AtomVerdict, StepProfile, WeightedSamples, bmo_norm, rearrange,
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


def bump_eta(x):
    """Smooth cutoff on the plane: 1 on B_1, supported in B_2, values in [0, 1]."""
    x = np.asarray(x, dtype=float)
    return eta_radial(np.hypot(x[..., 0], x[..., 1]))


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
        if not self.R_inner < self.R_outer <= self.r_max * (1 + 1e-12):
            raise ValueError("need R_inner < R_outer <= r_max")

    def to_dict(self) -> dict:
        return asdict(self)

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
    "a non-negative integer": lambda v: (isinstance(v, numbers.Integral)
                                         and not isinstance(v, bool) and v >= 0),
    "a pair of numbers": _is_pair,
    "a finite (low, high) range": lambda v: _is_pair(v) and bool(np.all(np.isfinite(v))),
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
        k = _param(b, "k", "a number")
        amp = _param(b, "amp", "a number")
        vals += amp * eta_radial(k * np.hypot(X - cx, Y - cy))
        pole += amp * float(eta_radial(k * np.hypot(cx, cy)))
    return pde.DiscreteField(grid, vals, pole)


def _random_bumps_spec(rng, spec) -> list:
    lo_a, hi_a = _param(spec, "amp", "a finite (low, high) range", (0.0, 1.0))
    lo_k, hi_k = _param(spec, "k", "a finite (low, high) range", (2.0, 8.0))
    cmax = _param(spec, "center_r_max", "a number", 0.5)
    sign = _param(spec, "sign", "'any', 'pos' or 'neg'", "any")
    out = []
    for _ in range(_param(spec, "count", "a non-negative integer", 1)):
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


def resolve_field(grid: pde.PolarGrid, spec: dict, seed: int = 0) -> pde.DiscreteField:
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
        out = _resolve_bumps(grid, _random_bumps_spec(rng, spec))
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    out.values[~grid.ring_mask(_param(spec, "support_radius", "a number", None))] = 0.0
    return out


def resolve_boundary(grid: pde.PolarGrid, spec: dict, seed: int = 0) -> np.ndarray:
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
        for m in range(1, _param(spec, "modes", "a non-negative integer", 3) + 1):
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


def solve_case(case: ExperimentCase, tol: float = 1e-10) -> CaseSolution:
    metric = surface.from_name(case.metric, r_max=max(case.r_max, 1.0) * 1.0001)
    grid = pde.PolarGrid(metric, case.n_r, case.n_theta, case.r_max)
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


def random_interior_case(seed: int, n_r: int = 32, n_theta: int = 48,
                         metric: str = "flat") -> ExperimentCase:
    return ExperimentCase(
        metric=metric, n_r=n_r, n_theta=n_theta, r_max=1.0,
        f={"kind": "random_bumps", "count": 3, "amp": (0.5, 3.0), "k": (2, 8),
           "center_r_max": 0.6, "sign": "any", "seed": seed * 7919 + 1},
        g={"kind": "random_bumps", "count": 2, "amp": (0.0, 4.0), "k": (2, 8),
           "center_r_max": 0.6, "sign": "pos", "seed": seed * 7919 + 2},
        boundary={"kind": "fourier", "seed": seed * 7919 + 3, "modes": 3,
                  "amp": 0.5, "offset": 0.3},
        seed=seed, case_id=f"interior-{seed}",
    )


def run_interior_corpus(n_cases: int = 100, seed: int = 0, n_r: int = 32,
                        n_theta: int = 48, solver_tol: float = 1e-9):
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
    if sol.g is not None:
        raise ValueError("Harnack harness requires g = 0")
    umin_all, _ = sol.u.min_max()
    scale = sol.u.sup_norm() + 1e-30
    if umin_all < -1e-8 * scale:
        return None
    umin, umax = sol.u.min_max(sol.case.R_inner)
    umin = max(umin, 0.0)
    fnorm = field_zygmund_norm(sol.f, sol.case.R_outer)
    return VerdictReport("harnack_ratio", umax, umin + fnorm, 9.0, sol.case.case_id)


def harnack_spike_corpus(ks=(8, 16, 32, 64), n_r: int = 48, n_theta: int = 64):
    """Sink spikes normalized to unit Zygmund norm with boundary data 1; the
    point is that the resulting ratios stay bounded in k."""
    if any(k <= 0 for k in ks):
        raise ValueError(f"spike widths k must be positive, got {list(ks)}")
    grid = pde.PolarGrid(surface.flat(r_max=1.0001), n_r, n_theta, 1.0)
    ratios = []
    for k in ks:
        case = ExperimentCase(
            n_r=n_r, n_theta=n_theta,
            f={"kind": "bumps", "bumps": [{"amp": -1.0, "k": k, "center": (0.3, 0.0)}]},
            boundary={"kind": "constant", "value": 1.0}, case_id=f"spike-k{k}")
        f = resolve_field(grid, case.f)
        norm = field_zygmund_norm(f)
        f = pde.DiscreteField(grid, f.values / norm, f.pole / norm)
        u, rep = pde.solve_dirichlet(grid, None, f, 1.0)
        sol = CaseSolution(case, grid, u, f, None, rep)
        verdict = harnack_ratio(sol)
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
    return VerdictReport("mean_value_deviation", lhs, rhs, 0.0, sol.case.case_id)


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
    lhs: float
    atom_proxy: float
    pairing_ratio: float
    naive_bound: float
    kernel_bmo: dict
    kernel_spread: float


def log_kernel_samples(rho: float) -> WeightedSamples:
    """ln(rho/|x|) chi_{B_rho} sampled on a flat polar grid over B_{2 rho}."""
    base = surface.sample_ball(surface.flat(r_max=4 * rho), 2 * rho, None, 192, 128)
    d = np.hypot(base.positions[:, 0], base.positions[:, 1])
    vals = np.where(d < rho, np.log(rho / np.maximum(d, 1e-300)), 0.0)
    return WeightedSamples(vals, base.measures, base.positions)


def kernel_bmo_estimate(rho: float) -> float:
    """BMO lower bound for the truncated log kernel over a dyadic ball family
    about the origin; scale-invariant by construction."""
    samples = log_kernel_samples(rho)
    family = []
    for m in range(4):
        rad = rho / 2**m
        family.append(((0.0, 0.0), rad))
        for off in ((rho / 2, 0.0), (-rho / 2, 0.0), (0.0, rho / 2), (0.0, -rho / 2)):
            family.append((off, rad))
    return bmo_norm(samples, family).value


def bmo_duality_check(f: WeightedSamples, x0, rho: float,
                      kernel_rhos=(0.1, 0.2, 0.4)) -> BmoDualityResult:
    """Pairing of a mean-zero f with the truncated log kernel: the duality
    route (atom proxy) versus the divergent naive sup bound."""
    if f.positions is None:
        raise ValueError("samples carry no positions")
    mean = float(np.sum(f.values * f.measures))
    scale = float(np.sum(np.abs(f.values) * f.measures)) + 1e-300
    if abs(mean) > 1e-8 * scale:
        raise ValueError("pairing requires mean-zero data")
    x0 = np.asarray(x0, dtype=float)
    d = np.hypot(f.positions[:, 0] - x0[0], f.positions[:, 1] - x0[1])
    inside = d < rho
    kern = np.where(inside, np.log(rho / np.maximum(d, 1e-300)), 0.0)
    lhs = abs(float(np.sum(f.values * kern * f.measures)))
    supp = np.abs(f.values) > 0
    # the atomic-norm proxy of a signed blob pair: sup|f| times the area of
    # the smallest ball about x0 that holds the support
    r_min = float(d[supp].max()) if np.any(supp) else 0.0
    proxy = float(np.max(np.abs(f.values)) * np.pi * r_min**2)
    sup_kernel = float(np.max(np.abs(kern[supp]))) if np.any(supp) else 0.0
    naive = scale * sup_kernel
    bmos = {r: kernel_bmo_estimate(r) for r in kernel_rhos}
    vals = np.array(list(bmos.values()))
    spread = float((vals.max() - vals.min()) / vals.mean())
    return BmoDualityResult(lhs, proxy, lhs / proxy if proxy > 0 else 0.0,
                            naive, bmos, spread)


# ---------------------------------------------------------------------------
# global pipeline
# ---------------------------------------------------------------------------

def sobolev_check(grid: pde.PolarGrid, u: pde.DiscreteField, q: float, A: float) -> VerdictReport:
    """||u||_q <= (q sqrt(A)/2) V^(1/q) ||grad u||_2 for zero-boundary u."""
    if q < 1:
        raise ValueError("q must be >= 1")
    scale = u.sup_norm() + 1e-30
    if np.max(np.abs(u.values[-1])) > 1e-10 * scale:
        raise ValueError("nonzero boundary values rejected")
    lhs = pde.lq_norm(grid, u, q)
    rhs = (q * np.sqrt(A) / 2.0) * grid.total_measure ** (1.0 / q) * pde.gradient_l2(grid, u)
    return VerdictReport(f"sobolev_q{q:g}", lhs, rhs, 1e-9)


def random_zero_boundary_field(grid: pde.PolarGrid, seed: int) -> pde.DiscreteField:
    rng = np.random.default_rng(seed)
    bumps = _random_bumps_spec(rng, {"count": 3, "amp": (0.2, 2.0), "k": (1, 6),
                                     "center_r_max": 0.7 * grid.r_max, "sign": "any"})
    fld = _resolve_bumps(grid, bumps)
    c0 = rng.uniform(-1, 1)
    fld.values += c0
    fld.pole += c0
    taper = 1.0 - (grid.r_nodes / grid.r_max) ** 2
    fld.values *= taper[:, None]
    fld.values[-1] = 0.0
    return fld


def energy_constant(metric: str = "flat") -> float:
    """The constant A of the energy chain on B_2: the larger of the probed
    isoperimetric constant and the curvature L^2 bound of one estimate."""
    est = surface.isoperimetric_constant(surface.from_name(metric, r_max=2.0002),
                                         np.linspace(0.1, 2.0, 8))
    return max(est.A_iso, est.A_curv)


def global_energy_checks(f_spec: dict, A: float, n_r: int = 48, n_theta: int = 64,
                         metric: str = "flat"):
    """Solve Lap v = f (f supported in B_1, extended by zero) on B_2 with zero
    boundary and verify the exponential-integrability chain:
    (i)  int (e^{|v| / (2e sqrt(A) ||grad v||)} - 1) <= V(B_2)
    (ii) v*(t) <= 1.2 * 2e sqrt(A) ||grad v|| ln(2 V / t)
    (iii) ||grad v|| <= 1.2 * 2e sqrt(A) ||f||*_{L ln L(B_1)}
    with 20% headroom in (ii) and (iii).  A is the surface's constant, one per
    run (see energy_constant).
    """
    case = ExperimentCase(metric=metric, n_r=n_r, n_theta=n_theta, r_max=2.0,
                          f=dict(f_spec, support_radius=min(f_spec.get("support_radius", 1.0), 1.0)),
                          R_outer=2.0, R_inner=1.0, case_id="global-energy")
    sol = solve_case(case)
    grid, v = sol.grid, sol.u
    C0 = 2.0 * np.e * np.sqrt(A)
    gn = pde.gradient_l2(grid, v)
    V = grid.total_measure
    sup_v = v.sup_norm()
    if gn == 0.0 and sup_v > 1e-12:
        raise RuntimeError("zero gradient with nonzero field: discretization fault")

    Cm = C0 * 1.2
    if gn == 0.0:
        exp_int = 0.0
        v_re = VerdictReport("rearrangement_log_bound", 0.0, 0.0, 0.0, case.case_id)
    else:
        samples = WeightedSamples(*v.quadrature())
        exp_int = float(np.sum(np.expm1(np.abs(samples.values) / (C0 * gn)) * samples.measures))
        prof = rearrange(samples)
        t = prof.breakpoints[1:]
        bound = Cm * gn * np.log(2 * V / t)
        worst = int(np.argmax(prof.values / np.maximum(bound, 1e-300)))
        v_re = VerdictReport("rearrangement_log_bound", float(prof.values[worst]),
                             float(bound[worst]), 0.0, case.case_id)
    v_jn = VerdictReport("john_nirenberg", exp_int, V, 1e-9, case.case_id)

    fnorm = field_zygmund_norm(sol.f, 1.0)
    v_en = VerdictReport("energy_bound", gn, Cm * fnorm, 0.0, case.case_id)
    return [v_jn, v_re, v_en], sol


@dataclass
class GlobalEstimateResult:
    max_principle: VerdictReport
    ratio: float
    sup_u: float
    sup_v: float
    fnorm: float
    ladder: dict | None


def _cutoff_eta_n(grid: pde.PolarGrid, n: int) -> np.ndarray:
    # radial cutoff: 1 on B_{1-1/n}, 0 outside B_1 (smoothstep is 0 for r >= 1)
    return np.asarray(smoothstep(n * (1.0 - grid.r_nodes)))


def global_estimate(f_spec: dict, n_r: int = 48, n_theta: int = 64,
                    run_ladder: bool = False) -> GlobalEstimateResult:
    """The whole zero-boundary pipeline: solve u on B_1, extend f by zero and
    solve v on B_2, check the maximum-principle comparison
    ||u||_C(B_1) <= 2 ||v||_C(B_1) + 0.01 and report ||u||_C / ||f||*.  The
    optional ladder cuts f off at 1 - 1/n for n = 4, 8, 16."""
    inner = ExperimentCase(n_r=n_r, n_theta=n_theta, r_max=1.0, f=dict(f_spec),
                           case_id="global-u")
    sol_u = solve_case(inner)
    outer = ExperimentCase(n_r=2 * n_r, n_theta=n_theta, r_max=2.0,
                           f=dict(f_spec, support_radius=1.0),
                           R_outer=2.0, R_inner=1.0, case_id="global-v")
    sol_v = solve_case(outer)
    sup_u = sol_u.u.sup_norm(1.0)
    sup_v = sol_v.u.sup_norm(1.0)
    fnorm = field_zygmund_norm(sol_u.f, 1.0)
    maxp = VerdictReport("max_principle", sup_u, 2.0 * sup_v + 1e-2, 0.0, "global")
    ratio = sup_u / fnorm if fnorm > 0 else 0.0

    ladder = None
    if run_ladder:
        grid2 = sol_v.grid
        f2 = sol_v.f
        fnorm_full = field_zygmund_norm(f2, 1.0)
        ladder_ns = (4, 8, 16)
        tails = []
        for n in ladder_ns:
            fn = f2.values * _cutoff_eta_n(grid2, n)[:, None]
            tails.append(field_zygmund_norm(pde.DiscreteField(grid2, f2.values - fn, 0.0), 1.0))
        # v_16 - v_8 solves the source f (eta_16 - eta_8) with zero data, by linearity
        eta_ab = _cutoff_eta_n(grid2, 16) - _cutoff_eta_n(grid2, 8)
        dfn = pde.DiscreteField(grid2, f2.values * eta_ab[:, None], 0.0)
        diff, _ = pde.solve_dirichlet(grid2, None, dfn, np.zeros(grid2.n_theta))
        dnorm = field_zygmund_norm(dfn, 1.0)
        cauchy = VerdictReport("ladder_cauchy", diff.sup_norm(1.5),
                               5.0 * dnorm + 1e-9, 0.0, "global")
        ladder = {"ns": list(ladder_ns), "tails": tails, "cauchy": cauchy,
                  "tail_ok": tails[-1] <= 1e-2 * fnorm_full
                  and all(b <= a * (1 + 1e-12) for a, b in zip(tails, tails[1:]))}
    return GlobalEstimateResult(maxp, ratio, sup_u, sup_v, fnorm, ladder)


# ---------------------------------------------------------------------------
# solver verification harnesses
# ---------------------------------------------------------------------------

def manufactured_convergence(kind: str = "flat", resolutions=(32, 64, 128)):
    """Sup-norm errors and measured order against a manufactured exact
    solution with zero boundary data on B_1.  The angular resolution refines
    together with the radial one (n_theta = n_r) so both error contributions
    shrink at the same rate."""
    r_max = {"flat": 1.0001, "sphere": 1.5}
    if kind not in r_max:
        raise ValueError(f"no manufactured case for metric {kind!r}")
    metric = surface.from_name(kind, r_max[kind])
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
    return errors, pde.convergence_order(errors, resolutions)


def max_principle_corpus(n_cases: int = 100, seed: int = 0, n_r: int = 24,
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
    y_k: tuple
    u0_raw: float
    u0_standard: float
    zygmund: float
    l1: float
    mean: float
    min_radius: float
    size_bound_minimal: float
    atom_in_6k: object
    inner_lower_bound: float


@lru_cache(maxsize=1)
def _unit_bump_cells(n_local: int):
    """(h, support cells of eta sorted by eta descending with ties by index,
    their eta, core cells |z| < 1) of the n_local^2 grid over [-2, 2]^2 in
    z = k(y - y_k), built once for all k; the arrays are read-only."""
    if n_local < 1:
        raise ValueError("need n_local >= 1")
    h = 4.0 / n_local
    c = -2.0 + h * (np.arange(n_local) + 0.5)
    X, Y = np.meshgrid(c, c, indexing="ij")
    pts, s = np.stack([X.ravel(), Y.ravel()], axis=-1), np.hypot(X, Y).ravel()
    e = eta_radial(s)
    order = np.argsort(-e, kind="stable")[:np.count_nonzero(e)]
    # z column-major, so that shifting it by y_k runs along whole columns
    z, ev, core = np.asfortranarray(pts[order]), e[order], pts[s < 1.0]
    for arr in (z, ev, core):
        arr.flags.writeable = False
    return h, z, ev, core


def counterexample_family(k: int, n_local: int = 384) -> CounterexampleRun:
    """The paired-bump source f_k = k^2 eta(k(x-y_k)) - k^2 eta(k(x+y_k)) with
    y_k = (4/k, 4/k), the damped Laplacian source f_k / A_k, and the potential
    at the origin in both Green conventions.

    The potential is that of the density
    rho = k^2 eta(k(x-y_k)) - (1/2) k^2 eta(k(x+y_k)); `u0_standard` is
    (1/2pi) int ln|y| rho(y) dy and `u0_raw` = 2pi |u0_standard|.  Since
    ln|y| is even in y, u0_raw = (1/2) int k^2 eta(k(y-y_k)) ln(1/|y|) dy
    = (1/2)(int eta) ln k + const, so its rate in ln k is (1/2) int eta.
    `inner_lower_bound` is the same integral restricted to the core
    |y - y_k| < 1/k, where eta = 1: (pi/2) ln k + const, the paper's lower
    bound; eta >= 1 on B_1 makes it <= u0_raw.  Both integrals are midpoint
    sums on one n_local^2 grid over [-2, 2]^2 in z = k(y - y_k), shared by all
    k (`_unit_bump_cells`).  The second bump's cells are the first's negated,
    so the potential sums the folded density (1/2) k^2 eta over the first."""
    if k <= 10:
        raise ValueError("need k > 10")
    h, z, ev, core = _unit_bump_cells(n_local)
    cell = (h / k) ** 2
    yk = np.array([4.0 / k, 4.0 / k])

    near = yk + z / k
    kev = k**2 * ev
    rho_samples = WeightedSamples(kev / 2.0, np.full(ev.size, cell), near)
    u0_std = float(pde.log_potential(rho_samples, [(0.0, 0.0)])[0])
    u0_raw = 2 * np.pi * abs(u0_std)

    # |f_k| is kev on both bumps and all cells have measure `cell`, so the
    # stable rearrangement of f_k repeats each value of kev twice
    zyg = StepProfile(np.concatenate([[0.0], np.cumsum(np.full(2 * ev.size, cell))]),
                      np.repeat(kev, 2)).zygmund_norm(np.pi)
    # l1 and the atom's mean sum over both bumps' cells, the first bump first
    p = kev * cell
    l1 = float(np.sum(np.concatenate([p, p])))
    # the two bumps' partial sums are exact negations: the mean vanishes identically
    mean = float((np.sum(kev) + np.sum(-kev)) * cell)
    # atom check on B_{6/k}(0): |-near| = |near|, and kev[0] is sup|f_k|
    radius = 6.0 / k
    r_min = float(np.hypot(near[:, 0], near[:, 1]).max())
    atom = AtomVerdict(r_min <= radius, float(np.sum(np.concatenate([p, -p]))),
                       float(kev[0] * np.pi * radius**2), ((0.0, 0.0), radius), r_min)
    size_min = k**2 * np.pi * r_min**2

    # restricted lower-bound integral over the unit-scale core |y - y_k| < 1/k
    d0 = np.hypot(core[:, 0] / k + yk[0], core[:, 1] / k + yk[1])
    lb = 0.5 * float(np.sum(np.log(1.0 / d0))) * h * h

    return CounterexampleRun(k, tuple(yk), u0_raw, u0_std, zyg, l1, mean,
                             r_min, size_min, atom, lb)


def counterexample_series(ks=(16, 32, 64, 128, 256), n_local: int = 384):
    return [counterexample_family(k, n_local) for k in ks]


def fit_log_slope(ks, values) -> float:
    return float(np.polyfit(np.log(np.asarray(ks, float)), np.asarray(values, float), 1)[0])
