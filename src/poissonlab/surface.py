"""Semi-geodesic metric geometry.

A metric dr^2 + G^2(r, theta) dtheta^2 around a fixed center is described by
:class:`MetricProfile`, one of the analytic families flat, sphere, hyperbolic
and perturbed.  On top of it: boundary lengths, ball volumes,
Gauss curvature, isoperimetric constants, the isoperimetric/curvature
volume-length bounds, the radial kernel weight h and its pairing bound against the
Zygmund norm, and the flux-variation integral.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rearrange import WeightedSamples, rearrange, zygmund_norm
from .report import VerdictReport

_GAUSS5_X, _GAUSS5_W = np.polynomial.legendre.leggauss(5)


class MetricProfile:
    """Semi-geodesic coefficient G of dr^2 + G^2(r, theta) dtheta^2 with its
    radial derivatives dG and d2G, vectorized over broadcastable (r, theta)
    arrays.  G(0, theta) = 0 and dG(0, theta) = 1 are required.

    Metrics are frozen values that compare and hash by their parameters
    (see ``pde.geometry``).  A family defines ``_eval(k, r, t)``, the k-th
    radial derivative of G."""

    name: str
    r_max: float

    def G(self, r, t):
        return self._eval(0, r, t)

    def dG(self, r, t):
        return self._eval(1, r, t)

    def d2G(self, r, t):
        return self._eval(2, r, t)


class _Radial(MetricProfile):
    """G = p(r), independent of theta; ``p`` holds p, p' and p''."""

    def _eval(self, k, r, t):
        return self.p[k](r) * np.ones(np.broadcast_shapes(np.shape(r), np.shape(t)))


@dataclass(frozen=True)
class Flat(_Radial):
    r_max: float = 2.0
    name = "flat"
    p = (np.asarray, np.ones_like, np.zeros_like)


@dataclass(frozen=True)
class Sphere(_Radial):
    r_max: float = np.pi
    name = "sphere"
    p = (np.sin, np.cos, lambda r: -np.sin(r))


@dataclass(frozen=True)
class Hyperbolic(_Radial):
    r_max: float = 3.0
    name = "hyperbolic"
    p = (np.sinh, np.cosh, np.sinh)


@dataclass(frozen=True)
class Perturbed(MetricProfile):
    """G = r (1 + eps r^2 cos theta)."""

    eps: float
    r_max: float = 1.5

    def __post_init__(self):  # G vanishes at r = 1/sqrt(|eps|) for either sign of eps
        if not abs(self.eps) * self.r_max**2 < 1.0:
            raise ValueError("perturbation degenerates the metric before r_max")

    @property
    def name(self) -> str:
        return f"perturbed:{self.eps:g}"

    def _eval(self, k, r, t):
        r = np.asarray(r, float)
        if k == 0:
            return r * (1.0 + self.eps * r**2 * np.cos(t))
        if k == 1:
            return 1.0 + 3.0 * self.eps * r**2 * np.cos(t)
        return 6.0 * self.eps * r * np.cos(t)


@dataclass(frozen=True)
class IsoperimetricEstimate:
    A_iso: float
    A_curv: float
    p: float
    volumes: tuple  # V(B_r) per probed radius
    lengths: tuple  # l(dB_r) per probed radius


@dataclass(frozen=True)
class FluxExponentFit:
    rhos: np.ndarray
    values: np.ndarray
    exponent: float | None
    target: float


# the constructors by their family names, as from_name spells them
flat, sphere, hyperbolic, perturbed = Flat, Sphere, Hyperbolic, Perturbed


def from_name(name: str, r_max: float | None = None) -> MetricProfile:
    """Parse a metric spec string: flat | sphere | hyperbolic | perturbed:eps."""
    kwargs = {} if r_max is None else {"r_max": r_max}
    families = {"flat": Flat, "sphere": Sphere, "hyperbolic": Hyperbolic}
    if name in families:
        return families[name](**kwargs)
    if name.startswith("perturbed"):
        eps = float(name.split(":", 1)[1]) if ":" in name else 0.1
        return Perturbed(eps, **kwargs)
    raise ValueError(f"unknown metric {name!r}")


def boundary_length(metric: MetricProfile, r, n_theta: int = 256):
    """l(dB_r) = int_0^2pi G(r, .) dtheta by the periodic trapezoid rule."""
    r = np.asarray(r, dtype=float)
    if not np.all((0 < r) & (r <= metric.r_max * (1 + 1e-12))):
        raise ValueError("radius out of range")
    th = 2 * np.pi * np.arange(n_theta) / n_theta
    vals = metric.G(r[..., None], th)
    return np.squeeze(vals.mean(axis=-1) * 2 * np.pi)[()]


def ball_volume(metric: MetricProfile, r: float, n_r: int = 512, n_theta: int = 256) -> float:
    """V(B_r) = int_0^r l(dB_t) dt by composite Simpson (l(0) = 0)."""
    if not 0 < r <= metric.r_max * (1 + 1e-12):
        raise ValueError("radius out of range")
    n = n_r + (n_r % 2)  # Simpson needs an even interval count
    t = np.linspace(0.0, r, n + 1)
    ell = np.empty(n + 1)
    ell[0] = 0.0
    ell[1:] = np.atleast_1d(boundary_length(metric, t[1:], n_theta))
    h = r / n
    wts = np.ones(n + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(wts * ell))


def gauss_curvature(metric: MetricProfile, r, theta):
    """K = -d2G/dr2 / G; undefined at the pole."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("curvature needs r > 0; at the pole it requires a limit")
    g = metric.G(r, theta)
    if np.any(np.asarray(g) <= 0):
        raise ValueError("degenerate metric")
    return np.squeeze(-metric.d2G(r, theta) / g)[()]


def _midpoint_mesh(radius: float, n_r: int, n_theta: int):
    """Cell midpoints (R, T) of [0, radius] x [0, 2pi) and the cell sides dr, dtheta."""
    dr, dth = radius / n_r, 2 * np.pi / n_theta
    R, T = np.meshgrid((np.arange(n_r) + 0.5) * dr, (np.arange(n_theta) + 0.5) * dth, indexing="ij")
    return R, T, dr, dth


def curvature_lp_norm(metric: MetricProfile, p: float, radius: float | None = None,
                      n_r: int = 256, n_theta: int = 256) -> float:
    """||K||_{L^p(B_radius)} by midpoint quadrature; radius defaults to
    min(1, r_max)."""
    if radius is None:
        radius = min(1.0, metric.r_max)
    R, T, dr, dth = _midpoint_mesh(radius, n_r, n_theta)
    g = metric.G(R, T)
    k = -metric.d2G(R, T) / np.maximum(g, 1e-300)
    return float(np.sum(np.abs(k) ** p * g * dr * dth) ** (1.0 / p))


def isoperimetric_constant(metric: MetricProfile, radii, p: float = 2.0,
                           n_r: int = 512, n_theta: int = 256) -> IsoperimetricEstimate:
    """A_iso = sup V/l^2 over the probed geodesic balls (a lower bound of the
    true isoperimetric constant) together with the curvature L^p bound."""
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("empty radii list")
    if n_r < 1 or n_theta < 1:
        raise ValueError(f"need n_r >= 1 and n_theta >= 1, got {n_r}, {n_theta}")
    vols = tuple(ball_volume(metric, r, n_r, n_theta) for r in radii)
    ells = tuple(float(boundary_length(metric, r, n_theta)) for r in radii)
    return IsoperimetricEstimate(max(v / ell**2 for v, ell in zip(vols, ells)),
                                 curvature_lp_norm(metric, p, None, n_r, n_theta), p, vols, ells)


def geometry_bounds_verdicts(metric: MetricProfile, A: float, p: float, radii,
                             n_r: int = 512, n_theta: int = 256):
    """The four volume/length bounds (two lower via the isoperimetric constant,
    two upper via the curvature bound), each aggregated over the probed radii."""
    if not (0 < A < np.inf and 0 < p < np.inf):
        raise ValueError(f"need finite positive A and p, got A={A:g}, p={p:g}")
    radii = np.asarray(radii, dtype=float)
    est = isoperimetric_constant(metric, radii, p, n_r, n_theta)
    case = ""
    if A < est.A_iso * (1 - 1e-9) or A < est.A_curv * (1 - 1e-9):
        case = (f"invalid: A={A:g} below measured A_iso={est.A_iso:g} "
                f"or A_curv={est.A_curv:g}")
    up = (2 * np.pi + A) ** (p + 1)
    worst = {}
    for r, vol, ell in zip(radii, est.volumes, est.lengths):
        checks = {
            "lower_volume": (r**2 / (4 * A), vol),
            "lower_length": (r / (2 * A), ell),
            "upper_volume": (vol, up * r**2),
            "upper_length": (ell, up * r),
        }
        for key, (lhs, rhs) in checks.items():
            if key not in worst or lhs / rhs > worst[key][0] / worst[key][1]:
                worst[key] = (lhs, rhs)
    return [VerdictReport(f"geometry_{k}", lhs, rhs, 1e-9, case) for k, (lhs, rhs) in worst.items()]


def geometry_bounds_check(metric: MetricProfile, A: float, p: float, radii) -> VerdictReport:
    """Worst-slack verdict over all four bounds and all probed radii."""
    return max(geometry_bounds_verdicts(metric, A, p, radii), key=lambda v: v.ratio)


# the radial knot segments of the kernel weight's quadrature
_H_SEGMENTS = 512


def kernel_weight(metric: MetricProfile, R: float, d: float) -> float:
    """h = int_d^R dr / l(dB_r); flat metric gives ln(R/d) / 2pi."""
    if not (0 <= d <= R <= metric.r_max * (1 + 1e-12)):
        raise ValueError("need 0 <= d <= R <= r_max")
    if d == R:
        return 0.0
    if d == 0.0:
        warnings.warn("singular endpoint: inner cutoff at first grid node")
        d = R / (2 * _H_SEGMENTS)
    return float(kernel_weight_profile(metric, R, d))


def kernel_weight_profile(metric: MetricProfile, R: float, r_eval) -> np.ndarray:
    """h evaluated at many radii at once via a reverse cumulative integral on
    a knot grid refined to at least _H_SEGMENTS segments."""
    r_eval = np.asarray(r_eval, dtype=float)
    rs = np.unique(r_eval)
    if not (0 < rs[0] and rs[-1] <= R * (1 + 1e-12)):  # NaN sorts last
        raise ValueError("evaluation radii must lie in (0, R]")
    knots = np.union1d(rs, np.linspace(rs[0], R, _H_SEGMENTS + 1))
    if knots[-1] < R:
        knots = np.append(knots, R)
    # per-segment Gauss-5 integrals of 1/l between consecutive knots
    lo, hi = knots[:-1], knots[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GAUSS5_X  # (nseg, 5)
    ell = np.atleast_2d(boundary_length(metric, nodes.ravel())).reshape(nodes.shape)
    seg = np.sum(_GAUSS5_W / ell, axis=1) * half
    h_at = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
    return np.interp(r_eval, knots, h_at)


_GAUSS2_X, _GAUSS2_W = np.polynomial.legendre.leggauss(2)


def sample_ball(metric: MetricProfile, R: float, func=None, n_r: int = 512,
                n_theta: int = 256) -> WeightedSamples:
    """Cell samples of func(r, theta) on the geodesic ball B_R with planar
    chart positions; each radial cell carries two Gauss-Legendre nodes so that
    radially singular kernels integrate to high accuracy."""
    dr = R / n_r
    dth = 2 * np.pi / n_theta
    mid = (np.arange(n_r) + 0.5) * dr
    rc = (mid[:, None] + (dr / 2) * _GAUSS2_X).ravel()
    rw = np.tile((dr / 2) * _GAUSS2_W, n_r)
    tc = (np.arange(n_theta) + 0.5) * dth
    Rg, Tg = np.meshgrid(rc, tc, indexing="ij")
    meas = metric.G(Rg, Tg) * rw[:, None] * dth
    vals = np.ones_like(Rg) if func is None else np.asarray(func(Rg, Tg), dtype=float)
    pos = np.stack([(Rg * np.cos(Tg)).ravel(), (Rg * np.sin(Tg)).ravel()], axis=-1)
    return WeightedSamples(vals.ravel(), meas.ravel(), pos)


def kernel_pairing_check(metric: MetricProfile, f: WeightedSamples, R: float,
                         A: float) -> VerdictReport:
    """int |f| h dV against A * ||f||*_{L ln L(B_R)}; equality for constant f
    on the flat metric with A = 1/(4 pi)."""
    if f.positions is None:
        raise ValueError("samples carry no positions")
    dist = np.hypot(f.positions[:, 0], f.positions[:, 1])
    h = kernel_weight_profile(metric, R, dist)
    lhs = float(np.sum(np.abs(f.values) * h * f.measures))
    rhs = A * zygmund_norm(f, f.total_measure)
    return VerdictReport("kernel_pairing", lhs, rhs, 1e-6)


def kernel_rearrangement_bound(metric: MetricProfile, R: float, A: float) -> VerdictReport:
    """h*(t) <= A ln(V(B_R)/t), checked at the left endpoint of each step of
    the discrete rearrangement (where each step attains its sup)."""
    samples = sample_ball(metric, R)
    dist = np.hypot(samples.positions[:, 0], samples.positions[:, 1])
    h = kernel_weight_profile(metric, R, dist)
    hw = WeightedSamples(h, samples.measures, samples.positions)
    prof = rearrange(hw)
    V = samples.total_measure
    # collapse equal-value runs (up to float jitter within a ring): each level
    # h_i starts at t = mu{h > h_i}
    drops = prof.values[:-1] - prof.values[1:]
    keep = np.concatenate([[True], drops > 1e-9 * np.maximum(prof.values[:-1], 1e-300)])
    vals = prof.values[keep]
    t = prof.breakpoints[:-1][keep]
    with np.errstate(divide="ignore"):
        bound = A * np.where(t > 0, np.log(V / np.maximum(t, 1e-300)), np.inf)
    ratios = np.where(np.isinf(bound), 0.0, vals / np.maximum(bound, 1e-300))
    worst = int(np.argmax(ratios))
    return VerdictReport("kernel_rearrangement", float(vals[worst]),
                         float(bound[worst]), 5e-2)


def flux_variation(metric: MetricProfile, rho: float) -> float:
    """int_0^rho int_0^2pi |d/dr (G / l)| dtheta dr; zero for rotationally
    symmetric metrics."""
    if not 0 < rho <= metric.r_max * (1 + 1e-12):
        raise ValueError("radius out of range")
    Rg, Tg, dr, dth = _midpoint_mesh(rho, 512, 256)
    g = metric.G(Rg, Tg)
    dg = metric.dG(Rg, Tg)
    ell = g.sum(axis=1) * dth
    dell = dg.sum(axis=1) * dth
    deriv = (dg * ell[:, None] - g * dell[:, None]) / ell[:, None] ** 2
    return float(np.sum(np.abs(deriv)) * dr * dth)


def flux_exponent_fit(metric: MetricProfile, p: float) -> FluxExponentFit:
    """Fit flux_variation(rho) ~ rho^alpha over a dyadic ladder; the bound
    predicts alpha >= 2 - 2/p."""
    rhos = np.array([1 / 8, 1 / 4, 3 / 8, 1 / 2])
    if np.any(rhos > metric.r_max):
        raise ValueError("r_max too small for the ladder")
    values = np.array([flux_variation(metric, r) for r in rhos])
    target = 2.0 - 2.0 / p
    if np.any(values <= 0):
        return FluxExponentFit(rhos, values, None, target)
    slope = float(np.polyfit(np.log(rhos), np.log(values), 1)[0])
    return FluxExponentFit(rhos, values, slope, target)
