"""Semi-geodesic metric geometry.

A metric dr^2 + G^2(r, theta) dtheta^2 around a fixed center is described by
:class:`MetricProfile`, one of the analytic families flat, sphere, hyperbolic
and perturbed.  On top of it: boundary lengths, ball volumes,
Gauss curvature, isoperimetric constants, the isoperimetric/curvature
volume-length bounds, the radial kernel weight h and its pairing bound against the
Zygmund norm, and the flux-variation integral.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rearrange import WeightedSamples, zygmund_norm
from .report import VerdictReport

_GAUSS5_X, _GAUSS5_W = np.polynomial.legendre.leggauss(5)


class MetricProfile:
    """Semi-geodesic coefficient G of dr^2 + G^2(r, theta) dtheta^2 with its
    radial derivatives dG and d2G, vectorized over broadcastable (r, theta)
    arrays.  G(0, theta) = 0 and dG(0, theta) = 1 are required.

    Metrics are frozen values that compare and hash by their parameters
    (see ``pde.geometry``).  A family defines ``_eval(k, r, t)``, the k-th
    radial derivative of G, and ``domain``, the first radius where G = 0."""

    domain: float

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
    domain = np.inf
    p = (np.asarray, np.ones_like, np.zeros_like)


@dataclass(frozen=True)
class Sphere(_Radial):
    domain = np.pi
    p = (np.sin, np.cos, lambda r: -np.sin(r))


@dataclass(frozen=True)
class Hyperbolic(_Radial):
    domain = np.inf
    p = (np.sinh, np.cosh, np.sinh)


@dataclass(frozen=True)
class Perturbed(MetricProfile):
    """G = r (1 + eps r^2 cos theta)."""

    eps: float

    def __post_init__(self):
        if not np.isfinite(self.eps):
            raise ValueError(f"perturbation eps={self.eps} degenerates the metric")

    @property
    def domain(self) -> float:  # G vanishes at r = 1/sqrt(|eps|) for either sign of eps
        return 1.0 / abs(self.eps) ** 0.5 if self.eps else np.inf

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
    volumes: tuple  # V(B_r) per probed radius
    lengths: tuple  # l(dB_r) per probed radius


# the constructors by their family names, as from_name spells them
flat, sphere, hyperbolic, perturbed = Flat, Sphere, Hyperbolic, Perturbed


def from_name(name: str) -> MetricProfile:
    """Parse a metric spec string: flat | sphere | hyperbolic | perturbed:eps."""
    families = {"flat": Flat, "sphere": Sphere, "hyperbolic": Hyperbolic}
    if name in families:
        return families[name]()
    family, colon, text = name.partition(":")
    try:
        eps = float(text) if family == "perturbed" and colon else None
    except ValueError:  # no number after the colon
        eps = None
    if eps is None:
        raise ValueError(f"unknown metric {name!r}")
    return Perturbed(eps)


def boundary_length(metric: MetricProfile, r):
    """l(dB_r) = int_0^2pi G(r, .) dtheta by the periodic trapezoid rule on 256
    nodes; every family's G is affine in cos theta, so any 2 or more are exact."""
    r = np.asarray(r, dtype=float)
    if not np.all((0 < r) & (r < metric.domain)):
        raise ValueError("radius out of range")
    th = 2 * np.pi * np.arange(256) / 256
    vals = metric.G(r[..., None], th)
    return vals.mean(axis=-1) * 2 * np.pi


def ball_volume(metric: MetricProfile, r: float, n_r: int = 512) -> float:
    """V(B_r) = int_0^r l(dB_t) dt by composite Simpson (l(0) = 0)."""
    if not 0 < r < metric.domain:
        raise ValueError("radius out of range")
    n = n_r + (n_r % 2)  # Simpson needs an even interval count
    t = np.linspace(0.0, r, n + 1)
    ell = np.empty(n + 1)
    ell[0] = 0.0
    ell[1:] = boundary_length(metric, t[1:])
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
    return (-metric.d2G(r, theta) / g)[()]


def _midpoint_mesh(radius: float):
    """Midpoints (R, T) of the 512 x 256 cells of [0, radius] x [0, 2pi), and dr, dtheta."""
    dr, dth = radius / 512, 2 * np.pi / 256
    R, T = np.meshgrid((np.arange(512) + 0.5) * dr, (np.arange(256) + 0.5) * dth, indexing="ij")
    return R, T, dr, dth


def curvature_lp_norm(metric: MetricProfile, p: float) -> float:
    """||K||_{L^p(B_radius)} by midpoint quadrature, radius = min(1, domain).
    |K| is scaled by its maximum, so |K|^p cannot overflow; a norm past the
    double range is inf, without a warning."""
    R, T, dr, dth = _midpoint_mesh(min(1.0, metric.domain))
    k = np.abs(gauss_curvature(metric, R, T))
    k_max = float(k.max())
    if k_max == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return k_max * float(np.sum((k / k_max) ** p * metric.G(R, T) * dr * dth) ** (1.0 / p))


def isoperimetric_constant(metric: MetricProfile, radii, p: float = 2.0) -> IsoperimetricEstimate:
    """A_iso = sup V/l^2 over the probed geodesic balls (a lower bound of the
    true isoperimetric constant) together with the curvature L^p bound."""
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("empty radii list")
    vols = tuple(ball_volume(metric, r) for r in radii)
    ells = tuple(boundary_length(metric, radii).tolist())
    return IsoperimetricEstimate(max(v / ell**2 for v, ell in zip(vols, ells)),
                                 curvature_lp_norm(metric, p), vols, ells)


def geometry_bounds_verdicts(metric: MetricProfile, A: float, p: float, radii):
    """The four volume/length bounds (two lower via the isoperimetric constant,
    two upper via the curvature bound), each aggregated over the probed radii."""
    radii = np.asarray(radii, dtype=float)
    # each bound must be a double: (2 pi + A)^(p + 1) overflows for a large A or
    # p and 1/A for a tiny A; NaN and a non-positive A or p fail the test too
    with np.errstate(all="ignore"):
        up = np.float64(2 * np.pi + A) ** (p + 1)
        bounds = np.array([radii**2 / (4 * A), radii / (2 * A), up * radii**2, up * radii])
    if not (0 < A < np.inf and 0 < p < np.inf and np.all(np.isfinite(bounds))):
        raise ValueError(f"need finite positive A and p with finite bounds, got A={A:g}, p={p:g}")
    est = isoperimetric_constant(metric, radii, p)
    if not np.isfinite(est.A_curv):
        raise ValueError(f"the curvature L^p norm overflows double precision at p={p:g}")
    case = ""
    if A < est.A_iso * (1 - 1e-9) or A < est.A_curv * (1 - 1e-9):
        case = (f"invalid: A={A:g} below measured A_iso={est.A_iso:g} "
                f"or A_curv={est.A_curv:g}")
    worst = {}
    # Python floats: a ratio past the double range is inf, with no numpy warning
    for (low_v, low_l, up_v, up_l), vol, ell in zip(bounds.T.tolist(), est.volumes, est.lengths):
        checks = {
            "lower_volume": (low_v, vol),
            "lower_length": (low_l, ell),
            "upper_volume": (vol, up_v),
            "upper_length": (ell, up_l),
        }
        for key, (lhs, rhs) in checks.items():
            if key not in worst or lhs / rhs > worst[key][0] / worst[key][1]:
                worst[key] = (lhs, rhs)
    return [VerdictReport(f"geometry_{k}", lhs, rhs, 1e-9, case) for k, (lhs, rhs) in worst.items()]


# the radial knot segments of the kernel weight's quadrature
_H_SEGMENTS = 512


def kernel_weight_profile(metric: MetricProfile, R: float, r_eval) -> np.ndarray:
    """The kernel weight h(r) = int_r^R dt / l(dB_t), which is ln(R/r) / 2pi on
    the flat metric, at many radii at once via a reverse cumulative integral
    on a knot grid refined to at least _H_SEGMENTS segments."""
    r_eval = np.asarray(r_eval, dtype=float)
    rs = np.unique(r_eval)
    if not (0 < rs[0] and rs[-1] <= R * (1 + 1e-12)):  # NaN sorts last
        raise ValueError("evaluation radii must lie in (0, R]")
    knots = np.union1d(rs, np.linspace(rs[0], R, _H_SEGMENTS + 1))  # linspace ends at R exactly
    # per-segment Gauss-5 integrals of 1/l between consecutive knots
    lo, hi = knots[:-1], knots[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GAUSS5_X  # (nseg, 5)
    ell = boundary_length(metric, nodes)
    seg = np.sum(_GAUSS5_W / ell, axis=1) * half
    h_at = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
    return np.interp(r_eval, knots, h_at)


_GAUSS2_X, _GAUSS2_W = np.polynomial.legendre.leggauss(2)


def sample_ball(metric: MetricProfile, R: float, n_r: int = 512,
                n_theta: int = 256) -> WeightedSamples:
    """Unit samples on the geodesic ball B_R with planar chart positions; each
    radial cell carries two Gauss-Legendre nodes so that radially singular
    kernels integrate to high accuracy."""
    dr = R / n_r
    dth = 2 * np.pi / n_theta
    mid = (np.arange(n_r) + 0.5) * dr
    rc = (mid[:, None] + (dr / 2) * _GAUSS2_X).ravel()
    rw = np.tile((dr / 2) * _GAUSS2_W, n_r)
    tc = (np.arange(n_theta) + 0.5) * dth
    Rg, Tg = np.meshgrid(rc, tc, indexing="ij")
    meas = metric.G(Rg, Tg) * rw[:, None] * dth
    pos = np.stack([(Rg * np.cos(Tg)).ravel(), (Rg * np.sin(Tg)).ravel()], axis=-1)
    return WeightedSamples(np.ones(Rg.size), meas.ravel(), pos)


def kernel_pairing_check(metric: MetricProfile, f: WeightedSamples, R: float,
                         A: float) -> VerdictReport:
    """int |f| h dV against A * ||f||*_{L ln L(B_R)}; equality for constant f
    on the flat metric with A = 1/(4 pi)."""
    h = kernel_weight_profile(metric, R, f.distances((0.0, 0.0)))
    lhs = float(np.sum(np.abs(f.values) * h * f.measures))
    rhs = A * zygmund_norm(f, f.total_measure)
    return VerdictReport("kernel_pairing", lhs, rhs, 1e-6)


def kernel_rearrangement_bound(metric: MetricProfile, R: float, A: float) -> VerdictReport:
    """h*(t) <= A ln(V(B_R)/t), checked at the left endpoint of each step of
    the discrete rearrangement (where each step attains its sup).  The
    boundary length integrates theta out, so h depends on r alone and
    decreases: h* takes the rings inner first, ring i's level h(r_i) starting
    at t_i, the measure of the rings inside it."""
    n_theta = 256
    samples = sample_ball(metric, R, n_theta=n_theta)
    x, y = samples.positions[::n_theta].T  # one node per ring
    vals = kernel_weight_profile(metric, R, np.hypot(x, y))
    t = np.append(0.0, np.cumsum(samples.measures.reshape(-1, n_theta).sum(axis=1))[:-1])
    with np.errstate(divide="ignore"):  # t_0 = 0: no bound, ratio 0
        bound = A * np.log(samples.total_measure / t)
    worst = int(np.argmax(vals / bound))
    return VerdictReport("kernel_rearrangement", float(vals[worst]),
                         float(bound[worst]), 5e-2)


def flux_variation(metric: MetricProfile, rho: float) -> float:
    """int_0^rho int_0^2pi |d/dr (G / l)| dtheta dr; zero for rotationally
    symmetric metrics."""
    if not 0 < rho < metric.domain:
        raise ValueError("radius out of range")
    Rg, Tg, dr, dth = _midpoint_mesh(rho)
    g = metric.G(Rg, Tg)
    dg = metric.dG(Rg, Tg)
    ell = g.sum(axis=1) * dth
    dell = dg.sum(axis=1) * dth
    deriv = (dg * ell[:, None] - g * dell[:, None]) / ell[:, None] ** 2
    return float(np.sum(np.abs(deriv)) * dr * dth)


def flux_exponent_fit(metric: MetricProfile) -> float | None:
    """alpha of flux_variation(rho) ~ rho^alpha over a dyadic ladder, or None when
    the variation vanishes (radial metrics); the bound predicts alpha >= 2 - 2/p."""
    rhos = np.array([1 / 8, 1 / 4, 3 / 8, 1 / 2])
    if not rhos[-1] < metric.domain:
        raise ValueError("domain too small for the ladder")
    values = np.array([flux_variation(metric, r) for r in rhos])
    if np.any(values <= 0):
        return None
    return float(np.polyfit(np.log(rhos), np.log(values), 1)[0])
