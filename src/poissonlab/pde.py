"""Discrete Laplace-Beltrami operator on polar grids and Dirichlet solves.

The operator is assembled in self-adjoint divergence form with cell-face
averaged coefficients.  The pole is a single unknown whose equation is the
flux balance over the innermost half-cell disk, which avoids the coordinate
singularity.  For g >= 0 the scaled system is SPD and solved by Jacobi-
preconditioned CG; sign-indefinite g falls back to BiCGStab and reports
non-convergence instead of masking it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, cg

from .rearrange import WeightedSamples
from .surface import MetricProfile, ball_volume


@dataclass(frozen=True)
class PolarGrid:
    """Tensor-product (r, theta) discretization of the geodesic ball
    B_{r_max}; ring i sits at r = (i+1) dr, the last ring is the boundary."""

    metric: MetricProfile
    n_r: int
    n_theta: int
    r_max: float

    def __post_init__(self):
        if self.n_r < 8 or self.n_theta < 8:
            raise ValueError("need at least 8 nodes per direction")
        if self.r_max <= 0 or self.r_max > self.metric.r_max * (1 + 1e-12):
            raise ValueError("r_max out of metric range")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_r

    @property
    def dtheta(self) -> float:
        return 2 * np.pi / self.n_theta

    @property
    def r_nodes(self) -> np.ndarray:
        return self.dr * np.arange(1, self.n_r + 1)

    @property
    def theta_nodes(self) -> np.ndarray:
        return self.dtheta * np.arange(self.n_theta)

    def ring_mask(self, radius: float | None) -> np.ndarray:
        """Mask of the rings with r <= radius (all rings for None)."""
        return self.r_nodes <= (np.inf if radius is None else radius) * (1 + 1e-12)

    def mesh(self):
        return geometry(self).mesh

    def node_positions(self):
        return geometry(self).positions

    @property
    def pole_volume(self) -> float:
        return geometry(self).pole_volume

    def node_weights(self) -> np.ndarray:
        """Quadrature weights G dr dtheta per node (half weight on the
        boundary ring); pole weight is pole_volume."""
        return geometry(self).weights

    @property
    def total_measure(self) -> float:
        return float(self.node_weights().sum()) + self.pole_volume


@dataclass(frozen=True)
class Geometry:
    """Read-only node and face arrays of one PolarGrid, each (n_r, n_theta)."""

    mesh: tuple            # (R, T)
    positions: tuple       # planar (X, Y)
    weights: np.ndarray    # G dr dtheta, halved on the boundary ring
    a: np.ndarray          # radial face couplings; row 0 is the pole face
    b: np.ndarray          # angular face couplings
    pole_volume: float     # V(B_{dr/2}), the pole's weight


@lru_cache(maxsize=2)
def geometry(grid: PolarGrid) -> Geometry:
    """The grid's geometry, built once per grid value.  Two entries cover a
    corpus that alternates two metrics; matrices are not cached."""
    m, dr, dth = grid.metric, grid.dr, grid.dtheta
    rn, tn = grid.r_nodes, grid.theta_nodes
    R, T = np.meshgrid(rn, tn, indexing="ij")
    weights = m.G(R, T) * dr * dth
    weights[-1] *= 0.5
    # radial faces at r_{i+1/2}; face 0 couples the pole to ring 0
    a = m.G((dr * (np.arange(grid.n_r) + 0.5))[:, None], tn) * dth / dr
    # angular faces at theta_{j+1/2} on each ring
    b = dr / (m.G(rn[:, None], tn + dth / 2) * dth)
    X, Y = R * np.cos(T), R * np.sin(T)
    for arr in (R, T, X, Y, weights, a, b):
        arr.flags.writeable = False
    # the pole's weight V(B_{dr/2}), Simpson over 4 radial intervals
    return Geometry((R, T), (X, Y), weights, a, b, ball_volume(m, dr / 2, 4, grid.n_theta))


@dataclass
class DiscreteField:
    """Nodal values (n_r x n_theta) plus the pole value."""

    grid: PolarGrid
    values: np.ndarray
    pole: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_r, self.grid.n_theta):
            raise ValueError("values shape must be (n_r, n_theta)")

    def copy(self) -> "DiscreteField":
        return DiscreteField(self.grid, self.values.copy(), self.pole)

    def sup_norm(self, radius: float | None = None) -> float:
        """Grid maximum of |u| over r <= radius (the discrete C-norm proxy)."""
        vals = self.values[self.grid.ring_mask(radius)]
        return max(abs(self.pole), float(np.max(np.abs(vals), initial=0.0)))

    def l1_norm(self, radius: float | None = None) -> float:
        w = self.grid.node_weights()
        mask = self.grid.ring_mask(radius)
        return float(np.sum(np.abs(self.values[mask]) * w[mask])
                     + abs(self.pole) * self.grid.pole_volume)

    def min_max(self, radius: float | None = None):
        vals = np.append(self.values[self.grid.ring_mask(radius)].ravel(), self.pole)
        return float(vals.min()), float(vals.max())

    def as_samples(self, radius: float | None = None) -> WeightedSamples:
        """Node samples with planar positions, pole included."""
        w = self.grid.node_weights()
        X, Y = self.grid.node_positions()
        mask = self.grid.ring_mask(radius)
        vals = np.append(self.values[mask].ravel(), self.pole)
        meas = np.append(w[mask].ravel(), self.grid.pole_volume)
        pos = np.concatenate([np.stack([X[mask].ravel(), Y[mask].ravel()], axis=-1),
                              [[0.0, 0.0]]])
        return WeightedSamples(vals, meas, pos)


@dataclass(frozen=True)
class SolveReport:
    residual_norm: float
    iterations: int
    converged: bool


def field_from_function(grid: PolarGrid, func) -> DiscreteField:
    """func(x, y) evaluated at planar node positions (and the pole)."""
    X, Y = grid.node_positions()
    return DiscreteField(grid, np.asarray(func(X, Y), dtype=float) + np.zeros_like(X),
                         float(np.asarray(func(0.0, 0.0))))


def constant_field(grid: PolarGrid, value: float) -> DiscreteField:
    return DiscreteField(grid, np.full((grid.n_r, grid.n_theta), float(value)), float(value))


def laplace_beltrami_apply(grid: PolarGrid, u: DiscreteField) -> DiscreteField:
    """Second-order divergence-form Laplacian: the rows of the assembled
    g = 0, f = 0 system, whose A x - rhs is -Lap u times the node weights.
    The boundary ring is left zero (no one-sided closure there)."""
    A, rhs = assemble_system(grid, None, constant_field(grid, 0.0), u.values[-1])
    lap = rhs - A @ np.concatenate([[u.pole], u.values[:-1].ravel()])
    out = np.zeros_like(u.values)
    out[:-1] = lap[1:].reshape(grid.n_r - 1, grid.n_theta) / grid.node_weights()[:-1]
    return DiscreteField(grid, out, float(lap[0] / grid.pole_volume))


def assemble_system(grid: PolarGrid, g: DiscreteField | None, f: DiscreteField,
                    boundary: np.ndarray):
    """Sparse SPD-for-nonnegative-g system M(-Lap + g) u = -M f + boundary flux.

    Unknowns are the pole, then rings 0..n_r-2 in theta order; the boundary
    ring carries the Dirichlet data."""
    geo = geometry(grid)
    a, b, w, pv = geo.a, geo.b, geo.weights, geo.pole_volume   # only w[:-1] (full cells) is read
    n_t = grid.n_theta
    N = 1 + (grid.n_r - 1) * n_t
    ids = np.arange(1, N, dtype=np.int32).reshape(grid.n_r - 1, n_t)
    gw = 0.0 if g is None else g.values[:-1] * w[:-1]
    gp = 0.0 if g is None else g.pole

    diag = np.concatenate([[a[0].sum() + gp * pv],
                           (a[:-1] + a[1:] + b[:-1] + np.roll(b[:-1], 1, axis=1) + gw).ravel()])
    # each off-diagonal coupling once, as (lo, hi, value): pole-ring 0,
    # ring i-ring i+1, and theta_j-theta_{j+1} (periodic) on every ring
    lo = np.concatenate([np.zeros(n_t, np.int32), ids[:-1].ravel(), ids.ravel()])
    hi = np.concatenate([ids[0], ids[1:].ravel(), np.roll(ids, -1, axis=1).ravel()])
    off = -np.concatenate([a[0], a[1:-1].ravel(), b[:-1].ravel()])
    dia = np.arange(N, dtype=np.int32)
    A = sparse.csr_matrix((np.concatenate([diag, off, off]),
                           (np.concatenate([dia, lo, hi]), np.concatenate([dia, hi, lo]))),
                          shape=(N, N))

    rhs = np.empty(N)
    rhs[0] = -f.pole * pv
    rhs[1:] = (-f.values[:-1] * w[:-1]).ravel()
    rhs[-n_t:] += a[-1] * boundary
    return A, rhs


def solve_dirichlet(grid: PolarGrid, g: DiscreteField | None, f: DiscreteField,
                    boundary, tol: float = 1e-10, maxiter: int | None = None):
    """Solve Lap u = g u + f with Dirichlet data on r = r_max."""
    boundary = np.broadcast_to(np.asarray(boundary, dtype=float), (grid.n_theta,)).copy()
    A, rhs = assemble_system(grid, g, f, boundary)
    # the weights are positive and finite, so this rejects non-finite f, g or boundary data
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(A.data))):
        raise ValueError("f, g and boundary values must be finite")
    diag = A.diagonal()
    precond = None
    if np.all(diag > 0):
        inv = 1.0 / diag
        precond = LinearOperator(A.shape, matvec=lambda x: inv * x.ravel(), dtype=float)
    count = [0]

    def cb(_):
        count[0] += 1

    spd = g is None or (np.min(g.values) >= 0 and g.pole >= 0)
    if maxiter is None:
        maxiter = 40 * int(np.sqrt(A.shape[0])) + 2000
    solver = cg if spd else bicgstab
    x, info = solver(A, rhs, rtol=tol, atol=0.0, maxiter=maxiter, M=precond, callback=cb)
    rnorm = float(np.linalg.norm(A @ x - rhs))
    bnorm = float(np.linalg.norm(rhs))
    rel = rnorm / bnorm if bnorm > 0 else rnorm
    report = SolveReport(rel, count[0], bool(info == 0))

    vals = np.empty((grid.n_r, grid.n_theta))
    vals[:-1] = x[1:].reshape(grid.n_r - 1, grid.n_theta)
    vals[-1] = boundary
    return DiscreteField(grid, vals, float(x[0])), report


def gradient_l2(grid: PolarGrid, u: DiscreteField) -> float:
    """Metric-weighted H1 seminorm via midpoint face differences."""
    geo = geometry(grid)
    v = u.values
    total = float(np.sum(geo.a[0] * (v[0] - u.pole) ** 2))
    total += float(np.sum(geo.a[1:] * (v[1:] - v[:-1]) ** 2))
    total += float(np.sum(geo.b[:-1] * (np.roll(v[:-1], -1, axis=1) - v[:-1]) ** 2))
    return float(np.sqrt(total))


def lq_norm(grid: PolarGrid, u: DiscreteField, q: float) -> float:
    geo = geometry(grid)
    s = float(np.sum(np.abs(u.values) ** q * geo.weights) + abs(u.pole) ** q * geo.pole_volume)
    return s ** (1.0 / q)


def log_potential(f: WeightedSamples, eval_points, correct_singular: bool = True) -> np.ndarray:
    """Newtonian potential u(x) = (1/2pi) int ln|x-y| f(y) dy by midpoint cell
    quadrature; cells containing the evaluation point use the exact radial
    integral over an equal-area disk."""
    if f.positions is None:
        raise ValueError("samples carry no positions")
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    radii = np.sqrt(f.measures / np.pi)
    out = np.empty(pts.shape[0])
    for k, p in enumerate(pts):
        d = np.hypot(f.positions[:, 0] - p[0], f.positions[:, 1] - p[1])
        near = d < radii
        if np.any(near) and not correct_singular:
            raise ValueError("evaluation point inside a source cell; enable the singular correction")
        far = ~near if np.any(near) else slice(None)  # no copies when no cell contains p
        acc = float(np.sum(f.values[far] * f.measures[far] * np.log(np.maximum(d[far], 1e-300))))
        if np.any(near):
            acc += float(np.sum(f.values[near] * f.measures[near]
                                * (np.log(radii[near]) - 0.5)))
        out[k] = acc / (2 * np.pi)
    return out


def convergence_order(errors, resolutions) -> float:
    """Mean log2 error ratio across successive dyadic resolutions."""
    resolutions = list(resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must increase")
    orders = []
    for (e0, n0), (e1, n1) in zip(zip(errors, resolutions), zip(errors[1:], resolutions[1:])):
        orders.append(np.log(e0 / e1) / np.log(n1 / n0))
    return float(np.mean(orders))
