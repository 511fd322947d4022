"""Discrete Laplace-Beltrami operator on polar grids and Dirichlet solves.

The operator is assembled in self-adjoint divergence form with cell-face
averaged coefficients, written directly as CSR arrays in sorted column
order.  The pole is a single unknown whose equation is the flux balance over
the innermost half-cell disk, which avoids the coordinate singularity.  For
g >= 0 the scaled system is SPD and solved by the Jacobi-preconditioned CG
loop `cg` below, which makes scipy's floating-point operations in scipy's
order without its per-iteration operator dispatch.  Sign-indefinite g is
solved by scipy's BiCGStab preconditioned with the exact inverse of the
theta-averaged operator: an rfft in theta, then one tridiagonal solve in r
per Fourier mode (Concus & Golub 1973; the mode solves of Swarztrauber &
Sweet 1973), all modes in one LAPACK tridiagonal factored once per solve.
A solve is converged only when the recomputed true residual meets the
tolerance.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgttrf, zgttrs
from scipy.sparse.linalg import LinearOperator, bicgstab

from .rearrange import WeightedSamples
from .surface import MetricProfile, ball_volume

SOLVE_TOL = 1e-10  # the default relative residual of a Dirichlet solve
NODE_BUDGET = 2**22  # the most nodes of one grid: 16 times 512^2, about 0.75 GB at the cap


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
        if self.n_r * self.n_theta > NODE_BUDGET:
            raise ValueError(f"n_r * n_theta = {self.n_r * self.n_theta} > node budget 2**22")
        if not 0 < self.r_max < self.metric.domain:
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
        """Read-only (n_r, n_theta) views (R, T) of the two node vectors."""
        shape = (self.n_r, self.n_theta)
        return tuple(np.broadcast_to(v, shape) for v in (self.r_nodes[:, None], self.theta_nodes))

    def node_positions(self):
        """Fresh planar node arrays (r cos theta, r sin theta)."""
        r, t = self.r_nodes[:, None], self.theta_nodes
        return r * np.cos(t), r * np.sin(t)

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
    """The read-only node and face arrays the operator reads, each (n_r, n_theta)."""

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
    weights = m.G(rn[:, None], tn) * dr * dth
    weights[-1] *= 0.5
    # radial faces at r_{i+1/2}; face 0 couples the pole to ring 0
    a = m.G((dr * (np.arange(grid.n_r) + 0.5))[:, None], tn) * dth / dr
    # angular faces at theta_{j+1/2} on each ring
    b = dr / (m.G(rn[:, None], tn + dth / 2) * dth)
    for arr in (weights, a, b):
        arr.flags.writeable = False
    # the pole's weight V(B_{dr/2}), Simpson over 4 radial intervals
    return Geometry(weights, a, b, ball_volume(m, dr / 2, 4))


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

    def quadrature(self, radius: float | None = None):
        """Values and measures of the nodes with r <= radius, the pole last:
        the one rule behind every norm and integral of a grid field."""
        mask = self.grid.ring_mask(radius)
        return (np.append(self.values[mask], self.pole),
                np.append(self.grid.node_weights()[mask], self.grid.pole_volume))

    def sup_norm(self, radius: float | None = None) -> float:
        """Grid maximum of |u| over r <= radius (the discrete C-norm proxy)."""
        return float(np.max(np.abs(self.quadrature(radius)[0])))

    def l1_norm(self, radius: float | None = None) -> float:
        vals, meas = self.quadrature(radius)
        return float(np.sum(np.abs(vals) * meas))

    def min_max(self, radius: float | None = None):
        vals = self.quadrature(radius)[0]
        return float(vals.min()), float(vals.max())

    def as_samples(self, radius: float | None = None) -> WeightedSamples:
        """Node samples with planar positions, pole included (at the origin)."""
        X, Y = self.grid.node_positions()
        mask = self.grid.ring_mask(radius)
        pos = np.stack([np.append(X[mask], 0.0), np.append(Y[mask], 0.0)], axis=-1)
        return WeightedSamples(*self.quadrature(radius), pos)


@dataclass(frozen=True)
class SolveReport:
    residual: float        # the recomputed true residual |A x - rhs| / |rhs|
    iterations: int
    converged: bool
    solver: str            # "cg" (g >= 0) or "bicgstab"
    setup_s: float         # assembly plus the preconditioner's set-up, seconds
    solve_s: float         # the Krylov loop, seconds


def field_from_function(grid: PolarGrid, func) -> DiscreteField:
    """func(x, y) evaluated at planar node positions (and the pole)."""
    X, Y = grid.node_positions()
    return DiscreteField(grid, np.asarray(func(X, Y), dtype=float) + np.zeros_like(X),
                         float(np.asarray(func(0.0, 0.0))))


def constant_field(grid: PolarGrid, value: float) -> DiscreteField:
    return DiscreteField(grid, np.full((grid.n_r, grid.n_theta), float(value)), float(value))


def laplace_beltrami_apply(u: DiscreteField) -> DiscreteField:
    """Second-order divergence-form Laplacian: the rows of the assembled
    g = 0, f = 0 system, whose A x - rhs is -Lap u times the node weights.
    The boundary ring is left zero (no one-sided closure there)."""
    grid = u.grid
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
    a, b, w, pv = geo.a, geo.b[:-1], geo.weights[:-1], geo.pole_volume  # w: full cells only
    n_t, n = grid.n_theta, grid.n_r - 1
    N, nnz = 1 + n * n_t, 1 + 5 * n * n_t
    ids = np.arange(1, N, dtype=np.int32).reshape(n, n_t)
    gw = 0.0 if g is None else g.values[:-1] * w
    gp = 0.0 if g is None else g.pole
    # CSR in sorted column order: the pole row, then per ring row inner (the pole for ring 0),
    # left, self, right, outer, reordered at the theta wrap; last-ring rows drop outer, close up
    data, indices = np.empty(nnz + n_t), np.empty(nnz + n_t, np.int32)
    data[0], data[1:n_t + 1], indices[:n_t + 1] = a[0].sum() + gp * pv, -a[0], np.arange(n_t + 1)
    vals, cols = data[n_t + 1:].reshape(n, n_t, 5), indices[n_t + 1:].reshape(n, n_t, 5)
    vals[..., 0], vals[..., 1], vals[..., 3] = -a[:-1], -np.roll(b, 1, axis=1), -b
    vals[..., 2], vals[:-1, :, 4] = a[:-1] + a[1:] + b + np.roll(b, 1, axis=1) + gw, -a[1:-1]
    cols[0, :, 0], cols[1:, :, 0], cols[..., 1] = 0, ids[:-1], np.roll(ids, 1, axis=1)
    cols[..., 2], cols[..., 3], cols[:-1, :, 4] = ids, np.roll(ids, -1, axis=1), ids[1:]
    for arr in (vals, cols):
        arr[:, 0], arr[:, -1] = arr[:, 0, [0, 2, 3, 1, 4]], arr[:, -1, [0, 3, 1, 2, 4]]
        arr.reshape(-1)[-5 * n_t:-n_t] = arr[-1, :, :4].ravel()
    k = np.arange(n * n_t + 1, dtype=np.int32)
    indptr = np.append(np.int32(0), n_t + 1 + np.minimum(5 * k, 4 * k + (n - 1) * n_t))
    A = sparse.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(N, N))

    rhs = np.empty(N)
    rhs[0] = -f.pole * pv
    rhs[1:] = (-f.values[:-1] * w).ravel()
    rhs[-n_t:] += a[-1] * boundary
    return A, rhs


def mode_preconditioner(g: DiscreteField) -> LinearOperator:
    """Exact inverse of the theta-averaged system (a, b and g w replaced by
    their ring means), which is A itself for a radial metric and radial g.

    With the unitary rfft in theta every Fourier mode m decouples into one
    tridiagonal in r with diagonal a_i + a_{i+1} + (g w)_i + b_i lam_m.  The
    pole is row 0 of every mode, coupled by -a_0 sqrt(n_theta) to mode 0 of
    ring 0 only (a unit row elsewhere).  Stacked mode-major with zero coupling,
    the modes form one tridiagonal that LAPACK factors once per solve."""
    grid = g.grid
    geo, n_t, n = geometry(grid), grid.n_theta, grid.n_r - 1
    a, b = geo.a.mean(axis=1), geo.b[:-1].mean(axis=1)
    M = n_t // 2 + 1  # modes m = 0..n_theta/2; lam_m is the angular difference's symbol
    lam = 2 - 2 * np.cos(grid.dtheta * np.arange(M))
    d = np.ones((M, n + 1))
    d[0, 0] = n_t * a[0] + g.pole * geo.pole_volume
    gw = (g.values[:-1] * geo.weights[:-1]).mean(axis=1)
    d[:, 1:] = a[:-1] + a[1:] + gw + lam[:, None] * b
    e = np.zeros((M, n + 1))         # e[m, i] couples row i to row i + 1 of mode m
    e[0, 0] = -a[0] * np.sqrt(n_t)
    e[:, 1:-1] = -a[1:-1]
    *lu, ipiv, info = dgttrf(e.ravel()[:-1], d.ravel(), e.ravel()[:-1])
    if info > 0:  # U is exactly singular: zgttrs would divide by zero
        raise ValueError("the theta-averaged operator is singular: g is at an eigenvalue")
    lu, y = [x.astype(complex) for x in lu], np.zeros((M, n + 1), complex)

    def apply(r):  # y is reused: rows 0 of modes m > 0 are decoupled unit rows, never read
        out = np.empty_like(r)
        y[0, 0], y[:, 1:] = r[0], np.fft.rfft(r[1:].reshape(n, n_t).T, axis=0, norm="ortho")
        x = zgttrs(*lu, ipiv, y.ravel(), overwrite_b=1)[0].reshape(M, n + 1)
        out[0] = x[0, 0].real  # irfft writes ring-major through out=, with no transpose copy
        np.fft.irfft(x[:, 1:], n_t, axis=0, norm="ortho", out=out[1:].reshape(n, n_t).T)
        return out

    return LinearOperator((1 + n * n_t,) * 2, matvec=apply, dtype=float)


def cg(A, b, *, rtol, maxiter, M, callback=None):
    """Preconditioned conjugate gradients from x0 = 0 (Hestenes & Stiefel
    1952, in the form of Barrett et al., Templates, 1994), with z = M r for
    M the inverse of A's diagonal (Jacobi).

    The floating-point operations and their order are those of scipy 1.17's
    scipy.sparse.linalg.cg, so x and the iteration count are bitwise scipy's;
    the stopping test sqrt(r.r) < rtol |b| is bitwise np.linalg.norm.
    callback(x) runs once per iteration.  Returns (x, 0) on convergence
    (zeros for b = 0), (x, maxiter) when the iterations run out, and the last
    (finite) iterate with -1 on breakdown: r.z or p.Ap exactly 0, where scipy
    would divide by zero."""
    bnorm = np.sqrt(np.dot(b, b))
    if bnorm == 0:
        return np.zeros_like(b), 0
    bound = rtol * bnorm
    x, r = np.zeros_like(b), b.copy()
    z, t = np.empty_like(b), np.empty_like(b)
    p = rho_prev = None
    for _ in range(maxiter):
        if np.sqrt(np.dot(r, r)) < bound:
            return x, 0
        np.multiply(M, r, out=z)   # the preconditioner: z = M r
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A @ p
        pq = np.dot(p, q)
        if rho == 0 or pq == 0:  # a zero test, not a sign test: M need not be definite
            return x, -1
        alpha = rho / pq
        x += np.multiply(alpha, p, out=t)
        r -= np.multiply(alpha, q, out=t)
        rho_prev = rho
        if callback:
            callback(x)
    return x, maxiter


def solve_dirichlet(grid: PolarGrid, g: DiscreteField | None, f: DiscreteField,
                    boundary, tol: float = SOLVE_TOL):
    """Solve Lap u = g u + f with Dirichlet data on r = r_max."""
    if not (np.isfinite(tol) and tol > 0):  # no iterate meets a tolerance <= 0
        raise ValueError(f"solver tolerance must be finite and positive, got {tol}")
    boundary = np.broadcast_to(np.asarray(boundary, dtype=float), (grid.n_theta,)).copy()
    start = time.perf_counter()
    with np.errstate(over="ignore"):  # finite data can overflow: refused below
        A, rhs = assemble_system(grid, g, f, boundary)
        bnorm = float(np.linalg.norm(rhs))
    # the weights are positive and finite, so this rejects non-finite f, g or boundary data
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(A.data))):
        raise ValueError("f, g and boundary values must be finite")
    if bnorm == np.inf:  # cg would take |b| as inf and iterate to NaN
        raise ValueError("the right-hand side's 2-norm overflows double precision")
    count = [0]

    def cb(_):
        count[0] += 1

    spd = g is None or (np.min(g.values) >= 0 and g.pole >= 0)
    # Jacobi (the inverse diagonal) for cg, the theta-mode solve for bicgstab
    precond = 1.0 / A.diagonal() if spd else mode_preconditioner(g)
    solver = cg if spd else bicgstab
    setup_end = time.perf_counter()
    x, info = solver(A, rhs, rtol=tol, maxiter=40 * int(np.sqrt(A.shape[0])) + 2000,
                     M=precond, callback=cb)
    solve_s = time.perf_counter() - setup_end
    rnorm = float(np.linalg.norm(A @ x - rhs))
    rel = rnorm / bnorm if bnorm > 0 else rnorm
    report = SolveReport(rel, count[0], bool(info == 0 and rel <= tol),
                         "cg" if spd else "bicgstab", setup_end - start, solve_s)

    vals = np.empty((grid.n_r, grid.n_theta))
    vals[:-1] = x[1:].reshape(grid.n_r - 1, grid.n_theta)
    vals[-1] = boundary
    return DiscreteField(grid, vals, float(x[0])), report


def gradient_l2(u: DiscreteField) -> float:
    """Metric-weighted H1 seminorm via midpoint face differences.

    With zero boundary data this is sqrt(x.A x) of the assembled g = 0
    system (they agree to 4.1e-15 relative on 20 random fields at 48x48).
    It stays a sum of squared differences because for general data the
    assembled form x.A x - 2 x.r + r.b (r the boundary flux of the
    right-hand side, b the boundary data) cancels only to roundoff: for
    u = 3 at 16x16 it gives 5.7e-13, so 7.5e-7 after the square root,
    where a constant field must have gradient exactly 0."""
    geo = geometry(u.grid)
    v = u.values
    total = float(np.sum(geo.a[0] * (v[0] - u.pole) ** 2))
    total += float(np.sum(geo.a[1:] * (v[1:] - v[:-1]) ** 2))
    total += float(np.sum(geo.b[:-1] * (np.roll(v[:-1], -1, axis=1) - v[:-1]) ** 2))
    return float(np.sqrt(total))


def lq_norm(u: DiscreteField, q: float) -> float:
    vals, meas = u.quadrature()
    return float(np.sum(np.abs(vals) ** q * meas)) ** (1.0 / q)


def log_potential(f: WeightedSamples, eval_points) -> np.ndarray:
    """Newtonian potential u(x) = (1/2pi) int ln|x-y| f(y) dy by midpoint cell
    quadrature; cells containing the evaluation point use the exact radial
    integral over an equal-area disk."""
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    radii = np.sqrt(f.measures / np.pi)
    out = np.empty(pts.shape[0])
    for k, p in enumerate(pts):
        d = f.distances(p)
        near = d < radii
        far = ~near if np.any(near) else slice(None)  # no copies when no cell contains p
        acc = float(np.sum(f.values[far] * f.measures[far] * np.log(np.maximum(d[far], 1e-300))))
        if np.any(near):
            acc += float(np.sum(f.values[near] * f.measures[near]
                                * (np.log(radii[near]) - 0.5)))
        out[k] = acc / (2 * np.pi)
    return out
