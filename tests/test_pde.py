"""Unit tests for the discrete Laplace-Beltrami operator and potentials."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from poissonlab import estimates, pde, surface
from poissonlab.rearrange import WeightedSamples


def flat_grid(n_r=32, n_theta=48, r_max=1.0):
    return pde.PolarGrid(surface.flat(), n_r, n_theta, r_max)


class TestPolarGrid:
    def test_node_layout(self):
        g = flat_grid(16, 16)
        assert g.dr == pytest.approx(1 / 16)
        assert g.r_nodes[0] == pytest.approx(1 / 16)
        assert g.r_nodes[-1] == pytest.approx(1.0)

    def test_total_measure(self):
        g = flat_grid(64, 64)
        assert g.total_measure == pytest.approx(np.pi, rel=1e-4)

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="at least 8"):
            pde.PolarGrid(surface.flat(), 4, 64, 1.0)

    def test_node_budget(self):
        # the check is one product of the two counts: nothing is allocated
        # before it, and a grid at the budget constructs
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="node budget"):
                pde.PolarGrid(surface.flat(), 8, 10**8, 1.0)
            with pytest.raises(ValueError, match="node budget"):
                pde.PolarGrid(surface.flat(), 2048, 2049, 1.0)
            pde.PolarGrid(surface.flat(), 2048, 2048, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_r_max_out_of_range(self):
        with pytest.raises(ValueError, match="out of metric range"):
            pde.PolarGrid(surface.sphere(), 16, 16, 3.2)
        with pytest.raises(ValueError, match="out of metric range"):
            pde.PolarGrid(surface.flat(), 16, 16, float("nan"))


class TestOperator:
    def test_symmetry(self):
        g = flat_grid(12, 12)
        f = pde.constant_field(g, 0.0)
        A, _ = pde.assemble_system(g, None, f, np.zeros(12))
        assert abs(A - A.T).max() < 1e-13

    def test_quadratic_exact(self):
        # u = 1 - r^2 has a quadratic radial profile: the flux closure is exact
        g = flat_grid(16, 16)
        u, rep = pde.solve_dirichlet(g, None, pde.constant_field(g, -4.0), np.zeros(16))
        assert rep.converged
        R, _ = g.mesh()
        assert np.max(np.abs(u.values - (1 - R**2))) < 1e-8
        assert u.pole == pytest.approx(1.0, abs=1e-8)

    def test_apply_recovers_forcing(self):
        g = flat_grid(24, 24)
        R, _ = g.mesh()
        u = pde.DiscreteField(g, 1 - R**2, 1.0)
        lap = pde.laplace_beltrami_apply(u)
        assert np.max(np.abs(lap.values[:-1] + 4.0)) < 1e-9
        assert lap.pole == pytest.approx(-4.0, abs=1e-9)

    def test_apply_matches_analytic_operator(self):
        # the stencil against G^-1 d_r(G d_r u) + G^-1 d_th(G^-1 d_th u) at the
        # interior nodes and the pole, with its observed order over n, 2n, 4n.
        # u = cos(x + 2y) is even in (x, y), so it has no odd powers of r at the
        # pole: those leave an O(dr) truncation error on the first ring.
        metric = surface.from_name("perturbed:0.1")
        ns, errors = (32, 64, 128), []
        for n in ns:
            grid = pde.PolarGrid(metric, n, 2 * n, 1.0)
            R, T = grid.mesh()
            x, y = R * np.cos(T), R * np.sin(T)
            s, c = np.sin(x + 2 * y), np.cos(x + 2 * y)
            ux, uy, uxx, uxy, uyy = -s, -2 * s, -c, -2 * c, -4 * c
            ur = np.cos(T) * ux + np.sin(T) * uy
            urr = np.cos(T) ** 2 * uxx + 2 * np.sin(T) * np.cos(T) * uxy + np.sin(T) ** 2 * uyy
            ut = -y * ux + x * uy
            utt = y**2 * uxx - 2 * x * y * uxy + x**2 * uyy - x * ux - y * uy
            G, G_r, G_t = metric.G(R, T), metric.dG(R, T), -0.1 * R**3 * np.sin(T)
            exact = urr + G_r / G * ur + utt / G**2 - G_t * ut / G**3
            lap = pde.laplace_beltrami_apply(pde.DiscreteField(grid, c, 1.0))
            # at the pole the metric is flat to first order: Lap u(0) = u_xx + u_yy = -5
            errors.append(max(abs(lap.pole + 5.0), np.max(np.abs(lap.values[:-1] - exact[:-1]))))
        assert 1.7 <= -estimates.fit_log_slope(ns, np.log(errors)) <= 2.3

    def test_linearity(self):
        g = flat_grid(16, 24)
        gfield = pde.constant_field(g, 1.0)
        f1 = pde.field_from_function(g, lambda x, y: np.exp(-4 * (x - 0.2) ** 2 - 4 * y**2))
        f2 = pde.constant_field(g, -1.0)
        b = np.cos(g.theta_nodes)
        u1, _ = pde.solve_dirichlet(g, gfield, f1, b, tol=1e-12)
        u2, _ = pde.solve_dirichlet(g, gfield, f2, 0.0, tol=1e-12)
        f12 = pde.DiscreteField(g, f1.values + f2.values, f1.pole + f2.pole)
        u12, _ = pde.solve_dirichlet(g, gfield, f12, b, tol=1e-12)
        assert np.max(np.abs(u12.values - u1.values - u2.values)) < 1e-8

    def test_maximum_principle(self):
        g = flat_grid(16, 16)
        f = pde.field_from_function(g, lambda x, y: -np.exp(-8 * x**2 - 8 * y**2))
        gfield = pde.constant_field(g, 2.0)
        u, rep = pde.solve_dirichlet(g, gfield, f, np.zeros(16))
        assert rep.converged
        assert u.min_max()[0] >= -1e-10

    def test_nonconvergence_surfaced(self):
        # the recursive residual meets 1e-17 at iteration 41, the true one (1.2e-14) does not
        g = flat_grid(16, 16)
        _, rep = pde.solve_dirichlet(g, None, pde.constant_field(g, -4.0),
                                     np.zeros(16), tol=1e-17)
        assert not rep.converged
        assert rep.residual > 0

    def test_cg_breakdown_returns_last_finite_iterate(self):
        # at tol 1e-300 r.z and p.Ap underflow to 0 before the recursive residual
        # meets the tolerance; the next CG step would divide 0 by 0
        g = flat_grid(16, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, rep = pde.solve_dirichlet(g, None, pde.constant_field(g, -4.0),
                                         np.zeros(16), tol=1e-300)
        assert np.all(np.isfinite(u.values)) and np.isfinite(u.pole)
        assert not rep.converged and np.isfinite(rep.residual)

    def test_report_times(self):
        # set-up (assembly, preconditioner) and Krylov loop are timed apart on both paths
        g = flat_grid(16, 16)
        f = pde.constant_field(g, -4.0)
        for gfield in (None, pde.constant_field(g, -1.0)):
            rep = pde.solve_dirichlet(g, gfield, f, 0.0)[1]
            assert np.isfinite(rep.setup_s) and rep.setup_s >= 0
            assert np.isfinite(rep.solve_s) and rep.solve_s >= 0

    def test_indefinite_g_uses_fallback(self):
        g = flat_grid(16, 16)
        gfield = pde.constant_field(g, -1.0)  # still coercive: below lambda_1
        u, rep = pde.solve_dirichlet(g, gfield, pde.constant_field(g, -4.0), np.zeros(16))
        assert rep.converged
        assert u.min_max()[0] >= -1e-10


class TestCG:
    """pde.cg makes scipy's CG operations in scipy's order, so x, the exit
    code and the iteration count are bitwise those of scipy's cg with the
    Jacobi operator."""

    @staticmethod
    def _both(A, b, maxiter):
        from scipy.sparse.linalg import LinearOperator, cg

        inv = 1.0 / A.diagonal()
        jacobi = LinearOperator(A.shape, matvec=lambda x: inv * x.ravel(), dtype=float)
        out = []
        for solver, M in ((cg, jacobi), (pde.cg, inv)):
            calls = []
            x, info = solver(A, b, rtol=1e-10, maxiter=maxiter, M=M,
                             callback=calls.append)
            out.append((x, info, len(calls)))
        return out

    @pytest.mark.parametrize("case", [
        estimates.random_interior_case(0, 32, 48, "flat"),
        estimates.random_interior_case(1, 32, 48, "perturbed:0.05"),
        estimates.ExperimentCase(  # the benchmark's sep shape: flat, g = 0
            n_r=64, n_theta=96,
            f={"kind": "random_bumps", "count": 3, "amp": (0.5, 3.0), "k": (2, 8),
               "center_r_max": 0.6, "sign": "any", "seed": 7920},
            boundary={"kind": "fourier", "seed": 7922, "modes": 3, "amp": 0.5, "offset": 0.3}),
    ], ids=["corpus-flat", "corpus-perturbed", "sep-64x96"])
    def test_bitwise_scipy(self, case):
        sol = estimates.solve_case(case)
        A, rhs = pde.assemble_system(sol.grid, sol.g, sol.f, sol.u.values[-1])
        (x0, info0, n0), (x1, info1, n1) = self._both(A, rhs, 5000)
        assert info0 == info1 == 0 and n0 == n1 > 0
        assert np.array_equal(x0, x1)

    def test_zero_rhs(self):
        g = flat_grid(16, 16)
        A, _ = pde.assemble_system(g, None, pde.constant_field(g, 0.0), np.zeros(16))
        (x0, info0, n0), (x1, info1, n1) = self._both(A, np.zeros(A.shape[0]), 100)
        assert info0 == info1 == 0 and n0 == n1 == 0
        assert np.array_equal(x0, x1) and not x1.any()

    def test_iterations_run_out(self):
        g = flat_grid(16, 16)
        A, rhs = pde.assemble_system(g, None, pde.constant_field(g, -4.0), np.zeros(16))
        (x0, info0, n0), (x1, info1, n1) = self._both(A, rhs, 5)
        assert info0 == info1 == 5 and n0 == n1 == 5
        assert np.array_equal(x0, x1)

    def test_report_names_solver(self):
        g = flat_grid(16, 16)
        f = pde.constant_field(g, -4.0)
        assert pde.solve_dirichlet(g, None, f, 0.0)[1].solver == "cg"
        assert pde.solve_dirichlet(g, pde.constant_field(g, 1.0), f, 0.0)[1].solver == "cg"
        assert pde.solve_dirichlet(g, pde.constant_field(g, -1.0), f, 0.0)[1].solver == "bicgstab"


class TestModePreconditioner:
    """The indefinite path: BiCGStab with the exact inverse of the
    theta-averaged operator."""

    @pytest.mark.parametrize("metric", ["flat", "sphere", "hyperbolic"])
    @pytest.mark.parametrize("gfun", [lambda x, y: -3.0 + 0 * x,
                                      lambda x, y: 2.0 - 9.0 * (x**2 + y**2)],
                             ids=["constant", "radial"])
    def test_exact_inverse_for_radial_data(self, metric, gfun):
        # a radial metric with radial g has theta-independent couplings, so
        # the theta-averaged operator is A and the preconditioner inverts it;
        # an odd n_theta has no Nyquist mode
        for n_r, n_theta in ((16, 24), (17, 9)):
            grid = pde.PolarGrid(surface.from_name(metric), n_r, n_theta, 1.0)
            g = pde.field_from_function(grid, gfun)
            A, _ = pde.assemble_system(grid, g, pde.constant_field(grid, 0.0), np.zeros(n_theta))
            x = np.random.default_rng(3).normal(size=A.shape[0])
            got = pde.mode_preconditioner(g).matvec(A @ x)
            assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))

    def test_matches_direct_solve(self):
        # a source and a sink in g on opposite sides of the pole, as in the
        # benchmark's indef rungs: any x with ||A x - b|| <= tol ||b|| is within
        # ||A^-1||_inf tol ||b|| of the exact solution in the max norm
        from scipy.sparse.linalg import LinearOperator, onenormest, splu

        tol = 1e-10
        bumps = [{"amp": 2.5, "k": 5.0, "center": (0.4, 0.1)},
                 {"amp": -2.5, "k": 5.0, "center": (-0.4, -0.1)}]
        case = estimates.ExperimentCase(
            metric="hyperbolic", n_r=64, n_theta=64, g={"kind": "bumps", "bumps": bumps},
            f={"kind": "random_bumps", "count": 3, "amp": (0.5, 3.0), "k": (2, 8),
               "center_r_max": 0.6, "sign": "any", "seed": 1},
            boundary={"kind": "fourier", "seed": 3, "modes": 3, "amp": 0.5, "offset": 0.3})
        sol = estimates.solve_case(case, tol=tol)
        assert sol.g.values.min() < 0 < sol.g.values.max()
        assert sol.report.converged and sol.report.iterations <= 10
        A, rhs = pde.assemble_system(sol.grid, sol.g, sol.f, sol.u.values[-1])
        lu = splu(A.tocsc())
        n = A.shape[0]
        inv_norm = onenormest(LinearOperator((n, n), matvec=lambda v: lu.solve(v, trans="T"),
                                             rmatvec=lu.solve, dtype=float))
        x = np.concatenate([[sol.u.pole], sol.u.values[:-1].ravel()])
        assert np.max(np.abs(x - lu.solve(rhs))) <= inv_norm * tol * np.linalg.norm(rhs)

    def test_constant_g_sweep_to_past_resonance(self):
        # g from -60 (far past the first Dirichlet eigenvalue, about 5.8) to
        # -0.5 on every metric: finite answers, and converged exactly when the
        # recomputed residual meets the tolerance
        for metric in ("flat", "sphere", "hyperbolic", "perturbed:0.05"):
            grid = pde.PolarGrid(surface.from_name(metric), 16, 24, 1.0)
            f = pde.field_from_function(grid, lambda x, y: np.exp(x) - y)
            for value in np.linspace(-60.0, -0.5, 60):
                u, rep = pde.solve_dirichlet(grid, pde.constant_field(grid, value), f,
                                             np.cos(grid.theta_nodes), tol=1e-10)
                assert np.all(np.isfinite(u.values)) and np.isfinite(u.pole)
                assert rep.converged == (rep.residual <= 1e-10)

    def test_zero_pivot_is_one_line_error(self, monkeypatch):
        # an exactly singular theta-averaged operator (dgttrf info > 0) ends
        # the solve with a one-line ValueError before any division by zero
        factor = pde.dgttrf
        monkeypatch.setattr(pde, "dgttrf", lambda *args: (*factor(*args)[:-1], 3))
        grid = flat_grid(16, 24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular") as exc:
                pde.solve_dirichlet(grid, pde.constant_field(grid, -1.0),
                                    pde.constant_field(grid, -4.0), 0.0)
        assert "\n" not in str(exc.value)

    def test_near_resonance_not_converged(self):
        # g = -5.783185 is past the discrete first Dirichlet eigenvalue
        # (5.78239 at 64x96): the solve must not claim a residual it missed
        grid = flat_grid(64, 96)
        u, rep = pde.solve_dirichlet(grid, pde.constant_field(grid, -5.783185),
                                     pde.constant_field(grid, -4.0), 0.0, tol=1e-10)
        assert np.all(np.isfinite(u.values)) and np.isfinite(u.pole)
        assert rep.residual > 1e-10
        assert not rep.converged


def _coo_assemble(grid, g, f, boundary):
    """The COO construction that CSR assembly must reproduce bitwise: each
    off-diagonal coupling once as (lo, hi, value), mirrored, then converted."""
    geo = pde.geometry(grid)
    a, b, w, pv = geo.a, geo.b, geo.weights, geo.pole_volume
    n_t = grid.n_theta
    N = 1 + (grid.n_r - 1) * n_t
    ids = np.arange(1, N, dtype=np.int32).reshape(grid.n_r - 1, n_t)
    gw = 0.0 if g is None else g.values[:-1] * w[:-1]
    gp = 0.0 if g is None else g.pole
    diag = np.concatenate([[a[0].sum() + gp * pv],
                           (a[:-1] + a[1:] + b[:-1] + np.roll(b[:-1], 1, axis=1) + gw).ravel()])
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


class TestAssembly:
    @pytest.mark.parametrize("shape", [(8, 8), (16, 24), (17, 9), (64, 96)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("with_g", [False, True], ids=["g=None", "g=field"])
    @pytest.mark.parametrize("metric", ["flat", "sphere", "hyperbolic", "perturbed:0.05"])
    def test_csr_bitwise_coo(self, metric, with_g, shape):
        n_r, n_theta = shape
        grid = pde.PolarGrid(surface.from_name(metric), n_r, n_theta, 1.0)
        rng = np.random.default_rng(n_r * n_theta)
        f = pde.DiscreteField(grid, rng.normal(size=shape), 0.3)
        g = pde.DiscreteField(grid, rng.normal(size=shape), -0.7) if with_g else None
        boundary = rng.normal(size=n_theta)
        want, want_rhs = _coo_assemble(grid, g, f, boundary)
        got, got_rhs = pde.assemble_system(grid, g, f, boundary)
        assert got.indptr.dtype == got.indices.dtype == want.indices.dtype == np.int32
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got_rhs, want_rhs)
        assert got.has_sorted_indices and want.has_sorted_indices

    def test_rows_match_operator(self):
        # A x - rhs is the measure-scaled residual w (-Lap u + g u + f) of the
        # stencil apply, row by row, with the boundary ring set to the data
        grid = pde.PolarGrid(surface.from_name("perturbed:0.1"), 16, 24, 1.0)
        rng = np.random.default_rng(5)
        u = pde.DiscreteField(grid, rng.normal(size=(16, 24)), 0.7)
        g = pde.field_from_function(grid, lambda x, y: 2.0 + np.cos(3 * x) * y)
        f = pde.field_from_function(grid, lambda x, y: np.exp(x) - y**2)
        th = grid.theta_nodes
        u.values[-1] = 0.3 + 0.5 * np.cos(th) - 0.2 * np.sin(2 * th)
        A, rhs = pde.assemble_system(grid, g, f, u.values[-1])
        got = A @ np.concatenate([[u.pole], u.values[:-1].ravel()]) - rhs
        lap = pde.laplace_beltrami_apply(u)
        w = grid.metric.G(*grid.mesh()) * grid.dr * grid.dtheta
        want = np.concatenate([
            [grid.pole_volume * (-lap.pole + g.pole * u.pole + f.pole)],
            (w * (-lap.values + g.values * u.values + f.values))[:-1].ravel()])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_geometry_cache(self):
        # equal built-in specs are one grid value and share one record
        g1, g2 = (pde.PolarGrid(surface.from_name("perturbed:0.05"), 16, 24, 1.0)
                  for _ in range(2))
        assert g1 == g2 and hash(g1) == hash(g2)
        assert pde.geometry(g1) is pde.geometry(g2)
        with pytest.raises(ValueError, match="read-only"):
            g1.node_weights()[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g1.mesh()[0][0, 0] = 1.0


class TestNorms:
    def test_gradient_quadratic(self):
        g = flat_grid(128, 32)
        R, _ = g.mesh()
        u = pde.DiscreteField(g, 1 - R**2, 1.0)
        assert pde.gradient_l2(u) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-3)

    def test_gradient_linear_mode(self):
        g = flat_grid(128, 256)
        R, T = g.mesh()
        u = pde.DiscreteField(g, R * np.cos(T), 0.0)
        assert pde.gradient_l2(u) == pytest.approx(np.sqrt(np.pi), rel=2e-2)

    def test_gradient_constant_zero(self):
        g = flat_grid(16, 16)
        assert pde.gradient_l2(pde.constant_field(g, 3.0)) == 0.0

    def test_lq_norm_constant(self):
        g = flat_grid(64, 64)
        u = pde.constant_field(g, 2.0)
        assert pde.lq_norm(u, 2.0) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-4)

    def test_field_norms(self):
        g = flat_grid(64, 64)
        u = pde.constant_field(g, -3.0)
        assert u.sup_norm() == 3.0
        assert u.sup_norm(0.5) == 3.0
        assert u.l1_norm() == pytest.approx(3 * np.pi, rel=1e-4)
        samples = u.as_samples(0.5)
        assert isinstance(samples, WeightedSamples)
        # node-centered cells: the mask at rho captures measure pi (rho + dr/2)^2
        assert samples.total_measure == pytest.approx(np.pi * (0.5 + u.grid.dr / 2) ** 2,
                                                      rel=1e-3)


class TestLogPotential:
    def _disk_samples(self, n=200):
        # midpoint polar cells of the unit disk
        return surface.sample_ball(surface.flat(), 1.0, n, 64)

    def test_center_value(self):
        # (1/2pi) int_{B_1} ln|y| dy = -1/4
        f = self._disk_samples()
        u0 = pde.log_potential(f, [(0.0, 0.0)])[0]
        assert u0 == pytest.approx(-0.25, abs=1e-4)

    def test_exterior_value(self):
        # outside the support the source acts like a point mass pi at 0
        f = self._disk_samples()
        u = pde.log_potential(f, [(2.0, 0.0)])[0]
        assert u == pytest.approx(0.5 * np.log(2.0), rel=1e-6)

    def test_zero_source(self):
        f = WeightedSamples([0.0, 0.0], [1.0, 1.0], [[0.0, 0.0], [0.5, 0.0]])
        assert pde.log_potential(f, [(0.3, 0.2)])[0] == 0.0

    @staticmethod
    def _brute(f, p):
        # the midpoint rule term by term, with the equal-area disk integral on
        # every cell that contains p
        total = []
        for v, w, (x, y) in zip(f.values, f.measures, f.positions):
            d, r = np.hypot(x - p[0], y - p[1]), np.sqrt(w / np.pi)
            total.append(v * w * (np.log(r) - 0.5 if d < r else np.log(d)))
        return math.fsum(total) / (2 * np.pi)

    def _random_cells(self, seed=3, n=400):
        rng = np.random.default_rng(seed)
        return WeightedSamples(rng.normal(size=n), rng.uniform(1e-4, 4e-3, size=n),
                               rng.uniform(-1.0, 1.0, size=(n, 2)))

    def test_outside_every_cell_matches_brute_force(self):
        f = self._random_cells()
        p = (1.5, -0.25)
        assert pde.log_potential(f, [p])[0] == pytest.approx(self._brute(f, p), rel=1e-14,
                                                             abs=0.0)

    def test_inside_a_cell_takes_singular_correction(self):
        f = self._random_cells()
        p = tuple(f.positions[7])
        u = pde.log_potential(f, [p])[0]
        assert u == pytest.approx(self._brute(f, p), rel=1e-14, abs=0.0)

    def test_green_consistency(self):
        # Dirichlet solve with boundary data from the potential reproduces it
        g = flat_grid(64, 64)
        f = pde.field_from_function(g, lambda x, y: np.exp(-8 * (x**2 + y**2)))
        fs = f.as_samples()
        boundary_pts = np.stack([np.cos(g.theta_nodes), np.sin(g.theta_nodes)], axis=-1)
        b = pde.log_potential(fs, boundary_pts)
        u, rep = pde.solve_dirichlet(g, None, f, b, tol=1e-11)
        assert rep.converged
        u0 = pde.log_potential(fs, [(0.0, 0.0)])[0]
        assert u.pole == pytest.approx(u0, abs=5e-3)


class TestConvergenceOrder:
    def test_clean_second_order(self):
        errs = [1.0, 0.25, 0.0625]
        assert -estimates.fit_log_slope([32, 64, 128], np.log(errs)) == pytest.approx(2.0)

    def test_too_few_resolutions(self):
        with pytest.raises(ValueError, match="at least 3"):
            estimates.manufactured_convergence("flat", [32, 64])

    def test_non_increasing_resolutions(self):
        with pytest.raises(ValueError, match="must increase"):
            estimates.manufactured_convergence("flat", [32, 32, 64])
