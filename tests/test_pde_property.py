"""Metamorphic properties of the discrete Dirichlet problem: exact symmetries
that need no reference solution, over random metrics, grids and data."""
import numpy as np
import pytest
from scipy import sparse

from poissonlab import estimates, pde, surface

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_sides = st.integers(8, 24)
_seeds = st.integers(0, 2**32 - 1)


def _grid(metric, n_r, n_theta):
    return pde.PolarGrid(surface.from_name(metric), n_r, n_theta, 1.0)


def _field(grid, rng, scale=1.0, shift=0.0):
    return pde.DiscreteField(grid, shift + scale * rng.uniform(-1, 1, (grid.n_r, grid.n_theta)),
                             shift + scale * rng.uniform(-1, 1))


def _indefinite_g(grid, rng):
    """g with both signs and |g| <= 3, below the first Dirichlet eigenvalue
    of every metric here, with a negative pole so the BiCGStab path runs."""
    g = _field(grid, rng, scale=3.0)
    g.pole = -abs(g.pole) - 0.1
    return g


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["flat", "sphere", "hyperbolic", "perturbed:0.05"]), _sides, _sides,
       _seeds)
def test_operator_symmetric_and_monotone(metric, n_r, n_theta, seed):
    # A = A^T exactly; for g >= 0 it is a diagonally dominant M-matrix
    # (the discrete maximum principle)
    grid = _grid(metric, n_r, n_theta)
    rng = np.random.default_rng(seed)
    g = _field(grid, rng, scale=2.0, shift=2.0)
    A, _ = pde.assemble_system(grid, g, pde.constant_field(grid, 0.0), np.zeros(n_theta))
    assert (A - A.T).nnz == 0
    off = A - sparse.diags(A.diagonal())
    assert off.max() <= 0
    assert np.all(A.diagonal() >= np.asarray(abs(off).sum(axis=1)).ravel())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["flat", "sphere", "hyperbolic", "perturbed:0.05"]), _sides, _sides,
       _seeds)
def test_indefinite_solution_linear_in_data(metric, n_r, n_theta, seed):
    grid = _grid(metric, n_r, n_theta)
    rng = np.random.default_rng(seed)
    g = _indefinite_g(grid, rng)
    f1, f2 = _field(grid, rng), _field(grid, rng)
    b1, b2 = rng.uniform(-1, 1, n_theta), rng.uniform(-1, 1, n_theta)
    u1, _ = pde.solve_dirichlet(grid, g, f1, b1, tol=1e-12)
    u2, _ = pde.solve_dirichlet(grid, g, f2, b2, tol=1e-12)
    f12 = pde.DiscreteField(grid, f1.values + f2.values, f1.pole + f2.pole)
    u12, _ = pde.solve_dirichlet(grid, g, f12, b1 + b2, tol=1e-12)
    assert np.max(np.abs(u12.values - u1.values - u2.values)) <= 1e-8
    assert abs(u12.pole - u1.pole - u2.pole) <= 1e-8


def _assert_theta_symmetry(grid, g, f, b, perm, solver):
    """Moving g, f and the boundary data to theta-index perm[j] at j moves u
    alike, to 1e-9 of sup|u|, on the named Krylov path."""
    def move(fld):
        return pde.DiscreteField(grid, fld.values[:, perm], fld.pole)

    u, rep = pde.solve_dirichlet(grid, g, f, b, tol=1e-12)
    v, _ = pde.solve_dirichlet(grid, move(g), move(f), b[perm], tol=1e-12)
    assert rep.solver == solver
    scale = u.sup_norm()
    assert np.max(np.abs(v.values - u.values[:, perm])) <= 1e-9 * scale
    assert abs(v.pole - u.pole) <= 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["sphere", "hyperbolic"]), _sides, _sides, _seeds,
       st.integers(1, 23))
def test_indefinite_solution_rotates_with_data(metric, n_r, n_theta, seed, shift):
    # on a radial metric a rotation by whole theta-cells is a symmetry
    grid = _grid(metric, n_r, n_theta)
    rng = np.random.default_rng(seed)
    g, f = _indefinite_g(grid, rng), _field(grid, rng)
    _assert_theta_symmetry(grid, g, f, rng.uniform(-1, 1, n_theta),
                           (np.arange(n_theta) - shift) % n_theta, "bicgstab")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["flat", "sphere", "hyperbolic"]), _sides, _sides, _seeds,
       st.integers(1, 23))
def test_nonnegative_solution_rotates_with_data(metric, n_r, n_theta, seed, shift):
    # the same rotation on the CG path (g >= 0)
    grid = _grid(metric, n_r, n_theta)
    rng = np.random.default_rng(seed)
    g, f = _field(grid, rng, scale=2.0, shift=2.0), _field(grid, rng)
    _assert_theta_symmetry(grid, g, f, rng.uniform(-1, 1, n_theta),
                           (np.arange(n_theta) - shift) % n_theta, "cg")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["flat", "sphere", "hyperbolic", "perturbed:0.05"]), _sides, _sides,
       _seeds, st.booleans())
def test_solution_reflects_with_data(metric, n_r, n_theta, seed, indefinite):
    # theta -> -theta maps node j to node -j and face j + 1/2 to face -j - 1/2;
    # it is a symmetry of the radial metrics and of Perturbed, whose G is even
    # in theta (its face couplings agree to rounding), on both Krylov paths
    grid = _grid(metric, n_r, n_theta)
    rng = np.random.default_rng(seed)
    g = _indefinite_g(grid, rng) if indefinite else _field(grid, rng, scale=2.0, shift=2.0)
    _assert_theta_symmetry(grid, g, _field(grid, rng), rng.uniform(-1, 1, n_theta),
                           -np.arange(n_theta) % n_theta, "bicgstab" if indefinite else "cg")


_bumps = st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(2.0, 8.0), st.floats(-0.6, 0.6),
                            st.floats(-0.6, 0.6)), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(_sides, _sides, _bumps, _bumps, _seeds)
def test_flat_solution_invariant_under_dilation(n_r, n_theta, f_bumps, g_bumps, seed):
    # on the flat metric B_1 and B_{1/2} have the same couplings a and b and
    # weights scaled by 1/4; halving the centres, doubling k and scaling the
    # amplitudes by 4 rescales f and g by 4, so every rounded operation
    # repeats and u and the CG iteration count are bitwise the same
    def case(rho, f_sign):
        def spec(bumps, sign):
            return {"kind": "bumps", "bumps": [
                {"amp": sign * amp / rho**2, "k": k / rho, "center": (rho * cx, rho * cy)}
                for amp, k, cx, cy in bumps]}

        return estimates.ExperimentCase(
            n_r=n_r, n_theta=n_theta, r_max=rho, R_outer=rho, R_inner=rho / 2,
            f=spec(f_bumps, f_sign), g=spec(g_bumps, 1.0),
            boundary={"kind": "fourier", "seed": seed, "amp": 0.5, "offset": 0.3})

    f_sign = 1.0 if seed % 2 else -1.0
    one, half = estimates.solve_case(case(1.0, f_sign)), estimates.solve_case(case(0.5, f_sign))
    assert one.report.solver == half.report.solver == "cg"
    assert np.array_equal(one.u.values, half.u.values) and one.u.pole == half.u.pole
    assert one.report.iterations == half.report.iterations
