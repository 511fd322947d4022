"""Unit tests for the inequality harnesses and the counterexample family."""
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from poissonlab import estimates, pde, surface
from poissonlab.rearrange import StepProfile, WeightedSamples, atom_check, zygmund_norm


class TestBump:
    def test_plateau(self):
        assert estimates.eta_radial(np.hypot(0.0, 0.0)) == 1.0
        assert estimates.eta_radial(np.hypot(0.5, 0.5)) == 1.0

    def test_outside(self):
        assert estimates.eta_radial(np.hypot(2.5, 0.0)) == 0.0

    def test_midpoint_symmetry(self):
        assert estimates.eta_radial(np.hypot(1.5, 0.0)) == pytest.approx(0.5, abs=1e-14)

    def test_smooth_range(self):
        s = np.linspace(0, 3, 301)
        vals = estimates.eta_radial(s)
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) <= 1e-14)  # non-increasing in |x|

    def test_band_only(self):
        # exact 1 and 0 off the band (1, 2), the smoothstep on it, NaN kept
        s = np.array([0.0, 1.0, 1.25, 1.5, 1.999, 2.0, 7.0, np.nan])
        vals = estimates.eta_radial(s)
        assert np.array_equal(vals[:2], [1.0, 1.0]) and np.array_equal(vals[5:7], [0.0, 0.0])
        assert np.array_equal(vals[2:5], estimates.smoothstep(2.0 - s[2:5]))
        assert np.isnan(vals[-1])

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5, np.nan])
    def test_scalar_gives_0d_array(self, s):
        out = estimates.eta_radial(s)
        assert isinstance(out, np.ndarray) and out.ndim == 0
        assert np.array_equal(out, estimates.eta_radial([s])[0], equal_nan=True)


class TestExperimentCase:
    def test_json_roundtrip(self):
        case = estimates.ExperimentCase(metric="sphere", n_r=16, n_theta=16,
                                        f={"kind": "constant", "value": 2.0}, seed=3)
        again = estimates.ExperimentCase.from_dict(asdict(case))
        assert again == case

    def test_invalid_radii(self):
        with pytest.raises(ValueError, match="R_inner < R_outer"):
            estimates.ExperimentCase(R_inner=1.0, R_outer=0.5)

    def test_unknown_field_kind(self):
        grid = pde.PolarGrid(surface.flat(), 16, 16, 1.0)
        with pytest.raises(ValueError, match="unknown field kind"):
            estimates.resolve_field(grid, {"kind": "mystery"}, 0)

    def test_random_fields_seeded(self):
        grid = pde.PolarGrid(surface.flat(), 16, 16, 1.0)
        spec = {"kind": "random_bumps", "count": 2, "seed": 5}
        a = estimates.resolve_field(grid, spec, 0)
        b = estimates.resolve_field(grid, spec, 0)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("field", ["f", "g"])
    @pytest.mark.parametrize("bad", [{"k": np.nan}, {"amp": np.nan}, {"center": (np.nan, 0.0)},
                                     {"center": (0.2, np.nan)}],
                             ids=["k", "amp", "center-x", "center-y"])
    def test_nan_bump_rejected(self, field, bad):
        # a NaN in a bump reaches the field as NaN, which the solver rejects
        bump = dict({"amp": 1.0, "k": 4.0, "center": (0.2, 0.1)}, **bad)
        case = estimates.ExperimentCase(n_r=16, n_theta=16,
                                        **{field: {"kind": "bumps", "bumps": [bump]}})
        with pytest.raises(ValueError, match="must be finite"):
            estimates.solve_case(case)

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "constant"}, "value"),
        ({"kind": "constant", "value": "1"}, "value"),
        ({"kind": "bumps"}, "bumps"),
        ({"kind": "bumps", "bumps": {"k": 4}}, "bumps"),
        ({"kind": "bumps", "bumps": [{"amp": 1.0}]}, "k"),
        ({"kind": "bumps", "bumps": [{"amp": 1.0, "k": "4"}]}, "k"),
        ({"kind": "bumps", "bumps": [{"k": 4.0}]}, "amp"),
        ({"kind": "bumps", "bumps": [{"amp": True, "k": 4.0}]}, "amp"),
        ({"kind": "bumps", "bumps": [{"amp": 1.0, "k": 4.0, "center": [0.1]}]}, "center"),
        ({"kind": "bumps", "bumps": [{"amp": 1.0, "k": 4.0, "center": 0.1}]}, "center"),
        ({"kind": "random_bumps", "count": "3"}, "count"),
        ({"kind": "random_bumps", "count": 2.0}, "count"),
        ({"kind": "random_bumps", "count": -3}, "count"),
        ({"kind": "random_bumps", "seed": "5"}, "seed"),
        ({"kind": "random_bumps", "sign": "positive"}, "sign"),
        ({"kind": "random_bumps", "amp": [0.0, float("nan")]}, "amp"),
        ({"kind": "random_bumps", "k": [2, float("inf")]}, "k"),
        ({"kind": "random_bumps", "center_r_max": "0.5"}, "center_r_max"),
        ({"kind": "constant", "value": 1.0, "support_radius": "1"}, "support_radius"),
    ])
    def test_malformed_field_spec_names_key(self, spec, key):
        grid = pde.PolarGrid(surface.flat(), 16, 16, 1.0)
        with pytest.raises(ValueError, match=f"'{key}'"):
            estimates.resolve_field(grid, spec, 0)

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "constant"}, "value"),
        ({"kind": "constant", "value": [1.0]}, "value"),
        ({"kind": "fourier", "modes": 2.5}, "modes"),
        ({"kind": "fourier", "modes": "3"}, "modes"),
        ({"kind": "fourier", "modes": -2}, "modes"),
        ({"kind": "fourier", "amp": "1"}, "amp"),
        ({"kind": "fourier", "offset": None}, "offset"),
        ({"kind": "fourier", "seed": 1.5}, "seed"),
    ])
    def test_malformed_boundary_spec_names_key(self, spec, key):
        grid = pde.PolarGrid(surface.flat(), 16, 16, 1.0)
        with pytest.raises(ValueError, match=f"'{key}'"):
            estimates.resolve_boundary(grid, spec, 0)

    def test_fourier_modes_end_at_nyquist(self):
        # mode n_theta / 2 is the last one the grid resolves; higher ones alias
        grid = pde.PolarGrid(surface.flat(), 16, 16, 1.0)
        assert np.all(np.isfinite(estimates.resolve_boundary(grid, {"kind": "fourier",
                                                                    "modes": 8}, 0)))
        with pytest.raises(ValueError, match="'modes': 9 exceeds n_theta // 2 = 8"):
            estimates.resolve_boundary(grid, {"kind": "fourier", "modes": 9}, 0)

    def test_support_restriction(self):
        grid = pde.PolarGrid(surface.flat(), 16, 16, 2.0)
        f = estimates.resolve_field(grid, {"kind": "constant", "value": 1.0,
                                           "support_radius": 1.0}, 0)
        assert np.all(f.values[grid.r_nodes > 1.0 + 1e-9] == 0.0)
        assert f.pole == 1.0


class TestMoser:
    def test_pure_b(self):
        assert estimates.moser_resolve(0.0, 1.0, 0.25) == pytest.approx(8 / 7, rel=1e-14)

    def test_pure_a(self):
        assert estimates.moser_resolve(1.0, 0.0, 0.25) == pytest.approx(2048.0, rel=1e-14)

    def test_fixed_point_dominated(self):
        # constant omega == 8b/7 solves omega = b + omega/8 and sits below the bound
        b = 3.0
        omega = 8 * b / 7
        assert omega <= estimates.moser_resolve(0.0, b, 0.3) * (1 + 1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError, match="rho0"):
            estimates.moser_resolve(1.0, 1.0, 0.7)
        with pytest.raises(ValueError, match="nonnegative"):
            estimates.moser_resolve(-1.0, 1.0, 0.25)
        with pytest.raises(ValueError, match="nonnegative"):
            estimates.moser_resolve(float("nan"), 1.0, 0.25)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a, b = rng.uniform(0, 5, 2)
            rho0 = rng.uniform(0.05, 0.45)
            total, i = 0.0, 1
            while True:
                term = 8.0 ** (1 - i) * (4.0 ** (i + 2) * a / rho0**2 + b)
                total += term
                i += 1
                if term < 1e-18 * max(total, 1.0):
                    break
            assert estimates.moser_resolve(a, b, rho0) == pytest.approx(total, rel=1e-12)


class TestCounterexample:
    def test_low_k_rejected(self):
        with pytest.raises(ValueError, match="k > 10"):
            estimates.counterexample_family(8, 384)

    def test_exact_zero_mean(self):
        run = estimates.counterexample_family(64, n_local=128)
        assert run.mean == 0.0

    def test_growth_and_atom_stability(self):
        runs = [estimates.counterexample_family(k, n_local=128) for k in (16, 32, 64)]
        zygs = [r.zygmund for r in runs]
        assert zygs[0] < zygs[1] < zygs[2]
        sizes = [r.size_bound_minimal for r in runs]
        assert max(sizes) / min(sizes) < 1.0 + 1e-9  # k-independent by scaling
        u0s = [r.u0_raw for r in runs]
        assert u0s[0] < u0s[1] < u0s[2]

    def test_convention_factor(self):
        run = estimates.counterexample_family(32, n_local=128)
        assert run.u0_raw == pytest.approx(2 * np.pi * abs(run.u0_standard), rel=1e-12)

    def test_support_radius_scales(self):
        r16 = estimates.counterexample_family(16, n_local=128)
        r64 = estimates.counterexample_family(64, n_local=128)
        assert r16.atom_in_6k.min_radius * 16 == pytest.approx(r64.atom_in_6k.min_radius * 64,
                                                              rel=1e-12)
        # the support reaches past the 6/k ball of the nominal atom statement
        assert not r64.atom_in_6k.support_ok


class TestCounterexampleCells:
    # reference fields at n_local=128 from a per-k grid in grid order; the
    # family's scaling law in ln k reproduces them to roundoff
    PINNED = {
        16: dict(zygmund=71.61281349614029, l1=14.306302186047994, mean=0.0,
                 min_radius=0.47801113393417843, size_bound_minimal=183.76629644633616,
                 inner_lower_bound=1.6387782952315526,
                 u0_raw=3.7186398841860138, u0_standard=-0.5918399191468773),
        64: dict(zygmund=111.27830559413128, l1=14.306302186047994, mean=0.0,
                 min_radius=0.11950278348354461, size_bound_minimal=183.76629644633616,
                 inner_lower_bound=3.823816477699818,
                 u0_raw=8.676826396434887, u0_standard=-1.3809598113428498),
    }

    @pytest.mark.parametrize("k", [16, 64])
    def test_pinned_fields(self, k):
        run = estimates.counterexample_family(k, n_local=128)
        want = self.PINNED[k]
        for name in ("zygmund", "l1", "mean", "size_bound_minimal", "inner_lower_bound"):
            assert getattr(run, name) == pytest.approx(want[name], rel=1e-12, abs=0.0), name
        assert run.atom_in_6k.min_radius == pytest.approx(want["min_radius"], rel=1e-12, abs=0.0)
        for name in ("u0_raw", "u0_standard"):
            assert getattr(run, name) == pytest.approx(want[name], rel=1e-14, abs=0.0), name

    @staticmethod
    def _full_samples(k, n_local, weight=1.0):
        # the two-bump source on all of its support cells in grid order, the
        # first bump, then the second (its negation) scaled by weight; and
        # the core |z| < 1 of the first
        h = 4.0 / n_local
        c = -2.0 + h * (np.arange(n_local) + 0.5)
        X, Y = np.meshgrid(c, c, indexing="ij")
        z = np.stack([X.ravel(), Y.ravel()], axis=-1)
        ev = estimates.eta_radial(np.hypot(z[:, 0], z[:, 1]))
        z, ev = z[ev > 0.0], ev[ev > 0.0]
        near = np.array([4.0 / k, 4.0 / k]) + z / k
        full = WeightedSamples(np.concatenate([k**2 * ev, -weight * k**2 * ev]),
                               np.full(2 * ev.size, (h / k) ** 2),
                               np.concatenate([near, -near]))
        return full, np.hypot(z[:, 0], z[:, 1]) < 1.0

    @staticmethod
    def _assert_atom_matches(run, want):
        got = run.atom_in_6k
        assert got.support_ok is want.support_ok
        for name in ("size_bound", "min_radius"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0), name
        # atom_check's mean is a cancelling sum: 1e-12 relative to the atom's mass
        assert got.mean == pytest.approx(want.mean, rel=0.0, abs=1e-12 * run.l1)
        (gc, gr), (wc, wr) = got.ball, want.ball
        assert [float(x).hex() for x in (*gc, gr)] == [float(x).hex() for x in (*wc, wr)]

    @pytest.mark.parametrize("k", [16, 64])
    def test_atom_matches_full_check(self, k):
        run = estimates.counterexample_family(k, n_local=128)
        self._assert_atom_matches(run, atom_check(self._full_samples(k, 128)[0],
                                                  ((0.0, 0.0), 6.0 / k)))

    @pytest.mark.parametrize("k", [16, 64])
    def test_norms_match_full_samples(self, k):
        run = estimates.counterexample_family(k, n_local=128)
        full, _ = self._full_samples(k, 128)
        assert run.zygmund == pytest.approx(zygmund_norm(full, np.pi), rel=1e-12, abs=0.0)
        assert run.l1 == pytest.approx(float(np.sum(np.abs(full.values) * full.measures)),
                                       rel=1e-12, abs=0.0)

    def test_non_dyadic_series_matches_full_samples(self):
        # k = 12 * 2^j: cell measures (h/k)^2 that are not dyadic; every field
        # from zygmund_norm, atom_check, log_potential and direct sums on the
        # full samples at n_local = 128, to 1e-12 relative
        h = 4.0 / 128
        for k in (12, 24, 48):
            run = estimates.counterexample_family(k, n_local=128)
            full, core = self._full_samples(k, 128)
            rho, _ = self._full_samples(k, 128, weight=0.5)
            atom = atom_check(full, ((0.0, 0.0), 6.0 / k))
            u0 = float(pde.log_potential(rho, [(0.0, 0.0)])[0])
            d_core = full.distances((0.0, 0.0))[:core.size][core]
            want = dict(u0_raw=2 * np.pi * abs(u0), u0_standard=u0,
                        zygmund=zygmund_norm(full, np.pi),
                        l1=float(np.sum(np.abs(full.values) * full.measures)),
                        size_bound_minimal=k**2 * np.pi * atom.min_radius**2,
                        inner_lower_bound=0.5 * h * h * float(np.sum(-np.log(d_core))))
            for name, value in want.items():
                assert getattr(run, name) == pytest.approx(value, rel=1e-12, abs=0.0), (k, name)
            assert run.mean == pytest.approx(atom.mean, rel=0.0, abs=1e-12 * run.l1)
            self._assert_atom_matches(run, atom)

    @pytest.mark.parametrize("n_local", [1, 2, 7, 96, 128])
    def test_unit_sums_equal_log_potential(self, n_local):
        # the general path on the unit folded density: eta/2 on cells h^2 at
        # (4, 4) + z in grid order, through log_potential and distances
        h = 4.0 / n_local
        c = -2.0 + h * (np.arange(n_local) + 0.5)
        X, Y = (a.ravel() for a in np.meshgrid(c, c, indexing="ij"))
        s = np.hypot(X, Y)
        ev = estimates.eta_radial(s)
        supp = ev > 0.0
        unit = WeightedSamples(ev[supp] / 2.0, np.full(np.count_nonzero(supp), h * h),
                               np.stack([X[supp] + 4.0, Y[supp] + 4.0], axis=-1))
        d, core = unit.distances((0.0, 0.0)), s[supp] < 1.0
        assert d.min() > h / np.sqrt(np.pi)  # no cell holds the origin: no near-cell rule
        _, u1, _, _, _, d_max, _, _, log_core = estimates._unit_bump_cells(n_local)
        want = (float(pde.log_potential(unit, [(0.0, 0.0)])[0]), float(d.max()),
                float(np.sum(np.log(d[core]))))
        assert [x.hex() for x in (u1, d_max, log_core)] == [x.hex() for x in want]

    @staticmethod
    def _full_grid_cells(n_local):
        # the one-pass body on the whole n_local^2 grid, the reference for the
        # row-block walk
        h = 4.0 / n_local
        c = -2.0 + h * (np.arange(n_local) + 0.5)
        s = np.hypot(c[:, None], c)
        ev = estimates.eta_radial(s)
        supp = ev > 0.0
        ev, s = ev[supp], s[supp]
        d = np.hypot(c[:, None] + 4.0, c + 4.0)[supp]
        s1 = 2.0 * h * h * ev.size
        zyg1 = StepProfile(2.0 * h * h * np.arange(ev.size + 1),
                           np.sort(ev)[::-1]).zygmund_norm(s1)
        u1 = float(np.sum(ev / 2.0 * (h * h) * np.log(d))) / (2 * np.pi)
        return (h, u1, 2.0 * h * h * float(ev.sum()), zyg1, s1, float(d.max()), float(ev.max()),
                int(np.count_nonzero(s < 1.0)), float(np.sum(np.log(d[s < 1.0]))))

    @pytest.mark.parametrize("n_local", [1, 7, 63, 65, 257, 1000, 1024])
    def test_row_blocks_match_full_grid(self, n_local):
        # blocks that end mid-grid, one partial block, and Z's support past
        # one chunk of steps (summed by chunk, so to roundoff)
        estimates._unit_bump_cells.cache_clear()
        got = estimates._unit_bump_cells(n_local)
        want = self._full_grid_cells(n_local)
        assert ([float(x).hex() for i, x in enumerate(got) if i != 3]
                == [float(x).hex() for i, x in enumerate(want) if i != 3])
        assert got[3] == pytest.approx(want[3], rel=1e-14, abs=0.0)

    def test_cache_build_memory(self):
        # the cold build at the benchmark's n_local = 1024 walks the grid in
        # row blocks and keeps only support-length arrays: 18.4 MiB traced
        # with numpy 2.4, against 44.9 MiB on the full grid
        estimates._unit_bump_cells.cache_clear()
        tracemalloc.start()
        try:
            estimates._unit_bump_cells(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_scaling_cache_built_once_per_series(self):
        estimates._unit_bump_cells.cache_clear()
        for k in (16, 32, 64, 128, 256):
            estimates.counterexample_family(k, n_local=96)
        info = estimates._unit_bump_cells.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 4, 1)
        for x in estimates._unit_bump_cells(96):
            assert np.ndim(x) == 0 or not x.flags.writeable

    def test_bad_n_local(self):
        with pytest.raises(ValueError, match="n_local"):
            estimates.counterexample_family(16, n_local=0)

    def test_n_local_node_budget(self):
        # refused before the n_local^2 cell arrays are allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="node budget"):
                estimates._unit_bump_cells(2049)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestInterior:
    def test_closed_form_ratio(self):
        case = estimates.ExperimentCase(n_r=64, n_theta=64,
                                        f={"kind": "constant", "value": -4.0})
        sol = estimates.solve_case(case)
        v = estimates.interior_ratio(sol)
        assert v.ratio == pytest.approx(2 / (9 * np.pi), rel=2e-2)

    def test_zero_case_convention(self):
        case = estimates.ExperimentCase(n_r=16, n_theta=16)
        v = estimates.interior_ratio(estimates.solve_case(case))
        assert v.ratio == 0.0
        assert v.passed

    def test_small_corpus_runs(self):
        reports, constant, skipped = estimates.run_interior_corpus(6, seed=1, n_r=16,
                                                                   n_theta=16)
        assert len(reports) + skipped == 6
        assert np.isfinite(constant)


def _rotate(a):
    return np.roll(a, 7, axis=-1)  # theta -> theta + 7 cells


def _reflect(a):
    return np.roll(a[..., ::-1], 1, axis=-1)  # theta -> -theta


class TestSymmetry:
    """Rotating f, g and the boundary data by whole theta-cells, or reflecting
    them in theta, moves the solution the same way and leaves the field norms
    of interior_ratio unchanged: rotation on the radial metrics, reflection
    also on perturbed, whose G is even in theta."""

    @pytest.mark.parametrize("metric,move", [
        ("flat", _rotate), ("sphere", _rotate),
        ("flat", _reflect), ("sphere", _reflect), ("perturbed:0.05", _reflect),
    ], ids=["flat-rotate", "sphere-rotate", "flat-reflect", "sphere-reflect",
            "perturbed-reflect"])
    def test_solution_and_ratio_follow_the_data(self, metric, move):
        case = estimates.random_interior_case(3, 32, 48, metric)
        sol = estimates.solve_case(case, tol=1e-12)
        grid = sol.grid
        f = pde.DiscreteField(grid, move(sol.f.values), sol.f.pole)
        g = pde.DiscreteField(grid, move(sol.g.values), sol.g.pole)
        u, rep = pde.solve_dirichlet(grid, g, f, move(sol.u.values[-1]), tol=1e-12)
        assert rep.converged
        scale = sol.u.sup_norm()
        assert np.max(np.abs(u.values - move(sol.u.values))) <= 1e-10 * scale
        assert abs(u.pole - sol.u.pole) <= 1e-10 * scale
        moved = estimates.CaseSolution(case, grid, u, f, g, rep)
        assert estimates.interior_ratio(moved).ratio == pytest.approx(
            estimates.interior_ratio(sol).ratio, rel=1e-12, abs=0.0)


class TestMeanValue:
    def test_harmonic_deviation_vanishes(self):
        case = estimates.ExperimentCase(n_r=48, n_theta=48,
                                        boundary={"kind": "fourier", "seed": 4,
                                                  "modes": 3, "amp": 1.0})
        sol = estimates.solve_case(case)
        v = estimates.mean_value_deviation(sol, 0.5, C=1 / (4 * np.pi))
        assert v.lhs < 5e-3
        assert v.passed

    def test_quadratic_case(self):
        case = estimates.ExperimentCase(n_r=64, n_theta=32,
                                        f={"kind": "constant", "value": -4.0})
        sol = estimates.solve_case(case)
        rho = 0.5
        v = estimates.mean_value_deviation(sol, rho, C=1 / (4 * np.pi))
        assert v.lhs == pytest.approx(rho**2, rel=1e-2)
        assert v.passed

    def test_rho_out_of_range(self):
        case = estimates.ExperimentCase(n_r=16, n_theta=16)
        sol = estimates.solve_case(case)
        with pytest.raises(ValueError, match="rho"):
            estimates.mean_value_deviation(sol, 2.0, C=1.0)
        with pytest.raises(ValueError, match="rho"):
            estimates.mean_value_deviation(sol, float("nan"), C=1.0)


class TestHarnack:
    def test_constant_solution(self):
        case = estimates.ExperimentCase(n_r=16, n_theta=16,
                                        boundary={"kind": "constant", "value": 1.0})
        v = estimates.harnack_ratio(estimates.solve_case(case))
        assert v.ratio == pytest.approx(1.0, abs=1e-9)

    def test_positive_harmonic(self):
        # u = 2 + r cos(theta): max/min over closed B_{1/2} is 2.5/1.5
        grid = pde.PolarGrid(surface.flat(), 32, 64, 1.0)
        case = estimates.ExperimentCase(n_r=32, n_theta=64)
        b = 2.0 + np.cos(grid.theta_nodes)
        f = pde.constant_field(grid, 0.0)
        u, rep = pde.solve_dirichlet(grid, None, f, b, tol=1e-12)
        sol = estimates.CaseSolution(case, grid, u, f, None, rep)
        v = estimates.harnack_ratio(sol)
        assert v.ratio == pytest.approx(2.5 / 1.5, rel=1e-2)

    def test_sign_screen(self):
        case = estimates.ExperimentCase(n_r=16, n_theta=16,
                                        boundary={"kind": "constant", "value": -1.0})
        assert estimates.harnack_ratio(estimates.solve_case(case)) is None

    def test_zero_valued_g_is_g_zero(self):
        # g judged by its values: a zero-valued g gives the verdict of g = 0, bitwise
        f = {"kind": "bumps", "bumps": [{"amp": -1.0, "k": 8, "center": (0.3, 0.0)}]}
        sols = [estimates.solve_case(estimates.ExperimentCase(
            n_r=16, n_theta=16, f=f, g=g, boundary={"kind": "constant", "value": 1.0}))
            for g in ({"kind": "zero"}, {"kind": "constant", "value": 0})]
        assert sols[0].g is None and sols[1].g is not None
        zero, valued = map(estimates.harnack_ratio, sols)
        assert (valued.lhs, valued.rhs) == (zero.lhs, zero.rhs)

    def test_spike_ratios_pinned(self):
        # the default corpus's ratios when each sink was divided by its norm after
        # resolution; the sink's amp -1/||eta_k||* rounds differently
        assert estimates.harnack_spike_corpus((8, 16, 32, 64), 48, 64) == pytest.approx(
            [0.5345409011410382, 0.5358665642254479, 0.5368580954504591, 0.5389244671570896],
            rel=1e-13)

    def test_requires_zero_g(self):
        case = estimates.ExperimentCase(n_r=16, n_theta=16,
                                        g={"kind": "constant", "value": 1.0})
        with pytest.raises(ValueError, match="g = 0"):
            estimates.harnack_ratio(estimates.solve_case(case))


class TestBmoDuality:
    def _fk_samples(self, k=64, n=128):
        h = 4.0 / n
        c = -2.0 + h * (np.arange(n) + 0.5)
        X, Y = np.meshgrid(c, c, indexing="ij")
        e = estimates.eta_radial(np.hypot(X, Y))
        keep = e > 0
        z = np.stack([X[keep], Y[keep]], axis=-1)
        yk = np.array([4.0 / k, 4.0 / k])
        pos = np.concatenate([yk + z / k, -yk - z / k])
        vals = np.concatenate([k**2 * e[keep], -(k**2) * e[keep]])
        return WeightedSamples(vals, np.full(pos.shape[0], (h / k) ** 2), pos), yk

    def test_mean_zero_required(self):
        f = WeightedSamples([1.0, 1.0], [1.0, 1.0], [[0.0, 0.0], [0.1, 0.0]])
        with pytest.raises(ValueError, match="mean-zero"):
            estimates.bmo_duality_check(f, (0.0, 0.0), 0.5)

    def test_kernel_bmo_scale_free(self):
        vals = np.array([estimates.kernel_bmo_estimate(r) for r in (0.1, 0.2, 0.4)])
        assert (vals.max() - vals.min()) / vals.mean() < 0.1

    def test_duality_beats_naive(self):
        # pairing ratio against the atom proxy stays bounded across k while
        # the naive L1 x sup bound grows
        results = []
        for k in (32, 64, 128):
            f, yk = self._fk_samples(k)
            results.append(estimates.bmo_duality_check(f, yk, 0.4))
        ratios = [r.pairing_ratio for r in results]
        naives = [r.naive_bound for r in results]
        assert max(ratios) / max(min(ratios), 1e-300) < 3.0
        assert naives[0] < naives[1] < naives[2]


class TestGlobalPipeline:
    def test_energy_checks_pass(self):
        verdicts = estimates.global_energy_checks(
            {"kind": "constant", "value": -4.0}, A=1 / (4 * np.pi),
            n_r=32, n_theta=48)
        assert [v.name for v in verdicts] == ["john_nirenberg",
                                              "rearrangement_log_bound",
                                              "energy_bound"]
        assert all(v.passed for v in verdicts)

    def test_max_principle_comparison(self):
        [maxp], _ = estimates.global_estimate({"kind": "constant", "value": -4.0},
                                              n_r=32, n_theta=48, run_ladder=False)
        assert maxp.name == "max_principle"
        assert maxp.passed
        assert maxp.lhs == pytest.approx(1.0, abs=1e-6)

    def test_max_principle_compares_with_v_of_the_same_f(self):
        # f carries its own support radius: v is the solve of that f on B_2
        spec = {"kind": "constant", "value": -4.0, "support_radius": 0.5}
        [maxp], _ = estimates.global_estimate(spec, n_r=32, n_theta=48, run_ladder=False)
        sol = estimates.solve_case(estimates.ExperimentCase(
            n_r=64, n_theta=48, r_max=2.0, f=dict(spec), R_outer=2.0, R_inner=1.0))
        assert maxp.rhs == 2.0 * sol.u.sup_norm(1.0) + 1e-2

    @pytest.mark.parametrize("run", [
        lambda spec: estimates.global_energy_checks(spec, 1 / (4 * np.pi), 8, 8),
        lambda spec: estimates.global_estimate(spec, 8, 8, False),
    ], ids=["energy_checks", "estimate"])
    def test_bad_support_radius_names_key(self, run):
        with pytest.raises(ValueError, match="'support_radius'"):
            run({"kind": "constant", "value": -4.0, "support_radius": "x"})

    def test_zero_f(self):
        # v = 0: the zero-gradient branch of the energy checks and the ratio's
        # guard against ||f||* = 0
        verdicts = estimates.global_energy_checks({"kind": "zero"}, 1 / (4 * np.pi), 16, 16)
        assert [v.lhs for v in verdicts] == [0.0, 0.0, 0.0]
        assert all(v.passed for v in verdicts)
        verdicts, ratio = estimates.global_estimate({"kind": "zero"}, 16, 16, run_ladder=True)
        assert ratio == 0.0
        assert [v.name for v in verdicts] == ["max_principle", "ladder_cauchy"]
        assert all(v.passed for v in verdicts)

    def test_cutoff_ladder(self):
        spec = {"kind": "bumps", "bumps": [{"amp": 1.0, "k": 32, "center": (0.85, 0.0)}]}
        verdicts, _ = estimates.global_estimate(spec, n_r=32, n_theta=48, run_ladder=True)
        assert [v.name for v in verdicts] == ["max_principle", "ladder_cauchy"]
        assert verdicts[1].passed

    def test_ladder_cauchy_is_difference_of_two_solves(self):
        # ladder_cauchy's lhs, from one solve of f (eta_16 - eta_8), against
        # v_16 - v_8 from the two cutoff solves it stands for
        spec = {"kind": "bumps", "bumps": [{"amp": 1.0, "k": 32, "center": (0.85, 0.0)}]}
        [_, cauchy], _ = estimates.global_estimate(spec, n_r=32, n_theta=48, run_ladder=True)
        sol = estimates.solve_case(estimates.ExperimentCase(
            n_r=64, n_theta=48, r_max=2.0, f=dict(spec, support_radius=1.0),
            R_outer=2.0, R_inner=1.0))
        grid, f = sol.grid, sol.f
        v = {}
        for n in (8, 16):
            fn = f.values * estimates.smoothstep(n * (1.0 - grid.r_nodes))[:, None]
            v[n], _ = pde.solve_dirichlet(grid, None, pde.DiscreteField(grid, fn, f.pole),
                                          np.zeros(grid.n_theta))
        diff = pde.DiscreteField(grid, v[16].values - v[8].values, v[16].pole - v[8].pole)
        assert cauchy.name == "ladder_cauchy"
        assert cauchy.lhs == pytest.approx(diff.sup_norm(1.5), rel=1e-9)

    def test_sobolev_closed_form(self):
        # u = 1 - r^2, q = 2, A = 1/(4 pi): lhs sqrt(pi/3), rhs sqrt(2 pi)/2
        grid = pde.PolarGrid(surface.flat(), 96, 32, 1.0)
        R, _ = grid.mesh()
        u = pde.DiscreteField(grid, 1 - R**2, 1.0)
        v = estimates.sobolev_check(u, 2.0, 1 / (4 * np.pi))
        assert v.lhs == pytest.approx(np.sqrt(np.pi / 3), rel=1e-2)
        assert v.rhs == pytest.approx(np.sqrt(2 * np.pi) / 2, rel=1e-2)
        assert v.passed

    def test_sobolev_rejects_boundary_values(self):
        grid = pde.PolarGrid(surface.flat(), 16, 16, 1.0)
        u = pde.constant_field(grid, 1.0)
        with pytest.raises(ValueError, match="boundary"):
            estimates.sobolev_check(u, 2.0, 1.0)

    def test_sobolev_q1_needs_enlarged_constant(self):
        # at q = 1 the bound fails with A = A_iso but holds with A = 4 A_iso
        grid = pde.PolarGrid(surface.flat(), 96, 32, 1.0)
        R, _ = grid.mesh()
        u = pde.DiscreteField(grid, 1 - R**2, 1.0)
        tight = estimates.sobolev_check(u, 1.0, 1 / (4 * np.pi))
        safe = estimates.sobolev_check(u, 1.0, 1 / np.pi)
        assert not tight.passed
        assert safe.passed


class TestSolverHarnesses:
    def test_manufactured_orders(self):
        for kind in ("flat", "sphere"):
            _, order = estimates.manufactured_convergence(kind, (16, 32, 64))
            assert 1.7 <= order <= 2.3

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="manufactured"):
            estimates.manufactured_convergence("torus", (32, 64, 128))

    def test_max_principle_sample(self):
        assert estimates.max_principle_corpus(10, seed=2, n_r=16, n_theta=16) == 0
