"""Unit tests for rearrangements, Zygmund norms, BMO, and atoms."""
import numpy as np
import pytest

from poissonlab import estimates, pde, surface
from poissonlab.rearrange import (
    CHUNK,
    AtomVerdict,
    WeightedSamples,
    atom_check,
    bmo_norm,
    direct_pairing,
    rearrange,
    zygmund_modular,
    zygmund_norm,
)


def random_samples(rng, n=50, with_positions=False):
    pos = None
    if with_positions:
        r = np.sqrt(rng.uniform(0, 1, n))
        t = rng.uniform(0, 2 * np.pi, n)
        pos = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    return WeightedSamples(rng.normal(size=n), rng.uniform(0.01, 0.5, n), pos)


class TestWeightedSamples:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty domain"):
            WeightedSamples(np.array([]), np.array([]))

    def test_nonpositive_measure_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedSamples([1.0], [0.0])

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            WeightedSamples([np.inf], [1.0])

    def test_position_shape(self):
        with pytest.raises(ValueError, match="positions"):
            WeightedSamples([1.0, 2.0], [1.0, 1.0], [[0.0, 0.0]])

    @pytest.mark.parametrize("entry", [
        lambda f: pde.log_potential(f, [(0.0, 0.0)]),
        lambda f: bmo_norm(f, [((0.0, 0.0), 1.0)]),
        lambda f: atom_check(f, ((0.0, 0.0), 1.0)),
        lambda f: estimates.bmo_duality_check(f, (0.0, 0.0), 0.5),
        lambda f: surface.kernel_pairing_check(surface.flat(), f, 1.0, 1.0),
    ], ids=["log_potential", "bmo_norm", "atom_check", "bmo_duality_check",
            "kernel_pairing_check"])
    def test_distances_need_positions(self, entry):
        # mean-zero values, so only the missing positions can be refused
        with pytest.raises(ValueError, match="samples carry no positions"):
            entry(WeightedSamples([1.0, -1.0], [0.5, 0.5]))

    def test_measures(self):
        f = WeightedSamples([1.0, 0.0, -2.0], [0.5, 0.25, 0.125])
        assert f.total_measure == pytest.approx(0.875)


class TestRearrange:
    def test_simple_step(self):
        f = WeightedSamples([1.0, 3.0, 2.0], [0.5, 0.25, 0.25])
        prof = rearrange(f)
        assert np.allclose(prof.values, [3.0, 2.0, 1.0])
        assert np.allclose(prof.breakpoints, [0.0, 0.25, 0.5, 1.0])
        assert prof(0.1) == 3.0
        assert prof(0.3) == 2.0
        assert prof(0.6) == 1.0
        assert prof(5.0) == 0.0

    def test_zero_field(self):
        prof = rearrange(WeightedSamples([0.0, 0.0], [1.0, 1.0]))
        assert prof.support_measure == 0.0
        assert prof(0.5) == 0.0

    def test_equimeasurable(self):
        rng = np.random.default_rng(7)
        f = random_samples(rng, 200)
        prof = rearrange(f)
        mids = 0.5 * (prof.breakpoints[:-1] + prof.breakpoints[1:])
        for lam in rng.uniform(0, 2, 20):
            mu_f = float(f.measures[np.abs(f.values) > lam].sum())
            mu_star = float(np.sum(np.diff(prof.breakpoints)[prof(mids) > lam]))
            assert mu_f == pytest.approx(mu_star, abs=1e-12)

    def test_mass_preserved(self):
        rng = np.random.default_rng(8)
        f = random_samples(rng, 120)
        prof = rearrange(f)
        l1 = float(np.sum(np.abs(f.values) * f.measures))
        assert float(np.sum(prof.values * np.diff(prof.breakpoints))) == pytest.approx(l1)


class TestZygmundNorm:
    def test_indicator_closed_form(self):
        # f = 3 on a set of measure 1/2 inside a domain of measure 1:
        # 3 * int_0^(1/2) ln(1/t) dt = 1.5 (1 + ln 2)
        f = WeightedSamples([3.0] * 5, [0.1] * 5)
        assert zygmund_norm(f, 1.0) == pytest.approx(1.5 * (1 + np.log(2)), abs=1e-10)

    def test_full_domain_indicator(self):
        # f = 1 on the whole unit disk: int_0^pi ln(pi/t) dt = pi
        f = WeightedSamples([1.0] * 4, [np.pi / 4] * 4)
        assert zygmund_norm(f, np.pi) == pytest.approx(np.pi, abs=1e-12)

    def test_homogeneous(self):
        rng = np.random.default_rng(9)
        f = random_samples(rng)
        n1 = zygmund_norm(f, 100.0)
        scaled = WeightedSamples(f.values * 2.5, f.measures)
        assert zygmund_norm(scaled, 100.0) == pytest.approx(2.5 * n1, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            meas = rng.uniform(0.01, 0.5, 40)
            a = rng.normal(size=40)
            b = rng.normal(size=40)
            fa = WeightedSamples(a, meas)
            fb = WeightedSamples(b, meas)
            fab = WeightedSamples(a + b, meas)
            assert (zygmund_norm(fab, 50.0)
                    <= zygmund_norm(fa, 50.0) + zygmund_norm(fb, 50.0) + 1e-10)

    def test_domain_smaller_than_support(self):
        f = WeightedSamples([1.0], [2.0])
        with pytest.raises(ValueError, match="domain smaller"):
            zygmund_norm(f, 1.0)

    @staticmethod
    def _full_array_norm(prof, domain):
        # the antiderivative sum on the whole profile at once
        t = prof.breakpoints[1:]
        ft = np.concatenate([[0.0], t * (np.log(domain / t) + 1.0)])
        return float(np.sum(prof.values * np.diff(ft)))

    def test_chunked_sum_matches_full_array(self):
        rng = np.random.default_rng(11)
        prof = rearrange(WeightedSamples(rng.normal(size=200000), rng.uniform(0.01, 1.0, 200000)))
        domain = 1.5 * prof.support_measure
        assert prof.zygmund_norm(domain) == pytest.approx(self._full_array_norm(prof, domain),
                                                          rel=1e-13, abs=0.0)

    def test_one_chunk_is_the_full_array_sum(self):
        # the interior corpus's f at 64x96: 6145 nodes, one chunk, bitwise
        case = estimates.random_interior_case(0, 64, 96, "flat")
        grid = pde.PolarGrid(surface.from_name(case.metric), case.n_r, case.n_theta, case.r_max)
        f = WeightedSamples(*estimates.resolve_field(grid, case.f, case.seed).quadrature(None))
        prof = rearrange(f)
        assert prof.values.size <= CHUNK
        for domain in (f.total_measure, 2.0 * f.total_measure):
            assert prof.zygmund_norm(domain).hex() == self._full_array_norm(prof, domain).hex()


class TestZygmundModular:
    def test_small_values_clipped(self):
        assert zygmund_modular(WeightedSamples([0.5, -0.3], [1.0, 2.0])) == 0.0

    def test_exponential_value(self):
        f = WeightedSamples([np.e], [1.0])
        assert zygmund_modular(f) == pytest.approx(np.e, rel=1e-12)


class TestPairing:
    def test_hardy_littlewood_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            meas = rng.uniform(0.01, 0.5, 30)
            f = WeightedSamples(rng.normal(size=30), meas)
            h = WeightedSamples(rng.normal(size=30), meas)
            assert direct_pairing(f, h) <= rearrange(f).pairing(rearrange(h)) * (1 + 1e-12)

    def test_equality_when_aligned(self):
        meas = np.full(5, 0.3)
        vals = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        f = WeightedSamples(vals, meas)
        assert direct_pairing(f, f) == pytest.approx(rearrange(f).pairing(rearrange(f)),
                                                     rel=1e-12)


class TestBmo:
    def test_two_level_oscillation(self):
        # +1 on one half, -1 on the other: mean oscillation 1 on the full ball
        pos = np.array([[0.2, 0.0], [-0.2, 0.0]])
        f = WeightedSamples([1.0, -1.0], [0.5, 0.5], pos)
        assert bmo_norm(f, [((0.0, 0.0), 1.0)]) == pytest.approx(1.0)

    def test_constant_has_zero_oscillation(self):
        pos = np.array([[0.1, 0.0], [0.0, 0.1]])
        f = WeightedSamples([4.0, 4.0], [1.0, 1.0], pos)
        assert bmo_norm(f, [((0.0, 0.0), 1.0)]) == 0.0

    def test_requires_positions(self):
        f = WeightedSamples([1.0], [1.0])
        with pytest.raises(ValueError, match="positions"):
            bmo_norm(f, [((0.0, 0.0), 1.0)])

    def test_empty_family(self):
        f = WeightedSamples([1.0], [1.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="empty ball family"):
            bmo_norm(f, [])

    def test_log_kernel_scale_free(self):
        # ln(1/|x|) oscillation on dyadic balls about the origin is scale-free
        def osc(scale):
            n = 4000
            rng = np.random.default_rng(3)
            r = scale * np.sqrt(rng.uniform(0, 1, n))
            t = rng.uniform(0, 2 * np.pi, n)
            pos = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
            f = WeightedSamples(np.log(1.0 / r), np.full(n, np.pi * scale**2 / n), pos)
            return bmo_norm(f, [((0.0, 0.0), scale)])

        a, b = osc(1.0), osc(0.25)
        assert a == pytest.approx(b, rel=0.1)


class TestAtomCheck:
    def test_valid_atom(self):
        pos = np.array([[0.05, 0.0], [-0.05, 0.0]])
        radius = 0.1
        sup = 1.0 / (np.pi * radius**2)
        f = WeightedSamples([sup, -sup], [1e-4, 1e-4], pos)
        v = atom_check(f, ((0.0, 0.0), radius))
        assert isinstance(v, AtomVerdict)
        assert v.support_ok
        assert v.mean == pytest.approx(0.0, abs=1e-12)
        assert v.size_bound == pytest.approx(1.0, rel=1e-12)
        assert v.min_radius == pytest.approx(0.05)

    def test_support_violation(self):
        pos = np.array([[0.5, 0.0], [0.0, 0.0]])
        f = WeightedSamples([1.0, -1.0], [1e-3, 1e-3], pos)
        v = atom_check(f, ((0.0, 0.0), 0.1))
        assert not v.support_ok
        assert v.min_radius == pytest.approx(0.5)
