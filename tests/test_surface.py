"""Unit tests for semi-geodesic geometry, isoperimetric bounds, and kernels."""

import numpy as np
import pytest

from poissonlab import cli, surface


class TestMetrics:
    def test_from_name(self):
        assert surface.from_name("flat") == surface.Flat()
        assert surface.from_name("sphere") == surface.Sphere()
        assert surface.from_name("hyperbolic") == surface.Hyperbolic()
        assert surface.from_name("perturbed:0.2") == surface.Perturbed(0.2)
        with pytest.raises(ValueError, match="unknown metric"):
            surface.from_name("torus")

    def test_perturbed_degenerate(self):
        # G = r (1 + eps r^2 cos theta) vanishes at r = 1/sqrt(|eps|) for either sign
        assert surface.perturbed(0.0).domain == np.inf
        for eps in (0.5, -0.5):
            assert surface.perturbed(eps).domain == pytest.approx(np.sqrt(2.0), rel=1e-15)
            with pytest.raises(ValueError, match="out of range"):
                surface.ball_volume(surface.perturbed(eps), 2.0)
            with pytest.raises(ValueError, match="out of range"):
                surface.boundary_length(surface.perturbed(eps), 1.5)
        with pytest.raises(ValueError, match="degenerates"):
            surface.perturbed(float("nan"))


class TestLengthVolume:
    def test_flat_circle(self):
        m = surface.flat()
        assert surface.boundary_length(m, 0.7) == pytest.approx(2 * np.pi * 0.7, rel=1e-12)

    def test_perturbed_length_exact(self):
        # G is affine in cos theta, so the periodic trapezoid rule gives 2 pi r exactly
        for eps, radii in ((0.05, (0.5, 1.0, 4.0)), (-0.5, (0.5, 1.0, 1.4)),
                           (0.1, (0.5, 1.0, 3.0))):
            m = surface.perturbed(eps)
            for r in radii:
                assert surface.boundary_length(m, r) == pytest.approx(2 * np.pi * r, rel=1e-15)

    def test_length_keeps_radius_shape(self):
        m = surface.flat()
        assert np.ndim(surface.boundary_length(m, 0.5)) == 0
        assert surface.boundary_length(m, np.array([0.5])).shape == (1,)
        assert surface.boundary_length(m, np.full((2, 3), 0.5)).shape == (2, 3)
        assert surface.gauss_curvature(m, np.array([0.5]), 0.0).shape == (1,)

    def test_flat_volume(self):
        m = surface.flat()
        assert surface.ball_volume(m, 0.7, 1024) == pytest.approx(np.pi * 0.49, rel=1e-10)

    def test_sphere_closed_forms(self):
        m = surface.sphere()
        assert surface.boundary_length(m, 1.0) == pytest.approx(2 * np.pi * np.sin(1.0), rel=1e-12)
        assert surface.ball_volume(m, 1.0, 1024) == pytest.approx(
            2 * np.pi * (1 - np.cos(1.0)), rel=1e-9)

    def test_hyperbolic_closed_forms(self):
        m = surface.hyperbolic()
        assert surface.ball_volume(m, 1.5, 1024) == pytest.approx(
            2 * np.pi * (np.cosh(1.5) - 1), rel=1e-9)

    def test_radius_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            surface.ball_volume(surface.sphere(), 3.2)
        with pytest.raises(ValueError, match="out of range"):  # past the antipode sin r < 0
            surface.boundary_length(surface.sphere(), 3.5)
        for check in (surface.ball_volume, surface.boundary_length, surface.flux_variation):
            with pytest.raises(ValueError, match="out of range"):
                check(surface.flat(), float("nan"))


class TestCurvature:
    def test_constant_curvatures(self):
        assert surface.gauss_curvature(surface.flat(), 0.5, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert surface.gauss_curvature(surface.sphere(), 0.5, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert surface.gauss_curvature(surface.hyperbolic(), 0.5, 1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_perturbed_curvature(self):
        eps, r, t = 0.1, 0.5, 0.7
        m = surface.perturbed(eps)
        expected = -6 * eps * r * np.cos(t) / (r * (1 + eps * r**2 * np.cos(t)))
        assert surface.gauss_curvature(m, r, t) == pytest.approx(expected, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            surface.gauss_curvature(surface.flat(), 0.0, 0.0)
        with pytest.raises(ValueError, match="r > 0"):
            surface.gauss_curvature(surface.flat(), float("nan"), 0.0)

    def test_lp_norm_sphere(self):
        # |K| = 1 so ||K||_{L^2(B_1)} = sqrt(V(B_1))
        m = surface.sphere()
        expected = np.sqrt(2 * np.pi * (1 - np.cos(1.0)))
        assert surface.curvature_lp_norm(m, 2.0) == pytest.approx(expected, rel=1e-4)


class TestIsoperimetric:
    def test_flat_constant(self):
        est = surface.isoperimetric_constant(surface.flat(), [0.25, 0.5, 1.0])
        assert est.A_iso == pytest.approx(1 / (4 * np.pi), rel=1e-10)
        assert est.A_curv == pytest.approx(0.0, abs=1e-12)

    def test_sphere_constant(self):
        # V/l^2 = 1 / (2 pi (1 + cos r)), increasing in r
        est = surface.isoperimetric_constant(surface.sphere(), [0.5, 1.0])
        assert est.A_iso == pytest.approx(1 / (2 * np.pi * (1 + np.cos(1.0))), rel=1e-8)

    def test_empty_radii(self):
        with pytest.raises(ValueError, match="empty radii"):
            surface.isoperimetric_constant(surface.flat(), [])


class TestGeometryBounds:
    def test_flat_equality_case(self):
        # A = 1/(4 pi) makes both lower bounds equalities on the flat metric
        v = max(surface.geometry_bounds_verdicts(surface.flat(), 1 / (4 * np.pi), 2.0,
                                                 [0.25, 0.5, 1.0]), key=lambda v: v.ratio)
        assert v.passed
        assert v.ratio == pytest.approx(1.0, abs=1e-10)

    def test_all_builtins_pass(self):
        for name in ("flat", "sphere", "hyperbolic", "perturbed:0.1"):
            m = surface.from_name(name)
            radii = [0.25, 0.5, 1.0]
            est = surface.isoperimetric_constant(m, radii)
            A = max(est.A_iso, est.A_curv)
            for v in surface.geometry_bounds_verdicts(m, A, 2.0, radii):
                assert v.passed, (name, v.name, v.lhs, v.rhs)
                assert v.case == ""

    def test_invalid_case_annotated(self):
        verdicts = surface.geometry_bounds_verdicts(surface.sphere(), 0.1592, 2.0, [0.5])
        assert all("invalid" in v.case for v in verdicts)


class TestKernel:
    def test_flat_closed_form(self):
        h = surface.kernel_weight_profile(surface.flat(), 1.0, 0.25)
        assert h == pytest.approx(np.log(4.0) / (2 * np.pi), rel=1e-12)

    def test_sphere_closed_form(self):
        # int dr / (2 pi sin r) = ln(tan(r/2)) / (2 pi)
        h = surface.kernel_weight_profile(surface.sphere(), 1.0, 0.25)
        expected = (np.log(np.tan(0.5)) - np.log(np.tan(0.125))) / (2 * np.pi)
        assert h == pytest.approx(expected, rel=1e-10)

    def test_coincident_endpoints(self):
        assert surface.kernel_weight_profile(surface.flat(), 0.5, 0.5) == 0.0

    def test_profile_matches_pointwise(self):
        m = surface.sphere()
        rs = np.array([0.2, 0.5, 0.8])
        prof = surface.kernel_weight_profile(m, 1.0, rs)
        for r, h in zip(rs, prof):
            assert h == pytest.approx(surface.kernel_weight_profile(m, 1.0, r), rel=1e-9)

    @pytest.mark.parametrize("r", [0.0, 1.5, float("nan")], ids=["zero", "beyond-R", "nan"])
    def test_profile_radius_out_of_range(self, r):
        with pytest.raises(ValueError, match="must lie in"):
            surface.kernel_weight_profile(surface.flat(), 1.0, [0.5, r])

    def test_pairing_sharpness(self):
        # constant f on the flat ball: both sides equal R^2/4
        f = surface.sample_ball(surface.flat(), 1.0)
        v = surface.kernel_pairing_check(surface.flat(), f, 1.0, 1 / (4 * np.pi))
        assert v.passed
        assert v.lhs == pytest.approx(0.25, rel=1e-6)
        assert v.rhs == pytest.approx(0.25, rel=1e-9)

    def test_rearrangement_bound(self):
        v = surface.kernel_rearrangement_bound(surface.flat(), 1.0, 1 / (4 * np.pi))
        assert v.passed


class TestFlux:
    def test_flat_is_symmetric(self):
        assert surface.flux_variation(surface.flat(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_positive(self):
        assert surface.flux_variation(surface.perturbed(0.1), 0.5) > 0

    def test_exponent_fit(self):
        # the bound's exponent 2 - 2/p at p = 2
        exponent = surface.flux_exponent_fit(surface.perturbed(0.1))
        assert exponent is not None
        assert exponent >= (2 - 2 / 2.0) - 0.1

    def test_flat_fit_degenerate(self):
        assert surface.flux_exponent_fit(surface.flat()) is None


FAMILIES = ("flat", "sphere", "hyperbolic", "perturbed:0.3", "perturbed:-0.3")


def _length_256(m, r):
    """The periodic trapezoid rule on 256 theta nodes."""
    th = 2 * np.pi * np.arange(256) / 256
    return m.G(np.asarray(r, float)[..., None], th).mean(axis=-1) * 2 * np.pi


def _full_mesh(radius):
    dr, dth = radius / 512, 2 * np.pi / 256
    R, T = np.meshgrid((np.arange(512) + 0.5) * dr, (np.arange(256) + 0.5) * dth, indexing="ij")
    return R, T, dr, dth


class TestSeparableQuadrature:
    """The geometry quadratures evaluate 1-D factors and two theta nodes; these
    tests pin them against the full-grid and 256-node rules they replace."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_G_affine_in_cos_theta(self, name):
        # the two-node rule is exact only because G(r, .) = a(r) + b(r) cos theta
        m = surface.from_name(name)
        rng = np.random.default_rng(7)
        r = rng.uniform(0.01, min(1.5, 0.99 * m.domain), 200)
        t = rng.uniform(0.0, 2 * np.pi, 200)
        g0, gpi = m.G(r, 0.0), m.G(r, np.pi)
        want = (g0 + gpi) / 2 + (g0 - gpi) / 2 * np.cos(t)
        np.testing.assert_allclose(m.G(r, t), want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_length_volume_match_256_nodes(self, name):
        m = surface.from_name(name)
        radii = np.array(cli.GEOMETRY_RADII)
        np.testing.assert_allclose(surface.boundary_length(m, radii), _length_256(m, radii),
                                   rtol=1e-15, atol=0)
        for r in radii:
            t = np.linspace(0.0, r, 513)
            ell = np.append(0.0, _length_256(m, t[1:]))
            wts = np.ones(513)
            wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
            want = r / 512 / 3.0 * np.sum(wts * ell)
            assert surface.ball_volume(m, r) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("name", FAMILIES + ("perturbed:0.05", "perturbed:0.9"))
    def test_grids_match_full_meshgrid(self, name):
        m = surface.from_name(name)
        R, T, dr, dth = _full_mesh(min(1.0, m.domain))
        k = np.abs(-m.d2G(R, T) / m.G(R, T))
        for p in (0.5, 2.0, 200.0):
            with np.errstate(over="ignore"):
                want = 0.0 if k.max() == 0 else k.max() * float(
                    np.sum((k / k.max()) ** p * m.G(R, T) * dr * dth) ** (1.0 / p))
            assert surface.curvature_lp_norm(m, p).hex() == want.hex()
        R, T, dr, dth = _full_mesh(0.5)
        g, dg = m.G(R, T), m.dG(R, T)
        ell, dell = g.sum(axis=1) * dth, dg.sum(axis=1) * dth
        deriv = (dg * ell[:, None] - g * dell[:, None]) / ell[:, None] ** 2
        want = float(np.sum(np.abs(deriv)) * dr * dth)
        assert surface.flux_variation(m, 0.5).hex() == want.hex()


_EVALS = []  # (size of r, size of theta, inside boundary_length) per metric evaluation
_IN_LENGTH = []


class _Counting:
    def _eval(self, k, r, t):
        _EVALS.append((np.size(r), np.size(t), bool(_IN_LENGTH)))
        return super()._eval(k, r, t)


class CountingSphere(_Counting, surface.Sphere):
    pass


class CountingPerturbed(_Counting, surface.Perturbed):
    pass


@pytest.mark.parametrize("m, A", [(CountingSphere(), 1.75), (CountingPerturbed(0.05), 0.4)],
                         ids=["sphere", "perturbed"])
def test_geometry_verdicts_evaluate_factors(monkeypatch, m, A):
    # pins the work, not the time: the full 512 x 256 grid is never evaluated
    # point by point, and every boundary length reads G at two angles
    length = surface.boundary_length

    def counted_length(metric, r):
        _IN_LENGTH.append(True)
        try:
            return length(metric, r)
        finally:
            _IN_LENGTH.pop()

    monkeypatch.setattr(surface, "boundary_length", counted_length)
    _EVALS.clear()
    surface.geometry_bounds_verdicts(m, A, 2.0, cli.GEOMETRY_RADII)
    assert _EVALS and max(n for n, _, _ in _EVALS) <= 512
    assert max(n for _, n, _ in _EVALS) <= 256
    in_length = [n for _, n, inside in _EVALS if inside]
    assert in_length and set(in_length) == {2}
