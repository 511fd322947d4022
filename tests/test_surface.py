"""Unit tests for semi-geodesic geometry, isoperimetric bounds, and kernels."""
import warnings

import numpy as np
import pytest

from poissonlab import surface
from poissonlab.rearrange import WeightedSamples


class TestMetrics:
    def test_from_name(self):
        assert surface.from_name("flat").name == "flat"
        assert surface.from_name("sphere").name == "sphere"
        assert surface.from_name("hyperbolic").name == "hyperbolic"
        assert surface.from_name("perturbed:0.2").name == "perturbed:0.2"
        with pytest.raises(ValueError, match="unknown metric"):
            surface.from_name("torus")

    def test_perturbed_degenerate(self):
        with pytest.raises(ValueError, match="degenerates"):
            surface.perturbed(0.5, r_max=2.0)
        # G = r (1 + eps r^2 cos theta) vanishes at r = 1/sqrt(|eps|) for either sign
        with pytest.raises(ValueError, match="degenerates"):
            surface.perturbed(-0.5)
        with pytest.raises(ValueError, match="degenerates"):
            surface.perturbed(float("nan"))


class TestLengthVolume:
    def test_flat_circle(self):
        m = surface.flat()
        assert surface.boundary_length(m, 0.7) == pytest.approx(2 * np.pi * 0.7, rel=1e-12)

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
            surface.ball_volume(surface.flat(r_max=1.0), 2.0)
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
        v = surface.geometry_bounds_check(surface.flat(), 1 / (4 * np.pi), 2.0,
                                          [0.25, 0.5, 1.0])
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
        h = surface.kernel_weight(surface.flat(), 1.0, 0.25)
        assert h == pytest.approx(np.log(4.0) / (2 * np.pi), rel=1e-12)

    def test_sphere_closed_form(self):
        # int dr / (2 pi sin r) = ln(tan(r/2)) / (2 pi)
        h = surface.kernel_weight(surface.sphere(), 1.0, 0.25)
        expected = (np.log(np.tan(0.5)) - np.log(np.tan(0.125))) / (2 * np.pi)
        assert h == pytest.approx(expected, rel=1e-10)

    def test_coincident_endpoints(self):
        assert surface.kernel_weight(surface.flat(), 0.5, 0.5) == 0.0

    def test_singular_endpoint_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            surface.kernel_weight(surface.flat(), 1.0, 0.0)
        assert any("singular" in str(w.message) for w in caught)

    def test_profile_matches_pointwise(self):
        m = surface.sphere()
        rs = np.array([0.2, 0.5, 0.8])
        prof = surface.kernel_weight_profile(m, 1.0, rs)
        for r, h in zip(rs, prof):
            assert h == pytest.approx(surface.kernel_weight(m, 1.0, r), rel=1e-9)

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
        fit = surface.flux_exponent_fit(surface.perturbed(0.1), 2.0)
        assert fit.target == pytest.approx(1.0)
        assert fit.exponent is not None
        assert fit.exponent >= fit.target - 0.1

    def test_flat_fit_degenerate(self):
        fit = surface.flux_exponent_fit(surface.flat(), 2.0)
        assert fit.exponent is None
