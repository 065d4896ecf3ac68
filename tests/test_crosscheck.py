import math

import pytest

from casdisp.closed_form import Scenario, delta_e_analytic
from casdisp.crosscheck import (
    compare_methods,
    first_order_slope,
    run_validation_checks,
    validity_sweep,
)
from casdisp.dispersion import Cauchy, Constant
from casdisp.lifshitz import delta_e_lifshitz_full


class TestCompareMethods:
    def test_dispersion_free_agreement(self):
        report = compare_methods(Scenario(1.0, Cauchy(1.0, 0.0)), tol=1e-8)
        assert report.passed
        assert report.rel_discrepancy_e0 < 1e-8
        assert report.rel_discrepancy_delta == 0.0
        assert report.rel_discrepancy_total < 1e-8

    def test_dispersive_agreement(self):
        report = compare_methods(Scenario(1.0, Cauchy(1.5, 1e-3)), tol=1e-7)
        assert report.passed

    def test_zero_tolerance_unsatisfiable(self):
        report = compare_methods(Scenario(1.0, Cauchy(1.0, 0.0)), tol=0.0)
        assert not report.passed

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("n0", [1.0, 1.5, 2.0, 3.0])
    def test_grid_agreement(self, L, n0):
        report = compare_methods(Scenario(L, Constant(n0)), tol=1e-8)
        assert report.passed
        assert report.rel_discrepancy_e0 < 1e-8


class TestFirstOrderSlope:
    def test_unit_index(self):
        slope = first_order_slope(1.0, 1.0, n1_probe=1e-6)
        assert slope == pytest.approx(-math.pi**4 / 2520.0, rel=1e-4)

    def test_index_scaling(self):
        slope = first_order_slope(1.0, 2.0, n1_probe=1e-6)
        assert slope == pytest.approx(-math.pi**4 / (2520.0 * 16.0), rel=1e-4)
        assert slope == pytest.approx(-0.0024159, rel=1e-4)

    def test_residual_first_order_in_probe(self):
        target = delta_e_analytic(1.0, 1.0, 1.0)
        residual = abs(first_order_slope(1.0, 1.0, n1_probe=1e-6) - target)
        residual_half = abs(first_order_slope(1.0, 1.0, n1_probe=5e-7) - target)
        assert 1.6 <= residual / residual_half <= 2.4

    @pytest.mark.parametrize("probe", [5e-7, 1e-6, 1e-5])
    def test_residual_is_the_series_bias(self, probe):
        # with F(g) = c1*g + c2*g^2 + c3*g^3 + c4*g^4 + ..., the slope at
        # L = n0 = 1 is F(g)/(2*pi^2*g), off the closed form by
        # (c2*g + c3*g^2 + c4*g^3)/c1 and less than the quadrature's error
        # beyond (c5*g^4/c1 is 2e-13 at g = 1e-5)
        c1, c2, c3 = -math.pi**6 / 1260.0, -math.pi**8 / 560.0, -math.pi**10 / 99.0
        c4 = -691.0 * math.pi**12 / 6552.0
        target = delta_e_analytic(1.0, 1.0, 1.0)
        residual = first_order_slope(1.0, 1.0, n1_probe=probe) / target - 1.0
        delta, _ = delta_e_lifshitz_full(1.0, Cauchy(1.0, probe))
        bound = delta.error / (probe * abs(target))
        assert abs(residual - (c2 * probe + c3 * probe**2 + c4 * probe**3) / c1) <= bound

    def test_default_probe(self):
        assert first_order_slope(2.0, 1.0) == pytest.approx(
            delta_e_analytic(2.0, 1.0, 1.0), rel=1e-4
        )

    def test_probe_outside_trust_region_rejected(self):
        with pytest.raises(ValueError):
            first_order_slope(1.0, 1.0, n1_probe=1.0)
        with pytest.raises(ValueError):
            first_order_slope(1.0, 1.0, n1_probe=0.0)


class TestValiditySweep:
    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_non_positive_separation_rejected(self, L):
        with pytest.raises(ValueError, match=f"separation must be positive, got {L}"):
            validity_sweep(Cauchy(1.0, 1e-4), [1.0, L])

    def test_boundary_ratio_identity(self):
        model = Cauchy(1.0, 0.01)
        boundary = 2.0 * math.pi * math.sqrt(0.01)
        (point,) = validity_sweep(model, [boundary])
        assert point.ratio == pytest.approx(point.bound, abs=4 * math.ulp(point.bound))
        assert point.within_bound is None  # exactly at the boundary

    def test_dispersion_free(self):
        points = validity_sweep(Cauchy(1.0, 0.0), [0.1, 1.0, 10.0])
        assert all(p.ratio == 0.0 for p in points)
        assert all(p.within_bound for p in points)

    def test_reference_numbers(self):
        (point,) = validity_sweep(Cauchy(2.0, 0.01), [1.0])
        assert point.ratio == pytest.approx(2.0 * math.pi**2 * 0.01 / 56.0, rel=1e-12)
        assert point.ratio == pytest.approx(0.003525, abs=5e-7)
        assert point.bound == pytest.approx(1.0 / 112.0)
        assert point.within_bound

    def test_ratio_bound(self):
        assert validity_sweep(Cauchy(2.0, 0.123), [1.0])[0].bound == 1.0 / 112.0

    def test_inside_region_satisfies_bound(self):
        points = validity_sweep(Cauchy(1.3, 1e-3), [0.5, 1.0, 2.0])
        for point in points:
            if point.within_bound is not None:
                assert point.ratio < point.bound

    def test_rows_follow_input_order(self):
        grid = [2.0, 0.5, 1.0]
        points = validity_sweep(Cauchy(1.0, 1e-4), grid)
        assert [p.L for p in points] == grid


class TestValidationBattery:
    def test_default_run_passes(self):
        checks = run_validation_checks()
        assert checks
        assert all(check.passed for check in checks)

    def test_unreachable_tolerance_fails(self):
        checks = run_validation_checks(tol=1e-15)
        assert any(not check.passed for check in checks)

    def test_loose_tolerance_passes(self):
        assert all(check.passed for check in run_validation_checks(tol=1e-3))
