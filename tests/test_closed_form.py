import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casdisp.closed_form import (
    Method,
    Scenario,
    SurfaceTermSpec,
    delta_e_analytic,
    e0_analytic,
    force_analytic,
    surface_energy,
    total_energy_analytic,
)
from casdisp.dispersion import Cauchy, Constant, Tabulated, UnsupportedModelError


class TestEnergies:
    def test_e0_reference_values(self):
        assert e0_analytic(1.0, 1.0) == pytest.approx(-math.pi**2 / 720.0)
        assert e0_analytic(1.0, 2.0) == pytest.approx(-math.pi**2 / 1440.0)
        assert e0_analytic(2.0, 1.0) == pytest.approx(-math.pi**2 / 5760.0)

    def test_e0_scaled_by_index_is_universal(self):
        reference = e0_analytic(1.3, 1.0)
        for n0 in (1.5, 2.0, 3.7):
            assert e0_analytic(1.3, n0) * n0 == pytest.approx(reference, rel=1e-15)

    def test_delta_reference_values(self):
        assert delta_e_analytic(1.0, 1.0, 1.0) == pytest.approx(-math.pi**4 / 2520.0)
        assert delta_e_analytic(2.0, 1.5, 0.0) == 0.0
        assert delta_e_analytic(1.0, 1.0, 1e-4) == pytest.approx(-3.86544e-6, rel=1e-5)

    @given(
        n1=st.floats(min_value=1e-8, max_value=1e-2),
        exponent=st.integers(min_value=-6, max_value=6),
    )
    def test_delta_linear_in_n1(self, n1, exponent):
        # power-of-two factors scale exactly; general factors to an ulp
        factor = 2.0**exponent
        assert delta_e_analytic(1.0, 1.5, factor * n1) == factor * delta_e_analytic(
            1.0, 1.5, n1
        )

    def test_surface_contribution(self):
        assert surface_energy(1.0, SurfaceTermSpec(0.0)) == 0.0
        assert surface_energy(1.0, SurfaceTermSpec(0.01)) == pytest.approx(0.01)
        assert surface_energy(2.0, SurfaceTermSpec(0.01)) == pytest.approx(0.000625)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            e0_analytic(0.0, 1.0)
        with pytest.raises(ValueError):
            delta_e_analytic(1.0, -1.0, 0.0)
        with pytest.raises(ValueError, match="dispersion coefficient must be >= 0, got -1e-06"):
            delta_e_analytic(1.0, 1.0, -1e-6)
        with pytest.raises(ValueError):
            SurfaceTermSpec(math.inf)


class TestTotalEnergy:
    def test_dispersion_free_reduces_to_leading_term(self):
        breakdown = total_energy_analytic(Scenario(1.0, Cauchy(1.0, 0.0)))
        assert breakdown.total == pytest.approx(-math.pi**2 / 720.0)
        assert breakdown.method is Method.ANALYTIC
        assert breakdown.error_estimate == 0.0
        assert not breakdown.beyond_validity

    def test_dispersive_bracket(self):
        breakdown = total_energy_analytic(Scenario(1.0, Cauchy(1.0, 0.001)))
        expected = -(math.pi**2 / 720.0) * (1.0 + 2.0 * math.pi**2 * 0.001 / 7.0)
        assert breakdown.total == pytest.approx(expected, rel=1e-12)
        assert breakdown.total == pytest.approx(-0.0137464, rel=1e-5)

    @given(
        n0=st.floats(min_value=0.5, max_value=3.0),
        n1=st.floats(min_value=1e-8, max_value=1e-3),
        L=st.floats(min_value=0.3, max_value=5.0),
    )
    def test_correction_ratio_matches_bracket(self, n0, n1, L):
        breakdown = total_energy_analytic(Scenario(L, Cauchy(n0, n1)))
        ratio = breakdown.delta_e / breakdown.e0
        assert ratio == pytest.approx(
            2.0 * math.pi**2 * n1 / (7.0 * n0**3 * L * L), rel=1e-12
        )

    def test_breakdown_sums_to_total(self):
        breakdown = total_energy_analytic(
            Scenario(1.2, Cauchy(1.4, 1e-4), SurfaceTermSpec(0.03))
        )
        parts = breakdown.e0 + breakdown.delta_e + breakdown.e_surface
        assert breakdown.total == pytest.approx(parts, abs=1e-18)

    @given(
        lam=st.floats(min_value=0.25, max_value=4.0),
        n0=st.floats(min_value=0.5, max_value=3.0),
        n1=st.floats(min_value=0.0, max_value=1e-3),
    )
    def test_scaling_law(self, lam, n0, n1):
        base = total_energy_analytic(Scenario(1.0, Cauchy(n0, n1)))
        scaled = total_energy_analytic(Scenario(lam, Cauchy(n0, lam * lam * n1)))
        assert scaled.total == pytest.approx(base.total / lam**3, rel=1e-12)

    def test_validity_flag(self):
        assert total_energy_analytic(Scenario(0.1, Cauchy(1.0, 0.01))).beyond_validity
        assert not total_energy_analytic(Scenario(1.0, Cauchy(1.0, 0.01))).beyond_validity

    def test_tabulated_unsupported(self):
        scenario = Scenario(1.0, Tabulated((0.0, 1.0), (1.5, 1.4)))
        with pytest.raises(UnsupportedModelError):
            total_energy_analytic(scenario)


class TestForces:
    def test_reference_values(self):
        assert force_analytic(Scenario(1.0, Cauchy(1.0, 0.0))) == pytest.approx(
            -math.pi**2 / 240.0
        )
        assert force_analytic(Scenario(1.0, Cauchy(2.0, 0.0))) == pytest.approx(
            -math.pi**2 / 480.0
        )

    def test_dispersive_part(self):
        with_dispersion = force_analytic(Scenario(1.0, Cauchy(1.0, 1e-3)))
        without = force_analytic(Scenario(1.0, Cauchy(1.0, 0.0)))
        assert with_dispersion - without == pytest.approx(-math.pi**4 * 1e-3 / 504.0, rel=1e-12)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n0", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n1", [0.0, 1e-4, 1e-3])
    def test_matches_central_difference(self, L, n0, n1):
        h = 1e-5 * L
        up = total_energy_analytic(Scenario(L + h, Cauchy(n0, n1))).total
        down = total_energy_analytic(Scenario(L - h, Cauchy(n0, n1))).total
        finite_difference = -(up - down) / (2.0 * h)
        assert force_analytic(Scenario(L, Cauchy(n0, n1))) == pytest.approx(
            finite_difference, rel=1e-8
        )

    def test_surface_term_consistent_with_energy_derivative(self):
        # the surface force follows from -d(c_s/L^4)/dL, i.e. +4*c_s/L^5
        scenario = Scenario(1.3, Constant(1.0), SurfaceTermSpec(0.02))
        h = 1e-6 * scenario.L
        up = total_energy_analytic(
            Scenario(scenario.L + h, scenario.model, scenario.surface)
        ).total
        down = total_energy_analytic(
            Scenario(scenario.L - h, scenario.model, scenario.surface)
        ).total
        assert force_analytic(scenario) == pytest.approx(-(up - down) / (2.0 * h), rel=1e-7)


class TestRangeRules:
    """Each range rule's exact message, and which rule speaks when two fail."""

    WITHIN = " must lie within 1e-300 and 1e300"
    BELOW = " must not exceed 1e300"
    TABLE = Tabulated((0.0, 1.0), (1e-80, 2.0))

    @pytest.mark.parametrize(
        "L, model, c_s, message",
        [
            (0.0, Constant(1.0), None, "separation must be positive and finite, got 0.0"),
            (-2.5, Constant(1.0), None, "separation must be positive and finite, got -2.5"),
            (math.inf, Constant(1.0), None, "separation must be positive and finite, got inf"),
            (math.nan, Constant(1.0), None, "separation must be positive and finite, got nan"),
            (1e-51, Constant(1.0), None, "separation 1e-51 out of range: L^6" + WITHIN),
            (1.0, Constant(1e76), None, "refractive index 1e+76 out of range: n^4" + WITHIN),
            (1.0, TABLE, None, "refractive index 1e-80 out of range: n^4" + WITHIN),
            (1e40, Constant(1e30), None,
             "separation 1e+40 out of range at refractive index 1e+30: n^4*L^6" + WITHIN),
            (1.0, Cauchy(1.0, 1e301), None,
             "dispersion coefficient 1e+301 out of range at separation 1.0: n1" + BELOW),
            (1e-3, Cauchy(1.0, 1e290), None,
             "dispersion coefficient 1e+290 out of range at separation 0.001: "
             "n1/(n0^4*L^5)" + BELOW),
            (1e-10, Cauchy(1.0, 1e245), None,
             "dispersion coefficient 1e+245 out of range at separation 1e-10: "
             "n1/(n0^4*L^6)" + BELOW),
            (1e10, Cauchy(1e-10, 1e295), None,
             "dispersion coefficient 1e+295 out of range at separation 10000000000.0: "
             "n1/(n0^3*L^2)" + BELOW),
            (1.0, Constant(1.0), -1e301,
             "surface coefficient -1e+301 out of range at separation 1.0: c_s" + BELOW),
            (1e-3, Constant(1.0), 1e290,
             "surface coefficient 1e+290 out of range at separation 0.001: c_s/L^4" + BELOW),
            (1e-10, Constant(1.0), 1e255,
             "surface coefficient 1e+255 out of range at separation 1e-10: c_s/L^5" + BELOW),
            # two rules fail: the first in the rules' order speaks
            (1e-60, Constant(1e-80), None, "separation 1e-60 out of range: L^6" + WITHIN),
            (1.0, Cauchy(1.0, 1e301), 1e301,
             "dispersion coefficient 1e+301 out of range at separation 1.0: n1" + BELOW),
        ],
        ids=[
            "zero-L", "negative-L", "inf-L", "nan-L", "L^6", "n^4", "table-n^4", "n^4*L^6",
            "n1", "n1/(n0^4*L^5)", "n1/(n0^4*L^6)", "n1/(n0^3*L^2)", "c_s", "c_s/L^4",
            "c_s/L^5", "L^6-and-n^4", "n1-and-c_s",
        ],
    )
    def test_message(self, L, model, c_s, message):
        surface = SurfaceTermSpec(c_s) if c_s is not None else None
        with pytest.raises(ValueError) as excinfo:
            Scenario(L, model, surface)
        assert str(excinfo.value) == message
