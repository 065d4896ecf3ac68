import math

import pytest

from casdisp.units import HBAR_C_JOULE_METER, UnitMode, UnitSystem, convert_units


def test_hbar_c_literal_is_the_scipy_product():
    from scipy.constants import c, hbar

    assert HBAR_C_JOULE_METER == hbar * c


def test_hbar_c_documented_value():
    # 3.161526773e-26 J m to ten significant figures
    assert HBAR_C_JOULE_METER == pytest.approx(3.161526773e-26, rel=1e-9)


def test_natural_mode_is_identity():
    units = UnitSystem()
    assert convert_units(-0.25, units, "energy_per_area") == -0.25
    assert convert_units(1.5, units, "force_per_area") == 1.5


def test_casimir_pressure_at_one_micron():
    # -pi^2/240 in natural units with a 1 um length unit is about -1.3 mPa
    units = UnitSystem(UnitMode.SI, 1e-6)
    pressure = convert_units(-math.pi**2 / 240.0, units, "force_per_area")
    assert pressure == pytest.approx(-1.3001257732e-3, rel=1e-9)


def test_energy_scaling_dimension():
    units = UnitSystem(UnitMode.SI, 1e-6)
    energy = convert_units(1.0, units, "energy_per_area")
    assert energy == pytest.approx(HBAR_C_JOULE_METER / 1e-18)


def test_doubling_length_unit_divides_force_by_sixteen():
    coarse = UnitSystem(UnitMode.SI, 2e-6)
    fine = UnitSystem(UnitMode.SI, 1e-6)
    ratio = convert_units(1.0, fine, "force_per_area") / convert_units(
        1.0, coarse, "force_per_area"
    )
    assert ratio == pytest.approx(16.0, rel=1e-15)


def test_si_requires_length_unit():
    with pytest.raises(ValueError):
        UnitSystem(UnitMode.SI)
    with pytest.raises(ValueError):
        UnitSystem(UnitMode.SI, -1.0)


def test_unknown_quantity_rejected():
    with pytest.raises(ValueError):
        convert_units(1.0, UnitSystem(), "momentum")
