"""Conversion from natural units (hbar = c = 1) to SI, presentation-layer only.

All computation happens in natural units where every formula is exact;
a result is scaled to SI once, on output.  With lengths measured in a unit
of ``u`` meters, an energy per area E (dimension length^-3) becomes
E * hbar*c / u^3 in J/m^2, and a force per area F (length^-4) becomes
F * hbar*c / u^4 in Pa.

hbar*c = 3.161526773e-26 J m to ten significant figures (CODATA 2018, h and
c exact); the literal is the double that scipy.constants' hbar * c gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = ["HBAR_C_JOULE_METER", "UnitMode", "UnitSystem", "convert_units"]

HBAR_C_JOULE_METER = 3.1615267734966903e-26


class UnitMode(Enum):
    NATURAL = "natural"
    SI = "si"


@dataclass(frozen=True)
class UnitSystem:
    """Output unit choice; SI mode needs the meter value of the length unit.

    The unit must lie within 1e-75 and 1e75 meters, so that its cube and
    fourth power, which the conversion divides by, stay within 1e+-300.
    """

    mode: UnitMode = UnitMode.NATURAL
    length_unit_in_meters: Optional[float] = None

    def __post_init__(self):
        if self.mode is UnitMode.SI:
            unit = self.length_unit_in_meters
            if unit is None or not 0.0 < unit < math.inf:
                raise ValueError("SI output needs a positive, finite length unit in meters")
            if 4.0 * abs(math.log10(unit)) > 300.0:
                raise ValueError(
                    f"length unit {unit!r} out of range: unit^3 and unit^4 "
                    "must lie within 1e-300 and 1e300"
                )


def convert_units(value, unit_system: UnitSystem, quantity: str = "energy_per_area"):
    """Scale a natural-units value, or each element of an array, to the output units.

    ``quantity`` is "energy_per_area" (to J/m^2) or "force_per_area"
    (to Pa).  Natural mode is the identity.  A finite, non-zero value
    whose SI value overflows to +-inf or underflows to 0 raises ValueError,
    which names an array's first such element.
    """
    if quantity not in ("energy_per_area", "force_per_area"):
        raise ValueError(f"unknown quantity kind {quantity!r}")
    if unit_system.mode is UnitMode.NATURAL:
        return value
    unit = unit_system.length_unit_in_meters
    power = 3 if quantity == "energy_per_area" else 4
    # an array overflows to inf as a float does, without a warning
    with np.errstate(over="ignore"):
        converted = value * HBAR_C_JOULE_METER / unit**power
    finite = abs(value) < math.inf
    lost = (value != 0.0) & finite & ((converted == 0.0) | (abs(converted) == math.inf))
    if isinstance(lost, np.ndarray):
        if lost.any():  # the float call words the error for the first element lost
            convert_units(float(value[lost.argmax()]), unit_system, quantity)
    elif lost:
        raise ValueError(
            f"{quantity.replace('_', ' ')} {value!r} out of range in SI units at "
            f"length unit {unit!r}: value*hbar*c/unit^{power} is {converted!r}"
        )
    return converted
