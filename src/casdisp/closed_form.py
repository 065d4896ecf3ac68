"""Closed-form energies and forces in natural units (hbar = c = 1).

For plates a distance L apart with a medium of constant index n0, the
zero-point energy per unit plate area is E0 = -pi^2/(720*n0*L^3).  A
quadratic dispersion n(omega) = n0 + n1*omega^2 adds, to first order,
dE = -n1*pi^4/(2520*n0^4*L^5), so that

    E = -(pi^2 / (720*L^3*n0)) * (1 + 2*pi^2*n1 / (7*n0^3*L^2)).

Forces per unit area follow from F = -dE/dL.  An optional boundary-local
term E_s = c_s/L^4 with a user-supplied coefficient can be switched in; its
force contribution then falls off as 1/L^5.  Energies per area carry
dimension length^-3, forces per area length^-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .dispersion import Cauchy, DispersionModel, Tabulated, cauchy_coefficients, min_separation

__all__ = [
    "Method",
    "SurfaceTermSpec",
    "Scenario",
    "EnergyBreakdown",
    "e0_analytic",
    "delta_e_analytic",
    "surface_energy",
    "total_energy_analytic",
    "force_analytic",
]


# powers of ten either side of 1 that the scales of a result may span
_DECADES = 300
# (i, j, name) of the products value*n^-i*L^-j the routes form from n1, and from c_s
_NUMERATORS = (
    ("dispersion coefficient",
     ((0, 0, "n1"), (4, 5, "n1/(n0^4*L^5)"), (4, 6, "n1/(n0^4*L^6)"), (3, 2, "n1/(n0^3*L^2)"))),
    ("surface coefficient", ((0, 0, "c_s"), (0, 4, "c_s/L^4"), (0, 5, "c_s/L^5"))),
)
_WITHIN = f"must lie within 1e-{_DECADES} and 1e{_DECADES}"


class Method(Enum):
    ANALYTIC = "analytic"
    LIFSHITZ = "lifshitz"


@dataclass(frozen=True)
class SurfaceTermSpec:
    """Coefficient of the boundary term E_s = c_s / L^4 (sign free)."""

    c_s: float

    def __post_init__(self):
        if not math.isfinite(self.c_s):
            raise ValueError(f"surface coefficient must be finite, got {self.c_s}")


@dataclass(frozen=True)
class Scenario:
    """Plate separation, medium model and optional surface term: the full problem."""

    L: float
    model: DispersionModel
    surface: Optional[SurfaceTermSpec] = None

    def __post_init__(self):
        failure = range_error(self.L, self.model, self.surface)
        if failure:
            raise failure[1]


def range_error(L, model: DispersionModel, surface: Optional[SurfaceTermSpec] = None):
    """The first row whose scales leave 1e+-300, as (row, ValueError), or None.

    ``L``, or the n1 of a ``Cauchy`` model, may be an array of rows: the
    error names the value a loop of ``Scenario``s would meet first."""
    n, n1 = (min(model.n), 0.0) if isinstance(model, Tabulated) else cauchy_coefficients(model)
    c_s = surface.c_s if surface else 0.0
    column = L if isinstance(L, np.ndarray) else n1
    if isinstance(column, np.ndarray):
        # Each rule passes on an interval of L and of n1, so every row passes
        # when the smallest and largest do by a margin far above log10's
        # rounding; otherwise the rows are checked in order.
        ends = (column.argmin(), column.argmax())
        if not any(_out_of_range(_at(L, k), n, _at(n1, k), c_s, 1e-6) for k in ends):
            return None
    for row in range(column.size if isinstance(column, np.ndarray) else 1):
        message = _out_of_range(_at(L, row), n, _at(n1, row), c_s)
        if message:
            return row, ValueError(message)
    return None


def _out_of_range(L: float, n: float, n1: float, c_s: float, margin: float = 0.0):
    # the message of the first range rule a row fails, or None; a margin
    # asks every count of decades to keep that far inside its bound
    if not 0.0 < L < math.inf:
        return f"separation must be positive and finite, got {L}"
    # The routes divide by products n^i*L^j of the index n (n0, or a
    # table's smallest) and the separation, up to n^4*L^6 in the
    # closed-form force.  Every such product lies within 1e+-300, and so
    # never overflows or divides by an underflowed zero, when n^4, L^6
    # and n^4*L^6 do: its exponent is a weighted mean of theirs and 0.
    log_L, log_n = math.log10(L), math.log10(n)
    bound = _DECADES - margin
    if abs(6.0 * log_L) > bound:
        return f"separation {L!r} out of range: L^6 {_WITHIN}"
    if abs(4.0 * log_n) > bound:
        return f"refractive index {n!r} out of range: n^4 {_WITHIN}"
    if abs(6.0 * log_L + 4.0 * log_n) > bound:
        return f"separation {L!r} out of range at refractive index {n!r}: n^4*L^6 {_WITHIN}"
    # n1 and c_s are numerators of the terms they scale: a product that
    # underflows rounds a term to the zero it nearly is, but one that
    # overflows prints inf.  Each product n1*n^-i*L^-j or c_s*L^-j the
    # routes form must stay below 1e300.
    for value, (name, products) in zip((n1, c_s), _NUMERATORS):
        if value == 0.0:
            continue
        log_value = math.log10(abs(value))
        for i, j, product in products:
            if log_value - i * log_n - j * log_L > bound:
                return (f"{name} {value!r} out of range at separation {L!r}: "
                        f"{product} must not exceed 1e{_DECADES}")
    return None


def _at(x, row: int):
    # one row of a float or an array, as a float
    return float(x[row]) if isinstance(x, np.ndarray) else x


def _power(x, p: int):
    # x**p of a float, or of each element of an array: numpy's ** need not round alike
    return np.array([v**p for v in x.tolist()]) if isinstance(x, np.ndarray) else x**p


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per unit plate area, split by origin.

    ``beyond_validity`` marks results computed outside the dispersion
    model's trust region (separation at or below 2*pi*sqrt(n1)); the
    numbers remain evaluable mathematics and are reported anyway.
    ``force`` and ``force_error`` hold -d(total)/dL and its error, from the
    same evaluation as the energy.  ``model_error`` bounds what the model
    itself leaves out, apart from ``error_estimate``: the first-order part
    of the full-kappa_1 energy past the peak of kappa_1, where its window
    ends.  A column's breakdown holds arrays where a field varies by row.
    """

    e0: float
    delta_e: float
    e_surface: float
    total: float
    method: Method
    error_estimate: float
    beyond_validity: bool = False
    force: Optional[float] = None
    force_error: Optional[float] = None
    model_error: float = 0.0


def _check_positive(L, n0: float = 1.0) -> None:
    # the argument checks of the functions of a separation, or of an array of them
    if not (np.all(L > 0.0) if isinstance(L, np.ndarray) else L > 0.0):
        raise ValueError(f"separation must be positive, got {L}")
    if not n0 > 0.0:
        raise ValueError(f"refractive index must be positive, got {n0}")


def e0_analytic(L: float, n0: float) -> float:
    """Dispersion-free zero-point energy per area, -pi^2/(720*n0*L^3); L may be an array."""
    _check_positive(L, n0)
    return -math.pi**2 / (720.0 * n0 * _power(L, 3))


def delta_e_analytic(L: float, n0: float, n1: float) -> float:
    """First-order dispersive correction per area, -n1*pi^4/(2520*n0^4*L^5)."""
    _check_positive(L, n0)
    if not (np.all(n1 >= 0.0) if isinstance(n1, np.ndarray) else n1 >= 0.0):
        raise ValueError(f"dispersion coefficient must be >= 0, got {n1}")
    # 0.0 - n1 is -n1 to the bit, but 0.0 rather than -0.0 where n1 = 0
    return (0.0 - n1) * math.pi**4 / (2520.0 * n0**4 * _power(L, 5))


def surface_energy(L: float, spec: SurfaceTermSpec) -> float:
    """Boundary term c_s / L^4."""
    _check_positive(L)
    return spec.c_s / _power(L, 4)


def analytic_rows(L, model: DispersionModel, surface=None) -> EnergyBreakdown:
    """Closed-form breakdown and force for a constant or quadratic index.

    ``L``, or the n1 of a ``Cauchy`` model, may be an array of rows: each
    field is then an array over them, or a float where it does not vary,
    with the bits of the call at one row.
    """
    n0, n1 = cauchy_coefficients(model)
    e0, delta = e0_analytic(L, n0), delta_e_analytic(L, n0, n1)
    e_s = surface_energy(L, surface) if surface else 0.0
    force = -math.pi**2 / (240.0 * n0 * _power(L, 4))
    force = force - n1 * math.pi**4 / (504.0 * n0**4 * _power(L, 6))
    if surface:
        force = force + 4.0 * surface.c_s / _power(L, 5)
    return EnergyBreakdown(
        e0=e0, delta_e=delta, e_surface=e_s, total=e0 + delta + e_s, method=Method.ANALYTIC,
        error_estimate=0.0, beyond_validity=L <= min_separation(model), force=force,
        force_error=0.0,
    )


def total_energy_analytic(scenario: Scenario) -> EnergyBreakdown:
    """Closed-form energy breakdown, with its force, for a constant or quadratic index."""
    return analytic_rows(scenario.L, scenario.model, scenario.surface)


def force_analytic(scenario: Scenario) -> float:
    """Force per unit area, -d(total energy)/dL differentiated symbolically."""
    return total_energy_analytic(scenario).force
