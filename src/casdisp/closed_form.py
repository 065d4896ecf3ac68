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

from .dispersion import DispersionModel, Tabulated, cauchy_coefficients, validity

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
# (i, j) of the products value*n^-i*L^-j the routes form from n1 and c_s
_N1_PRODUCTS = (
    (0, 0, "n1"),
    (4, 5, "n1/(n0^4*L^5)"),
    (4, 6, "n1/(n0^4*L^6)"),
    (3, 2, "n1/(n0^3*L^2)"),
)
_CS_PRODUCTS = ((0, 0, "c_s"), (0, 4, "c_s/L^4"), (0, 5, "c_s/L^5"))


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
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"separation must be positive and finite, got {self.L}")
        # The routes divide by products n^i*L^j of the index n (n0, or a
        # table's smallest) and the separation, up to n^4*L^6 in the
        # closed-form force.  Every such product lies within 1e+-300, and so
        # never overflows or divides by an underflowed zero, when n^4, L^6
        # and n^4*L^6 do: its exponent is a weighted mean of theirs and 0.
        if isinstance(self.model, Tabulated):
            n, n1 = min(self.model.n), 0.0
        else:
            n, n1 = cauchy_coefficients(self.model)
        L_decades, n_decades = 6.0 * math.log10(self.L), 4.0 * math.log10(n)
        for decades, quantity in (
            (L_decades, f"separation {self.L!r} out of range: L^6"),
            (n_decades, f"refractive index {n!r} out of range: n^4"),
            (
                L_decades + n_decades,
                f"separation {self.L!r} out of range at refractive index {n!r}: n^4*L^6",
            ),
        ):
            if abs(decades) > _DECADES:
                raise ValueError(f"{quantity} must lie within 1e-{_DECADES} and 1e{_DECADES}")
        # n1 and c_s are numerators of the terms they scale: a product that
        # underflows rounds a term to the zero it nearly is, but one that
        # overflows prints inf.  Each product n1*n^-i*L^-j or c_s*L^-j the
        # routes form must stay below 1e300.
        c_s = self.surface.c_s if self.surface else 0.0
        for value, name, products in (
            (n1, "dispersion coefficient", _N1_PRODUCTS),
            (c_s, "surface coefficient", _CS_PRODUCTS),
        ):
            if value == 0.0:
                continue
            for i, j, product in products:
                decades = math.log10(abs(value)) - i * math.log10(n) - j * math.log10(self.L)
                if decades > _DECADES:
                    raise ValueError(
                        f"{name} {value!r} out of range at separation {self.L!r}: "
                        f"{product} must not exceed 1e{_DECADES}"
                    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per unit plate area, split by origin.

    ``beyond_validity`` marks results computed outside the dispersion
    model's trust region (separation at or below 2*pi*sqrt(n1)); the
    numbers remain evaluable mathematics and are reported anyway.
    ``force`` and ``force_error`` hold -d(total)/dL and its error where the
    route that made the breakdown computed them in the same evaluation, as
    the quadrature routes do; the closed form leaves them to
    ``force_analytic``.  ``model_error`` bounds what the model itself leaves
    out, apart from ``error_estimate``: the first-order part of the
    full-kappa_1 energy past the peak of kappa_1, where its window ends.
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


def e0_analytic(L: float, n0: float) -> float:
    """Dispersion-free zero-point energy per area, -pi^2/(720*n0*L^3)."""
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    if not n0 > 0.0:
        raise ValueError(f"refractive index must be positive, got {n0}")
    return -math.pi**2 / (720.0 * n0 * L**3)


def delta_e_analytic(L: float, n0: float, n1: float) -> float:
    """First-order dispersive correction per area, -n1*pi^4/(2520*n0^4*L^5)."""
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    if not n0 > 0.0:
        raise ValueError(f"refractive index must be positive, got {n0}")
    if not n1 >= 0.0:
        raise ValueError(f"dispersion coefficient must be >= 0, got {n1}")
    if n1 == 0.0:
        return 0.0
    return -n1 * math.pi**4 / (2520.0 * n0**4 * L**5)


def surface_energy(L: float, spec: SurfaceTermSpec) -> float:
    """Boundary term c_s / L^4."""
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    return spec.c_s / L**4


def total_energy_analytic(scenario: Scenario) -> EnergyBreakdown:
    """Closed-form energy breakdown for a constant or quadratic index."""
    n0, n1 = cauchy_coefficients(scenario.model)
    e0 = e0_analytic(scenario.L, n0)
    delta = delta_e_analytic(scenario.L, n0, n1)
    e_s = surface_energy(scenario.L, scenario.surface) if scenario.surface else 0.0
    return EnergyBreakdown(
        e0=e0,
        delta_e=delta,
        e_surface=e_s,
        total=e0 + delta + e_s,
        method=Method.ANALYTIC,
        error_estimate=0.0,
        beyond_validity=not validity(scenario.model).is_valid_at(scenario.L),
    )


def force_analytic(scenario: Scenario) -> float:
    """Force per unit area, -d(total energy)/dL differentiated symbolically."""
    n0, n1 = cauchy_coefficients(scenario.model)
    L = scenario.L
    force = -math.pi**2 / (240.0 * n0 * L**4)
    force -= n1 * math.pi**4 / (504.0 * n0**4 * L**6)
    if scenario.surface is not None:
        force += 4.0 * scenario.surface.c_s / L**5
    return force
