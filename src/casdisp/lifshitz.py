"""Numeric evaluation of the imaginary-frequency energy integral.

Between ideal metal plates with a medium of index n(i*xi), the energy per
unit area is

    E = (1 / 2*pi^2) * int_0^inf dxi  int_{kappa_1}^inf dkappa
        kappa * log(1 - e^(-2*kappa*L)),         kappa_1 = n(i*xi)*xi.

The inner kappa integral has a closed form: expanding the logarithm in
powers of e^(-2*kappa*L) and integrating term by term,

    I(kappa_1, L) = -(kappa_1 / 2L) * Li_2(e^(-2*kappa_1*L))
                    - (1 / 4L^2)    * Li_3(e^(-2*kappa_1*L)),

which trades a nested quadrature for a single polylogarithm evaluation
(the raw two-dimensional quadrature survives as a test oracle, see
``inner_integral_quadrature``).  As I(kappa_1, L) = I(kappa_1*L, 1)/L^2,
every route integrates I(kappa_1*L, 1) over u = n*L*xi (n = n0, or the
smallest tabulated index) and divides by 2*pi^2*n*L^3.  The integrand
decays like e^(-2u); the window [0, u_max] is fixed by
e^(-2*u_max) = ``tail_cut``, and the analytic bound on the discarded tail,
a function of u_max alone, is added to the error estimate.

FIRST_ORDER_SPLIT uses kappa_0 = n0*xi plus the first-order dispersive
correction, matching the closed forms: c0/(2*pi^2*n0*L^3) and
n1*c1/(2*pi^2*n0^4*L^5), with the pure numbers c0 = int I(u, 1) du and
c1 = int u^4 log(1 - e^(-2u)) du integrated once per ``QuadratureSpec``,
so the error estimates are relative at every separation.  FULL_KAPPA1
keeps the complete kappa_1 = n0*xi - n1*xi^3 in the lower limit.  Past the
turnover of kappa_1 the model is out of its domain (and the untruncated
integral would diverge), so the evaluation is defined on the truncation
window and any clamping of kappa_1 raises the beyond-validity flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from typing import Callable, NamedTuple

from scipy.integrate import quad as _quadpack

from .closed_form import EnergyBreakdown, Method, Scenario, surface_energy
from .dispersion import (
    DispersionModel,
    Tabulated,
    cauchy_coefficients,
    kappa_lower,
    validity,
)
from .special import ZETA_VALUES, log_one_minus_exp, polylog_exp_neg

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "QuadratureError",
    "Mode",
    "Estimate",
    "inner_integral",
    "inner_integral_quadrature",
    "e0_lifshitz",
    "delta_e_lifshitz_first_order",
    "delta_e_lifshitz_full",
    "total_energy_lifshitz",
    "force_lifshitz",
    "check_step_fraction",
]

_TWO_PI_SQ = 2.0 * math.pi**2


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policy for the dimensionless outer integral.

    ``tail_cut`` fixes the window [0, u_max] in u = n*L*xi through
    e^(-2*u_max) = tail_cut; the analytic bound on the remainder is added
    to the reported error estimate.  ``rel_tol`` and ``abs_tol`` apply to
    the integral over u, before it is scaled to an energy.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200
    tail_cut: float = 1e-16

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"relative tolerance must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise ValueError(f"absolute tolerance must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 10:
            raise ValueError(
                f"subdivision limit must be at least 10, got {self.max_subdivisions}"
            )
        if not 0.0 < self.tail_cut < 1.0:
            raise ValueError(f"tail cut must lie in (0, 1), got {self.tail_cut}")

    @property
    def u_max(self) -> float:
        return -0.5 * math.log(self.tail_cut)


DEFAULT_QUADRATURE = QuadratureSpec()


class Mode(Enum):
    FIRST_ORDER_SPLIT = "split"
    FULL_KAPPA1 = "full"


class Estimate(NamedTuple):
    """A computed value together with an error estimate of the same units."""

    value: float
    error: float


def inner_integral(kappa1: float, L: float) -> float:
    """I(kappa_1, L) = int_{kappa_1}^inf kappa*log(1 - e^(-2*kappa*L)) dkappa.

    Evaluated through the polylogarithm closed form.  I(0, L) is finite,
    -zeta(3)/(4*L^2), and the value vanishes as kappa_1 -> inf.
    """
    if not kappa1 >= 0.0:
        raise ValueError(f"lower limit must be >= 0, got {kappa1}")
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    w = 2.0 * kappa1 * L
    term2 = -(kappa1 / (2.0 * L)) * polylog_exp_neg(2, w) if kappa1 > 0.0 else 0.0
    term3 = -polylog_exp_neg(3, w) / (4.0 * L * L)
    return term2 + term3


def inner_integral_quadrature(
    kappa1: float, L: float, abs_tol: float = 1e-12
) -> float:
    """Brute-force oracle for ``inner_integral``: direct adaptive quadrature.

    Deliberately independent of the polylogarithm reduction; used to verify
    it, never to replace it.
    """
    if not kappa1 >= 0.0:
        raise ValueError(f"lower limit must be >= 0, got {kappa1}")
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")

    def integrand(kappa: float) -> float:
        if kappa <= 0.0:
            return 0.0
        return kappa * log_one_minus_exp(2.0 * kappa * L)

    # e^(-2*kappa*L) < e^-50 beyond the cutoff; the remaining tail is
    # orders of magnitude below abs_tol
    upper = kappa1 + 25.0 / L
    value, _ = _quadpack(
        integrand, kappa1, upper, epsabs=abs_tol, epsrel=1e-12, limit=500
    )
    return value


def _integrate(
    integrand: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec
) -> tuple[float, float]:
    # QUADPACK QAGS behind the QuadratureSpec contract; failure to converge
    # within the subdivision budget surfaces as QuadratureError, never as a
    # warning on a half-trusted number.
    try:
        result = _quadpack(
            integrand,
            lo,
            hi,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
            full_output=1,
        )
    except ValueError as exc:
        raise QuadratureError(f"quadrature rejected the request: {exc}") from exc
    if len(result) > 3:
        raise QuadratureError(str(result[3]).replace("\n", " ").strip())
    return result[0], result[1]


def _e0_tail_bound(u_max: float) -> float:
    # |I(u, 1)| <= e^(-2u) * (u*zeta(2)/2 + zeta(3)/4), integrated over [u_max, inf)
    return math.exp(-2.0 * u_max) * (
        ZETA_VALUES[2] * (u_max / 4.0 + 1.0 / 8.0) + ZETA_VALUES[3] / 8.0
    )


def _delta_tail_bound(u_max: float) -> float:
    # |log(1 - y)| <= y/(1 - e^(-2*u_max)) on the tail y = e^(-2u) <= e^(-2*u_max)
    damp = math.exp(-2.0 * u_max)
    poly = u_max**4 / 2.0 + u_max**3 + 1.5 * u_max**2 + 1.5 * u_max + 0.75
    return damp * poly / (1.0 - damp)


@cache
def _e0_number(quad: QuadratureSpec) -> Estimate:
    # c0 = int_0^inf I(u, 1) du
    raw, err = _integrate(lambda u: inner_integral(u, 1.0), 0.0, quad.u_max, quad)
    return Estimate(raw, err + _e0_tail_bound(quad.u_max))


@cache
def _delta_number(quad: QuadratureSpec) -> Estimate:
    # c1 = int_0^inf u^4 log(1 - e^(-2u)) du
    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return u**4 * log_one_minus_exp(2.0 * u)

    raw, err = _integrate(integrand, 0.0, quad.u_max, quad)
    return Estimate(raw, err + _delta_tail_bound(quad.u_max))


def _scaled(number: Estimate, scale: float) -> Estimate:
    return Estimate(number.value * scale, number.error * scale)


def e0_lifshitz(
    L: float, n0: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> Estimate:
    """Dispersion-free energy per area, c0 / (2*pi^2*n0*L^3).

    Agrees with -pi^2/(720*n0*L^3) to within the reported error estimate.
    """
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    if not n0 > 0.0:
        raise ValueError(f"refractive index must be positive, got {n0}")
    return _scaled(_e0_number(quad), 1.0 / (_TWO_PI_SQ * n0 * L**3))


def delta_e_lifshitz_first_order(
    L: float, model: DispersionModel, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> Estimate:
    """First-order dispersive correction per area.

    Numeric evaluation of (n1*n0 / 2*pi^2) * int_0^inf xi^4
    log(1 - e^(-2*n0*xi*L)) dxi = n1*c1 / (2*pi^2*n0^4*L^5); exactly
    linear in n1 by construction.
    """
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    n0, n1 = cauchy_coefficients(model)
    if n1 == 0.0:
        return Estimate(0.0, 0.0)
    return _scaled(_delta_number(quad), n1 / (_TWO_PI_SQ * n0**4 * L**5))


def delta_e_lifshitz_full(
    L: float, model: DispersionModel, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> tuple[Estimate, bool]:
    """Dispersive part of the full-kappa_1 energy, all orders in n1.

    Integrates the pointwise difference I(kappa_1*L, 1) - I(u, 1) over the
    same window as ``e0_lifshitz``, which keeps the small correction free
    of cancellation against the leading term.  Returns the estimate and
    whether kappa_1 was clamped anywhere in the window.
    """
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    n0, n1 = cauchy_coefficients(model)
    if n1 == 0.0:
        return Estimate(0.0, 0.0), False
    clamped = False

    def integrand(u: float) -> float:
        nonlocal clamped
        low = kappa_lower(model, u / (n0 * L))
        if low.clamped:
            clamped = True
        return inner_integral(low.value * L, 1.0) - inner_integral(u, 1.0)

    raw, err = _integrate(integrand, 0.0, quad.u_max, quad)
    return _scaled(Estimate(raw, err), 1.0 / (_TWO_PI_SQ * n0 * L**3)), clamped


def _tabulated_full(L: float, model: Tabulated, quad: QuadratureSpec) -> Estimate:
    n = min(model.n)

    def integrand(u: float) -> float:
        return inner_integral(kappa_lower(model, u / (n * L)).value * L, 1.0)

    raw, err = _integrate(integrand, 0.0, quad.u_max, quad)
    tail = _e0_tail_bound(quad.u_max)
    return _scaled(Estimate(raw, err + tail), 1.0 / (_TWO_PI_SQ * n * L**3))


def total_energy_lifshitz(
    scenario: Scenario,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    mode: Mode = Mode.FIRST_ORDER_SPLIT,
) -> EnergyBreakdown:
    """Energy breakdown by outer quadrature, in the requested mode.

    FIRST_ORDER_SPLIT requires a constant or quadratic index; FULL_KAPPA1
    accepts any model.  For tabulated data the full value is reported as
    ``e0`` with a zero ``delta_e``, since no dispersion-free reference
    exists to split against.
    """
    L = scenario.L
    model = scenario.model
    e_s = surface_energy(L, scenario.surface) if scenario.surface else 0.0

    if mode is Mode.FULL_KAPPA1 and isinstance(model, Tabulated):
        # sampled data has no closed trust region, so nothing to flag
        e0 = _tabulated_full(L, model, quad)
        delta = Estimate(0.0, 0.0)
        flagged = False
    elif mode in (Mode.FIRST_ORDER_SPLIT, Mode.FULL_KAPPA1):
        n0, _ = cauchy_coefficients(model)
        e0 = e0_lifshitz(L, n0, quad)
        if mode is Mode.FULL_KAPPA1:
            delta, clamped = delta_e_lifshitz_full(L, model, quad)
        else:
            delta, clamped = delta_e_lifshitz_first_order(L, model, quad), False
        flagged = clamped or not validity(model).is_valid_at(L)
    else:
        raise ValueError(f"unknown evaluation mode {mode!r}")

    return EnergyBreakdown(
        e0=e0.value,
        delta_e=delta.value,
        e_surface=e_s,
        total=e0.value + delta.value + e_s,
        method=Method.LIFSHITZ,
        error_estimate=e0.error + delta.error,
        beyond_validity=flagged,
    )


def check_step_fraction(h_rel: float) -> None:
    """Reject a force step fraction outside [1e-7, 1e-2]."""
    if not 1e-7 <= h_rel <= 1e-2:
        raise ValueError(f"step fraction must lie in [1e-7, 1e-2], got {h_rel}")


def force_lifshitz(
    scenario: Scenario,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    h_rel: float = 1e-4,
    mode: Mode = Mode.FIRST_ORDER_SPLIT,
) -> Estimate:
    """Force per area as a central difference of the quadrature energy.

    -[E(L*(1+h)) - E(L*(1-h))] / (2*L*h), h_rel as ``check_step_fraction``
    allows; the reported error combines propagated quadrature errors with
    an O(h^2) truncation allowance.
    """
    check_step_fraction(h_rel)
    L = scenario.L
    up = total_energy_lifshitz(replace(scenario, L=L * (1.0 + h_rel)), quad, mode)
    down = total_energy_lifshitz(replace(scenario, L=L * (1.0 - h_rel)), quad, mode)
    h = L * h_rel
    value = -(up.total - down.total) / (2.0 * h)
    # leading 1/L^3 profile gives |truncation| ~ (10/3)*h_rel^2*|F|; doubled
    truncation = 7.0 * h_rel**2 * abs(value)
    error = (up.error_estimate + down.error_estimate) / (2.0 * h) + truncation
    return Estimate(value, error)
