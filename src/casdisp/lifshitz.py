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
``inner_integral_quadrature``).  The outer xi integral decays like
e^(-2*n0*L*xi) and is truncated where that factor drops below
``tail_cut``, with the analytic bound on the discarded tail folded into
the reported error estimate.

Two evaluation modes: FIRST_ORDER_SPLIT uses kappa_0 = n0*xi and the
first-order dispersive correction (n1*n0 / 2*pi^2) * int xi^4
log(1 - e^(-2*n0*xi*L)) dxi, matching the closed forms; FULL_KAPPA1 keeps
the complete kappa_1 = n0*xi - n1*xi^3 in the lower limit.  The full mode
exceeds the first-order treatment: past the turnover of kappa_1 the model
is out of its domain (and the untruncated integral would diverge), so the
evaluation is defined on the truncation window and any clamping of
kappa_1 raises the beyond-validity flag on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
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
]

_TWO_PI_SQ = 2.0 * math.pi**2


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policy for the outer integral.

    ``tail_cut`` fixes the truncation point xi_max through
    e^(-2*L*n0*xi_max) = tail_cut; the analytic bound on the remainder is
    added to the reported error estimate.
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
    value, abserr = result[0], result[1]
    return value, abserr


def _index_floor(model: DispersionModel) -> float:
    if isinstance(model, Tabulated):
        return min(model.n)
    return model.n0


def _xi_cutoff(L: float, n_floor: float, tail_cut: float) -> float:
    return -math.log(tail_cut) / (2.0 * L * n_floor)


def _e0_tail_bound(L: float, n0: float, xi_max: float) -> float:
    # |I(n0*xi, L)| <= e^(-2*n0*L*xi) * (n0*xi*zeta(2)/(2L) + zeta(3)/(4L^2)),
    # integrated in closed form over [xi_max, inf); units of the raw integral
    a = 2.0 * n0 * L
    damp = math.exp(-a * xi_max)
    return damp * (
        (n0 * ZETA_VALUES[2] / (2.0 * L)) * (xi_max / a + 1.0 / a**2)
        + ZETA_VALUES[3] / (4.0 * L * L * a)
    )


def _delta_tail_bound(L: float, n0: float, xi_max: float, tail_cut: float) -> float:
    # |log(1 - y)| <= y/(1 - tail_cut) for y = e^(-a*xi) <= tail_cut
    a = 2.0 * n0 * L
    damp = math.exp(-a * xi_max)
    poly = (
        xi_max**4 / a
        + 4.0 * xi_max**3 / a**2
        + 12.0 * xi_max**2 / a**3
        + 24.0 * xi_max / a**4
        + 24.0 / a**5
    )
    return damp * poly / (1.0 - tail_cut)


def e0_lifshitz(
    L: float, n0: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> Estimate:
    """Dispersion-free energy per area by outer quadrature over I(n0*xi, L).

    Agrees with the closed form -pi^2/(720*n0*L^3) to within the reported
    error estimate.
    """
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    if not n0 > 0.0:
        raise ValueError(f"refractive index must be positive, got {n0}")
    xi_max = _xi_cutoff(L, n0, quad.tail_cut)
    raw, err = _integrate(lambda xi: inner_integral(n0 * xi, L), 0.0, xi_max, quad)
    tail = _e0_tail_bound(L, n0, xi_max)
    return Estimate(raw / _TWO_PI_SQ, (err + tail) / _TWO_PI_SQ)


def delta_e_lifshitz_first_order(
    L: float, model: DispersionModel, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> Estimate:
    """First-order dispersive correction per area.

    Numeric evaluation of (n1*n0 / 2*pi^2) * int_0^inf xi^4
    log(1 - e^(-2*n0*xi*L)) dxi; exactly linear in n1 by construction.
    """
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    n0, n1 = cauchy_coefficients(model)
    if n1 == 0.0:
        return Estimate(0.0, 0.0)
    a = 2.0 * n0 * L

    def integrand(xi: float) -> float:
        if xi <= 0.0:
            return 0.0
        return xi**4 * log_one_minus_exp(a * xi)

    xi_max = _xi_cutoff(L, n0, quad.tail_cut)
    raw, err = _integrate(integrand, 0.0, xi_max, quad)
    tail = _delta_tail_bound(L, n0, xi_max, quad.tail_cut)
    scale = n1 * n0 / _TWO_PI_SQ
    return Estimate(scale * raw, scale * (err + tail))


def delta_e_lifshitz_full(
    L: float, model: DispersionModel, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> tuple[Estimate, bool]:
    """Dispersive part of the full-kappa_1 energy, all orders in n1.

    Integrates the pointwise difference I(kappa_1(xi), L) - I(n0*xi, L)
    over the same truncation window as ``e0_lifshitz``, which keeps the
    small correction free of cancellation against the leading term.
    Returns the estimate and whether kappa_1 was clamped anywhere in the
    window.
    """
    if not L > 0.0:
        raise ValueError(f"separation must be positive, got {L}")
    n0, n1 = cauchy_coefficients(model)
    if n1 == 0.0:
        return Estimate(0.0, 0.0), False
    clamped = False

    def integrand(xi: float) -> float:
        nonlocal clamped
        low = kappa_lower(model, xi)
        if low.clamped:
            clamped = True
        return inner_integral(low.value, L) - inner_integral(n0 * xi, L)

    xi_max = _xi_cutoff(L, n0, quad.tail_cut)
    raw, err = _integrate(integrand, 0.0, xi_max, quad)
    return Estimate(raw / _TWO_PI_SQ, err / _TWO_PI_SQ), clamped


def _tabulated_full(
    L: float, model: Tabulated, quad: QuadratureSpec
) -> Estimate:
    xi_max = _xi_cutoff(L, _index_floor(model), quad.tail_cut)
    raw, err = _integrate(
        lambda xi: inner_integral(kappa_lower(model, xi).value, L), 0.0, xi_max, quad
    )
    n_floor = _index_floor(model)
    tail = _e0_tail_bound(L, n_floor, xi_max)
    return Estimate(raw / _TWO_PI_SQ, (err + tail) / _TWO_PI_SQ)


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


def force_lifshitz(
    scenario: Scenario,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    h_rel: float = 1e-4,
    mode: Mode = Mode.FIRST_ORDER_SPLIT,
) -> Estimate:
    """Force per area as a central difference of the quadrature energy.

    -[E(L*(1+h)) - E(L*(1-h))] / (2*L*h) with 1e-7 <= h_rel <= 1e-2; the
    reported error combines propagated quadrature errors with an O(h^2)
    truncation allowance.
    """
    if not 1e-7 <= h_rel <= 1e-2:
        raise ValueError(f"step fraction must lie in [1e-7, 1e-2], got {h_rel}")
    L = scenario.L
    up = total_energy_lifshitz(replace(scenario, L=L * (1.0 + h_rel)), quad, mode)
    down = total_energy_lifshitz(replace(scenario, L=L * (1.0 - h_rel)), quad, mode)
    h = L * h_rel
    value = -(up.total - down.total) / (2.0 * h)
    # leading 1/L^3 profile gives |truncation| ~ (10/3)*h_rel^2*|F|; doubled
    truncation = 7.0 * h_rel**2 * abs(value)
    error = (up.error_estimate + down.error_estimate) / (2.0 * h) + truncation
    return Estimate(value, error)
