"""Cross-validation of the closed forms against the quadrature path.

Both routes target the same total energy; this module quantifies their
agreement, extracts the first-order dispersive slope numerically from the
full-kappa_1 evaluation, and sweeps the trust-region bound
dE/E0 = 2*pi^2*n1/(7*n0^3*L^2) < 1/(14*n0^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .closed_form import (
    EnergyBreakdown,
    Scenario,
    delta_e_analytic,
    e0_analytic,
    range_error,
    total_energy_analytic,
)
from .dispersion import Cauchy, Constant, DispersionModel, cauchy_coefficients, min_separation
from .lifshitz import (
    DEFAULT_QUADRATURE,
    Mode,
    QuadratureSpec,
    delta_e_lifshitz_first_order,
    delta_e_lifshitz_full,
    e0_lifshitz,
    total_energy_lifshitz,
)
from .special import cutoff_zeta_demo, richardson, zeta_value

__all__ = [
    "ComparisonReport",
    "ValidityPoint",
    "CheckResult",
    "compare_methods",
    "first_order_slope",
    "validity_sweep",
    "run_validation_checks",
    "SLOPE_REL_LIMIT",
    "ZETA_DEMO_ABS_LIMIT",
]

# Intrinsic accuracy of the slope extraction at the default probe (the
# probe-induced bias is first order in the probe, ~2e-5 relative) and of
# the Richardson-extrapolated regulated sums.  These checks keep their own
# thresholds; the agreement tolerance of compare_methods is the caller's.
SLOPE_REL_LIMIT = 1e-4
ZETA_DEMO_ABS_LIMIT = 1e-6


@dataclass(frozen=True)
class ComparisonReport:
    """Agreement between the closed-form and quadrature energy breakdowns."""

    scenario: Scenario
    analytic: EnergyBreakdown
    lifshitz: EnergyBreakdown
    rel_discrepancy_e0: float
    rel_discrepancy_delta: float
    rel_discrepancy_total: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidityPoint:
    """One separation in a trust-region sweep.

    ``within_bound`` is None when the separation is at or below the
    trust-region boundary, where the bound statement does not apply.
    """

    L: float
    ratio: float
    bound: float
    within_bound: Optional[bool]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _quotient(num: float, den: float) -> float:
    # num/den, or nan where den is 0 or not finite: a check on it then fails, never raises
    return num / den if 0.0 < den < math.inf else math.nan


def _rel_discrepancy(a: float, b: float) -> float:
    if a == b:
        return 0.0 if abs(a) < math.inf else math.nan
    return _quotient(abs(a - b), max(abs(a), abs(b)))


def _verdict(analytic: tuple, lifshitz: tuple, tol: float) -> tuple[tuple, float, bool]:
    """Relative discrepancies of the routes' (e0, delta_e, total), the worst, and whether it passes.

    A discrepancy is nan where either value is not finite, and then so is
    the worst (``max`` would drop it), so the comparison fails.
    """
    discrepancies = tuple(map(_rel_discrepancy, analytic, lifshitz))
    worst = math.nan if any(map(math.isnan, discrepancies)) else max(discrepancies)
    return discrepancies, worst, worst <= tol


def compare_methods(
    scenario: Scenario,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    tol: float = 1e-8,
) -> ComparisonReport:
    """Run both routes on one scenario and compare term by term."""
    analytic = total_energy_analytic(scenario)
    lifshitz = total_energy_lifshitz(scenario, quad, Mode.FIRST_ORDER_SPLIT)
    (d_e0, d_delta, d_total), _, passed = _verdict(
        (analytic.e0, analytic.delta_e, analytic.total),
        (lifshitz.e0, lifshitz.delta_e, lifshitz.total),
        tol,
    )
    return ComparisonReport(
        scenario=scenario,
        analytic=analytic,
        lifshitz=lifshitz,
        rel_discrepancy_e0=d_e0,
        rel_discrepancy_delta=d_delta,
        rel_discrepancy_total=d_total,
        tolerance=tol,
        passed=passed,
    )


# (name, L, model) of the battery's method-agreement checks, in order
_AGREEMENT_CASES = tuple(
    (f"dispersion-free, L={L} n0={n0}", L, Constant(n0))
    for L in (0.5, 1.0, 2.0, 5.0)
    for n0 in (1.0, 1.5, 2.0, 3.0)
) + tuple(
    (f"dispersive, L={L} n0={n0} n1={n1}", L, Cauchy(n0, n1))
    for L, n0, n1 in ((1.0, 1.0, 1e-4), (1.0, 1.5, 1e-3), (2.0, 2.0, 1e-3))
)


def _split_terms(L: float, model: DispersionModel, quad: QuadratureSpec) -> tuple[tuple, tuple]:
    """(e0, delta_e, total) of the closed form and of the split quadrature, with no surface term.

    The bits of ``compare_methods``' two breakdowns of ``Scenario(L,
    model)``, read from the four numbers they are built from.
    """
    failure = range_error(L, model)
    if failure:
        raise failure[1]
    n0, n1 = cauchy_coefficients(model)
    e0, delta = e0_analytic(L, n0), delta_e_analytic(L, n0, n1)
    e0_q = e0_lifshitz(L, n0, quad).value
    delta_q = delta_e_lifshitz_first_order(L, model, quad).value
    # the totals add the zero surface term as analytic_rows and lifshitz_rows do
    return (e0, delta, e0 + delta + 0.0), (e0_q, delta_q, e0_q + delta_q + 0.0)


def first_order_slope(
    L: float,
    n0: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    n1_probe: Optional[float] = None,
) -> float:
    """Dispersive slope [E_full(n1) - E_full(0)] / n1 at a small probe n1.

    Converges to delta_e_analytic(L, n0, 1) as the probe shrinks, with a
    residual first order in the probe.  The default probe 1e-6*L^2 keeps
    the perturbation well inside the trust region yet far above quadrature
    noise.
    """
    if n1_probe is None:
        n1_probe = 1e-6 * L * L
    if not n1_probe > 0.0:
        raise ValueError(f"probe must be positive, got {n1_probe}")
    model = Cauchy(n0, n1_probe)
    if not L > min_separation(model):
        raise ValueError(
            f"probe {n1_probe} leaves the trust region for separation {L}"
        )
    delta, _ = delta_e_lifshitz_full(L, model, quad)
    return delta.value / n1_probe


def validity_sweep(
    model: Cauchy, L_grid: Sequence[float]
) -> list[ValidityPoint]:
    """Trust-region bound dE/E0 < 1/(14*n0^3) across a separation grid."""
    n0, n1 = cauchy_coefficients(model)
    bound, lowest = 1.0 / (14.0 * n0**3), min_separation(model)
    points = []
    for L in L_grid:
        if not L > 0.0:
            raise ValueError(f"separation must be positive, got {L}")
        ratio = 2.0 * math.pi**2 * n1 / (7.0 * n0**3 * L * L)
        within = ratio < bound if L > lowest else None
        points.append(ValidityPoint(L=L, ratio=ratio, bound=bound, within_bound=within))
    return points


def run_validation_checks(
    tol: float = 1e-7, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> list[CheckResult]:
    """The full battery behind the ``validate`` command, in a fixed order.

    ``tol`` is the agreement tolerance for the closed-form/quadrature
    comparisons; the slope and regulated-sum checks run at their intrinsic
    accuracy limits (SLOPE_REL_LIMIT, ZETA_DEMO_ABS_LIMIT).
    """
    checks: list[CheckResult] = []

    for name, L, model in _AGREEMENT_CASES:
        _, worst, passed = _verdict(*_split_terms(L, model, quad), tol)
        checks.append(
            CheckResult(
                f"method agreement, {name}",
                passed,
                f"max rel discrepancy {worst:.3e} vs tol {tol:.1e}",
            )
        )

    target = delta_e_analytic(1.0, 1.0, 1.0)
    slope = first_order_slope(1.0, 1.0, quad, 1e-6)
    residual = abs(slope / target - 1.0)
    checks.append(
        CheckResult(
            "first-order slope at probe 1e-6",
            residual <= SLOPE_REL_LIMIT,
            f"rel residual {residual:.3e} vs limit {SLOPE_REL_LIMIT:.1e}",
        )
    )
    slope_half = first_order_slope(1.0, 1.0, quad, 5e-7)
    res_ratio = _quotient(abs(slope - target), abs(slope_half - target))
    checks.append(
        CheckResult(
            "first-order slope residual halves with the probe",
            1.6 <= res_ratio <= 2.4,
            f"residual ratio {res_ratio:.3f}, expected within [1.6, 2.4]",
        )
    )

    for p, target in ((3, zeta_value(-3)), (5, zeta_value(-5))):
        extrapolated = richardson(
            [cutoff_zeta_demo(p, d) for d in (0.2, 0.1, 0.05)], ratio=4.0
        )
        err = abs(extrapolated - target)
        checks.append(
            CheckResult(
                f"regulated sum extrapolation, p={p}",
                err <= ZETA_DEMO_ABS_LIMIT,
                f"|error| {err:.3e} vs limit {ZETA_DEMO_ABS_LIMIT:.1e}",
            )
        )

    return checks
