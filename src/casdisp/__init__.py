"""Casimir energy and force between ideal plates across a dispersive dielectric.

Closed-form results for a constant or quadratically dispersive refractive
index, cross-validated against direct quadrature of the imaginary-frequency
energy integral.  Natural units (hbar = c = 1) throughout the core; SI
conversion lives in the output layer.
"""

from .closed_form import (
    EnergyBreakdown,
    Method,
    Scenario,
    SurfaceTermSpec,
    delta_e_analytic,
    e0_analytic,
    force_analytic,
    surface_energy,
    total_energy_analytic,
)
from .crosscheck import (
    ComparisonReport,
    ValidityPoint,
    compare_methods,
    first_order_slope,
    run_validation_checks,
    validity_sweep,
)
from .dispersion import (
    Cauchy,
    Constant,
    DispersionModel,
    Tabulated,
    UnsupportedModelError,
    kappa_lower,
    load_index_table,
    min_separation,
)
from .lifshitz import (
    DEFAULT_QUADRATURE,
    Estimate,
    Mode,
    QuadratureError,
    QuadratureSpec,
    delta_e_lifshitz_first_order,
    delta_e_lifshitz_full,
    e0_lifshitz,
    force_lifshitz,
    inner_integral,
    inner_integral_quadrature,
    total_energy_lifshitz,
)
from .special import (
    ZETA_VALUES,
    cutoff_zeta_demo,
    log_one_minus_exp,
    polylog,
    polylog_exp_neg,
    richardson,
    zeta_value,
)
from .units import HBAR_C_JOULE_METER, UnitMode, UnitSystem, convert_units

__version__ = "0.1.0"

__all__ = [
    "Cauchy",
    "ComparisonReport",
    "Constant",
    "DEFAULT_QUADRATURE",
    "DispersionModel",
    "EnergyBreakdown",
    "Estimate",
    "HBAR_C_JOULE_METER",
    "Method",
    "Mode",
    "QuadratureError",
    "QuadratureSpec",
    "Scenario",
    "SurfaceTermSpec",
    "Tabulated",
    "UnitMode",
    "UnitSystem",
    "UnsupportedModelError",
    "ValidityPoint",
    "ZETA_VALUES",
    "compare_methods",
    "convert_units",
    "cutoff_zeta_demo",
    "delta_e_analytic",
    "delta_e_lifshitz_first_order",
    "delta_e_lifshitz_full",
    "e0_analytic",
    "e0_lifshitz",
    "first_order_slope",
    "force_analytic",
    "force_lifshitz",
    "inner_integral",
    "inner_integral_quadrature",
    "kappa_lower",
    "load_index_table",
    "log_one_minus_exp",
    "min_separation",
    "polylog",
    "polylog_exp_neg",
    "richardson",
    "run_validation_checks",
    "surface_energy",
    "total_energy_analytic",
    "total_energy_lifshitz",
    "validity_sweep",
    "zeta_value",
    "__version__",
]
