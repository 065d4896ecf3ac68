"""Casimir energy and force between ideal plates across a dispersive dielectric.

Closed-form results for a constant or quadratically dispersive refractive
index, cross-validated against direct quadrature of the imaginary-frequency
energy integral.  Natural units (hbar = c = 1) throughout the core; SI
conversion lives in the output layer.

The package exports the public names of its six library modules: each
module's ``__all__`` is the one list of them.  The command line lives in
``casdisp.cli``, and the column functions ``closed_form.analytic_rows`` and
``lifshitz.lifshitz_rows`` are reached by module path.
"""

from . import closed_form, crosscheck, dispersion, lifshitz, special, units
from .closed_form import *  # noqa: F403
from .crosscheck import *  # noqa: F403
from .dispersion import *  # noqa: F403
from .lifshitz import *  # noqa: F403
from .special import *  # noqa: F403
from .units import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *closed_form.__all__, *crosscheck.__all__, *dispersion.__all__,
    *lifshitz.__all__, *special.__all__, *units.__all__, "__version__",
]
