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
keeps the complete kappa_1 = n0*xi - n1*xi^3 in the lower limit, so that
kappa_1*L = u - g*u^3 with g = n1/(n0^3*L^2), and the correction is
F(g)/(2*pi^2*n0*L^3).  Past the peak of kappa_1, at u_t = 1/sqrt(3g), the
model is out of its domain, so the window ends there when 3g*u_max^2 > 1,
decided once per row; the first-order part it drops is reported as a
model error, and the beyond-validity flag is the trust region's alone.
F(g) = int_0^U [I(u - g*u^3, 1) - I(u, 1)] du is integrated by parts, with
f(x) = x*log(1 - e^(-2x)) = -dI(x, 1)/dx at the nodes, as two integrals of
one sign that keep their digits as g -> 0 (see ``_full_samples``).  F(g)
and F'(g) are read from Chebyshev interpolants built once per
``QuadratureSpec``, which at the default spec report 4.3e-14 and 9.0e-14
on F/g (about 0.8).  A column of rows is one evaluation, in which each
full-kappa_1 row reads F(g) and a table's rows share the node passes.

One node rule does the outer integrals: the Gauss-Kronrod 7/15 pair of
QUADPACK (Piessens et al. 1983) on panels, all nodes of a pass evaluated
as one array, bisecting only the panels that miss their share of the
tolerance by more than their nodes' rounding.  It takes a column of rows
(c0, c1 and each F(g) piece are one-row columns) and gives their values
and errors as arrays; a table column's rows go through it together, each
panel carrying its row and each row keeping its own tolerance and sums,
so that every row has the bits it has alone (at the default tail cut,
see ``_table_rows``) and a row with a non-finite value fails alone.  The
panels are graded toward the logarithmic point of I(u, 1) at u = 0,
broken at a table's knots, where its integrand is only C^1, and cut into
equal parts elsewhere, so c0 and c1 take one pass of 585 nodes each.
QUADPACK itself only backs the independent oracle ``inner_integral_quadrature``.

The force is the exact -dE/dL of the windowed energy.  For full kappa_1 it
is (3F + 2g*F')/(2*pi^2*n0*L^4) on top of 3*e0/L.  For a table, at fixed
xi, L^3 * dI(kappa_1, L)/dL = G(x) = -x*f(x) - 2*I(x, 1), and the window,
fixed in u, shrinks in xi as L grows, so
dE/dL = [int_0^u_max G(x) du - u_max*I(x(u_max), 1)] / (2*pi^2*n*L^4).
A table row integrates both by parts too, with passes over
[u*f(x)*x'(u), x*f(x)] and Li_2, Li_3 only at x(u_max), in one call over
the column's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

import numpy as np

from .closed_form import EnergyBreakdown, Method, Scenario, SurfaceTermSpec, surface_energy
from .closed_form import _check_positive, _power
from .dispersion import DispersionModel, Tabulated, cauchy_coefficients, kappa_lower, min_separation
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
    """The node rule could not reach the requested tolerance within its budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policy for the dimensionless outer integral.

    ``tail_cut`` fixes the window [0, u_max] in u = n*L*xi through
    e^(-2*u_max) = tail_cut; the analytic bound on the remainder is added
    to the reported error estimate.  ``rel_tol`` and ``abs_tol`` apply to
    the integral over u, before it is scaled to an energy: the node rule
    stops once each panel's Gauss-Kronrod error is within its width's
    share of max(abs_tol, rel_tol*|integral|).  ``max_subdivisions`` bounds
    the refinement: a panel is bisected at most
    floor(log2(max_subdivisions)) times (7 at the default 200), and an
    integral not settled by then raises QuadratureError.
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


def inner_integral(kappa1, L: float):
    """I(kappa_1, L) = int_{kappa_1}^inf kappa*log(1 - e^(-2*kappa*L)) dkappa.

    Evaluated through the polylogarithm closed form.  I(0, L) is finite,
    -zeta(3)/(4*L^2), and the value vanishes as kappa_1 -> inf.  ``kappa1``
    may be a scalar, which gives a float, or an array of lower limits.
    """
    if not np.all(np.asarray(kappa1) >= 0.0):
        raise ValueError(f"lower limit must be >= 0, got {kappa1}")
    _check_positive(L)
    # Li_2 and Li_3 from one pass over w
    li2, li3 = polylog_exp_neg((2, 3), 2.0 * kappa1 * L)
    value = -(kappa1 / (2.0 * L)) * li2 - li3 / (4.0 * L * L)
    return float(value) if np.ndim(kappa1) == 0 else value


def _quadpack(*args, **kwargs):
    # scipy.integrate.quad, imported on first use: only the oracle below
    # calls it, and scipy is a test dependency, not a runtime one
    try:
        from scipy.integrate import quad
    except ImportError:
        raise ImportError(
            "inner_integral_quadrature needs scipy: pip install 'casdisp[test]'"
        ) from None
    return quad(*args, **kwargs)


def inner_integral_quadrature(
    kappa1: float, L: float, abs_tol: float = 1e-12
) -> float:
    """Brute-force oracle for ``inner_integral``: direct adaptive quadrature.

    Deliberately independent of the polylogarithm reduction and of
    ``special``; used to verify it, never to replace it.
    """
    if not kappa1 >= 0.0:
        raise ValueError(f"lower limit must be >= 0, got {kappa1}")
    _check_positive(L)

    ln2 = math.log(2.0)

    def integrand(kappa: float) -> float:
        if kappa <= 0.0:
            return 0.0
        w = 2.0 * kappa * L
        # log(1 - e^-w), each form where it keeps its digits
        if w < ln2:
            return kappa * math.log(-math.expm1(-w))
        return kappa * math.log1p(-math.exp(-w))

    # e^(-2*kappa*L) < e^-50 beyond the cutoff; the remaining tail is
    # orders of magnitude below abs_tol
    upper = kappa1 + 25.0 / L
    value, _ = _quadpack(
        integrand, kappa1, upper, epsabs=abs_tol, epsrel=1e-12, limit=500
    )
    return value


# Gauss-Kronrod 7/15 pair, QUADPACK's qk15 (Piessens et al. 1983): 15
# Kronrod nodes on [-1, 1], of which the odd-indexed 7 are the Gauss nodes.
_KRONROD_HALF = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649),
    (0.0, 0.209482141084727828012999174891714),
)
_GAUSS_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_KRONROD_NODES = np.array(
    [-x for x, _ in _KRONROD_HALF[:-1]] + [x for x, _ in reversed(_KRONROD_HALF)]
)
_KRONROD_WEIGHTS = np.array(
    [w for _, w in _KRONROD_HALF[:-1]] + [w for _, w in reversed(_KRONROD_HALF)]
)
_GAUSS_WEIGHTS = np.array(_GAUSS_HALF + _GAUSS_HALF[-2::-1])
# Reported on top of the panels' |K15 - G7|: the rounding of a sum of
# hundreds to thousands of integrand values, as a share of the integral of |f|.
_ROUNDING = 1e-15


# A column's rows go through the panel rule in groups of whole rows whose
# first passes hold at most this many nodes together; a row past it makes
# its passes alone.  A sweep of two rows of a 200-knot table fits in one
# group.  Over 200 such rows, larger caps ran no faster and held more
# memory at once: about 1 MB at this cap, 4 MB at 32,768 nodes and 39 MB
# with no cap (traced peaks on a 2-CPU Xeon).
_PASS_NODES = 8192


def _integrate_panels(integrand: Callable[..., np.ndarray], breaks, spec: QuadratureSpec) -> tuple:
    # The integrals of each row of a column over the panels between its
    # consecutive breakpoints, as (values, errors), two (rows, k) arrays:
    # ``breaks`` yields each row's breakpoints in turn, read no further than
    # a row past the group being integrated, and integrand(u, row) takes the
    # nodes and each node's row.  The passes run over groups of rows of at
    # most _PASS_NODES nodes, and each row gives the bits of its one-row
    # column, which is how c0, c1 and each F(g) piece call it.
    results, group, nodes = [], [], 0
    for edges in breaks:
        size = _KRONROD_NODES.size * (len(edges) - 1)
        if group and nodes + size > _PASS_NODES:
            results += _panel_passes(integrand, group, len(results), spec)
            group, nodes = [], 0
        group.append(np.asarray(edges, dtype=float))
        nodes += size
    results += _panel_passes(integrand, group, len(results), spec)
    return tuple(np.array(part) for part in zip(*results))


def _panel_passes(integrand, breaks: list, first: int, spec: QuadratureSpec) -> list:
    # Gauss-Kronrod 7/15 on each panel between consecutive breakpoints of
    # rows first, first + 1, ...: every panel carries its row, and all
    # panels' nodes go through the integrand as one array per pass.  The
    # integrand gives a (k, nodes) stack of k integrands sharing the nodes,
    # and each row's result is a pair of (k,) arrays, its values and errors.
    # A panel's error is |K15 - G7|; a panel whose error exceeds its width's
    # share of its row's max(abs_tol, rel_tol*|value|) in any component, and
    # the rounding of its own nodes there too, is bisected, and only its
    # halves make the next pass.  A row's estimate is the sum of its panels'
    # errors plus the rounding of the sum.  Each row's panels stay one
    # run, in the order they would have alone, and each of its sums indexes
    # and reduces that run as its one-row call does its whole arrays, so
    # every row has the bits of its one-row call (a sum over several rows,
    # or over another memory layout, may add in another order).  After
    # floor(log2(max_subdivisions)) bisections a panel still failing fails
    # its row, as does a non-finite integrand value, whose row's panels pass
    # as zeros so that no inf reaches the sums; once every row has
    # finished, the first failed row's QuadratureError is raised.
    rows = list(range(first, first + len(breaks)))  # of the pass, in order
    counts = [e.size - 1 for e in breaks]  # their panels
    lo = np.concatenate([e[:-1] for e in breaks])
    hi = np.concatenate([e[1:] for e in breaks])
    row = np.repeat(rows, counts)
    span = {r: e[-1] - e[0] for r, e in zip(rows, breaks)}
    # of each row's panels accepted so far
    value, error, mass = ({r: 0.0 for r in rows} for _ in range(3))
    results, failures = {}, {}
    bisections = 0
    while rows:
        half = 0.5 * (hi - lo)
        nodes = (lo + half)[:, None] + half[:, None] * _KRONROD_NODES
        values = integrand(nodes.ravel(), np.repeat(row, _KRONROD_NODES.size))
        values = values.reshape((-1, *nodes.shape))
        ends = list(accumulate(counts))
        starts = [0, *ends[:-1]]
        broken = set()  # rows with a non-finite value, which fail below
        if not np.all(np.isfinite(values)):
            finite = np.logical_and.reduceat(np.isfinite(values).all(axis=(0, 2)), starts)
            broken = set(np.compress(~finite, rows).tolist())
            values = np.where(np.repeat(finite, counts)[:, None], values, 0.0)
        # (component, panel) sums, each panel's nodes summed in one order
        # whatever the stack holds
        kronrod = (values * _KRONROD_WEIGHTS).sum(axis=-1) * half
        gauss = (values[..., 1::2] * _GAUSS_WEIGHTS).sum(axis=-1) * half
        spread = np.abs(kronrod - gauss)
        panel_mass = (np.abs(values) * _KRONROD_WEIGHTS).sum(axis=-1) * half
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(np.stack([
            value[r] + kronrod[:, s:e].sum(axis=-1) for r, s, e in zip(rows, starts, ends)
        ], axis=-1)))
        share = 2.0 * half / np.repeat([span[r] for r in rows], counts)
        over = spread > np.repeat(target, counts, axis=-1) * share
        if over.any():
            # a node's abscissa rounds by about eps*|hi|: a spread within
            # 8*eps*|hi|*max|dv/du|*(hi - lo), du = half*dt apart, is that noise
            steep = (np.abs(np.diff(values, axis=-1)) / np.diff(_KRONROD_NODES)).max(axis=-1)
            over &= spread > 16.0 * np.finfo(float).eps * np.abs(hi) * steep
        failing = np.any(over, axis=0)
        kept = np.flatnonzero(~failing)
        cuts = np.searchsorted(kept, ends).tolist()
        limit = 2 ** (bisections + 1) > spec.max_subdivisions
        runs = zip(rows, starts, ends, [0, *cuts[:-1]], cuts)
        rows, counts = [], []
        for r, s, e, a, b in runs:
            own = kept[a:b]
            value[r] = value[r] + kronrod[:, own].sum(axis=-1)
            error[r] = error[r] + spread[:, own].sum(axis=-1)
            mass[r] = mass[r] + panel_mass[:, own].sum(axis=-1)
            bisected = e - s - (b - a)
            if r in broken:
                failures[r] = "integrand is not finite at a quadrature node"
            elif not bisected:
                results[r] = value[r], error[r] + _ROUNDING * mass[r]
            elif limit:
                failures[r] = (
                    f"panel rule did not converge after {bisections} bisections "
                    f"(max_subdivisions {spec.max_subdivisions}): "
                    f"largest panel error {spread[:, s:e][:, failing[s:e]].max():.3g}"
                )
            else:
                rows.append(r)
                counts.append(2 * bisected)
        if not rows:
            break
        bisections += 1
        mid = lo[failing] + half[failing]
        lo = np.concatenate((lo[failing], mid))
        hi = np.concatenate((mid, hi[failing]))
        row = np.concatenate((row[failing], row[failing]))
        if len(rows) > 1:
            # each row's halves back into one run, lower halves first
            order = np.argsort(row, kind="stable")
            lo, hi, row = lo[order], hi[order], row[order]
    if failures:
        raise QuadratureError(failures[min(failures)])
    return [results[r] for r in sorted(results)]


# Breaks at 2^-k, k = 0..20, grade the panels toward the x^2*log(x) point
# of I(x, 1) at u = 0 (or s = 0), whatever knots a table has: a coarse
# table whose first knot lies above 0 would otherwise leave wide panels near
# that point, which bisect for several passes.
_GRADING = 2.0 ** -np.arange(21.0)


def _graded_breaks(end: float, width: float, knots: np.ndarray = np.empty((1, 0))) -> list:
    # a list of each row's panel breaks on [0, end], for knots of shape
    # (rows, K), none negative (by default one row with none): the grading,
    # the row's knots inside the window (where a table's interpolant is only
    # C^1, and flat past its ends), and equal parts of every gap wider than
    # ``width``.  A gap of width 0, at a knot on 0, on a grading point or
    # past the end (clipped onto it), gets no part, so np.unique (whose
    # first call imports numpy.ma, 10 ms) is not needed; a wider one gets
    # at least one, even where its ratio to ``width`` underflows.
    fixed = np.concatenate(((0.0, end), _GRADING[_GRADING < end]))
    edges = np.concatenate(
        (np.repeat(fixed[None], len(knots), axis=0), np.minimum(knots, end)), axis=1
    )
    edges.sort(axis=1)
    widths = edges[:, 1:] - edges[:, :-1]
    parts = np.maximum(np.ceil(widths / width), widths > 0.0).astype(int)
    ends = np.cumsum(parts.sum(axis=1)).tolist()
    widths, parts = widths.ravel(), parts.ravel()
    part = np.arange(ends[-1]) - np.repeat(np.cumsum(parts) - parts, parts)
    step = np.repeat(widths, parts) / np.repeat(parts, parts)
    lower = np.repeat(edges[:, :-1].ravel(), parts) + part * step
    return [np.append(lower[a:b], end) for a, b in zip([0, *ends], ends)]


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


def _force_tail_bound(u_max: float) -> float:
    # What the windowed force drops against the untruncated one, for an
    # integrand with x >= u (the table routes): int_{u_max}^inf |G(x)| du
    # plus the boundary term u_max*|I(x(u_max), 1)|.  On the tail,
    # |G(u)| <= e^(-2u) * (u^2/(1 - e^(-2*u_max)) + zeta(2)*u + zeta(3)/2)
    # from |log(1 - y)| <= y/(1 - e^(-2*u_max)) and the bound on I above;
    # both bounds fall with u once u >= 1, so x >= u may take u's.
    damp = math.exp(-2.0 * u_max)
    square = u_max**2 / 2.0 + u_max / 2.0 + 0.25  # e^(2U) int_U^inf u^2 e^(-2u) du
    return damp * (
        square / (1.0 - damp)
        + ZETA_VALUES[2] * square
        + ZETA_VALUES[3] * (u_max + 1.0) / 4.0
    )


@cache
def _e0_number(quad: QuadratureSpec) -> Estimate:
    # c0 = int_0^inf I(u, 1) du, a one-row column
    breaks = _graded_breaks(quad.u_max, 1.0)
    value, error = _integrate_panels(lambda u, row: inner_integral(u, 1.0)[None], breaks, quad)
    return Estimate(value.item(), error.item() + _e0_tail_bound(quad.u_max))


@cache
def _delta_number(quad: QuadratureSpec) -> Estimate:
    # c1 = int_0^inf u^4 log(1 - e^(-2u)) du; every node lies inside (0, u_max]
    def integrand(u: np.ndarray, row: np.ndarray) -> np.ndarray:
        return (u**4 * log_one_minus_exp(2.0 * u))[None]

    value, error = _integrate_panels(integrand, _graded_breaks(quad.u_max, 1.0), quad)
    return Estimate(value.item(), error.item() + _delta_tail_bound(quad.u_max))


def _f(x: np.ndarray) -> np.ndarray:
    # f(x) = x*log(1 - e^(-2x)) = -dI(x, 1)/dx, what F(g) and a table row integrate by parts
    return x * log_one_minus_exp(2.0 * x)


def _scaled(number: Estimate, scale: float) -> Estimate:
    return Estimate(number.value * scale, number.error * abs(scale))


def e0_lifshitz(
    L: float, n0: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> Estimate:
    """Dispersion-free energy per area, c0 / (2*pi^2*n0*L^3).

    Agrees with -pi^2/(720*n0*L^3) to within the reported error estimate.
    """
    _check_positive(L, n0)
    return _scaled(_e0_number(quad), 1.0 / (_TWO_PI_SQ * n0 * _power(L, 3)))


def delta_e_lifshitz_first_order(
    L: float, model: DispersionModel, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> Estimate:
    """First-order dispersive correction per area.

    Numeric evaluation of (n1*n0 / 2*pi^2) * int_0^inf xi^4
    log(1 - e^(-2*n0*xi*L)) dxi = n1*c1 / (2*pi^2*n0^4*L^5); exactly
    linear in n1 by construction.
    """
    _check_positive(L)
    n0, n1 = cauchy_coefficients(model)
    c1 = _delta_number(quad)
    # (-c1)*((0.0 - n1)/D) has the bits of c1*(n1/D), but is (0.0, 0.0), not -0.0, at n1 = 0
    return _scaled(Estimate(-c1.value, c1.error), (0.0 - n1) / (_TWO_PI_SQ * n0**4 * _power(L, 5)))


def delta_e_lifshitz_full(
    L: float, model: DispersionModel, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> tuple[Estimate, bool]:
    """Dispersive part of the full-kappa_1 energy, all orders in n1.

    F(g)/(2*pi^2*n0*L^3), with F(g) = int_0^U [I(u - g*u^3, 1) - I(u, 1)] du
    and g = n1/(n0^3*L^2), integrated by parts so that the small correction
    keeps its relative digits as g shrinks.  The window
    ends at the peak of kappa_1, U = u_t = 1/sqrt(3g), where 3g*u_max^2 > 1,
    and at U = u_max otherwise.  Returns the estimate and whether the
    window ended at the peak, which is exactly when the breakdown's
    ``model_error`` is positive (barring underflow).
    """
    delta, _, peak, _ = _full_kappa1(L, model, quad)
    return delta, peak


# F(g) and F'(g) come from Chebyshev interpolants of F(g)/g and F'(g),
# built once per QuadratureSpec, on two pieces.  Piece 0 takes the g with
# 3*g*u_max*u_max <= 1, up to g_k = 1/(3*u_max^2), where the window is
# [0, u_max] and both are smooth in g down to g = 0.  Every larger g ends
# its window at the peak: piece 1 takes U = u_t in [_U_MIN, u_max], where
# both are smooth in log U.  Below U = 3 the coefficients decay too slowly,
# so rows with 3*g*_U_MIN*_U_MIN > 1, outside the trust region for every
# n0 >= 0.9, integrate directly.  _full_row tests each comparison once per
# row, and _full_samples the first in the same rounding order over an
# array.  The node counts leave the last coefficients near the samples'
# noise, 3e-16 and 2e-15 of the first; fewer report 2-14 times the error.
_U_MIN = 3.0
_PIECE_NODES = (20, 32)


def _full_samples(g: np.ndarray, quad: QuadratureSpec) -> tuple:
    # F(g), its error, F'(g) and its error for an array of g > 0, from one
    # node pass, by parts: with x = u - g*u^3,
    #   F = g*int_0^U u^3*(1 - 3g*u^2)*f(x) du + int_{x(U)}^U (U - x)*f(x) dx
    # and F' = int_0^U u^3*f(x) du, less 1.5*U^3*(I(x(U), 1) - I(U, 1)) where
    # U = u_t moves by dU/dg = -1.5*U^3, at x(U) = 2U/3.  u = U*s maps [0, U]
    # and x = U - g*U^3*(1 - s) maps [x(U), U] onto s in [0, 1], so every g
    # shares the nodes.  On the window x >= 2u/3: kappa_1 is never clamped.
    u_max = quad.u_max
    peak = 3.0 * g * u_max * u_max > 1.0
    U = np.where(peak, 1.0 / np.sqrt(3.0 * g), u_max)
    drop = g * U**3  # U - x(U)

    def integrand(s: np.ndarray, row: np.ndarray) -> np.ndarray:
        u = U[:, None] * s
        f = _f(np.concatenate((u - g[:, None] * u**3, U[:, None] - drop[:, None] * (1.0 - s))))
        cube = u**3 * f[: g.size]
        energy = cube * (1.0 - 3.0 * g[:, None] * u * u)
        return np.concatenate((energy, cube, (1.0 - s) * f[g.size :]))

    # one row of stacked samples, each integral over s then scaled to its
    # share; parts 1/16 wide in s are about 1 wide in u where U = u_max
    weights = np.stack((g * U, U, drop * drop))
    value, error = (a.reshape(3, -1) * weights for a in _integrate_panels(
        integrand, _graded_breaks(1.0, 1.0 / 16.0), quad))
    start, stop = inner_integral(np.concatenate((2.0 * U / 3.0, U)), 1.0).reshape(2, -1)
    slope = value[1] - np.where(peak, 1.5 * U**3 * (start - stop), 0.0)
    return value[0] + value[2], error[0] + error[2], slope, error[1]


class _Chebyshev(NamedTuple):
    # interpolants of F(g)/g and F'(g) in v on [lo, hi], with their errors
    lo: float
    hi: float
    ratio: list
    slope: list
    errors: tuple[float, float]

    def __call__(self, v: float) -> tuple[float, float]:
        t = (2.0 * v - self.lo - self.hi) / (self.hi - self.lo)
        return _clenshaw(self.ratio, t), _clenshaw(self.slope, t)


def _clenshaw(coefficients: list, t: float) -> float:
    # sum of coefficients[k]*T_k(t)
    b1 = b2 = 0.0
    for a in coefficients[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + a, b1
    return t * b1 - b2 + coefficients[0]


@cache
def _full_piece(quad: QuadratureSpec, piece: int) -> _Chebyshev:
    u_max = quad.u_max
    if piece == 0:
        lo, hi = 0.0, 1.0 / (3.0 * u_max * u_max)
    else:
        lo, hi = math.log(_U_MIN), math.log(u_max)
    count = _PIECE_NODES[piece]
    # Chebyshev points of the first kind, which leave out g = 0
    angles = np.pi * (np.arange(count) + 0.5) / count
    v = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(angles)
    g = v if piece == 0 else np.exp(-2.0 * v) / 3.0
    raw, raw_error, slope, slope_error = _full_samples(g, quad)
    # coefficients of F/g and F' from the discrete cosine transform on the
    # nodes; an interpolant's error is twice its last coefficients (the
    # tail the nodes alias) plus the Lebesgue constant of the nodes times
    # the largest sample error
    transform = np.cos(np.outer(angles, np.arange(count))) * (2.0 / count)
    transform[:, 0] *= 0.5
    lebesgue = 2.0 / math.pi * math.log(count) + 1.0
    fits = np.stack((raw / g, slope)) @ transform
    errors = 2.0 * np.abs(fits[:, -4:]).sum(axis=1) + lebesgue * np.stack(
        (raw_error / g, slope_error)).max(axis=1)
    return _Chebyshev(lo, hi, *fits.tolist(), tuple(errors.tolist()))


def _window_tail_bound(g: float, u_max: float, u_t: float) -> tuple[float, float]:
    # Where the window stops at u_max short of the peak u_t, bounds on what
    # F(g) and F'(g) drop: the integrals over [u_max, u_t] and, for F', the
    # moving end's term, which F'(g) jumps by at g_k.  Where rounding next to
    # g_k leaves [u_max, u_t] empty or reversed, the integrals are 0 and the
    # end's term stays.  There x = u - g*u^3 lies in [2u/3, u], and with
    # f(x) = x*e^(-2x)/(1 - e^(-2x)), which falls in x:
    # - |I(x, 1) - I(u, 1)| <= min((u - x)*f(x), |I(x, 1)|)
    #   <= min(g*u^4/(1 - e^(-4*u_max/3)), u*zeta(2)/2 + zeta(3)/4) * e^(h(u))
    #   with h(u) = -2u + 2g*u^3, as I(x, 1) rises to 0 in x;
    # - |dI(x, 1)/dg| = u^3*x*|log(1 - e^(-2x))| <= u^3*f(x), below the first;
    # - the end's term 1.5*u_t^3*|I(2*u_t/3, 1) - I(u_t, 1)|, at most
    #   1.5*u_t^3*e^(-4*u_t/3)*(u_t*zeta(2)/3 + zeta(3)/4), which falls in u_t
    #   once u_t >= 3, so a huge u_t may take 1e3's.
    # h is convex, so it lies below its chord on [u_max, u_t], of slope -m,
    # and int p(u)*e^(h(u)) du <= e^(h(u_max))*sum_k p^(k)(u_max)/m^(k+1)
    # for the rising polynomials p here, or p(u_t) times the length.
    end = min(u_t, 1e3)
    edge = 1.5 * end**3 * math.exp(-4.0 * end / 3.0) * (
        end * ZETA_VALUES[2] / 3.0 + ZETA_VALUES[3] / 4.0
    )
    if not u_t > u_max:
        return 0.0, edge
    start = -2.0 * u_max + 2.0 * g * u_max**3
    span = u_t - u_max
    rate = (start + 4.0 * u_t / 3.0) / span

    def integral(derivatives: tuple, at_end: float) -> float:
        cover = at_end * span
        if rate > 0.0:
            series = 0.0
            for derivative in reversed(derivatives):
                series = (derivative + series) / rate
            cover = min(cover, series)
        return math.exp(start) * cover

    U = u_max
    quartic = integral(
        (U**4, 4.0 * U**3, 12.0 * U**2, 24.0 * U, 24.0), u_t * u_t * u_t * u_t
    ) / -math.expm1(-4.0 * u_max / 3.0)
    linear = integral(
        (U * ZETA_VALUES[2] / 2.0 + ZETA_VALUES[3] / 4.0, ZETA_VALUES[2] / 2.0),
        u_t * ZETA_VALUES[2] / 2.0 + ZETA_VALUES[3] / 4.0,
    )
    return min(g * quartic, linear), quartic + edge


def _full_kappa1(L, model: DispersionModel, quad: QuadratureSpec) -> tuple:
    # (delta_e, its share of the force, whether the window ended at the
    # peak, the model error) of a row, or arrays of them over a column.
    # delta_e = F(g)/(2*pi^2*n0*L^3) and, as dg/dL = -2g/L, its share is
    # exactly -d(delta_e)/dL = (3F + 2g*F')/(2*pi^2*n0*L^4).  Each row reads
    # F(g) alone: a numpy Clenshaw over a sweep's g column is slower.
    _check_positive(L)
    n0, n1 = cauchy_coefficients(model)
    g = n1 / (n0**3 * _power(L, 2))
    rows = [_full_row(x, quad) for x in np.atleast_1d(g).tolist()]
    numbers = map(np.array, zip(*rows)) if isinstance(g, np.ndarray) else rows[0]
    raw, raw_error, slope, slope_error, dropped, peak = numbers
    scale = 1.0 / (_TWO_PI_SQ * n0 * _power(L, 3))
    shift = Estimate(
        (3.0 * raw + 2.0 * g * slope) * scale / L,
        (3.0 * raw_error + 2.0 * g * slope_error) * scale / L,
    )
    return _scaled(Estimate(raw, raw_error), scale), shift, peak, g * dropped * scale


def _full_row(g: float, quad: QuadratureSpec) -> tuple[float, float, float, float, float, bool]:
    # F(g), its error, F'(g), its error, over g the first-order part that
    # the window drops past the peak, where the model is out of its domain,
    # and whether the window ends at the peak; zeros at g = 0.  One test
    # decides where the window ends: at u_max, read from piece 0 with a
    # bound on what it drops short of the peak, or at u_t, read from piece
    # 1 or, past it, integrated directly.
    if g == 0.0:
        return 0.0, 0.0, 0.0, 0.0, 0.0, False
    u_max = quad.u_max
    u_t = 1.0 / math.sqrt(3.0 * g)
    peak = 3.0 * g * u_max * u_max > 1.0
    if not peak:
        piece, v, dropped = _full_piece(quad, 0), g, 0.0
        raw_tail, slope_tail = _window_tail_bound(g, u_max, u_t)
    else:
        # int_{u_t}^inf |u^4*log(1 - e^(-2u))| du is at most the whole
        # integral, pi^6/1260, and below _delta_tail_bound(u_t) for u_t >= 1
        dropped = min(_delta_tail_bound(max(u_t, 1.0)), math.pi**6 / 1260.0)
        if 3.0 * g * _U_MIN * _U_MIN > 1.0:
            samples = _full_samples(np.array([g]), quad)
            return (*(float(a[0]) for a in samples), dropped, True)
        piece, v = _full_piece(quad, 1), -0.5 * math.log(3.0 * g)
        raw_tail = slope_tail = 0.0
    ratio, slope = piece(v)
    ratio_error, slope_error = piece.errors
    return g * ratio, g * ratio_error + raw_tail, slope, slope_error + slope_tail, dropped, peak


def _table_rows(L, model: Tabulated, quad: QuadratureSpec) -> tuple[Estimate, Estimate]:
    # (energy, force) of a row, or arrays of them over a column, by parts.
    # As dI(x, 1)/dx = -f(x) and x(u) = kappa_1*L is C^1 (PCHIP, flat past
    # the table's ends), monotone or not, on [0, U], U = u_max,
    #   int I(x, 1) du = U*I(x(U), 1) + int u*f(x)*x'(u) du
    #   int G(x) du - U*I(x(U), 1) = -int x*f(x) du - 2*int I(x, 1) du - U*I(x(U), 1)
    # from node passes over [u*f*x', x*f] that the rows share; Li_2 and
    # Li_3 run once, at every row's U.  Every node has u > 0, so x >= u > 0.
    # The energy is the first over 2*pi^2*n*L^3, with n the smallest index,
    # and the force -(the second)/(2*pi^2*n*L^4).  The polylogarithm series
    # takes as many terms as the column's largest e^(-2x(U)) needs.  At the
    # default tail cut, x(U) >= u_max makes that one or two terms, which
    # give every row its one-row bits; past a tail cut of about 1e-16 a
    # row's end term can differ from its one-row call in the last bit
    # (about 1 in 16,000 in random trials).
    u_max = quad.u_max
    n = min(model.n)
    column = np.atleast_1d(L)
    scale = n * column
    edge = u_max * inner_integral(kappa_lower(model, u_max / scale) * column, 1.0)

    def integrand(u: np.ndarray, row: np.ndarray) -> np.ndarray:
        xi = u / scale[row]
        index, slope = model._index_and_slope(xi)
        x = index * xi * column[row]
        f = _f(x)
        # x'(u) = (n(xi) + xi*n'(xi))/n
        return np.stack((u * f * (index + xi * slope) / n, x * f))

    knots, _ = model._interpolator
    # the rows' breaks as the passes take them, a block of rows at a time,
    # each block's arrays of about _PASS_NODES gaps
    block = max(1, _PASS_NODES // (knots.size + _GRADING.size))
    breaks = (
        row_breaks
        for start in range(0, column.size, block)
        for row_breaks in _graded_breaks(u_max, 1.0, np.outer(scale[start:start + block], knots))
    )
    (parts, square), (parts_error, square_error) = (a.T for a in _integrate_panels(
        integrand, breaks, quad))
    raw = edge + parts
    numbers = (raw, parts_error + _e0_tail_bound(u_max), -square - 2.0 * raw - edge,
               square_error + 2.0 * parts_error + _force_tail_bound(u_max))
    if not isinstance(L, np.ndarray):
        numbers = [float(a[0]) for a in numbers]
    raw, raw_error, slope, slope_error = numbers
    unit = 1.0 / (_TWO_PI_SQ * n * _power(L, 3))
    return _scaled(Estimate(raw, raw_error), unit), _scaled(Estimate(slope, slope_error), -unit / L)


def total_energy_lifshitz(
    scenario: Scenario,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    mode: Mode = Mode.FIRST_ORDER_SPLIT,
) -> EnergyBreakdown:
    """Energy breakdown by outer quadrature, in the requested mode.

    FIRST_ORDER_SPLIT requires a constant or quadratic index; FULL_KAPPA1
    accepts any model.  For tabulated data the full value is reported as
    ``e0`` with a zero ``delta_e``, since no dispersion-free reference
    exists to split against.  The breakdown carries the force -dE/dL of
    the same evaluation (see ``force_lifshitz``), from the same node pass.
    """
    return lifshitz_rows(scenario.L, scenario.model, scenario.surface, quad, mode)


def lifshitz_rows(
    L, model: DispersionModel, surface: Optional[SurfaceTermSpec], quad: QuadratureSpec, mode: Mode
) -> EnergyBreakdown:
    """``total_energy_lifshitz`` of a separation and medium, or of a column of rows.

    As in ``closed_form.analytic_rows``, with one body for a row and a
    column: split rows are arithmetic on c0 and c1, and inside the one
    evaluation each full-kappa_1 row reads F(g) and a table's rows share
    the node passes.
    """
    e_s = surface_energy(L, surface) if surface else 0.0
    model_error = 0.0
    if mode is Mode.FULL_KAPPA1 and isinstance(model, Tabulated):
        # sampled data has no closed trust region, so nothing to flag
        e0, force = _table_rows(L, model, quad)
        delta = Estimate(0.0, 0.0)
        flagged = False
    elif mode in (Mode.FIRST_ORDER_SPLIT, Mode.FULL_KAPPA1):
        n0, _ = cauchy_coefficients(model)
        e0 = e0_lifshitz(L, n0, quad)
        # e0 = c0/(2*pi^2*n0*L^3) gives -de0/dL = 3*e0/L exactly
        leading = _scaled(e0, 3.0 / L)
        if mode is Mode.FULL_KAPPA1:
            delta, shift, _, model_error = _full_kappa1(L, model, quad)
        else:
            delta = delta_e_lifshitz_first_order(L, model, quad)
            # delta_e goes as 1/L^5
            shift = _scaled(delta, 5.0 / L)
        force = Estimate(leading.value + shift.value, leading.error + shift.error)
        flagged = L <= min_separation(model)
    else:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    return EnergyBreakdown(
        e0=e0.value, delta_e=delta.value, e_surface=e_s, total=e0.value + delta.value + e_s,
        method=Method.LIFSHITZ, error_estimate=e0.error + delta.error, beyond_validity=flagged,
        # e_s = c_s/L^4
        force=force.value + 4.0 * e_s / L, force_error=force.error, model_error=model_error,
    )


def force_lifshitz(
    scenario: Scenario,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    h_rel: float = 1e-4,
    mode: Mode = Mode.FIRST_ORDER_SPLIT,
) -> Estimate:
    """Force per area, -dE/dL of the quadrature energy, with its error.

    The exact derivative of ``total_energy_lifshitz``'s energy, which
    computes it on the energy's own nodes: 3*e0/L + 5*delta_e/L for the
    split route, the integral of dI/dL plus the window's boundary term for
    the full-kappa_1 and tabulated routes, and 4*e_surface/L on top.  Its
    error adds the node rule's error on the derivative integrand, the
    analytic tail bounds and the scaled error of e0.  ``h_rel``, once the
    step of a central difference, must still lie in [1e-7, 1e-2] but
    changes no result.
    """
    if not 1e-7 <= h_rel <= 1e-2:
        raise ValueError(f"step fraction must lie in [1e-7, 1e-2], got {h_rel}")
    breakdown = total_energy_lifshitz(scenario, quad, mode)
    return Estimate(breakdown.force, breakdown.force_error)
