"""Special-function building blocks.

Dilogarithm and trilogarithm on [0, 1], hard-coded Riemann zeta constants,
a cancellation-free log(1 - e^-x), an exponentially regulated power-sum
demonstrator in decimal arithmetic whose precision grows with the inverse
cutoff, and Richardson extrapolation.

The polylogarithms switch between two independent evaluation strategies:
the defining series for x <= 1/e, and an expansion in w = -ln(x) near the
unit argument, where the series converges too slowly.  Downstream
integrands reach arguments e^(-2*kappa*L) that approach 1 exactly where
accuracy matters most, so the near-unit branch carries the load there.
Both strategies, and log(1 - e^-x), take numpy arrays as well as scalars,
so an integrand evaluates all its quadrature nodes in one call, and both
orders in one pass: a tuple of orders stacks them on a first axis that
shares the branch masks and the series' Horner loop.  Only the cached c0
and F(g) builds pass node arrays; a sweep makes no call, or for a table
one (2, 3) call over its rows' end terms U*I(x(U), 1).
"""

from __future__ import annotations

import decimal
import math

import numpy as np

__all__ = [
    "ZETA_VALUES",
    "zeta_value",
    "polylog",
    "polylog_exp_neg",
    "log_one_minus_exp",
    "cutoff_zeta_demo",
    "richardson",
]

_LN2 = math.log(2.0)

#: Exact zeta constants used throughout (pi powers and rationals; the value
#: at 3 is Apery's constant, correct to double precision).
ZETA_VALUES: dict[int, float] = {
    -5: -1.0 / 252.0,
    -3: 1.0 / 120.0,
    2: math.pi**2 / 6.0,
    3: 1.2020569031595942854,
    4: math.pi**4 / 90.0,
    6: math.pi**6 / 945.0,
}

# zeta(0), zeta(-1), ..., zeta(-33): zeta(-m) = -B_{m+1}/(m+1), zero at
# negative even arguments.  Coefficients of the near-unit expansion; the
# tail sizes terms like (w/2pi)^k, so this depth reaches 1e-13 for any
# w up to -ln(0.1).
_ZETA_NONPOS = (
    -0.5,
    -1.0 / 12.0,
    0.0,
    1.0 / 120.0,
    0.0,
    -1.0 / 252.0,
    0.0,
    1.0 / 240.0,
    0.0,
    -1.0 / 132.0,
    0.0,
    691.0 / 32760.0,
    0.0,
    -1.0 / 12.0,
    0.0,
    3617.0 / 8160.0,
    0.0,
    -43867.0 / 14364.0,
    0.0,
    174611.0 / 6600.0,
    0.0,
    -854513.0 / 3036.0,
    0.0,
    236364091.0 / 65520.0,
    0.0,
    -8553103.0 / 156.0,
    0.0,
    23749461029.0 / 24360.0,
    0.0,
    -8615841276005.0 / 429660.0,
    0.0,
    7709321041217.0 / 16320.0,
    0.0,
    -2577687858367.0 / 204.0,
)

_SERIES_CAP = 1_000_000
# Terms of the defining series are summed until x^n falls below this share
# of the leading term x.
_SERIES_EPS = 1e-17
# Li_s(e^-w) uses the expansion about the unit argument for 0 < w < 1 and
# the defining series (at most 40 terms) from there on.
_NEAR_UNIT_BELOW = 1.0


def zeta_value(k: int) -> float:
    """Tabulated zeta constant at integer argument k in {-5, -3, 2, 3, 4, 6}."""
    try:
        return ZETA_VALUES[k]
    except KeyError:
        raise ValueError(f"no tabulated zeta value at argument {k}") from None


def _near_unit_coefficients(s: int) -> tuple[float, tuple[float, ...]]:
    # c_k = zeta(s-k)/k! of the (-w)^k terms from k = s on.  Past k = s only
    # odd k - s contribute (zeta vanishes at negative even integers), so the
    # sum is c_s*(-w)^s + (-w)^(s+1) * P(w^2).  P's coefficients stop once
    # below 1e-20, their size at w = 1, and come highest power first, as
    # numpy.polyval takes them.
    c = [_ZETA_NONPOS[k - s] / math.factorial(k) for k in range(s, s + len(_ZETA_NONPOS))]
    return c[0], tuple(reversed([v for v in c[1::2] if abs(v) >= 1e-20]))


_NEAR_UNIT = {s: _near_unit_coefficients(s) for s in (2, 3)}


def _scalar_or_array(arg, out):
    # a scalar argument gets a float back, an array argument an array
    return float(out) if np.ndim(arg) == 0 else out


def _polylog_series(s, x):
    # Defining sum at a scalar or an array of x in [0, 1), by Horner's rule
    # with as many terms as the largest x needs.  ``s`` is an order, or a
    # tuple of orders whose sums share one loop over a stacked array (first
    # axis the order), each to the same bits as when summed alone.
    x = np.asarray(x, dtype=float)
    top = float(x.max(initial=0.0))
    terms = 1 if top == 0.0 else math.ceil(math.log(_SERIES_EPS) / math.log(top))
    orders = s if isinstance(s, tuple) else (s,)
    # 1/n^s per step n (rows) and order s (columns), each the correctly
    # rounded 1.0/n**s of an exact integer power
    n = np.arange(min(max(terms, 1), _SERIES_CAP), 0, -1, dtype=np.int64)
    steps = 1.0 / n[:, None] ** np.array(orders)
    total = np.zeros((len(orders), *x.shape))
    for step in steps.reshape(*steps.shape, *(1,) * x.ndim):
        total += step
        total *= x
    if isinstance(s, tuple):
        return total
    return _scalar_or_array(x, total[0])


def _polylog_near_unit(s: int, w):
    # Li_s(e^-w) expanded in powers of w (convergent for 0 < w < 2*pi).
    # The k = s-1 term carries the log; the remaining coefficients are
    # zeta values at non-positive integers (Bernoulli numbers in disguise).
    w = np.asarray(w, dtype=float)
    lg = np.log(w)
    if s == 2:
        total = ZETA_VALUES[2] - w * (1.0 - lg)
    else:
        total = ZETA_VALUES[3] - ZETA_VALUES[2] * w + 0.5 * w * w * (1.5 - lg)
    first, odd = _NEAR_UNIT[s]
    square = w * w
    power = square if s == 2 else -square * w  # (-w)^s
    total = total + power * (first - w * np.polyval(odd, square))
    return _scalar_or_array(w, total)


def polylog_exp_neg(s: int | tuple[int, ...], w):
    """Li_s(e^-w) for w >= 0 and s in {2, 3}, without the exp/log round trip.

    Preferred entry point when the argument is naturally an exponential,
    e.g. e^(-2*kappa*L): passing w directly keeps full precision for small w,
    where x = e^-w collapses onto 1.  ``w`` may be a scalar, which gives a
    float, or an array, which gives an array of the same shape.  ``s`` may
    also be a tuple of orders, such as (2, 3): that gives an array with one
    row per order stacked ahead of w's shape, from one pass over w, and
    each row equals the single-order result to the bit.
    """
    orders = s if isinstance(s, tuple) else (s,)
    if not orders or any(k not in (2, 3) for k in orders):
        raise ValueError(f"polylogarithm order {s} not supported (need 2 or 3)")
    arr = np.asarray(w, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError(f"exponent must be non-negative, got {w}")
    out = np.empty((len(orders), *arr.shape))
    for i, k in enumerate(orders):
        out[i] = ZETA_VALUES[k]
    near = (arr > 0.0) & (arr < _NEAR_UNIT_BELOW)
    far = arr >= _NEAR_UNIT_BELOW
    # a branch no element takes is skipped: its numpy calls on an empty
    # array cost as much as on a small one
    if near.any():
        w_near = arr[near]
        for i, k in enumerate(orders):
            out[i, near] = _polylog_near_unit(k, w_near)
    if far.any():
        out[:, far] = _polylog_series(orders, np.exp(-arr[far]))
    if isinstance(s, tuple):
        return out
    return _scalar_or_array(w, out[0])


def polylog(s: int, x: float) -> float:
    """Polylogarithm Li_s(x) = sum_{n>=1} x^n / n^s for s in {2, 3}, x in [0, 1].

    polylog_exp_neg(s, -log(x)) to the bit, which checks the order, and 0.0 at
    x = 0 (w = inf).  Absolute error below 1e-13.  Raises ValueError outside
    the supported order/argument range.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    return polylog_exp_neg(s, -math.log(x) if x > 0.0 else math.inf)


def log_one_minus_exp(x):
    """log(1 - e^-x) for x > 0, accurate in both the x -> 0 and x -> inf limits.

    ``x`` may be a scalar, which gives a float, or an array.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(f"argument must be positive, got {x}")
    out = np.empty_like(arr)
    small = arr < _LN2
    out[small] = np.log(-np.expm1(-arr[small]))
    out[~small] = np.log1p(-np.exp(-arr[~small]))
    return _scalar_or_array(x, out)


def cutoff_zeta_demo(p: int, delta: float) -> float:
    """Exponentially regulated power sum minus its leading divergence.

    Returns S(delta) = sum_{n>=1} n^p e^(-n*delta) - D(delta) with
    D = 6/delta^4 for p = 3 and D = 120/delta^6 for p = 5.  As delta -> 0
    the result approaches the analytic continuation of the divergent sum,
    zeta(-p), with an O(delta^2) error, so Richardson extrapolation in
    delta^2 recovers 1/120 (p = 3) and -1/252 (p = 5).

    The power sums have the Eulerian-number closed forms
    sum n^3 x^n = x(1 + 4x + x^2)/(1 - x)^4 and
    sum n^5 x^n = x(1 + 26x + 66x^2 + 26x^3 + x^4)/(1 - x)^6 at x = e^-delta.
    The subtraction cancels p + 2 digits per decade of 1/delta (about twelve
    for p = 5 at delta = 0.05), so both terms are formed in a thread-local
    decimal context with 30 digits to spare: the rounded difference is
    correctly rounded over the whole domain (0, 0.5].
    """
    if p not in (3, 5):
        raise ValueError(f"exponent {p} not supported (need 3 or 5)")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"cutoff must lie in (0, 0.5], got {delta}")
    decades = max(0, math.ceil(-math.log10(delta)))
    with decimal.localcontext(decimal.Context(prec=30 + (p + 2) * decades)):
        d = decimal.Decimal(delta)
        x = (-d).exp()
        if p == 3:
            total = x * (1 + 4 * x + x**2) / (1 - x) ** 4
            divergence = 6 / d**4
        else:
            total = x * (1 + 26 * x + 66 * x**2 + 26 * x**3 + x**4) / (1 - x) ** 6
            divergence = 120 / d**6
        return float(total - divergence)


def richardson(values, ratio: float = 4.0) -> float:
    """Extrapolate a refinement sequence to its limit.

    ``values`` are successive estimates, coarsest first, whose leading error
    shrinks by ``ratio`` at each refinement (ratio 4 for an O(h^2) error
    under step halving).  Standard triangular scheme; each level knocks out
    the next power of the error expansion.
    """
    estimates = [float(v) for v in values]
    if not estimates:
        raise ValueError("need at least one value to extrapolate")
    weight = 1.0
    while len(estimates) > 1:
        weight *= ratio
        estimates = [
            (weight * fine - coarse) / (weight - 1.0)
            for coarse, fine in zip(estimates, estimates[1:])
        ]
    return estimates[0]
