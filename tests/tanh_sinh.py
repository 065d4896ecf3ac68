"""Tanh-sinh quadrature (Takahashi & Mori 1974): a second node rule for tests.

``integrate`` takes the arguments of ``casdisp.lifshitz._integrate_panels``,
a column of rows' breakpoints and an integrand of the nodes and their row,
and gives a list of each row's tuple of Estimates, so a test can put it in
the panel rule's place and compare the two rules on the same integrand and
breaks.  The rows integrate one at a time.
"""

import math

import numpy as np

from casdisp.lifshitz import _ROUNDING, Estimate, QuadratureError

# By t = 3.25 the weights are down to about 1e-16 of the panel width and
# the nodes press against the ends, so the steps stop there.
_T_MAX = 3.25


def integrate(integrand, breaks, spec):
    return [
        _row(lambda u, r=r: integrand(u, np.full(u.shape, r)), row_breaks, spec)
        for r, row_breaks in enumerate(breaks)
    ]


def _row(integrand, breaks, spec):
    # On a panel [a, b] of half-width d, the step t maps to the nodes
    # a + d*e(t) and b - d*e(t), with e(t) = 1 - tanh(pi/2*sinh t) written
    # so that it keeps its digits near the ends, and weight
    # d*(pi/2)*cosh(t)*e(t)*(2 - e(t)).  Each level halves the step
    # h = 2^-level, from 2^-3 down to 1/max_subdivisions, and takes all its
    # nodes afresh.  The rule stops once every component changes from the
    # previous level by at most max(abs_tol, rel_tol*|value|); the estimate
    # is that change plus a rounding floor.
    edges = np.asarray(breaks, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    previous = None
    level = 3
    while 2**level <= spec.max_subdivisions:
        h = 2.0**-level
        t = np.arange(int(_T_MAX / h) + 1) * h
        offset = 2.0 / (np.exp(math.pi * np.sinh(t)) + 1.0)
        weight = h * (0.5 * math.pi) * np.cosh(t) * offset * (2.0 - offset)
        weight[0] *= 0.5  # the t = 0 node appears from both ends
        # (end, panel, step): nodes from the left and from the right end
        nodes = np.stack((lo + half * offset, hi - half * offset))
        values = integrand(nodes.ravel()).reshape((-1, *nodes.shape))
        if not np.all(np.isfinite(values)):
            raise QuadratureError("integrand is not finite at a quadrature node")
        terms = (half * weight * values).reshape((len(values), -1))
        value = terms.sum(axis=-1)
        if previous is not None:
            change = np.abs(value - previous)
            if np.all(change <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))):
                error = change + _ROUNDING * np.abs(terms).sum(axis=-1)
                return tuple(Estimate(float(v), float(e)) for v, e in zip(value, error))
        previous = value
        level += 1
    raise QuadratureError(f"tanh-sinh did not converge by step 2^-{level - 1}")
