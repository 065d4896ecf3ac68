"""Refractive-index models of the medium between the plates.

Three variants: a constant index, the low-frequency quadratic form
n(omega) = n0 + n1*omega^2, and a user-supplied table sampled on the
imaginary-frequency axis.  The quadratic model continues to imaginary
frequency omega -> i*xi as kappa_1 = n0*xi - n1*xi^3, which turns over and
goes negative beyond xi = sqrt(n0/n1); past that point the model has left
its domain, so the lower limit is clamped at zero.  The full-kappa_1 route
ends its window at the peak of kappa_1, before the clamp.  The quadratic
model is trusted only where L > ``min_separation`` = 2*pi*sqrt(n1).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

__all__ = [
    "Constant",
    "Cauchy",
    "Tabulated",
    "DispersionModel",
    "UnsupportedModelError",
    "cauchy_coefficients",
    "kappa_lower",
    "min_separation",
    "load_index_table",
]


class UnsupportedModelError(ValueError):
    """Operation has no meaning for this dispersion model."""


@dataclass(frozen=True)
class Constant:
    """Frequency-independent refractive index."""

    n0: float

    def __post_init__(self):
        if not 0.0 < self.n0 < math.inf:
            raise ValueError(f"refractive index must be positive and finite, got {self.n0}")


@dataclass(frozen=True)
class Cauchy:
    """Quadratic low-frequency dispersion n(omega) = n0 + n1*omega^2.

    n1 carries units of length^2 in natural units and must be non-negative.
    It may be an array: a column of media that share n0, one per row of an
    n1 sweep.
    """

    n0: float
    n1: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.n0 < math.inf:
            raise ValueError(f"refractive index must be positive and finite, got {self.n0}")
        if not all(0.0 <= n1 < math.inf for n1 in np.ravel(self.n1).tolist()):
            raise ValueError(f"dispersion coefficient must be >= 0 and finite, got {self.n1}")


@dataclass(frozen=True)
class Tabulated:
    """Sampled index n(i*xi) on the imaginary-frequency axis.

    Samples must be finite and sorted by strictly increasing xi >= 0,
    with n > 0.
    Queries use PCHIP, the monotone (shape-preserving) piecewise cubic
    Hermite interpolant of Fritsch & Carlson with the end slopes of
    scipy's ``PchipInterpolator``, and flat extrapolation beyond the table
    ends, so interpolated values never overshoot into n <= 0: at and past
    the last knot the index is the last sample exactly.  A two-sample table
    is linear.
    """

    xi: tuple[float, ...]
    n: tuple[float, ...]

    def __post_init__(self):
        xi = np.fromiter(self.xi, dtype=float)
        n = np.fromiter(self.n, dtype=float)
        object.__setattr__(self, "xi", tuple(xi.tolist()))
        object.__setattr__(self, "n", tuple(n.tolist()))
        if len(xi) != len(n):
            raise ValueError("xi and n columns differ in length")
        if len(xi) < 2:
            raise ValueError("need at least two samples")
        if not (np.isfinite(xi).all() and np.isfinite(n).all()):
            raise ValueError("frequency and index samples must be finite")
        if xi[0] < 0.0:
            raise ValueError("frequency samples must be non-negative")
        if np.any(xi[1:] <= xi[:-1]):
            raise ValueError("frequency samples must be strictly increasing")
        if np.any(n <= 0.0):
            raise ValueError("index samples must be positive")

    @cached_property
    def _interpolator(self) -> tuple[np.ndarray, np.ndarray]:
        # (knots, cubics): on the interval from knot k, the index is
        # d + c*s + b*s^2 + a*s^3 in s = xi - xi_k, with (a, b, c, d)
        # column k of ``cubics``; summed in that order, as scipy's PPoly
        # does, the values are scipy's to the last bit; from the last knot
        # on, the flat last column (0, 0, 0, n[-1]); read-only, as one table
        # serves every load of its file's bytes
        x, y = np.asarray(self.xi), np.asarray(self.n)
        h = np.diff(x)
        m = np.diff(y) / h
        slope = _pchip_slopes(h, m)
        t = (slope[:-1] + slope[1:] - 2.0 * m) / h
        cubics = np.stack((t / h, (m - slope[:-1]) / h - t, slope[:-1], y[:-1]))
        cubics = np.column_stack((cubics, (0.0, 0.0, 0.0, y[-1])))
        x.flags.writeable = cubics.flags.writeable = False
        return x, cubics

    def index_at(self, xi):
        """n(i*xi) at a scalar (giving a float) or an array of frequencies."""
        value, _ = self._index_and_slope(xi)
        return float(value) if np.ndim(xi) == 0 else value

    def _index_and_slope(self, xi):
        # n(i*xi) and dn/dxi = c + 2b*s + 3a*s^2 from one lookup; the slope
        # is 0 before the first knot and from the last on, where the index
        # is held flat
        knots, cubics = self._interpolator
        clipped = np.clip(xi, knots[0], knots[-1])
        # knots[k] <= xi < knots[k + 1], or k the last knot and s = 0
        k = np.searchsorted(knots[1:], clipped, side="right")
        s = clipped - knots.take(k)
        s2 = s * s
        a, b, c, d = cubics.take(k, axis=1)
        # (c*s) + d is d + c*s to the bit
        value = c * s + d + b * s2 + a * (s2 * s)
        return value, np.where(xi < knots[0], 0.0, c + s * (2.0 * b + 3.0 * a * s))


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    # Knot slopes of PCHIP from interval widths h and secants m, as scipy's
    # PchipInterpolator takes them: inside, the weighted harmonic mean of
    # the neighbouring secants, or 0 where they differ in sign or one is
    # flat; at each end, the three-point one-sided slope.
    if len(m) == 1:
        return np.array([m[0], m[0]])
    d = np.zeros(len(m) + 1)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    same = np.sign(m[:-1]) * np.sign(m[1:]) > 0.0
    w1, w2, left, right = w1[same], w2[same], m[:-1][same], m[1:][same]
    d[1:-1][same] = 1.0 / ((w1 / left + w2 / right) / (w1 + w2))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # Three-point slope at an end, set to 0 if it points against the end
    # secant m0 and limited to 3*m0 where the secants change sign, which
    # keeps the end interval monotone (Moler, Numerical Computing with
    # MATLAB, sec. 3.6).
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


DispersionModel = Union[Constant, Cauchy, Tabulated]


def kappa_lower(model: DispersionModel, xi):
    """Lower limit n(i*xi)*xi of the momentum integration at imaginary frequency xi.

    For a constant or quadratic index this is n0*xi - n1*xi^3, clamped below
    at zero past its turnover at xi = sqrt(n0/n1), where the model has left
    its domain.  ``xi`` may be a scalar, which gives a float, or an array.
    """
    if not np.all(np.asarray(xi) >= 0.0):
        raise ValueError(f"imaginary frequency must be non-negative, got {xi}")
    if isinstance(model, Tabulated):
        return model.index_at(xi) * xi
    n0, n1 = cauchy_coefficients(model)
    # left-assoc product keeps n1 = 0 exact for huge xi: n0*xi to the bit
    value = np.maximum(n0 * xi - n1 * xi * xi * xi, 0.0)
    return float(value) if np.ndim(xi) == 0 else value


def cauchy_coefficients(model: DispersionModel) -> tuple[float, float]:
    """(n0, n1) of a constant or quadratic index; tabulated data has none."""
    if isinstance(model, Tabulated):
        raise UnsupportedModelError(
            "tabulated index data has no closed form; "
            "this needs a constant or quadratic model"
        )
    if isinstance(model, Constant):
        return model.n0, 0.0
    return model.n0, model.n1


def min_separation(model: DispersionModel):
    """Smallest separation 2*pi*sqrt(n1) of the trust region; undefined for tables.

    The one statement of the rule: the perturbative treatment holds for
    L > min_separation(model), and every result's beyond-validity flag is
    L <= min_separation(model).  A column of n1 gives an array.
    """
    _, n1 = cauchy_coefficients(model)
    return 2.0 * math.pi * (np.sqrt(n1) if isinstance(n1, np.ndarray) else math.sqrt(n1))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_index_table(path) -> Tabulated:
    """Read a two-column CSV of (xi, n) samples; a single header line is allowed.

    The first line is a header only when neither of its two cells is a
    number, so a typo in a headerless table's first sample is an error, not
    a lost sample.  A leading UTF-8 byte-order mark is dropped, so it never
    turns the first sample into a header.

    Each distinct content is parsed, checked and interpolated once per
    process: up to 128 tables are kept, keyed on the file's bytes, and every
    load of the same bytes, from any path, returns one shared, immutable table.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return _parse_index_table(data)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@lru_cache
def _parse_index_table(data: bytes) -> Tabulated:
    # decoded as a text file is, so a decode error keeps its position in
    # the 8 KiB chunk; load_index_table names the path in the other errors
    xi: list[float] = []
    n: list[float] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as text:
        for lineno, row in enumerate(csv.reader(text), start=1):
            try:
                x, v = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                # a blank line is skipped, a short one is an error, and a
                # first line with no number in its two cells is a header
                if all(not cell.strip() for cell in row):
                    continue
                if len(row) < 2:
                    raise ValueError(f"line {lineno}: expected two columns") from None
                if lineno == 1 and not any(map(_is_number, row[:2])):
                    continue
                raise ValueError(f"line {lineno}: could not parse {row[:2]!r}") from None
            xi.append(x)
            n.append(v)
    return Tabulated(tuple(xi), tuple(n))
