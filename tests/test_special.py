import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casdisp.lifshitz import QuadratureSpec
from casdisp.special import (
    ZETA_VALUES,
    cutoff_zeta_demo,
    log_one_minus_exp,
    polylog,
    polylog_exp_neg,
    richardson,
    zeta_value,
)
from casdisp.special import _NEAR_UNIT, _polylog_near_unit, _polylog_series

# Closed forms: Li2(1/2) = pi^2/12 - ln(2)^2/2, Li3(1/2) = 7*zeta(3)/8
# - pi^2*ln(2)/12 + ln(2)^3/6; evaluated in 40-digit arithmetic.
LI2_HALF = 0.5822405264650125
LI3_HALF = 0.5372131936080402

# log(1 - e^-x) at 40 digits
LOG1MEXP_1E8 = -18.420680748952365
LOG1MEXP_50 = -1.9287498479639178e-22

# Regulated sums at 60 digits, truncated at 1e-40 of the running total.
CUTOFF_ORACLE = {
    (3, 0.2): (0.008254245359682236, 1e-12),
    (3, 0.1): (0.008313509414086518, 1e-11),
    (3, 0.05): (0.008328374100778076, 1e-9),
    (5, 0.2): (-0.0038854238157890003, 1e-10),
    (5, 0.1): (-0.0039474521713023062, 1e-7),
    (5, 0.05): (-0.0039630476073165080, 5e-7),
}


class TestZetaTable:
    def test_exact_entries(self):
        assert zeta_value(-3) == 1.0 / 120.0
        assert zeta_value(-5) == -1.0 / 252.0
        assert zeta_value(2) == math.pi**2 / 6.0
        assert zeta_value(4) == math.pi**4 / 90.0
        assert zeta_value(6) == math.pi**6 / 945.0

    def test_apery_constant_against_direct_series(self):
        # partial sum plus the tail corrections of the 1/n^3 series
        n_top = 200_000
        partial = math.fsum(1.0 / n**3 for n in range(1, n_top + 1))
        tail = 0.5 / n_top**2 - 0.5 / n_top**3 + 0.25 / n_top**4
        assert abs(zeta_value(3) - (partial + tail)) < 1e-15

    @pytest.mark.parametrize("k", [0, 1, 5, -2, -7, 100])
    def test_unsupported_argument(self, k):
        with pytest.raises(ValueError):
            zeta_value(k)


class TestPolylog:
    @pytest.mark.parametrize(
        "s, x, expected, tol",
        [
            (2, 0.0, 0.0, 0.0),
            (3, 0.0, 0.0, 0.0),
            (2, 1.0, math.pi**2 / 6.0, 1e-13),
            (3, 1.0, 1.2020569031595942854, 1e-13),
            (2, 0.5, LI2_HALF, 1e-13),
            (3, 0.5, LI3_HALF, 1e-13),
        ],
    )
    def test_reference_values(self, s, x, expected, tol):
        assert polylog(s, x) == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("s, x", [(1, 0.5), (4, 0.5), (0, 0.5), (2, -0.1), (2, 1.1), (3, 2.0)])
    def test_domain_errors(self, s, x):
        with pytest.raises(ValueError):
            polylog(s, x)

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("x", [0.1, 0.3, 0.6, 0.7, 0.9, 0.99])
    def test_series_and_near_unit_paths_agree(self, s, x):
        raw = _polylog_series(s, x)
        accelerated = _polylog_near_unit(s, -math.log(x))
        assert raw == pytest.approx(accelerated, abs=1e-12)

    def test_dilogarithm_reflection_identity(self):
        # Li2(x) + Li2(1-x) = pi^2/6 - ln(x)*ln(1-x), an independent anchor
        for x in (0.2, 0.37, 0.5, 0.64, 0.9):
            lhs = polylog(2, x) + polylog(2, 1.0 - x)
            rhs = math.pi**2 / 6.0 - math.log(x) * math.log(1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    @given(
        s=st.sampled_from([2, 3]),
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_argument(self, s, a, b):
        lo, hi = min(a, b), max(a, b)
        assert polylog(s, lo) <= polylog(s, hi) + 1e-15

    def test_exponential_form_matches_plain(self):
        for s in (2, 3):
            for w in (1e-12, 0.01, 0.5, 1.0, 5.0, 50.0):
                assert polylog_exp_neg(s, w) == pytest.approx(
                    polylog(s, math.exp(-w)), abs=1e-13
                )

    @pytest.mark.parametrize("s", [2, 3])
    def test_plain_form_is_the_exponential_form(self, s):
        # one branch rule: Li_s(x) is Li_s(e^-w) at w = -log(x), to the bit
        for x in np.concatenate((np.linspace(1e-6, 1.0, 2001), np.geomspace(1e-300, 1.0, 400))):
            x = float(x)
            assert polylog(s, x) == polylog_exp_neg(s, -math.log(x)), x

    def test_exponential_form_limits(self):
        assert polylog_exp_neg(2, 0.0) == ZETA_VALUES[2]
        assert polylog_exp_neg(3, 800.0) == 0.0
        # x = 0 is w = inf, and gives positive zero
        assert repr(polylog(2, 0.0)) == "0.0"
        with pytest.raises(ValueError):
            polylog_exp_neg(2, -1.0)


class TestLogOneMinusExp:
    @pytest.mark.parametrize(
        "x, expected, tol",
        [
            (math.log(2.0), -math.log(2.0), 1e-15),
            (1e-8, LOG1MEXP_1E8, 1e-13),
            (50.0, LOG1MEXP_50, 1e-35),
            (700.0, -9.859676543759770e-305, 1e-318),
        ],
    )
    def test_reference_values(self, x, expected, tol):
        assert log_one_minus_exp(x) == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("x", [0.0, -1.0, -1e-9])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            log_one_minus_exp(x)

    @given(x=st.floats(min_value=0.1, max_value=30.0))
    def test_consistency_with_exponential(self, x):
        assert math.exp(log_one_minus_exp(x)) + math.exp(-x) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_small_argument_behaves_like_log(self):
        for x in (1e-12, 1e-10, 1e-8):
            assert log_one_minus_exp(x) == pytest.approx(math.log(x), rel=1e-8)


def _cutoff_oracle_digits(delta):
    return 60 + 8 * max(0, math.ceil(-math.log10(delta)))


class TestCutoffZetaDemo:
    @pytest.mark.parametrize("p, delta", sorted(CUTOFF_ORACLE))
    def test_against_extended_precision_summation(self, p, delta):
        expected, tol = CUTOFF_ORACLE[(p, delta)]
        assert cutoff_zeta_demo(p, delta) == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("p, target", [(3, 1.0 / 120.0), (5, -1.0 / 252.0)])
    def test_quadratic_error_scaling(self, p, target):
        err_coarse = cutoff_zeta_demo(p, 0.1) - target
        err_fine = cutoff_zeta_demo(p, 0.05) - target
        assert 3.5 <= err_coarse / err_fine <= 4.5

    def test_richardson_recovers_continued_values(self):
        for p, target in ((3, zeta_value(-3)), (5, zeta_value(-5))):
            values = [cutoff_zeta_demo(p, d) for d in (0.2, 0.1, 0.05)]
            assert richardson(values, ratio=4.0) == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("p", [3, 5])
    # the domain's ends, and three cutoffs where 40 working digits are too
    # few: they give -3323.93 at (5, 1e-6), 0.465 at (3, 1e-8), and 3 ulps
    # off at (5, 1.0670065091291526e-3)
    @pytest.mark.parametrize(
        "delta", [0.01, 0.5, 5e-324, 1e-6, 1e-8, 1.0670065091291526e-3]
    )
    def test_domain_ends_against_polylog(self, p, delta):
        # sum n^p x^n = Li_{-p}(x), by mpmath at 60 digits plus 8 per decade
        # of 1/delta, more than the p + 2 per decade that cancel
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(_cutoff_oracle_digits(delta)):
            d = mpmath.mpf(delta)
            divergence = 6 / d**4 if p == 3 else 120 / d**6
            expected = float(mpmath.polylog(-p, mpmath.exp(-d)) - divergence)
        assert cutoff_zeta_demo(p, delta) == expected

    @pytest.mark.parametrize("p", [3, 5])
    def test_correctly_rounded_on_log_uniform_cutoffs(self, p):
        # the Eulerian closed form in mpmath, with 1 - x from expm1 so that
        # it cancels nothing there
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20 + p)
        for delta in 10.0 ** rng.uniform(-30.0, math.log10(0.5), 2000):
            delta = float(delta)
            with mpmath.workdps(_cutoff_oracle_digits(delta)):
                d = mpmath.mpf(delta)
                x, gap = mpmath.exp(-d), -mpmath.expm1(-d)
                if p == 3:
                    expected = x * (1 + 4 * x + x**2) / gap**4 - 6 / d**4
                else:
                    expected = (
                        x * (1 + 26 * x + 66 * x**2 + 26 * x**3 + x**4) / gap**6
                        - 120 / d**6
                    )
            assert cutoff_zeta_demo(p, delta) == float(expected), delta

    @pytest.mark.parametrize("p, delta", [(4, 0.1), (2, 0.1), (3, 0.0), (3, 0.6), (5, -0.1)])
    def test_domain_errors(self, p, delta):
        with pytest.raises(ValueError):
            cutoff_zeta_demo(p, delta)


class TestRichardson:
    def test_single_value_passthrough(self):
        assert richardson([3.25]) == 3.25

    def test_removes_quadratic_error_exactly(self):
        limit = 1.75
        seq = [limit + 0.3 * h * h for h in (0.4, 0.2, 0.1)]
        assert richardson(seq, ratio=4.0) == pytest.approx(limit, abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            richardson([])


def _ulp_neighbours(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# w = 0, subnormal and tiny w, one ulp either side of each branch point
# (1 for the polylogarithms, from the expansion about the unit argument to
# the defining series; ln 2 for log(1 - e^-x), the old polylogarithm
# branch point), and the far end
ARRAY_POINTS = (
    [0.0, 5e-324, 1e-310, 1e-300, 1e-20, 1e-8, 1e-3, 0.1, 0.5]
    + _ulp_neighbours(math.log(2.0))
    + _ulp_neighbours(1.0)
    + [2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 700.0, 745.0, 800.0]
)


def _mp_polylog_exp_neg(s, w):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if w == 0.0:
            return float(mpmath.zeta(s))
        return float(mpmath.polylog(s, mpmath.exp(-mpmath.mpf(w))))


def _mp_log_one_minus_exp(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x < 1:
            return float(mpmath.log(-mpmath.expm1(-x)))
        return float(mpmath.log1p(-mpmath.exp(-x)))


class TestArrayArguments:
    @pytest.mark.parametrize("s", [2, 3])
    def test_polylog_array_matches_scalar_and_mpmath(self, s):
        w = np.array(ARRAY_POINTS)
        values = polylog_exp_neg(s, w)
        assert isinstance(values, np.ndarray) and values.shape == w.shape
        for wi, vi in zip(ARRAY_POINTS, values):
            scalar = polylog_exp_neg(s, wi)
            exact = _mp_polylog_exp_neg(s, wi)
            # an array and a scalar call may sum a different number of
            # vanishing terms, so they agree to rounding, not bitwise
            assert vi == pytest.approx(scalar, rel=4e-16, abs=1e-300)
            assert vi == pytest.approx(exact, rel=6e-16, abs=1e-300)

    @pytest.mark.parametrize("s", [2, 3])
    def test_polylog_scalar_gives_float(self, s):
        for w in (0.0, 5e-324, 0.5, 1.0, 5.0, 800.0, np.float64(2.0), np.array(2.0)):
            assert type(polylog_exp_neg(s, w)) is float

    def test_polylog_keeps_shape_and_rejects_bad_elements(self):
        grid = np.linspace(0.0, 8.0, 12).reshape(3, 4)
        assert polylog_exp_neg(3, grid).shape == (3, 4)
        assert polylog_exp_neg(2, np.array([])).shape == (0,)
        for bad in ([1.0, -1e-300], [0.5, math.nan]):
            with pytest.raises(ValueError):
                polylog_exp_neg(2, np.array(bad))

    def test_log_one_minus_exp_array_matches_scalar_and_mpmath(self):
        x = np.array([v for v in ARRAY_POINTS if v > 0.0])
        values = log_one_minus_exp(x)
        assert isinstance(values, np.ndarray) and values.shape == x.shape
        for xi, vi in zip(x, values):
            assert vi == log_one_minus_exp(float(xi))
            exact = _mp_log_one_minus_exp(xi)
            assert vi == pytest.approx(exact, rel=4e-16, abs=1e-320)

    def test_log_one_minus_exp_scalar_gives_float_and_rejects_bad_elements(self):
        for x in (5e-324, math.log(2.0), 800.0, np.float64(1.0)):
            assert type(log_one_minus_exp(x)) is float
        for bad in ([1.0, 0.0], [1.0, math.nan]):
            with pytest.raises(ValueError):
                log_one_minus_exp(np.array(bad))


def _one_order(s, w):
    # Li_s(e^-w) on an array as it was summed one order at a time: numpy's
    # polyval near the unit argument, one Horner loop of 1.0/n**s past it
    w = np.asarray(w, dtype=float)
    out = np.full_like(w, ZETA_VALUES[s])
    near, far = (w > 0.0) & (w < 1.0), w >= 1.0
    v = w[near]
    lg = np.log(v)
    if s == 2:
        head, power = ZETA_VALUES[2] - v * (1.0 - lg), v * v
    else:
        head = ZETA_VALUES[3] - ZETA_VALUES[2] * v + 0.5 * v * v * (1.5 - lg)
        power = -(v * v) * v
    first, odd = _NEAR_UNIT[s]
    out[near] = head + power * (first - v * np.polyval(odd, v * v))
    x = np.exp(-w[far])
    top = float(x.max(initial=0.0))
    terms = 1 if top == 0.0 else math.ceil(math.log(1e-17) / math.log(top))
    total = np.zeros_like(x)
    for n in range(terms, 0, -1):
        total = (total + 1.0 / n**s) * x
    out[far] = total
    return out


class TestPairedOrders:
    """Li_2 and Li_3 from one pass equal each order summed alone, bit for bit."""

    @pytest.mark.parametrize(
        "w",
        [
            np.array(ARRAY_POINTS),
            np.random.default_rng(1).uniform(0.0, 3.0, 800),
            10.0 ** np.random.default_rng(2).uniform(-12.0, 2.5, 1000),
            np.random.default_rng(3).uniform(0.0, 40.0, (4, 250)),
            np.array([]),
            np.zeros(7),
            np.random.default_rng(4).uniform(1e-6, 1.0, 300),
            np.random.default_rng(5).uniform(1.0, 40.0, 300),
            np.random.default_rng(6).uniform(0.0, 3.0, 900)[::3],
            np.asfortranarray(np.random.default_rng(7).uniform(0.0, 5.0, (30, 20))),
            np.random.default_rng(8).uniform(0.0, 3.0, (120, 1)),
            # scalars past the unit argument; a table row's one call has
            # w = 2*x(u_max) >= 2*u_max
            3.0,
            2.0 * QuadratureSpec().u_max,
            40.0,
            745.0,
            800.0,
        ],
        ids=[
            "edge-grid", "uniform-0-3", "log-uniform", "two-dimensional", "empty",
            "all-zero", "all-near-unit", "all-series", "strided", "fortran-order", "column",
            "scalar-3", "scalar-2-u-max", "scalar-40", "scalar-745", "scalar-800",
        ],
    )
    @pytest.mark.parametrize("orders", [(2, 3), (3, 2)], ids=["2-3", "3-2"])
    def test_pair_matches_each_order_alone(self, orders, w):
        pair = polylog_exp_neg(orders, w)
        assert pair.shape == (len(orders), *np.shape(w))
        for row, s in zip(pair, orders):
            assert row.tobytes() == np.asarray(polylog_exp_neg(s, w)).tobytes()
            assert row.tobytes() == _one_order(s, w).tobytes()

    @pytest.mark.parametrize("orders", [(2, 3), (3, 2)], ids=["2-3", "3-2"])
    def test_series_pair_matches_each_order_alone(self, orders):
        x = np.exp(-np.random.default_rng(9).uniform(1.0, 8.0, (6, 50)))
        pair = _polylog_series(orders, x)
        assert pair.shape == (2, *x.shape)
        for row, s in zip(pair, orders):
            assert row.tobytes() == _polylog_series(s, x).tobytes()

    def test_scalar_and_order_checks(self):
        pair = polylog_exp_neg((2, 3), 0.5)
        assert pair.shape == (2,)
        assert list(pair) == [polylog_exp_neg(2, 0.5), polylog_exp_neg(3, 0.5)]
        for bad in ((), (2, 4)):
            with pytest.raises(ValueError):
                polylog_exp_neg(bad, np.array([1.0]))
