import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tanh_sinh import integrate as tanh_sinh

from casdisp import lifshitz
from casdisp.cli import main
from casdisp.closed_form import (
    Scenario,
    SurfaceTermSpec,
    delta_e_analytic,
    e0_analytic,
    force_analytic,
    total_energy_analytic,
)
from casdisp.dispersion import (
    Cauchy,
    Constant,
    Tabulated,
    UnsupportedModelError,
    kappa_lower,
    load_index_table,
    min_separation,
)
from casdisp.lifshitz import (
    DEFAULT_QUADRATURE,
    Estimate,
    Mode,
    QuadratureError,
    QuadratureSpec,
    _integrate_panels,
    delta_e_lifshitz_first_order,
    delta_e_lifshitz_full,
    e0_lifshitz,
    force_lifshitz,
    inner_integral,
    inner_integral_quadrature,
    total_energy_lifshitz,
)
from casdisp.special import log_one_minus_exp, zeta_value

GOLDEN = Path(__file__).resolve().parent / "golden"

# direct adaptive quadrature of k*log(1 - e^-2k) on [1, inf), 40 digits
INNER_1_1 = -0.10453683585783608


def _drude_table(eps0: float, w0: float, samples: int = 40, start: float = 0.0) -> Tabulated:
    # n(i*xi) = sqrt(1 + (eps0 - 1)/(1 + (xi/w0)^2)) on
    # xi_k = start + 40*(k/(samples-1))^2
    xi = [start + 40.0 * (k / (samples - 1)) ** 2 for k in range(samples)]
    n = [math.sqrt(1.0 + (eps0 - 1.0) / (1.0 + (x / w0) ** 2)) for x in xi]
    return Tabulated(xi, n)


# Indices that swing across knots 1e-2 to 1e-5 apart: n falls from 2 to 1
# after xi = 1 ("step"), or goes 2, 1, 2, 1 over three such gaps ("zigzag").
# By parts, u*f(x)*x'(u) there carries the rounding of each node's abscissa
# times a steep slope, which no bisection removes: their rows converge only
# as the panel rule passes a spread within that rounding.
CLOSE_KNOTS = {
    f"{shape}-{gap:g}": Tabulated(xi, n)
    for gap in (1e-2, 1e-3, 1e-4, 1e-5)
    for shape, xi, n in (
        ("step", (0.0, 1.0, 1.0 + gap, 3.0), (2.0, 2.0, 1.0, 1.0)),
        ("zigzag", (0.0, 1.0, 1.0 + gap, 1.0 + 2.0 * gap, 1.0 + 3.0 * gap, 3.0),
         (2.0, 2.0, 1.0, 2.0, 1.0, 1.0)),
    )
}


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-10
        assert spec.abs_tol == 1e-14
        assert spec.max_subdivisions == 200
        assert spec.tail_cut == 1e-16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-3},
            {"max_subdivisions": 5},
            {"tail_cut": 0.0},
            {"tail_cut": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestInnerIntegral:
    def test_zero_lower_limit(self):
        for L in (0.5, 1.0, 2.0):
            assert inner_integral(0.0, L) == pytest.approx(
                -zeta_value(3) / (4.0 * L * L), abs=1e-14
            )

    def test_frozen_oracle_value(self):
        assert inner_integral(1.0, 1.0) == pytest.approx(INNER_1_1, abs=1e-13)
        pytest.importorskip("scipy.integrate")
        assert inner_integral_quadrature(1.0, 1.0) == pytest.approx(INNER_1_1, abs=1e-11)

    def test_vanishes_at_large_lower_limit(self):
        assert inner_integral(500.0, 1.0) == 0.0

    @pytest.mark.parametrize("kappa1", [0.0, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_reduction_against_bruteforce_quadrature(self, kappa1, L):
        pytest.importorskip("scipy.integrate")
        closed = inner_integral(kappa1, L)
        brute = inner_integral_quadrature(kappa1, L)
        assert closed == pytest.approx(brute, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inner_integral(-0.1, 1.0)
        with pytest.raises(ValueError):
            inner_integral(1.0, 0.0)

    def test_integrand_point_invariants(self):
        # one sample of the full-kappa_1 outer integrand: xi = 2 at L = 1
        low = kappa_lower(Cauchy(1.5, 1e-3), 2.0)
        assert low >= 0.0
        assert inner_integral(low, 1.0) <= 0.0


class TestLeadingOrder:
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n0", [1.0, 1.5, 2.0, 3.0])
    def test_matches_closed_form(self, L, n0):
        estimate = e0_lifshitz(L, n0)
        expected = e0_analytic(L, n0)
        assert abs(estimate.value / expected - 1.0) < 1e-8
        assert estimate.error > 0.0

    def test_universal_combination(self):
        for L, n0 in ((0.7, 1.2), (3.0, 2.5)):
            value = e0_lifshitz(L, n0).value * n0 * L**3
            assert value == pytest.approx(-math.pi**2 / 720.0, rel=1e-8)

    def test_reference_numbers(self):
        assert e0_lifshitz(1.0, 1.0).value == pytest.approx(-0.01370778, abs=5e-9)
        assert e0_lifshitz(1.0, 2.0).value == pytest.approx(-0.00685389, abs=5e-9)
        assert e0_lifshitz(2.0, 1.0).value == pytest.approx(-0.00171347, abs=5e-9)


class TestDispersiveCorrection:
    @pytest.mark.parametrize("n1", [1e-6, 1e-4, 1e-2, 1.0])
    def test_matches_closed_form(self, n1):
        estimate = delta_e_lifshitz_first_order(1.0, Cauchy(1.0, n1))
        assert estimate.value / delta_e_analytic(1.0, 1.0, n1) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_dispersion_free_is_exactly_zero(self):
        # compared by repr, so that -0.0 fails
        for model in (Cauchy(2.0, 0.0), Constant(2.0)):
            estimate = delta_e_lifshitz_first_order(1.0, model)
            assert repr(estimate) == repr(Estimate(0.0, 0.0))
        column = delta_e_lifshitz_first_order(1.0, Cauchy(2.0, np.array([0.0, 1e-3])))
        assert repr(column.value[0]) == repr(column.error[0]) == repr(np.float64(0.0))
        assert column.value[1] < 0.0 < column.error[1]

    def test_reference_number(self):
        estimate = delta_e_lifshitz_first_order(1.0, Cauchy(1.0, 1.0))
        assert estimate.value == pytest.approx(-math.pi**4 / 2520.0, rel=1e-8)

    def test_tabulated_rejected(self):
        with pytest.raises(UnsupportedModelError):
            delta_e_lifshitz_first_order(1.0, Tabulated((0.0, 1.0), (1.5, 1.4)))


class TestTotalEnergy:
    def test_full_mode_reduces_to_leading_term(self):
        breakdown = total_energy_lifshitz(
            Scenario(1.0, Cauchy(1.0, 0.0)), mode=Mode.FULL_KAPPA1
        )
        assert breakdown.total == pytest.approx(-0.01370778, abs=5e-9)
        assert not breakdown.beyond_validity

    def test_split_reference_number(self):
        breakdown = total_energy_lifshitz(
            Scenario(1.0, Cauchy(1.0, 1e-4)), mode=Mode.FIRST_ORDER_SPLIT
        )
        assert breakdown.total == pytest.approx(-0.01371165, abs=5e-9)

    def test_modes_differ_at_second_order(self):
        scenario = Scenario(1.0, Cauchy(1.0, 1e-4))
        full = total_energy_lifshitz(scenario, mode=Mode.FULL_KAPPA1)
        split = total_energy_lifshitz(scenario, mode=Mode.FIRST_ORDER_SPLIT)
        assert abs(full.total - split.total) < 1e-7
        assert full.total != split.total

    def test_surface_term_included(self):
        breakdown = total_energy_lifshitz(
            Scenario(1.0, Cauchy(1.0, 0.0), SurfaceTermSpec(0.02))
        )
        assert breakdown.e_surface == pytest.approx(0.02)
        assert breakdown.total == pytest.approx(0.02 - math.pi**2 / 720.0, rel=1e-8)

    def test_clamping_sets_flag(self):
        breakdown = total_energy_lifshitz(
            Scenario(1.0, Cauchy(1.0, 1.0)), mode=Mode.FULL_KAPPA1
        )
        assert breakdown.beyond_validity

    def test_split_flags_small_separations(self):
        breakdown = total_energy_lifshitz(Scenario(0.1, Cauchy(1.0, 0.01)))
        assert breakdown.beyond_validity

    def test_split_rejects_tabulated(self):
        scenario = Scenario(1.0, Tabulated((0.0, 1.0, 2.0), (1.5, 1.4, 1.3)))
        with pytest.raises(UnsupportedModelError):
            total_energy_lifshitz(scenario, mode=Mode.FIRST_ORDER_SPLIT)

    def test_full_accepts_tabulated(self):
        scenario = Scenario(1.0, Tabulated((0.0, 1.0, 2.0), (1.5, 1.5, 1.5)))
        breakdown = total_energy_lifshitz(scenario, mode=Mode.FULL_KAPPA1)
        # constant table must reproduce the constant-index result
        assert breakdown.total == pytest.approx(e0_analytic(1.0, 1.5), rel=1e-8)

    def test_steep_table_reads_its_last_sample_past_the_end(self):
        # the last cubic evaluated at its right end rounds to about -4e-3
        # here; past the last knot the index is the last sample, so at this
        # L every node reads n[-1] and the row is the constant-index one
        table = Tabulated((3237.8547855833613, 3421.4525542858005),
                          (30175561441643.08, 7.023638461381411e-16))
        last = table.n[-1]
        assert table.index_at(table.xi[-1]) == table.index_at(1e300) == last
        assert list(table.index_at(np.array([table.xi[-1], 1e4]))) == [last, last]
        L = 6.083306874593662e-29
        breakdown = total_energy_lifshitz(Scenario(L, table), mode=Mode.FULL_KAPPA1)
        assert math.isfinite(breakdown.total) and math.isfinite(breakdown.force)
        assert breakdown.total == pytest.approx(e0_analytic(L, last), rel=1e-8)

    def test_monotone_in_separation(self):
        totals = [
            total_energy_lifshitz(Scenario(L, Cauchy(1.2, 1e-4))).total
            for L in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(t < 0.0 for t in totals)
        assert totals == sorted(totals)

    def test_tolerance_honesty(self):
        scenarios = [
            Scenario(1.0, Cauchy(1.0, 0.0)),
            Scenario(0.7, Cauchy(1.5, 1e-3)),
        ]
        for scenario in scenarios:
            coarse = total_energy_lifshitz(scenario, DEFAULT_QUADRATURE)
            fine = total_energy_lifshitz(
                scenario, QuadratureSpec(rel_tol=DEFAULT_QUADRATURE.rel_tol / 2.0)
            )
            assert abs(fine.total - coarse.total) <= coarse.error_estimate

    @pytest.mark.parametrize(
        "model, mode",
        [
            (Cauchy(1.5, 1e-3), Mode.FIRST_ORDER_SPLIT),
            (Cauchy(1.5, 1e-3), Mode.FULL_KAPPA1),
            (_drude_table(3.0, 1.0), Mode.FULL_KAPPA1),
        ],
    )
    def test_smallest_subdivision_limit_converges(self, model, mode):
        # max_subdivisions 10, the least QuadratureSpec accepts, allows each
        # panel 3 bisections, enough for c0, c1, F(g) and a table's row
        scenario = Scenario(1.0, model)
        base = total_energy_lifshitz(scenario, DEFAULT_QUADRATURE, mode)
        small = total_energy_lifshitz(scenario, QuadratureSpec(max_subdivisions=10), mode)
        assert abs(small.total - base.total) <= small.error_estimate + base.error_estimate
        assert abs(small.force - base.force) <= small.force_error + base.force_error


class TestScaleFreeSplit:
    @given(
        L_exp=st.floats(min_value=-6.0, max_value=6.0),
        n0=st.floats(min_value=1.0, max_value=3.0),
        trust=st.floats(min_value=0.0, max_value=0.99),
    )
    @example(L_exp=6.0, n0=1.0, trust=0.5)
    def test_estimate_bounds_error_at_every_separation(self, L_exp, n0, trust):
        # n1 = trust * (L/2pi)^2 keeps L > 2*pi*sqrt(n1)
        L = 10.0**L_exp
        scenario = Scenario(L, Cauchy(n0, trust * (L / (2.0 * math.pi)) ** 2))
        closed = total_energy_analytic(scenario).total
        quad = total_energy_lifshitz(scenario, mode=Mode.FIRST_ORDER_SPLIT)
        assert abs(quad.total - closed) <= quad.error_estimate <= 1e-9 * abs(closed)

    @pytest.mark.parametrize("L", [1e-3, 1.0, 1e4])
    def test_tail_cut_moves_total_within_estimates(self, L):
        scenario = Scenario(L, Cauchy(1.5, 1e-3 * L * L))
        tight = total_energy_lifshitz(scenario, QuadratureSpec(tail_cut=1e-16))
        loose = total_energy_lifshitz(scenario, QuadratureSpec(tail_cut=1e-12))
        assert abs(tight.total - loose.total) <= tight.error_estimate + loose.error_estimate

    def test_split_sweep_integrates_once(self, capsys, monkeypatch):
        passes = []
        lifshitz._e0_number.cache_clear()
        lifshitz._delta_number.cache_clear()
        _count_passes(monkeypatch, passes)
        code = main([
            "sweep", "--variable", "L", "--min", "0.5", "--max", "1e4",
            "--points", "200", "--scale", "log", "--n0", "1.5", "--n1", "1e-4",
            "--method", "lifshitz", "--mode", "split", "--format", "csv",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 201
        # one node-rule pass for each of c0 and c1, none per row
        assert passes == [585, 585]


def _count_passes(monkeypatch, passes: list) -> None:
    # record the node count of every pass of lifshitz._integrate_panels
    rule = lifshitz._integrate_panels

    def counting(integrand, breaks, spec):
        def counted(u, row):
            passes.append(u.size)
            return integrand(u, row)

        return rule(counted, breaks, spec)

    monkeypatch.setattr(lifshitz, "_integrate_panels", counting)


def _node_rule_passes(monkeypatch, capsys, argv):
    # node passes that one CLI command makes once c0 and c1 are cached
    lifshitz._e0_number(DEFAULT_QUADRATURE)
    lifshitz._delta_number(DEFAULT_QUADRATURE)
    passes = []
    _count_passes(monkeypatch, passes)
    code = main(argv)
    assert code == 0, capsys.readouterr().err
    assert len(capsys.readouterr().out.splitlines()) == 2
    return len(passes)


class TestOnePassPerRow:
    def test_full_kappa1_row(self, monkeypatch, capsys):
        # once the spec's interpolant of F(g) exists, a row makes no pass
        argv = [
            "compute", "--L", "1", "--n0", "1.5", "--n1", "1e-3",
            "--method", "lifshitz", "--mode", "full", "--format", "csv",
        ]
        total_energy_lifshitz(Scenario(1.0, Cauchy(1.5, 1e-3)), mode=Mode.FULL_KAPPA1)
        assert _node_rule_passes(monkeypatch, capsys, argv) == 0

    def test_tabulated_row(self, monkeypatch, capsys, tmp_path):
        table = _drude_table(3.0, 1.0)
        path = tmp_path / "drude.csv"
        path.write_text("".join(f"{x!r},{n!r}\n" for x, n in zip(table.xi, table.n)))
        argv = [
            "compute", "--L", "0.5", "--ns-table", str(path),
            "--method", "lifshitz", "--format", "csv",
        ]
        assert _node_rule_passes(monkeypatch, capsys, argv) == 1

    @pytest.mark.parametrize("kind", ["full-kappa1", "tabulated"])
    def test_one_polylogarithm_pass_per_level(self, monkeypatch, capsys, tmp_path, kind):
        # A table column runs log_one_minus_exp once per node-rule pass, on
        # arrays only, and kappa_lower and inner_integral once, on an array
        # of its rows, whatever the number of passes: both only at the
        # window's end, for the boundary term of its integrals by parts.
        # Its rows share each pass: 690 + 645 nodes, then 90 + 90 once both
        # bisect.  A full-kappa_1 row reads F(g) from its spec's
        # interpolant, built here beforehand, and runs none of them.
        if kind == "full-kappa1":
            argv = ["compute", "--L", "1", "--n0", "1.5", "--n1", "1e-3", "--mode", "full"]
            total_energy_lifshitz(Scenario(1.0, Cauchy(1.5, 1e-3)), mode=Mode.FULL_KAPPA1)
        else:
            table = _drude_table(3.0, 1.0)
            path = tmp_path / "drude.csv"
            path.write_text("".join(f"{x!r},{n!r}\n" for x, n in zip(table.xi, table.n)))
            # a tight tolerance makes the panel rule bisect for both rows
            argv = ["sweep", "--variable", "L", "--min", "4", "--max", "10", "--points", "2",
                    "--ns-table", str(path), "--rel-tol", "1e-13"]
        # name -> the dimension of the counted argument, call by call
        calls = {"inner_integral": [], "kappa_lower": [], "log_one_minus_exp": []}
        passes = []

        def counted(name, position):
            original = getattr(lifshitz, name)

            def wrapper(*args):
                calls[name].append(np.ndim(args[position]))
                return original(*args)

            monkeypatch.setattr(lifshitz, name, wrapper)

        lifshitz._e0_number(QuadratureSpec(rel_tol=1e-13))
        lifshitz._e0_number(DEFAULT_QUADRATURE)
        _count_passes(monkeypatch, passes)
        counted("inner_integral", 0)
        counted("kappa_lower", 1)
        counted("log_one_minus_exp", 0)
        code = main([*argv, "--method", "lifshitz", "--format", "csv"])
        assert code == 0, capsys.readouterr().err
        if kind == "full-kappa1":
            assert passes == []
            assert calls == {name: [] for name in calls}
        else:
            assert passes == [1335, 180]
            assert calls["inner_integral"] == calls["kappa_lower"] == [1]
            assert calls["log_one_minus_exp"] == [1, 1]


def _log_integrand(t: float) -> float:
    # t*log(1 - e^(-2t)), each form where it keeps its digits
    if 2.0 * t < math.log(2.0):
        return t * math.log(-math.expm1(-2.0 * t))
    return t * math.log1p(-math.exp(-2.0 * t))


def _quadpack_oracle(integrand, breaks):
    # QUADPACK on the same scalar integrand, told where it is not smooth
    quad = pytest.importorskip("scipy.integrate").quad
    value, error = quad(
        integrand, breaks[0], breaks[-1], points=breaks[1:-1] or None,
        epsabs=1e-15, epsrel=1e-12, limit=500,
    )
    return value, error


class TestNodeRule:
    @settings(max_examples=40, deadline=None)
    @given(
        L_exp=st.floats(min_value=-6.0, max_value=6.0),
        n0=st.floats(min_value=1.0, max_value=3.0),
        trust=st.floats(min_value=1e-6, max_value=0.99),
    )
    @example(L_exp=0.0, n0=1.0, trust=0.99)
    @example(L_exp=0.1, n0=1.0, trust=0.4)
    # g = 9.4e-10, where a lower limit x = kappa_1*L missed by 3e-8 of F(g)
    @example(L_exp=0.25, n0=3.0, trust=1e-6)
    @example(L_exp=1.5, n0=3.0, trust=1e-6)
    def test_full_kappa1_within_estimate_of_quadpack(self, L_exp, n0, trust):
        # the window ends at the kappa_1 peak, xi = sqrt(n0/(3*n1)), or at
        # u_max, whichever comes first
        quad = pytest.importorskip("scipy.integrate").quad
        L = 10.0**L_exp
        model = Cauchy(n0, trust * (L / (2.0 * math.pi)) ** 2)
        u_max = DEFAULT_QUADRATURE.u_max

        def integrand(u):
            # I(x, 1) - I(u, 1) = int_x^u t*log(1 - e^(-2t)) dt, by QUADPACK
            # too: a difference of the two closed forms rounds at about 1e-16
            # of I(u, 1), which QUADPACK's estimate leaves out.  It is taken
            # as d*int_0^1 of the integrand at t = u - d*s, with d = u - x =
            # g*u^3 formed from n1: the lower limit x itself would round d
            # by about 1e-16*u/d, which is 3e-8 at g = 1e-9
            d = model.n1 * u**3 / (n0**3 * L**2)
            return d * quad(
                lambda s: _log_integrand(u - d * s), 0.0, 1.0, epsabs=0.0, epsrel=1e-13
            )[0]

        peak = n0 * L * math.sqrt(n0 / (3.0 * model.n1))
        raw, raw_error = _quadpack_oracle(integrand, [0.0, min(peak, u_max)])
        scale = 1.0 / (2.0 * math.pi**2 * n0 * L**3)
        node, at_peak = delta_e_lifshitz_full(L, model)
        assert abs(node.value - raw * scale) <= node.error + raw_error * scale
        assert at_peak == (peak < u_max)

    @pytest.mark.parametrize("table", [
        *(pytest.param(_drude_table(eps0, w0), id=f"{eps0}-{w0}")
          for eps0, w0 in [(1.7, 0.5), (3.0, 1.0), (6.0, 20.0)]),
        *(pytest.param(table, id=name) for name, table in CLOSE_KNOTS.items()),
    ])
    @pytest.mark.parametrize("L", [0.5, 4.0])
    def test_tabulated_within_estimate_of_quadpack(self, table, L):
        n = min(table.n)
        u_max = DEFAULT_QUADRATURE.u_max

        def integrand(u):
            return inner_integral(kappa_lower(table, u / (n * L)) * L, 1.0)

        knots = [n * L * xi for xi in table.xi if 0.0 < n * L * xi < u_max]
        raw, raw_error = _quadpack_oracle(integrand, [0.0, *knots, u_max])
        scale = 1.0 / (2.0 * math.pi**2 * n * L**3)
        node = total_energy_lifshitz(Scenario(L, table), mode=Mode.FULL_KAPPA1)
        assert abs(node.total - raw * scale) <= node.error_estimate + raw_error * scale

    @pytest.mark.parametrize("eps0, w0", [(1.7, 0.5), (3.0, 1.0), (6.0, 20.0)])
    @pytest.mark.parametrize("L", [0.5, 4.0])
    def test_tabulated_rel_tol_halving_within_estimate(self, eps0, w0, L):
        scenario = Scenario(L, _drude_table(eps0, w0, samples=200))
        coarse = total_energy_lifshitz(scenario, DEFAULT_QUADRATURE, Mode.FULL_KAPPA1)
        fine = total_energy_lifshitz(
            scenario, QuadratureSpec(rel_tol=DEFAULT_QUADRATURE.rel_tol / 2.0),
            Mode.FULL_KAPPA1,
        )
        assert abs(fine.total - coarse.total) <= coarse.error_estimate

    def test_outer_integrals_never_reach_quadpack(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an outer integral called QUADPACK")

        lifshitz._e0_number.cache_clear()
        lifshitz._delta_number.cache_clear()
        monkeypatch.setattr(lifshitz, "_quadpack", forbidden)
        for model, mode in (
            (Cauchy(1.5, 1e-3), Mode.FIRST_ORDER_SPLIT),
            (Cauchy(1.5, 1e-3), Mode.FULL_KAPPA1),
            (_drude_table(3.0, 1.0), Mode.FULL_KAPPA1),
        ):
            force_lifshitz(Scenario(1.0, model), mode=mode)
        with pytest.raises(AssertionError):
            inner_integral_quadrature(1.0, 1.0)


class TestPanelRule:
    def test_smooth_integral_over_panels(self):
        value, error = _integrate_panels(
            lambda u, row: np.exp(u)[None], [(0.0, 0.3, 1.0, 1.5, 2.0)], QuadratureSpec()
        )
        assert value.shape == error.shape == (1, 1)
        exact = math.expm1(2.0)
        assert abs(value.item() - exact) <= 1e-15 * exact
        assert abs(value.item() - exact) <= error.item()

    def test_stacked_integrands_stop_together(self, monkeypatch):
        # exp converges in one pass and the peaked component needs
        # bisections; the stack bisects until both have converged, so it
        # makes the peaked one's passes and gives it as it is alone
        spec = QuadratureSpec()

        def peaked(u):
            return 1.0 / (1e-2 + (u - 0.37) ** 2)

        def passes_of(integrand):
            passes = []
            with monkeypatch.context() as patch:
                _count_passes(patch, passes)
                values, errors = lifshitz._integrate_panels(integrand, [(0.0, 1.0, 2.0)], spec)
            return list(map(Estimate, values[0].tolist(), errors[0].tolist())), len(passes)

        (easy, hard), stacked = passes_of(lambda u, row: np.stack((np.exp(u), peaked(u))))
        (alone,), peaked_passes = passes_of(lambda u, row: peaked(u)[None])
        assert passes_of(lambda u, row: np.exp(u)[None])[1] == 1
        assert stacked == peaked_passes > 1
        assert hard == alone
        assert abs(easy.value - math.expm1(2.0)) <= easy.error
        exact = 10.0 * (math.atan(16.3) + math.atan(3.7))
        assert abs(hard.value - exact) <= hard.error
        assert hard.error <= 1e-9 * exact

    # an inf that reached the panels' sums would warn, as inf - inf is nan
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(QuadratureError):
            _integrate_panels(lambda u, row: np.full_like(u, bad), [(0.0, 1.0)], QuadratureSpec())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_column_fails_as_its_first_failing_row(self, monkeypatch):
        # a "wave" row uses up its bisections, a "nan" row is not finite at
        # its first pass, and a "late" row is finite at its first pass's
        # nodes but infinite at those its bisected panel's halves carry, so
        # it fails in its second pass; a loop over the rows would meet the
        # first row's failure
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30, max_subdivisions=10)
        first_nodes = 10.0 + 10.0 * lifshitz._KRONROD_NODES
        passes = []
        _count_passes(monkeypatch, passes)

        def column(*kinds):
            def integrand(u, row):
                wave = np.sin(1e6 * u * u)
                late = np.where(np.isin(u, first_nodes), wave, np.inf)
                kind = np.array(kinds)[row]
                return np.select([kind == "nan", kind == "late"], [np.nan, late], wave)[None]

            lifshitz._integrate_panels(integrand, [(0.0, 20.0)] * len(kinds), spec)

        with pytest.raises(QuadratureError, match="not finite"):
            column("late")
        assert passes == [15, 30]
        with pytest.raises(QuadratureError, match="after 3 bisections"):
            column("wave", "nan", "late")
        with pytest.raises(QuadratureError, match="not finite"):
            column("nan", "wave", "late")
        with pytest.raises(QuadratureError, match="after 3 bisections"):
            column("wave", "late")
        with pytest.raises(QuadratureError, match="not finite"):
            column("late", "wave")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_graded_breaks_of_rows(self, data):
        # a (rows, K) call gives each row its own (1, K) call's breaks, which
        # run from 0 to end, strictly increasing, no gap wider than width
        # but for the rounding of the parts' points (an ulp or two of end);
        # knots on 0, on grading points, on and past the end, and repeats,
        # leave gaps of width 0 between the sorted edges
        end = data.draw(st.one_of(
            st.sampled_from([2.0**-20, 0.5, 1.0, 18.420680743952367]),
            st.floats(min_value=1e-7, max_value=60.0),
        ))
        width = data.draw(st.one_of(st.sampled_from([1.0 / 16.0, 1.0]),
                                    st.floats(min_value=1e-3, max_value=4.0)))
        pool = data.draw(st.lists(
            st.one_of(
                st.sampled_from([0.0, end, *lifshitz._GRADING.tolist()]),
                st.floats(min_value=0.0, max_value=2.0 * end),
            ),
            min_size=1, max_size=8,
        ))
        rows = data.draw(st.integers(min_value=1, max_value=4))
        K = data.draw(st.integers(min_value=0, max_value=12))
        knots = np.array(data.draw(st.lists(
            st.sampled_from(pool), min_size=rows * K, max_size=rows * K
        ))).reshape(rows, K)
        breaks = lifshitz._graded_breaks(end, width, knots)
        assert len(breaks) == rows
        for r, row_breaks in enumerate(breaks):
            (alone,) = lifshitz._graded_breaks(end, width, knots[r:r + 1])
            assert row_breaks.tolist() == alone.tolist()
            assert row_breaks[0] == 0.0 and row_breaks[-1] == end
            gaps = np.diff(row_breaks)
            assert np.all(gaps > 0.0)
            assert np.all(gaps <= width + 4.0 * np.spacing(end))

    def test_unresolved_oscillation_uses_up_the_bisections(self, monkeypatch):
        # max_subdivisions 10 allows floor(log2 10) = 3 bisections: four
        # passes, then the rule gives up
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30, max_subdivisions=10)
        passes = []
        _count_passes(monkeypatch, passes)
        with pytest.raises(QuadratureError, match="after 3 bisections"):
            lifshitz._integrate_panels(lambda x, row: np.sin(1e6 * x * x), [(0.0, 20.0)], spec)
        assert passes == [15, 30, 60, 120]

    def test_tabulated_rows_agree_with_tanh_sinh(self, monkeypatch):
        # The panel rule against tanh-sinh on the same integrand and breaks,
        # within the sum of both estimates: c0, c1 and F(g), F'(g) at
        # log-spaced g at each tolerance, then the energy and force of
        # random Drude tables
        def outer_integrals(spec):
            # F(g) by parts, at log-spaced g on both sides of g_k
            samples = lifshitz._full_samples(np.geomspace(1e-7, 5e-2, 6), spec)
            raw, raw_error, slope, slope_error = samples
            return [
                lifshitz._e0_number.__wrapped__(spec),
                lifshitz._delta_number.__wrapped__(spec),
                *map(Estimate, raw, raw_error),
                *map(Estimate, slope, slope_error),
            ]

        for rel_tol in (1e-8, 1e-10, 1e-12):
            spec = QuadratureSpec(rel_tol=rel_tol)
            panels = outer_integrals(spec)
            with monkeypatch.context() as patch:
                patch.setattr(lifshitz, "_integrate_panels", tanh_sinh)
                other = outer_integrals(spec)
            for a, b in zip(panels, other, strict=True):
                assert abs(a.value - b.value) <= a.error + b.error
        rng = random.Random(20261018)
        for _ in range(60):
            samples = int(math.exp(rng.uniform(math.log(2.0), math.log(600.0))))
            start = 0.0 if rng.random() < 0.5 else rng.uniform(0.01, 2.0)
            table = _drude_table(
                rng.uniform(1.2, 8.0), math.exp(rng.uniform(math.log(0.2), math.log(30.0))),
                samples, start,
            )
            L = math.exp(rng.uniform(math.log(0.03), math.log(50.0)))
            spec = QuadratureSpec(rel_tol=rng.choice((1e-8, 1e-10, 1e-12)))
            panels = lifshitz._table_rows(L, table, spec)
            with monkeypatch.context() as patch:
                patch.setattr(lifshitz, "_integrate_panels", tanh_sinh)
                other = lifshitz._table_rows(L, table, spec)
            for a, b in zip(panels, other):
                assert abs(a.value - b.value) <= a.error + b.error

    @pytest.mark.parametrize("samples, start", [(2, 0.0), (5, 0.3)])
    @pytest.mark.parametrize("L", [0.03, 0.5, 4.0, 50.0])
    def test_coarse_tables_take_one_pass(self, monkeypatch, samples, start, L):
        # the grading at u = 0 serves tables with few knots near it
        passes = []
        _count_passes(monkeypatch, passes)
        total_energy_lifshitz(
            Scenario(L, _drude_table(3.0, 1.0, samples, start)), mode=Mode.FULL_KAPPA1
        )
        assert len(passes) == 1


def _direct_table_pass(L: float, model: Tabulated, spec: QuadratureSpec) -> tuple:
    # A table row's energy and force from its two windowed integrals in the
    # direct form, I(x, 1) at every node: one pass over [I(x, 1), G(x)], with
    # G(x) = -x^2*log(1 - e^(-2x)) - 2*I(x, 1), less the force's boundary
    # term u_max*I(x(u_max), 1); the errors add the same tail bounds.
    u_max = spec.u_max
    n = min(model.n)

    def integrand(u, row):
        x = kappa_lower(model, u / (n * L)) * L
        inner = inner_integral(x, 1.0)
        return np.stack((inner, -(x * x) * log_one_minus_exp(2.0 * x) - 2.0 * inner))

    breaks = lifshitz._graded_breaks(u_max, 1.0, n * L * np.asarray(model.xi)[None])
    (raw, slope), (raw_error, slope_error) = (
        a[0].tolist() for a in lifshitz._integrate_panels(integrand, breaks, spec)
    )
    edge = u_max * inner_integral(kappa_lower(model, u_max / (n * L)) * L, 1.0)
    unit = 1.0 / (2.0 * math.pi**2 * n * L**3)
    return (Estimate(raw * unit, (raw_error + lifshitz._e0_tail_bound(u_max)) * unit),
            Estimate((edge - slope) * unit / L,
                     (slope_error + lifshitz._force_tail_bound(u_max)) * unit / L))


class TestTableByParts:
    """A table row by parts, against the direct form of its integrals."""

    TABLES = {
        "drude": load_index_table(GOLDEN / "drude.csv"),
        "drude200": load_index_table(GOLDEN / "drude200.csv"),
        # x'(u) = 1
        "constant": Tabulated((0.0, 1.0, 2.0), (1.5, 1.5, 1.5)),
        # coarse tables: two knots, and five from xi = 0.3
        "two": Tabulated((0.0, 40.0), (1.8, 1.1)),
        "five": _drude_table(3.0, 1.0, 5, 0.3),
        # x(u) falls on the drop, from 3u to u
        "step": Tabulated((0.0, 1.0, 1.1, 40.0), (3.0, 3.0, 1.0, 1.0)),
        **CLOSE_KNOTS,
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    @pytest.mark.parametrize("L", [0.5, 0.84, 1.4, 4.0, 10.0])
    def test_rows_agree_with_the_direct_form(self, monkeypatch, name, L):
        table = self.TABLES[name]

        def row(route):
            passes = []
            with monkeypatch.context() as patch:
                _count_passes(patch, passes)
                return route(L, table, DEFAULT_QUADRATURE), passes

        (energy, force), parts = row(lifshitz._table_rows)
        (direct_energy, direct_force), direct = row(_direct_table_pass)
        assert abs(energy.value - direct_energy.value) <= energy.error + direct_energy.error
        assert abs(force.value - direct_force.value) <= force.error + direct_force.error
        # the same panels; where x(u) falls steeply, u*f(x)*x'(u) carries
        # the interpolant's steep slope and its panels bisect more often
        assert parts[0] == direct[0]
        if name == "step":
            assert sum(parts) <= 1.25 * sum(direct)
        elif name in CLOSE_KNOTS:
            assert len(parts) <= len(direct) + 2 and sum(parts) <= 1.3 * sum(direct)
        else:
            assert parts == direct


class TestForce:
    def test_dispersion_free_reference(self):
        estimate = force_lifshitz(Scenario(1.0, Cauchy(1.0, 0.0)), h_rel=1e-4)
        assert estimate.value == pytest.approx(-math.pi**2 / 240.0, rel=1e-6)
        assert abs(estimate.value + math.pi**2 / 240.0) <= estimate.error

    def test_index_scaling(self):
        estimate = force_lifshitz(Scenario(1.0, Cauchy(2.0, 0.0)), h_rel=1e-4)
        assert estimate.value == pytest.approx(-0.0205617, rel=1e-5)

    def test_dispersive_shift_matches_closed_form(self):
        from casdisp.closed_form import force_analytic

        scenario = Scenario(1.0, Cauchy(1.0, 1e-3))
        estimate = force_lifshitz(scenario, h_rel=1e-4)
        assert estimate.value == pytest.approx(force_analytic(scenario), rel=1e-6)

    @pytest.mark.parametrize("h_rel", [1e-8, 0.5])
    def test_step_fraction_range(self, h_rel):
        with pytest.raises(ValueError):
            force_lifshitz(Scenario(1.0, Cauchy(1.0, 0.0)), h_rel=h_rel)

    @settings(deadline=None)
    @given(
        L_exp=st.floats(min_value=-6.0, max_value=6.0),
        n0=st.floats(min_value=1.0, max_value=3.0),
        trust=st.floats(min_value=0.0, max_value=0.99),
        surface=st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0)),
    )
    @example(L_exp=6.0, n0=1.0, trust=0.5, surface=None)
    @example(L_exp=-6.0, n0=3.0, trust=0.99, surface=2.0)
    def test_split_force_is_exact(self, L_exp, n0, trust, surface):
        # n1 = trust * (L/2pi)^2 keeps L > 2*pi*sqrt(n1); the surface energy
        # is ``surface`` times e0, so its force adds to the Casimir force
        # instead of cancelling it
        L = 10.0**L_exp
        spec = None if surface is None else SurfaceTermSpec(surface * e0_analytic(L, n0) * L**4)
        scenario = Scenario(L, Cauchy(n0, trust * (L / (2.0 * math.pi)) ** 2), spec)
        force = force_lifshitz(scenario, mode=Mode.FIRST_ORDER_SPLIT)
        closed = force_analytic(scenario)
        assert abs(force.value - closed) <= force.error <= 1e-9 * abs(force.value)

    @pytest.mark.parametrize(
        "L, n0, n1",
        [
            # windows that end at the kappa_1 peak: inside the trust region,
            (1.96, 1.00677, 0.0108094),
            # and beyond it, with the peak close to u_max
            (0.0649, 2.2448, 1.351e-4),
        ],
    )
    def test_full_kappa1_force_past_the_peak(self, L, n0, n1):
        # a central difference of the route's own energies at h = 1e-6,
        # with a tolerance tight enough that its quadrature noise stays small
        scenario = Scenario(L, Cauchy(n0, n1))
        force = force_lifshitz(scenario, mode=Mode.FULL_KAPPA1)
        difference, difference_error = _central_difference(scenario, 1e-6)
        assert abs(force.value - difference) <= 1e-8 * abs(force.value)
        assert abs(force.value - difference) <= force.error + difference_error

    @pytest.mark.parametrize("model", [Cauchy(1.5, 1e-3), _drude_table(3.0, 1.0)])
    def test_force_is_the_derivative_on_a_short_window(self, model):
        # at tail_cut 1e-4 the window ends at u = 4.6, where the boundary
        # term u_max*I(x(u_max), 1) is about 1e-3 of the integral
        spec = QuadratureSpec(tail_cut=1e-4)
        scenario = Scenario(0.7, model)
        force = force_lifshitz(scenario, spec, mode=Mode.FULL_KAPPA1)
        difference, difference_error = _central_difference(scenario, 1e-6, tail_cut=1e-4)
        assert abs(force.value - difference) <= 1e-8 * abs(force.value)
        assert abs(force.value - difference) <= force.error + difference_error

    @pytest.mark.parametrize(
        "model, mode",
        [(Cauchy(1.5, 1e-3), Mode.FIRST_ORDER_SPLIT), (_drude_table(3.0, 1.0), Mode.FULL_KAPPA1)],
    )
    def test_tail_cut_moves_force_within_estimates(self, model, mode):
        scenario = Scenario(0.7, model)
        tight = force_lifshitz(scenario, QuadratureSpec(tail_cut=1e-16), mode=mode)
        loose = force_lifshitz(scenario, QuadratureSpec(tail_cut=1e-8), mode=mode)
        assert abs(tight.value - loose.value) <= tight.error + loose.error

    @pytest.mark.parametrize(
        "model",
        [
            # full-kappa_1 windows that end before the kappa_1 peak
            Cauchy(1.0, 1e-4),
            Cauchy(1.5, 5e-4),
            Cauchy(2.0, 1e-3),
            *(_drude_table(eps0, w0) for eps0, w0 in [(1.7, 0.5), (3.0, 1.0), (6.0, 20.0)]),
        ],
    )
    @pytest.mark.parametrize("L", [0.5, 4.0])
    def test_full_route_force_within_estimate_of_richardson(self, model, L):
        scenario = Scenario(L, model)
        force = force_lifshitz(scenario, mode=Mode.FULL_KAPPA1)
        coarse, coarse_error = _central_difference(scenario, 2e-3)
        fine, fine_error = _central_difference(scenario, 1e-3)
        limit = (4.0 * fine - coarse) / 3.0
        # the 1/L^3 and 1/L^5 energy profiles leave 1.75*h^4 and 6.3*h^4
        # relative after one extrapolation, at h = 2e-3
        truncation = 7.0 * 2e-3**4 * abs(limit)
        limit_error = (4.0 * fine_error + coarse_error) / 3.0 + truncation
        assert abs(force.value - limit) <= force.error + limit_error


class TestFullKappa1Interpolant:
    """F(g) and F'(g) of the full-kappa_1 route, read from a Chebyshev interpolant."""

    @settings(max_examples=60, deadline=None)
    @given(
        L_exp=st.floats(min_value=-6.0, max_value=6.0),
        n0=st.floats(min_value=1.0, max_value=3.0),
        trust_exp=st.floats(min_value=math.log10(1.01), max_value=3.0),
    )
    # next to g_k = 1/(3*u_max^2), either side, and at the edge of piece 1
    @example(L_exp=0.0, n0=1.0, trust_exp=0.7052)
    @example(L_exp=0.0, n0=1.0, trust_exp=0.7057)
    @example(L_exp=0.0, n0=1.0, trust_exp=math.log10(1.01))
    def test_interpolant_within_estimate_of_direct_pass(self, L_exp, n0, trust_exp):
        # L/(2*pi*sqrt(n1)) = 10^trust_exp, inside the trust region
        L = 10.0**L_exp
        n1 = (L / (2.0 * math.pi * 10.0**trust_exp)) ** 2
        delta, shift, _, _ = lifshitz._full_kappa1(L, Cauchy(n0, n1), DEFAULT_QUADRATURE)
        g = n1 / (n0**3 * L**2)
        samples = lifshitz._full_samples(np.array([g]), QuadratureSpec(rel_tol=1e-13))
        raw, raw_error, slope, slope_error = (float(a[0]) for a in samples)
        scale = 1.0 / (2.0 * math.pi**2 * n0 * L**3)
        assert abs(delta.value - raw * scale) <= delta.error + raw_error * scale
        direct = (3.0 * raw + 2.0 * g * slope) * scale / L
        direct_error = (3.0 * raw_error + 2.0 * g * slope_error) * scale / L
        assert abs(shift.value - direct) <= shift.error + direct_error
        # at most the bound on what a window short of the peak drops, about
        # 1.5e-7 of the energy and 1e-6 of the force just below g_k
        assert delta.error <= 1e-6 * abs(delta.value)
        assert shift.error <= 1e-5 * abs(shift.value)

    @pytest.mark.parametrize(
        "g",
        [
            1e-5,
            # just below g_k at tail_cut 1e-16 and past it at 5e-17: the
            # halved cut moves the window's end from u_max to the peak
            9.6e-4,
            # piece 1, and a direct pass with the window's end below 3
            1.1e-3, 2e-2, 0.1,
        ],
    )
    def test_halving_rel_tol_or_tail_cut_within_estimates(self, g):
        scenario = Scenario(0.8, Cauchy(1.2, g * 1.2**3 * 0.8**2))
        base = total_energy_lifshitz(scenario, DEFAULT_QUADRATURE, Mode.FULL_KAPPA1)
        for spec in (
            QuadratureSpec(rel_tol=DEFAULT_QUADRATURE.rel_tol / 2.0),
            QuadratureSpec(tail_cut=DEFAULT_QUADRATURE.tail_cut / 2.0),
        ):
            other = total_energy_lifshitz(scenario, spec, Mode.FULL_KAPPA1)
            assert abs(other.total - base.total) <= base.error_estimate + other.error_estimate
            assert abs(other.force - base.force) <= base.force_error + other.force_error

    @pytest.mark.parametrize("tail_cut", [1e-4, 1e-8, 1e-12, 1e-16])
    @pytest.mark.parametrize(
        "L, n0, n1",
        [(1.0, 1.0, 1e-2), (1.0, 1.0, 0.03), (0.7, 1.5, 1e-3), (0.1, 1.0, 1e-2), (30.0, 2.0, 1.0)],
    )
    def test_flag_is_the_trust_region_at_every_tail_cut(self, tail_cut, L, n0, n1):
        scenario = Scenario(L, Cauchy(n0, n1))
        spec = QuadratureSpec(tail_cut=tail_cut)
        breakdown = total_energy_lifshitz(scenario, spec, Mode.FULL_KAPPA1)
        assert breakdown.beyond_validity is (L <= min_separation(scenario.model))

    def test_window_no_longer_moves_with_the_tail_cut(self):
        # L = 1, n0 = 1, n1 = 1e-2 lies inside the trust region; the window
        # once ran past the peak and gave -0.0157, -0.0803 and -0.150 at
        # these cuts, against -0.0141 in closed form
        scenario = Scenario(1.0, Cauchy(1.0, 1e-2))
        fine = total_energy_lifshitz(scenario, DEFAULT_QUADRATURE, Mode.FULL_KAPPA1)
        for tail_cut in (1e-8, 1e-12):
            spec = QuadratureSpec(tail_cut=tail_cut)
            coarse = total_energy_lifshitz(scenario, spec, Mode.FULL_KAPPA1)
            assert abs(coarse.total - fine.total) <= coarse.error_estimate + fine.error_estimate
        closed = total_energy_analytic(scenario).total
        # the gap is second order in r = 2*pi^2*n1/(7*n0^3*L^2), here 10.7*r^2
        r = 2.0 * math.pi**2 * 1e-2 / 7.0
        assert abs(fine.total - closed) <= 16.0 * r * r * abs(closed)

    # rows next to g_k = 1/(3*u_max^2) that rounding once broke: the first
    # raised ZeroDivisionError, the second added a negative bound on what the
    # window drops, and the third was read from piece 0 while its flag and
    # model error said the window ended at the peak
    @pytest.mark.parametrize(
        "tail_cut, g",
        [
            (7.051321490663215e-17, 0.000963982821520942),
            (1.7980597464386754e-14, 0.0013310840902773062),
            (5e-17, 0.0009464055230051779),
        ],
    )
    def test_rows_next_to_g_k_that_rounding_broke(self, monkeypatch, tail_cut, g):
        spec = QuadratureSpec(tail_cut=tail_cut)
        _rows_next_to_g_k(monkeypatch, [g], spec)
        dropped = lifshitz._window_tail_bound(g, spec.u_max, 1.0 / math.sqrt(3.0 * g))
        assert min(dropped) >= 0.0

    @pytest.mark.parametrize(
        "tail_cut", [1e-16, 5e-17, 7.051321490663215e-17, 1.7980597464386754e-14]
    )
    def test_window_decided_once_next_to_g_k(self, monkeypatch, tail_cut):
        # 8 ulps either side of g_k, where the window's end moves from u_max
        # to the peak and F'(g) jumps by the moving end's term
        spec = QuadratureSpec(tail_cut=tail_cut)
        g_k = 1.0 / (3.0 * spec.u_max * spec.u_max)
        gs = [g_k]
        for direction in (0.0, math.inf):
            g = g_k
            for _ in range(8):
                g = math.nextafter(g, direction)
                gs.append(g)
        gs.sort()
        rows, peaks = _rows_next_to_g_k(monkeypatch, gs, spec)
        assert peaks[0] is False and peaks[-1] is True
        for g in gs:
            dropped = lifshitz._window_tail_bound(g, spec.u_max, 1.0 / math.sqrt(3.0 * g))
            assert min(dropped) >= 0.0
        for a, b in zip(rows, rows[1:]):
            assert abs(a.total - b.total) <= a.error_estimate + b.error_estimate
            assert abs(a.force - b.force) <= a.force_error + b.force_error
        # a column of the same media takes the same decisions
        _, column_peaks = delta_e_lifshitz_full(1.0, Cauchy(1.0, np.array(gs)), spec)
        assert column_peaks.dtype == bool
        assert column_peaks.tolist() == peaks

    def test_model_error(self):
        # zero where the window ends at u_max, short of the peak
        below = total_energy_lifshitz(Scenario(1.0, Cauchy(1.0, 5e-4)), mode=Mode.FULL_KAPPA1)
        assert below.model_error == 0.0
        # at the trust edge L = 2*pi*sqrt(n1), n0 = 1, the peak is at u_t = 3.63
        n1 = 1e-2
        L = math.nextafter(2.0 * math.pi * math.sqrt(n1), math.inf)
        edge = total_energy_lifshitz(Scenario(L, Cauchy(1.0, n1)), mode=Mode.FULL_KAPPA1)
        assert not edge.beyond_validity
        assert 0.0 < edge.model_error <= 1e-2 * abs(edge.total)
        # it bounds the first-order part dropped past the peak, and is no
        # part of the error estimate
        u_t = 2.0 * math.pi / math.sqrt(3.0)
        quad = pytest.importorskip("scipy.integrate").quad
        dropped, _ = quad(lambda u: u**4 * math.log1p(-math.exp(-2.0 * u)), u_t, math.inf)
        assert n1 * abs(dropped) / (2.0 * math.pi**2 * L**5) <= edge.model_error
        assert edge.error_estimate < 1e-9 * abs(edge.total)


def _mpmath_full(g: float, spec: QuadratureSpec) -> tuple[float, float]:
    # F(g) = int_0^U [I(x, 1) - I(u, 1)] du, x = u - g*u^3, in its difference
    # form at 32 digits, which leave the cancellation no weight, and
    # F'(g) = int_0^U u^3*x*log(1 - e^(-2x)) du, less the moving end's term
    # where the window ends at the peak; U as _full_row decides it
    mpmath = pytest.importorskip("mpmath")

    def inner(x):
        # I(x, 1) from Li_2 and Li_3 at the working precision
        w = mpmath.exp(-2 * x)
        return -x * mpmath.polylog(2, w) / 2 - mpmath.polylog(3, w) / 4

    peak = 3.0 * g * spec.u_max * spec.u_max > 1.0
    with mpmath.workdps(32):
        g = mpmath.mpf(g)
        U = 1 / mpmath.sqrt(3 * g) if peak else mpmath.mpf(spec.u_max)
        F = mpmath.quad(lambda u: inner(u - g * u**3) - inner(u), [0, 1, U])
        slope = mpmath.quad(
            lambda u: u**3 * (u - g * u**3) * mpmath.log(-mpmath.expm1(-2 * (u - g * u**3))),
            [0, 1, U],
        )
        if peak:
            slope -= 1.5 * U**3 * (inner(2 * U / 3) - inner(U))
        return float(F), float(slope)


class TestFullKappa1AgainstMpmath:
    """F(g) by parts against its difference form at 32 digits, on each path of _full_row."""

    @pytest.mark.parametrize(
        "g, path",
        [
            # piece 0, up to just below g_k = 9.8e-4 at the default tail cut
            *((g, "piece 0") for g in (1e-8, 1e-6, 1e-4, 9.5e-4)),
            # piece 1, the window ending at the peak u_t in [3, u_max]
            *((g, "piece 1") for g in (1e-3, 5e-3, 2e-2)),
            # a direct pass, 3g*_U_MIN^2 > 1
            (0.1, "direct"),
        ],
    )
    def test_full_row_within_estimate_of_difference_form(self, g, path):
        raw, raw_error, slope, slope_error, _, peak = lifshitz._full_row(g, DEFAULT_QUADRATURE)
        taken = "direct" if 3.0 * g * lifshitz._U_MIN**2 > 1.0 else f"piece {int(peak)}"
        assert taken == path
        F, derivative = _mpmath_full(g, DEFAULT_QUADRATURE)
        assert abs(raw - F) <= raw_error
        assert abs(slope - derivative) <= slope_error
        if path == "piece 0":
            # the reference takes the same window, so the interpolant's own
            # error covers it, and that is within 1e-12 of F/g
            piece = lifshitz._full_piece(DEFAULT_QUADRATURE, 0)
            ratio, _ = piece(g)
            assert abs(raw - F) <= g * piece.errors[0]
            assert piece.errors[0] <= 1e-12 * abs(ratio)

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-13])
    def test_tight_tolerance_with_no_absolute_floor(self, rel_tol):
        # every full-kappa_1 row once raised QuadratureError here: F(g)'s
        # difference form cancelled, and piece 0's panels never settled
        spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-30)
        L, n0, n1 = 1.0, 1.5, 1e-3
        breakdown = total_energy_lifshitz(Scenario(L, Cauchy(n0, n1)), spec, Mode.FULL_KAPPA1)
        delta, _ = delta_e_lifshitz_full(L, Cauchy(n0, n1), spec)
        assert breakdown.delta_e == delta.value
        F, _ = _mpmath_full(n1 / (n0**3 * L**2), spec)
        assert abs(delta.value - F / (2.0 * math.pi**2 * n0 * L**3)) <= delta.error


def _rows_next_to_g_k(monkeypatch, gs, spec: QuadratureSpec) -> tuple[list, list]:
    # full-kappa_1 breakdowns at L = n0 = 1, where g = n1, and the flags of
    # delta_e_lifshitz_full, each checked against the piece its row read
    pieces = []
    read = lifshitz._full_piece
    monkeypatch.setattr(
        lifshitz, "_full_piece", lambda quad, piece: pieces.append(piece) or read(quad, piece)
    )
    rows, peaks = [], []
    for g in gs:
        model = Cauchy(1.0, g)
        breakdown = total_energy_lifshitz(Scenario(1.0, model), spec, Mode.FULL_KAPPA1)
        _, at_peak = delta_e_lifshitz_full(1.0, model, spec)
        # both read piece 1 exactly where the window ends at the peak
        assert pieces[-2:] == [int(at_peak)] * 2
        assert at_peak == (breakdown.model_error > 0.0)
        assert min(breakdown.error_estimate, breakdown.force_error, breakdown.model_error) >= 0.0
        rows.append(breakdown)
        peaks.append(at_peak)
    return rows, peaks


def _central_difference(
    scenario: Scenario, h: float, tail_cut: float = DEFAULT_QUADRATURE.tail_cut
) -> tuple[float, float]:
    # -[E(L(1+h)) - E(L(1-h))]/(2hL) of the full-kappa_1 energies at a
    # tight tolerance, with its error: the energies' estimates over 2hL
    # plus 7*h^2*|F|, twice the O(h^2) truncation of a 1/L^3 profile
    spec = QuadratureSpec(rel_tol=1e-13, tail_cut=tail_cut)
    L = scenario.L
    up = total_energy_lifshitz(replace(scenario, L=L * (1.0 + h)), spec, Mode.FULL_KAPPA1)
    down = total_energy_lifshitz(replace(scenario, L=L * (1.0 - h)), spec, Mode.FULL_KAPPA1)
    value = -(up.total - down.total) / (2.0 * h * L)
    error = (up.error_estimate + down.error_estimate) / (2.0 * h * L) + 7.0 * h * h * abs(value)
    return value, error


def _series_coefficient(k: int):
    # c_k of F(g) = sum_{k>=1} c_k*g^k from the Lifshitz integral, expanding
    # I(u - g*u^3, 1) in g and integrating u^(3k) times the k-th derivative
    mpmath = pytest.importorskip("mpmath")
    f = mpmath.factorial
    return -f(3 * k) * f(2 * k + 2) * mpmath.zeta(2 * k + 4) / (
        f(k) * f(2 * k) * (2 * k + 1) * 2 ** (2 * k + 3)
    )


def _up_to_smallest(terms: list):
    # an asymptotic series summed up to, and not including, its smallest term
    mpmath = pytest.importorskip("mpmath")
    smallest = min(range(len(terms)), key=lambda k: abs(terms[k]))
    return mpmath.fsum(terms[:smallest])


class TestSmallGSeries:
    """The two derivations of the dispersive correction give one series in g.

    c_1 = -pi^6/1260 is the closed form's first order, c_2 = -pi^8/560 and
    c_3 = -pi^10/99 the next; the full-kappa_1 route's F(g) and F'(g) follow
    the series.
    """

    def test_lifshitz_and_zero_point_forms_agree(self):
        # the mode sum over zero-point energies gives c_k through zeta(-2k-3)
        mpmath = pytest.importorskip("mpmath")
        f = mpmath.factorial
        with mpmath.workdps(60):
            for k in range(9):
                sign, power = (-1) ** (k + 1), mpmath.pi ** (2 * k + 4)
                zero_point = sign * power * f(3 * k) * mpmath.zeta(-2 * k - 3) / (
                    f(k) * f(2 * k + 1) * (2 * k + 3)
                )
                assert abs(_series_coefficient(k) - zero_point) <= mpmath.mpf("1e-35")
            assert _series_coefficient(0) == pytest.approx(-math.pi**4 / 360.0, rel=1e-15)
            assert _series_coefficient(1) == pytest.approx(-math.pi**6 / 1260.0, rel=1e-15)
            assert _series_coefficient(2) == pytest.approx(-math.pi**8 / 560.0, rel=1e-15)
            assert _series_coefficient(3) == pytest.approx(-math.pi**10 / 99.0, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(log_g=st.floats(min_value=math.log(1e-8), max_value=math.log(3e-4)))
    def test_full_row_within_estimate_of_series(self, log_g):
        mpmath = pytest.importorskip("mpmath")
        g = math.exp(log_g)
        raw, raw_error, slope, slope_error, _, peak = lifshitz._full_row(g, DEFAULT_QUADRATURE)
        assert not peak
        with mpmath.workdps(30):
            # where the series' smallest term lies past these 59, the last
            # of them is below 1e-50 of F, so what they leave out is nothing
            terms = [(k, _series_coefficient(k) * mpmath.mpf(g) ** (k - 1)) for k in range(1, 60)]
            series = _up_to_smallest([term * g for _, term in terms])
            derivative = _up_to_smallest([k * term for k, term in terms])
            assert abs(raw - series) <= raw_error
            assert abs(slope - derivative) <= slope_error


class TestFailurePaths:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            e0_lifshitz(-1.0, 1.0)
        with pytest.raises(ValueError):
            e0_lifshitz(1.0, 0.0)
        with pytest.raises(ValueError):
            delta_e_lifshitz_full(0.0, Cauchy(1.0, 1e-4))
