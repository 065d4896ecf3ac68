"""A sweep's rows as columns: bit-identical to the float calls, errors in row order.

The CLI evaluates each method once over a whole column of separations or
dispersion coefficients.  Every element must carry the bits of the scalar
library call at that row, and an error must name the value that a loop
over the rows, one ``Scenario`` at a time, would meet first.
"""

import csv
import io
import math
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casdisp import lifshitz
from casdisp.cli import main
from casdisp.closed_form import (
    Scenario,
    SurfaceTermSpec,
    analytic_rows,
    force_analytic,
    total_energy_analytic,
)
from casdisp.dispersion import Cauchy, Tabulated, load_index_table
from casdisp.lifshitz import (
    DEFAULT_QUADRATURE,
    Mode,
    QuadratureError,
    QuadratureSpec,
    lifshitz_rows,
    total_energy_lifshitz,
)
from casdisp.units import UnitMode, UnitSystem, convert_units

FIELDS = ("e0", "delta_e", "e_surface", "total", "force", "error_estimate", "force_error")

_XI = [40.0 * (k / 39) ** 2 for k in range(40)]
COLUMN_TABLES = {
    # n(i*xi) = sqrt(1 + 2/(1 + xi^2)) on 40 knots
    "drude40": Tabulated(tuple(_XI), tuple(math.sqrt(1.0 + 2.0 / (1.0 + x * x)) for x in _XI)),
    "drude200": load_index_table(Path(__file__).resolve().parent / "golden" / "drude200.csv"),
    # x(u) falls on the drop, from 3u to u
    "step": Tabulated((0.0, 1.0, 1.1, 40.0), (3.0, 3.0, 1.0, 1.0)),
    "two": Tabulated((0.0, 40.0), (1.8, 1.1)),
}
COLUMN_SPECS = {
    "default": DEFAULT_QUADRATURE,
    # the panels bisect
    "rel_tol=1e-13": QuadratureSpec(rel_tol=1e-13),
    "tail_cut=1e-8": QuadratureSpec(tail_cut=1e-8),
}


def _log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(
        lambda x: 10.0**x
    )


def _row(breakdown, field: str, row: int):
    value = getattr(breakdown, field)
    return float(value[row]) if isinstance(value, np.ndarray) else value


def _assert_rows_match(column, scalars) -> None:
    # repr tells 0.0 from -0.0 and shows every bit of a double
    for row, scalar in enumerate(scalars):
        for field in FIELDS:
            assert repr(_row(column, field, row)) == repr(getattr(scalar, field)), (row, field)
        flag = column.beyond_validity
        flag = bool(flag[row]) if isinstance(flag, np.ndarray) else flag
        assert flag is scalar.beyond_validity


class TestRowsMatchFloatCalls:
    @settings(max_examples=60, deadline=None)
    @given(
        L=st.lists(_log_uniform(1e-6, 1e6), min_size=1, max_size=12),
        n0=st.floats(min_value=1.0, max_value=3.0),
        n1=st.one_of(st.just(0.0), _log_uniform(1e-12, 1e2)),
        c_s=st.one_of(st.none(), st.floats(min_value=-1.0, max_value=1.0)),
    )
    def test_separation_column(self, L, n0, n1, c_s):
        model = Cauchy(n0, n1)
        surface = SurfaceTermSpec(c_s) if c_s is not None else None
        column = np.array(L)
        scenarios = [Scenario(x, model, surface) for x in L]

        analytic = analytic_rows(column, model, surface)
        _assert_rows_match(analytic, [total_energy_analytic(s) for s in scenarios])
        for row, scenario in enumerate(scenarios):
            assert repr(_row(analytic, "force", row)) == repr(force_analytic(scenario))

        split = lifshitz_rows(column, model, surface, DEFAULT_QUADRATURE, Mode.FIRST_ORDER_SPLIT)
        _assert_rows_match(split, [total_energy_lifshitz(s) for s in scenarios])

    @settings(max_examples=60, deadline=None)
    @given(
        n1=st.lists(st.one_of(st.just(0.0), _log_uniform(1e-12, 1e2)), min_size=1, max_size=12),
        L=_log_uniform(1e-6, 1e6),
        n0=st.floats(min_value=1.0, max_value=3.0),
        c_s=st.one_of(st.none(), st.floats(min_value=-1.0, max_value=1.0)),
    )
    def test_dispersion_column(self, n1, L, n0, c_s):
        surface = SurfaceTermSpec(c_s) if c_s is not None else None
        scenarios = [Scenario(L, Cauchy(n0, v), surface) for v in n1]
        medium = Cauchy(n0, np.array(n1))

        analytic = analytic_rows(L, medium, surface)
        _assert_rows_match(analytic, [total_energy_analytic(s) for s in scenarios])
        split = lifshitz_rows(L, medium, surface, DEFAULT_QUADRATURE, Mode.FIRST_ORDER_SPLIT)
        _assert_rows_match(split, [total_energy_lifshitz(s) for s in scenarios])

    def test_zero_dispersion_prints_positive_zero(self):
        # c1 < 0 and the closed form's -n1 would give -0.0 at n1 = 0
        medium = Cauchy(1.0, np.array([0.0, 1e-3]))
        for breakdown in (
            analytic_rows(1.0, medium),
            lifshitz_rows(1.0, medium, None, DEFAULT_QUADRATURE, Mode.FIRST_ORDER_SPLIT),
        ):
            assert repr(float(breakdown.delta_e[0])) == "0.0"
            assert breakdown.delta_e[1] < 0.0

    @pytest.mark.parametrize(
        "L, n1",
        # direct integration past the interpolants (g > 1/27), the peak
        # window, the window at u_max, and n1 = 0
        [(np.geomspace(0.2, 12.0, 7), 1e-2), (1.2, np.array([0.0, 1e-3, 2e-2, 5e-2]))],
        ids=["L", "n1"],
    )
    def test_full_kappa1_column(self, L, n1):
        surface = SurfaceTermSpec(3e-3)
        column = lifshitz_rows(L, Cauchy(1.1, n1), surface, DEFAULT_QUADRATURE, Mode.FULL_KAPPA1)
        Ls = L if isinstance(L, np.ndarray) else [L] * len(n1)
        n1s = n1 if isinstance(n1, np.ndarray) else [n1] * len(L)
        scalars = [
            total_energy_lifshitz(
                Scenario(float(x), Cauchy(1.1, float(v)), SurfaceTermSpec(3e-3)),
                mode=Mode.FULL_KAPPA1,
            )
            for x, v in zip(Ls, n1s)
        ]
        _assert_rows_match(column, scalars)
        for row, scalar in enumerate(scalars):
            assert repr(_row(column, "model_error", row)) == repr(scalar.model_error)

    @pytest.mark.parametrize("rows", [1, 2, 7, "past-cap"])
    @pytest.mark.parametrize("spec", sorted(COLUMN_SPECS))
    @pytest.mark.parametrize("table", sorted(COLUMN_TABLES))
    def test_table_column(self, monkeypatch, table, spec, rows):
        # a table column's rows share the panel rule's passes, in groups of
        # at most lifshitz._PASS_NODES nodes; "past-cap" is the shortest
        # column whose rows hold more, which takes two groups
        model, quad = COLUMN_TABLES[table], COLUMN_SPECS[spec]
        ladder = 2.0 * 1.25 ** np.arange(24)
        knots = min(model.n) * np.asarray(model.xi)
        nodes = accumulate(
            15 * (lifshitz._graded_breaks(quad.u_max, 1.0, x * knots[None])[0].size - 1)
            for x in ladder
        )
        past_cap = 1 + next(k for k, total in enumerate(nodes) if total > lifshitz._PASS_NODES)
        L = ladder[: past_cap if rows == "past-cap" else rows]
        groups = []
        passes = lifshitz._panel_passes

        def counted(integrand, breaks, first, spec):
            groups.append(len(breaks))
            return passes(integrand, breaks, first, spec)

        monkeypatch.setattr(lifshitz, "_panel_passes", counted)
        column = lifshitz_rows(L, model, SurfaceTermSpec(1e-3), quad, Mode.FULL_KAPPA1)
        assert sum(groups) == len(L)
        if rows == "past-cap":
            assert len(groups) == 2
        scalars = [
            total_energy_lifshitz(Scenario(float(x), model, SurfaceTermSpec(1e-3)), quad,
                                  Mode.FULL_KAPPA1)
            for x in L
        ]
        _assert_rows_match(column, scalars)

    def test_a_row_past_the_cap_takes_its_passes_alone(self, monkeypatch):
        # on 1,000 knots the row at L = 0.5 alone holds more first-pass nodes
        # than one group takes, so each row of the column is a group of its own
        xi = [40.0 * (k / 999) ** 2 for k in range(1000)]
        model = Tabulated(tuple(xi), tuple(math.sqrt(1.0 + 2.0 / (1.0 + x * x)) for x in xi))
        L = np.array([4.0, 0.5, 4.0])
        groups = []
        passes = lifshitz._panel_passes

        def counted(integrand, breaks, first, spec):
            groups.append([15 * (e.size - 1) for e in breaks])
            return passes(integrand, breaks, first, spec)

        monkeypatch.setattr(lifshitz, "_panel_passes", counted)
        column = lifshitz_rows(L, model, None, DEFAULT_QUADRATURE, Mode.FULL_KAPPA1)
        assert [len(group) for group in groups] == [1, 1, 1]
        assert groups[1][0] > lifshitz._PASS_NODES
        monkeypatch.undo()
        _assert_rows_match(column, [total_energy_lifshitz(Scenario(x, model), mode=Mode.FULL_KAPPA1)
                                    for x in L.tolist()])

    def test_breaks_are_read_a_row_past_the_group(self, monkeypatch):
        # _integrate_panels draws a row's breaks only once the rows before it
        # are grouped: each group starts its passes with at most the next
        # row drawn, and each row gives the bits of its one-row column
        panels = [100, 300, 600, 50, 500, 10]  # 15 nodes a panel
        drawn = []

        def rows():
            for count in panels:
                drawn.append(count)
                yield np.linspace(0.0, 1.0, count + 1)

        entries = []
        passes = lifshitz._panel_passes

        def counted(integrand, breaks, first, spec):
            entries.append((first, len(breaks), len(drawn)))
            return passes(integrand, breaks, first, spec)

        def integrand(u, row):
            return np.exp(-u * (1.0 + row))[None]

        monkeypatch.setattr(lifshitz, "_panel_passes", counted)
        column = lifshitz._integrate_panels(integrand, rows(), DEFAULT_QUADRATURE)
        assert entries == [(0, 2, 3), (2, 1, 4), (3, 1, 5), (4, 2, 6)]
        for r, count in enumerate(panels):
            (alone,) = lifshitz._integrate_panels(
                lambda u, row: integrand(u, row + r), [np.linspace(0.0, 1.0, count + 1)],
                DEFAULT_QUADRATURE,
            )
            assert repr(column[r]) == repr(alone)

    def test_table_column_fails_as_its_first_failing_row(self):
        # Alone, L = 0.03 converges and L = 0.5 and 4 fail, each with its
        # own largest panel error; the column reports the first of them,
        # not the largest over the column
        step = COLUMN_TABLES["step"]
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=10)

        def message(L):
            with pytest.raises(QuadratureError) as failure:
                lifshitz_rows(L, step, None, spec, Mode.FULL_KAPPA1)
            return str(failure.value)

        lifshitz_rows(0.03, step, None, spec, Mode.FULL_KAPPA1)
        first, second = message(0.5), message(4.0)
        assert first.endswith("largest panel error 3.47e-18")
        assert second.endswith("largest panel error 4.27e-16")
        assert message(np.array([0.03, 0.5, 4.0])) == first
        assert message(np.array([0.03, 4.0, 0.5])) == second

    @pytest.mark.parametrize("column", ["L", "n1", "table"])
    def test_one_evaluation_per_column(self, monkeypatch, column):
        # a column is one call of lifshitz_rows, not one more per row
        calls = []
        original = lifshitz.lifshitz_rows

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lifshitz, "lifshitz_rows", counted)
        if column == "table":
            model, L = COLUMN_TABLES["drude40"], np.geomspace(0.5, 10.0, 3)
        elif column == "L":
            model, L = Cauchy(1.1, 1e-2), np.geomspace(0.2, 12.0, 5)
        else:
            model, L = Cauchy(1.1, np.array([0.0, 1e-3, 2e-2, 5e-2])), 1.2
        lifshitz.lifshitz_rows(L, model, None, DEFAULT_QUADRATURE, Mode.FULL_KAPPA1)
        assert len(calls) == 1

    def test_si_column(self):
        units = UnitSystem(UnitMode.SI, 1e-9)
        values = np.array([-1.3e-2, 0.0, -0.0, 4.5e-7, 2.0e3])
        for quantity in ("energy_per_area", "force_per_area"):
            converted = convert_units(values, units, quantity)
            for value, element in zip(values.tolist(), converted.tolist()):
                assert repr(element) == repr(convert_units(value, units, quantity))


def _row_loop_error(argv_values: dict, rows: list, methods: list, units: UnitSystem):
    """The first error of a loop over the rows, one Scenario at a time, as the CLI ran before."""
    n0, L, c_s = argv_values["n0"], argv_values.get("L"), argv_values.get("cs")
    surface = SurfaceTermSpec(c_s) if c_s is not None else None
    kinds = ("energy_per_area",) * 4 + ("force_per_area", "energy_per_area", "force_per_area")
    for value in rows:
        try:
            if argv_values["variable"] == "L":
                scenario = Scenario(value, Cauchy(n0, argv_values["n1"]), surface)
            else:
                scenario = Scenario(L, Cauchy(n0, value), surface)
            for method in methods:
                if method == "analytic":
                    breakdown = total_energy_analytic(scenario)
                else:
                    breakdown = total_energy_lifshitz(scenario)
                for field, kind in zip(FIELDS, kinds):
                    convert_units(getattr(breakdown, field), units, kind)
        except ValueError as exc:
            return str(exc)
    return None


class TestSweepErrorPaths:
    # each names the first failing grid value, exits 2 and writes nothing
    CASES = {
        "range-partway": (
            dict(variable="L", min=1e45, max=1e55, points=6, scale="log", n0=1.0, n1=0.0),
            None,
            "separation 1e+51 out of range: L^6 must lie within 1e-300 and 1e300",
        ),
        "n1-range-partway": (
            dict(variable="n1", min=0.0, max=1e300, points=4, L=1e-3, n0=1.0),
            None,
            "dispersion coefficient 3.3333333333333335e+299 out of range at separation "
            "0.001: n1/(n0^4*L^5) must not exceed 1e300",
        ),
        "si-overflow-partway": (
            dict(variable="n1", min=0.0, max=1e-24, points=5, L=1e-20, n0=1.0),
            1e-60,
            "force per area -4.831800150496154e+94 out of range in SI units at length unit "
            "1e-60: value*hbar*c/unit^4 is -inf",
        ),
        "si-before-range": (
            dict(variable="n1", min=0.0, max=2e180, points=5, L=1e-20, n0=1.0),
            1e-60,
            "energy per area -1.932720060198461e+278 out of range in SI units at length unit "
            "1e-60: value*hbar*c/unit^3 is -inf",
        ),
        "si-underflow-partway": (
            dict(variable="L", min=1e10, max=1e40, points=7, scale="log", n0=1.3, n1=1e-3,
                 cs=2e-3),
            1e40,
            None,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("method", ["analytic", "lifshitz", "both"])
    def test_first_failing_value(self, capsys, tmp_path, name, method):
        values, unit, message = self.CASES[name]
        out = tmp_path / "out.csv"
        argv = ["sweep"] + [f"--{key}={value}" for key, value in values.items()]
        argv += ["--method", method, "--format", "csv", "--out", str(out)]
        units = UnitSystem()
        if unit is not None:
            argv += ["--si", "--length-unit", repr(unit)]
            units = UnitSystem(UnitMode.SI, unit)
        code = main(argv)
        captured = capsys.readouterr()
        methods = ["analytic", "lifshitz"] if method == "both" else [method]
        grid = (np.geomspace if values.get("scale") == "log" else np.linspace)(
            values["min"], values["max"], values["points"]
        )
        expected = _row_loop_error(values, grid.tolist(), methods, units)
        assert expected is not None
        if message is not None and method != "lifshitz":
            assert expected == message
        assert (code, captured.out, captured.err) == (2, "", f"error: {expected}\n")
        assert not out.exists()


class TestExponents:
    """The abstract's 1/L^6 and 1/L^5 are the forces; the energies go as 1/L^5 and 1/L^4."""

    def test_log_log_slopes_of_a_split_sweep(self, capsys):
        def sweep(n1: str, cs: str) -> dict:
            code = main([
                "sweep", "--variable", "L", "--min", "1", "--max", "30", "--points", "16",
                "--scale", "log", "--n0", "1.4", "--n1", n1, "--cs", cs,
                "--method", "lifshitz", "--mode", "split", "--format", "csv",
            ])
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]
                    if key != "method"}

        both, bare, dry = sweep("1e-2", "1e-3"), sweep("0", "0"), sweep("1e-2", "0")
        L = both["L"]

        def slope(y: np.ndarray) -> float:
            return float(np.polyfit(np.log(L), np.log(np.abs(y)), 1)[0])

        assert slope(both["delta_e"]) == pytest.approx(-5.0, abs=1e-6)
        assert slope(dry["force"] - bare["force"]) == pytest.approx(-6.0, abs=1e-6)
        assert slope(both["e_surface"]) == pytest.approx(-4.0, abs=1e-6)
        assert slope(both["force"] - dry["force"]) == pytest.approx(-5.0, abs=1e-6)


def test_quadrature_failure_in_a_column_exits_3(capsys, monkeypatch):
    # a failure of the cached integrals stops the whole column
    def explode(*args, **kwargs):
        raise QuadratureError("subdivision limit reached")

    monkeypatch.setattr("casdisp.lifshitz._delta_number", explode)
    code = main([
        "sweep", "--variable", "n1", "--min", "0", "--max", "1e-3", "--points", "3",
        "--L", "1", "--n0", "1", "--method", "both", "--format", "csv",
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: subdivision limit reached\n"
