import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casdisp
from casdisp import dispersion, lifshitz
from casdisp.cli import SweepSpec, _build_parser, _config_argv, _parse_plain, _run, main
from casdisp.closed_form import Scenario, total_energy_analytic
from casdisp.dispersion import Cauchy, min_separation
from casdisp.lifshitz import Mode, QuadratureError, total_energy_lifshitz
from test_columns import COLUMN_TABLES, _log_uniform
from test_golden import GOLDEN, SHAPES, run
from test_lifshitz import CLOSE_KNOTS, _drude_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_analytic_json_reference_values(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--method", "analytic",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        (result,) = payload["results"]
        assert result["total"] == pytest.approx(-0.013707784, abs=1e-9)
        assert result["force"] == pytest.approx(-0.041123352, abs=1e-9)
        assert err == ""

    def test_json_contains_every_breakdown_field(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--L", "0.1", "--n0", "1", "--n1", "0.01",
            "--method", "both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        expected_keys = {
            "method", "e0", "delta_e", "e_surface", "total", "force",
            "error_estimate", "force_error_estimate", "beyond_validity",
        }
        for result in payload["results"]:
            assert set(result) == expected_keys
        assert payload["scenario"]["model"]["type"] == "cauchy"
        # warning path: diagnostics on stderr, data stream untouched
        assert "warning" in err
        assert "warning" not in out

    def test_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--n1", "0",
            "--method", "both", "--format", "json",
        )
        assert code == 0
        analytic, lifshitz = json.loads(out)["results"]
        assert analytic["method"] == "analytic"
        assert lifshitz["method"] == "lifshitz"
        assert lifshitz["total"] == pytest.approx(analytic["total"], rel=1e-8)

    def test_validity_warning_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--L", "0.1", "--n0", "1", "--n1", "0.01",
            "--method", "analytic", "--format", "csv",
        )
        assert code == 0
        assert "warning" in err
        assert out.splitlines()[1].endswith(",1")

    def test_one_warning_line_per_command(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--L", "0.1", "--n0", "1", "--n1", "0.01",
            "--method", "both", "--format", "csv",
        )
        assert code == 0
        assert sum(line.startswith("warning:") for line in err.splitlines()) == 1

    def test_si_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--method", "analytic",
            "--format", "json", "--si", "--length-unit", "1e-6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["units"]["mode"] == "si"
        assert payload["results"][0]["force"] == pytest.approx(-1.3001e-3, rel=1e-4)

    def test_si_without_length_unit_is_argument_error(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--method", "analytic",
            "--format", "json", "--si",
        )
        assert code == 2
        assert "error" in err

    def test_surface_term(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--cs", "0.01",
            "--method", "analytic", "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["e_surface"] == pytest.approx(0.01)
        assert result["force"] == pytest.approx(-math.pi**2 / 240.0 + 0.04, rel=1e-12)

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--n0", "1", "--method", "analytic", "--format", "json"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_tabulated_analytic_is_argument_error(self, capsys, tmp_path):
        table = tmp_path / "n.csv"
        table.write_text("0.0,1.5\n1.0,1.4\n")
        code, _, err = run_cli(
            capsys, "compute", "--L", "1", "--ns-table", str(table),
            "--method", "analytic", "--format", "csv",
        )
        assert code == 2
        assert "error" in err

    def test_tabulated_lifshitz(self, capsys, tmp_path):
        table = tmp_path / "n.csv"
        table.write_text("xi,n\n0.0,1.5\n10.0,1.5\n")
        code, out, _ = run_cli(
            capsys, "compute", "--L", "1", "--ns-table", str(table),
            "--method", "lifshitz", "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["total"] == pytest.approx(-math.pi**2 / (720.0 * 1.5), rel=1e-8)

    def test_tabulated_drude_table_inside_constant_index_bracket(self, capsys, tmp_path):
        # a smooth Drude-like n(i*xi) = sqrt(1 + (eps0 - 1)/(1 + (xi/w0)^2)),
        # eps0 = 3, w0 = 1, on xi_k = 40*(k/199)^2; QUADPACK without the knots
        # as breakpoints reported roundoff here (exit 3)
        xi = [40.0 * (k / 199.0) ** 2 for k in range(200)]
        n = [math.sqrt(1.0 + 2.0 / (1.0 + x * x)) for x in xi]
        table = tmp_path / "drude.csv"
        table.write_text("xi,n\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(xi, n)))
        code, out, err = run_cli(
            capsys, "compute", "--L", "0.5", "--ns-table", str(table),
            "--method", "lifshitz", "--format", "json",
        )
        assert code == 0, err
        result = json.loads(out)["results"][0]
        L = 0.5
        # a larger index weakens the attraction: the closed forms at the
        # smallest and largest index bracket the energy and the force
        e_lo, e_hi = (-math.pi**2 / (720.0 * v * L**3) for v in (min(n), max(n)))
        f_lo, f_hi = (-math.pi**2 / (240.0 * v * L**4) for v in (min(n), max(n)))
        assert e_lo < result["total"] < e_hi
        assert f_lo < result["force"] < f_hi
        assert result["error_estimate"] < 1e-12 * abs(result["total"])

    def test_missing_table_file_exits_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compute", "--L", "1", "--ns-table", str(tmp_path / "no.csv"),
            "--method", "lifshitz", "--format", "json",
        )
        assert code == 4
        assert "error" in err

    @pytest.mark.parametrize("at, position", [(4, 4), (10_000, 1808)], ids=["first-line", "late"])
    def test_undecodable_table_exits_2(self, capsys, tmp_path, at, position):
        # 0xff at byte ``at`` of the file; past the first 8 KiB the position
        # counts from the start of the 8 KiB chunk being decoded
        rows = b"xi,n\n" + b"".join(b"%d,1.5\n" % k for k in range(2000))
        table = tmp_path / "n.csv"
        table.write_bytes(rows[:at] + b"\xff" + rows[at + 1:])
        code, out, err = run_cli(
            capsys, "compute", "--L", "1", "--ns-table", str(table),
            "--method", "lifshitz", "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: 'utf-8' codec can't decode byte 0xff in position {position}: "
            "invalid start byte\n"
        )

    def test_table_rewritten_in_place_prints_its_new_rows(self, tmp_path):
        # one path, two tables in turn: each sweep prints its own golden rows
        table = tmp_path / "n.csv"
        for name, source in [("sweep-table-csv", "drude.csv"), ("sweep-table200-csv", "drude200.csv")]:
            table.write_bytes((GOLDEN / source).read_bytes())
            argv = [arg.replace(f"{{golden}}/{source}", str(table)) for arg in SHAPES[name]]
            assert str(table) in argv
            expected = json.loads((GOLDEN / f"{name}.json").read_text())
            assert run(argv) == {key: expected[key] for key in ("exit", "stdout", "stderr")}

    @pytest.mark.parametrize(
        "name", sorted(name for name, argv in SHAPES.items() if "--ns-table" in argv)
    )
    def test_table_shape_twice_in_one_process(self, name):
        # the first run parses the table; the second reads that parse of the
        # same bytes, and both print the golden record
        dispersion._parse_index_table.cache_clear()
        record = json.loads((GOLDEN / f"{name}.json").read_text())
        first, second = run(SHAPES[name]), run(SHAPES[name])
        assert first == second == {key: record[key] for key in ("exit", "stdout", "stderr")}

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--method", "analytic",
            "--format", "csv", "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 4
        assert "error" in err

    def test_quadrature_failure_exits_3(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureError("subdivision limit reached")

        # the CLI evaluates its quadrature rows as one column
        monkeypatch.setattr("casdisp.cli.lifshitz_rows", explode)
        code, _, err = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--method", "lifshitz",
            "--format", "csv",
        )
        assert code == 3
        assert "subdivision limit" in err

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--method", "analytic",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("L,e0,delta_e")


class TestConfig:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# fixture\nL = 1\nn0 = 1\nmethod = analytic\nformat = csv\n")
        code, out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 0
        assert out.startswith("L,")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 1\nn0 = 1\nmethod = analytic\nformat = csv\n")
        _, base_out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        _, override_out, _ = run_cli(capsys, "compute", "--config", str(cfg), "--L", "2")
        assert base_out != override_out
        assert override_out.splitlines()[1].startswith("2.0000000000000000e+00")

    def test_byte_order_mark_is_not_part_of_the_first_key(self, capsys, tmp_path):
        text = "L = 1\nn0 = 1.5\nn1 = 1e-3\nmethod = both\nformat = csv\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        runs = [run_cli(capsys, "compute", "--config", str(cfg)) for cfg in (plain, marked)]
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 1\nn0 = 1\nmethod = analytic\nformat = csv\nbogus = 1\n")
        code, _, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "entry, named",
        [
            ("method = bogus", "bogus"),
            ("format = xml", "xml"),
            ("mode = fulll", "fulll"),
            ("L = wide", "wide"),
            ("si = maybe", "maybe"),
            ("n0 1", "line 5: expected 'key = value'"),
        ],
    )
    def test_values_checked_like_flags(self, capsys, tmp_path, entry, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"L = 1\nn0 = 1\nmethod = analytic\nformat = csv\n{entry}\n")
        try:
            code = main(["compute", "--config", str(cfg)])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert named in err

    def test_si_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        base = "L = 1\nn0 = 1\nmethod = analytic\nformat = json\nlength_unit = 1e-6\n"
        cfg.write_text(base + "si = true\n")
        _, out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert json.loads(out)["units"]["mode"] == "si"
        cfg.write_text(base + "si = false\n")
        _, out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert json.loads(out)["units"]["mode"] == "natural"


class TestSweep:
    SWEEP_ARGS = (
        "sweep", "--variable", "L", "--min", "0.5", "--max", "5", "--points", "6",
        "--scale", "log", "--n0", "1", "--method", "both", "--format", "csv",
    )

    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.SWEEP_ARGS)
        code2, out2, _ = run_cli(capsys, *self.SWEEP_ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, *self.SWEEP_ARGS)
        rows = list(csv.reader(io.StringIO(out)))
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        assert buffer.getvalue() == out

    def test_rows_per_point_per_method_in_grid_order(self, capsys):
        _, out, _ = run_cli(capsys, *self.SWEEP_ARGS)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 12
        assert [row[6] for row in rows[:2]] == ["analytic", "lifshitz"]
        grid = [float(row[0]) for row in rows[::2]]
        assert grid == sorted(grid)

    def test_scaling_column_constant(self, capsys):
        # total * L^3 is flat in L when n1 = 0
        _, out, _ = run_cli(
            capsys, "sweep", "--variable", "L", "--min", "0.5", "--max", "5",
            "--points", "10", "--scale", "log", "--n0", "1.5",
            "--method", "lifshitz", "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        values = [float(r[4]) * float(r[0]) ** 3 for r in rows]
        expected = -math.pi**2 / (720.0 * 1.5)
        assert all(abs(v / expected - 1.0) < 1e-8 for v in values)

    def test_n1_sweep_linear_in_n1(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--variable", "n1", "--min", "0", "--max", "1e-3",
            "--points", "5", "--L", "1", "--n0", "1", "--method", "analytic",
            "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        slope = -math.pi**4 / 2520.0
        for row in rows:
            n1, delta = float(row[0]), float(row[2])
            assert delta == pytest.approx(slope * n1, abs=1e-12)

    def test_too_few_points_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "--variable", "L", "--min", "1", "--max", "2",
                "--points", "1", "--n0", "1", "--method", "analytic",
                "--format", "csv",
            ])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "variable, grid_and_model",
        [
            ("L", ["--min", "1", "--max", "2", "--n0", "1", "--L", "7"]),
            ("n1", ["--min", "0", "--max", "1e-3", "--L", "1", "--n0", "1", "--n1", "0.5"]),
        ],
    )
    def test_swept_variable_cannot_be_fixed(self, capsys, variable, grid_and_model):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "--variable", variable, "--points", "3", *grid_and_model,
                "--method", "analytic", "--format", "csv",
            ])
        assert excinfo.value.code == 2
        assert f"--{variable} is the swept variable" in capsys.readouterr().err

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--variable", "L", "--min", "1", "--max", "2",
            "--points", "2", "--n0", "1", "--method", "analytic",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sweep"]["points"] == 2
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["L"] == 1.0


class TestRunsClean:
    """Command lines with no golden record exit 0, and no warning is raised."""

    # "{tmp}/<name>.csv" stands for each table, which the test writes out
    TABLES = {
        # few knots near xi = 0, which the panels' grading toward u = 0 serves
        "two": COLUMN_TABLES["two"],
        "five": _drude_table(3.0, 1.0, 5, 0.3),
        # x(u) = kappa_1*L falls where n does, so x'(u) < 0
        "step": COLUMN_TABLES["step"],
        # n falls from 2 to 1 across knots 1e-4 apart
        "close": CLOSE_KNOTS["step-0.0001"],
    }
    TABLE_SWEEP = ["sweep", "--variable", "L", "--min", "0.03", "--max", "50", "--points", "20",
                   "--scale", "log", "--method", "lifshitz", "--format", "csv"]
    LINES = {
        # g = n1/(n0^3*L^2) from 0 through the interpolant in log U, where the
        # window ends at the peak, to past g = 1/27, where rows integrate directly
        "sweep-n1-full": [
            "sweep", "--variable", "n1", "--min", "0", "--max", "1e-1", "--points", "9",
            "--L", "1.2", "--n0", "1.1", "--method", "both", "--mode", "full", "--format", "json",
        ],
        # the panel rule bisects c0: passes of 585, then 90 nodes
        **{
            f"compute-{mode}-rel-tol-1e-13": [
                "compute", "--L", "1", "--n0", "1.5", "--n1", "1e-3", "--method", "both",
                "--rel-tol", "1e-13", "--mode", mode, "--format", "json",
            ]
            for mode in ("split", "full")
        },
        "sweep-drude": [
            "sweep", "--variable", "L", "--min", "0.5", "--max", "10", "--points", "20",
            "--scale", "log", "--ns-table", "{golden}/drude.csv", "--method", "lifshitz",
            "--format", "csv",
        ],
        "sweep-two": [*TABLE_SWEEP, "--ns-table", "{tmp}/two.csv"],
        "sweep-five": [*TABLE_SWEEP, "--ns-table", "{tmp}/five.csv"],
        "sweep-step": [*TABLE_SWEEP, "--ns-table", "{tmp}/step.csv"],
        "compute-close": [
            "compute", "--L", "1", "--ns-table", "{tmp}/close.csv", "--method", "lifshitz",
            "--format", "csv",
        ],
        # 48 rows of 200 knots hold more nodes than one pass group of the
        # panel rule takes: 15 groups, of which two bisect at rel_tol 1e-13
        **{
            f"sweep-drude200-rel-tol-{tol}": [
                "sweep", "--variable", "L", "--min", "0.03", "--max", "50", "--points", "48",
                "--scale", "log", "--ns-table", "{golden}/drude200.csv", "--method", "lifshitz",
                "--format", "csv", "--rel-tol", tol,
            ]
            for tol in ("1e-10", "1e-13")
        },
    }

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_exits_0(self, tmp_path, name):
        # as in a fresh process: no integral or table is cached yet
        for cached in (lifshitz._e0_number, lifshitz._delta_number, lifshitz._full_piece,
                       dispersion._parse_index_table):
            cached.cache_clear()
        for stem, table in self.TABLES.items():
            (tmp_path / f"{stem}.csv").write_text(
                "".join(f"{x!r},{n!r}\n" for x, n in zip(table.xi, table.n))
            )
        got = run([arg.replace("{tmp}", str(tmp_path)) for arg in self.LINES[name]])
        assert got["exit"] == 0, got["stderr"]


# the CSV row as a loop over the rows prints it: the grid value, then the
# columns, each formatted anew on every row
_CSV_ROW = "%.16e,%.16e,%.16e,%.16e,%.16e,%.16e,%s,%.16e,%d\n"
CSV_HEADER = "L,e0,delta_e,e_surface,total,force,method,error_estimate,validity_flag\n"
BREAKDOWN = ("e0", "delta_e", "e_surface", "total", "force", "error_estimate", "force_error")

# +-0.0, or a magnitude from 1e-300 to 1e300 of either sign
PRINTED = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=-300.0, max_value=300.0),
    ),
)


@st.composite
def csv_cases(draw):
    """A grid, its methods, and per method a breakdown whose every field,
    and its flag, is one value for the whole column or an array of rows."""
    rows = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def printed():
        # an array of PRINTED's values, drawn in bulk: hypothesis draws each element slowly
        values = rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-300.0, 300.0, rows)
        zeros = rng.random(rows) < draw(st.sampled_from([0.0, 0.2, 1.0]))
        values[zeros] = np.copysign(0.0, values[zeros])
        return values

    # compute's one point is a float; a sweep's grid is an array
    compute = rows == 1 and draw(st.booleans())
    grid = draw(PRINTED.map(abs).filter(bool)) if compute else printed()
    methods = draw(st.sampled_from([["analytic"], ["lifshitz"], ["analytic", "lifshitz"]]))

    def field():
        return printed() if not compute and draw(st.booleans()) else draw(PRINTED)

    def flags():
        if compute or draw(st.booleans()):
            return draw(st.booleans())
        return rng.random(rows) < draw(st.sampled_from([0.0, 0.5, 1.0]))

    breakdowns = [
        SimpleNamespace(**{name: field() for name in BREAKDOWN}, beyond_validity=flags())
        for _ in methods
    ]
    return grid, methods, breakdowns


def _reference_csv(values, methods, breakdowns) -> str:
    def at(x, row):
        return x.tolist()[row] if isinstance(x, np.ndarray) else x

    text = CSV_HEADER
    for row, value in enumerate(values):
        for method, breakdown in zip(methods, breakdowns):
            fields = [at(getattr(breakdown, name), row) for name in BREAKDOWN]
            flag = at(breakdown.beyond_validity, row)
            text += _CSV_ROW % (value, *fields[:5], method, fields[5], flag)
    return text


class TestCsvText:
    """The CSV built from columns has the bytes of one template per row."""

    @settings(max_examples=300, deadline=None)
    @given(csv_cases())
    def test_matches_a_template_per_row(self, case):
        grid, methods, breakdowns = case
        given_rows = dict(zip(methods, breakdowns))
        args = argparse.Namespace(
            L=None, cs=None, rel_tol=1e-10, si=False, length_unit=None, mode="split",
            method="both" if len(methods) == 2 else methods[0], format="csv", out=None,
        )
        is_grid = isinstance(grid, np.ndarray)
        spec = SweepSpec("L", 1.0, 2.0, 2, "linear") if is_grid else None
        out = io.StringIO()
        with mock.patch.multiple(
            "casdisp.cli",
            range_error=lambda *a: None,
            analytic_rows=lambda *a: given_rows["analytic"],
            lifshitz_rows=lambda *a: given_rows["lifshitz"],
        ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert _run(args, Cauchy(1.0, 0.0), grid, spec) == 0
        values = grid.tolist() if is_grid else [grid]
        assert out.getvalue() == _reference_csv(values, methods, breakdowns)


def _sweep_specs(argvs):
    """The SweepSpec of each sweep command line; a config file's keys count."""
    parser, commands = _build_parser()
    for argv in argvs:
        if argv[0] != "sweep":
            continue
        args = _parse_plain(commands, argv) or parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(argv[:1] + _config_argv(args.config, args) + argv[1:])
        yield SweepSpec(args.variable, args.min, args.max, args.points, args.scale)


def _benchmark_argvs(tmp_path):
    """Every sweep command line of seeds 1-10, their warm-ups, in passes 0-19."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    out = tmp_path / "out.csv"
    for seed in [*range(1, 11), *range(-11, -1)]:
        for workload in workloads.WORKLOADS:
            tables = workloads.write_tables(seed, tmp_path) if workload == "full-route" else None
            for slot in workloads.workload_slots(workload, seed, out, tables):
                for pass_no in range(20):
                    op = slot(pass_no)
                    if op.kind != "battery":
                        yield list(op.argv)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGrid:
    """A log grid is np.geomspace's, bit for bit; a linear one is np.linspace's."""

    @settings(max_examples=500, deadline=None)
    @given(
        lo=_log_uniform(1e-8, 1e8),
        ratio=_log_uniform(1.0 + 1e-9, 1e6),
        points=st.integers(2, 400),
        variable=st.sampled_from(["L", "n1"]),
    )
    def test_log_grid_is_geomspace(self, lo, ratio, points, variable):
        spec = SweepSpec(variable, lo, lo * ratio, points, "log")
        assert _same_bits(spec.grid(), np.geomspace(lo, lo * ratio, points))

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.one_of(st.just(0.0), _log_uniform(1e-8, 1e8)),
        span=_log_uniform(1e-8, 1e8),
        points=st.integers(2, 400),
    )
    def test_linear_grid_is_linspace(self, lo, span, points):
        spec = SweepSpec("n1", lo, lo + span, points, "linear")
        assert _same_bits(spec.grid(), np.linspace(lo, lo + span, points))

    def test_golden_and_benchmark_grids(self, tmp_path):
        golden = [[a.replace("{golden}", str(GOLDEN)) for a in argv] for argv in SHAPES.values()]
        specs = set(_sweep_specs(golden)) | set(_sweep_specs(_benchmark_argvs(tmp_path)))
        assert {spec.scale for spec in specs} == {"linear", "log"}
        for spec in specs:
            reference = np.geomspace if spec.scale == "log" else np.linspace
            assert _same_bits(spec.grid(), reference(spec.min, spec.max, spec.points)), spec


class TestHandlerErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["compute", "--n0", "1", "--method", "analytic", "--format", "json"],
                "casdisp compute: error: --L is required",
            ),
            (
                ["sweep", "--variable", "L", "--min", "1", "--max", "2", "--points", "3",
                 "--n0", "1", "--L", "7", "--method", "analytic", "--format", "csv"],
                "casdisp sweep: error: --L is the swept variable",
            ),
            (
                ["compute", "--L", "1", "--ns-table", "n.csv", "--n0", "1",
                 "--method", "lifshitz", "--format", "csv"],
                "casdisp compute: error: --ns-table and --n0/--n1 are mutually exclusive",
            ),
            (
                ["compute", "--L", "1", "--method", "analytic", "--format", "json"],
                "casdisp compute: error: one of --n0 or --ns-table is required",
            ),
            # the sweep grid (SweepSpec) and what an n1 sweep needs
            (
                ["sweep", "--variable", "L", "--min", "2", "--max", "1", "--points", "3",
                 "--n0", "1", "--method", "analytic", "--format", "csv"],
                "casdisp sweep: error: need min < max, got [2.0, 1.0]",
            ),
            (
                ["sweep", "--variable", "L", "--min", "0", "--max", "1", "--points", "3",
                 "--scale", "log", "--n0", "1", "--method", "analytic", "--format", "csv"],
                "casdisp sweep: error: log scale needs min > 0",
            ),
            (
                ["sweep", "--variable", "L", "--min", "-1", "--max", "1", "--points", "3",
                 "--n0", "1", "--method", "analytic", "--format", "csv"],
                "casdisp sweep: error: separations must be positive",
            ),
            (
                ["sweep", "--variable", "n1", "--min", "-1", "--max", "1", "--points", "3",
                 "--L", "1", "--n0", "1", "--method", "analytic", "--format", "csv"],
                "casdisp sweep: error: dispersion coefficients must be >= 0",
            ),
            (
                ["sweep", "--variable", "n1", "--min", "0", "--max", "1e-3", "--points", "3",
                 "--L", "1", "--ns-table", "n.csv", "--method", "lifshitz", "--format", "csv"],
                "casdisp sweep: error: cannot sweep n1 against a tabulated model",
            ),
            (
                ["sweep", "--variable", "n1", "--min", "0", "--max", "1e-3", "--points", "3",
                 "--L", "1", "--method", "analytic", "--format", "csv"],
                "casdisp sweep: error: --n0 is required when sweeping n1",
            ),
            (
                ["sweep", "--variable", "n1", "--min", "0", "--max", "1e-3", "--points", "3",
                 "--n0", "1", "--method", "analytic", "--format", "csv"],
                "casdisp sweep: error: --L is required when sweeping n1",
            ),
            (["validate", "--tol", "-1"], "casdisp validate: error: --tol must be non-negative"),
        ],
    )
    def test_subcommand_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: casdisp {argv[0]} ")
        assert message in err

    def test_parser_is_not_a_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 1\nn0 = 1\nmethod = analytic\nformat = csv\nparser = x\n")
        code, out, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys: parser" in err

    def test_step_fraction_is_no_option(self, capsys, tmp_path):
        # the force is an exact derivative, so there is no step to choose
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--L", "1", "--n0", "1", "--method", "both",
                  "--format", "csv", "--h-rel", "1e-3"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: casdisp ")
        assert "error: unrecognized arguments: --h-rel 1e-3" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 1\nn0 = 1\nmethod = both\nformat = csv\nh_rel = 1e-3\n")
        code, out, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "unknown config keys: h_rel" in err


class TestNonFiniteInput:
    """inf and nan from a flag or a table are argument errors, caught up front."""

    @staticmethod
    def run_quietly(capsys, argv):
        # pytest records warnings itself, so they are caught here rather than
        # looked for on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        return code, out, err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1.5\n1,1.4\ninf,1.3\n", "samples must be finite"),
            ("0,1.5\n1,nan\n2,1.3\n", "samples must be finite"),
            ("0,1.5\n1,inf\n2,1.3\n", "samples must be finite"),
        ],
        ids=["xi-inf", "n-nan", "n-inf"],
    )
    def test_table_sample(self, capsys, tmp_path, rows, message):
        self.check_table(capsys, tmp_path, "xi,n\n" + rows, message)

    def test_typo_in_a_headerless_first_sample(self, capsys, tmp_path):
        # not taken for a header: the first sample is an error, not lost
        self.check_table(capsys, tmp_path, "0.0,1.8x\n1.0,1.5\n2.0,1.2\n",
                         "line 1: could not parse ['0.0', '1.8x']")

    def check_table(self, capsys, tmp_path, text, message):
        table = tmp_path / "n.csv"
        table.write_text(text)
        code, out, err = self.run_quietly(capsys, [
            "compute", "--L", "1", "--ns-table", str(table), "--method", "lifshitz",
            "--format", "csv",
        ])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--L", "inf", "--n0", "1"], "separation must be positive and finite, got inf"),
            (["--L", "1", "--n0", "inf"], "refractive index must be positive and finite, got inf"),
            (["--L", "1", "--n0", "1", "--n1", "inf"],
             "dispersion coefficient must be >= 0 and finite, got inf"),
            (["--L", "1", "--n0", "1", "--si", "--length-unit", "inf"],
             "SI output needs a positive, finite length unit in meters"),
        ],
        ids=["L", "n0", "n1", "length-unit"],
    )
    def test_flag(self, capsys, flags, message):
        code, out, err = self.run_quietly(
            capsys, ["compute", *flags, "--method", "both", "--format", "csv"]
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "variable, fixed",
        [("L", ["--n0", "1"]), ("n1", ["--n0", "1", "--L", "1"])],
        ids=["L", "n1"],
    )
    def test_sweep_grid_end(self, capsys, variable, fixed):
        code, out, err = self.run_quietly(capsys, [
            "sweep", "--variable", variable, "--min", "1", "--max", "inf", "--points", "3",
            *fixed, "--method", "analytic", "--format", "csv",
        ])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "casdisp sweep: error: grid ends must be finite, got [1.0, inf]"
        )


# runs main on each argument list of argv[1] in one process and prints, per
# call, its exit code, stdout, stderr and the argparse parsers built so far
SEQUENCE = """
import argparse, contextlib, io, json, sys
from casdisp.cli import main
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue(), built])
print(json.dumps(results))
"""


def _python(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(casdisp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestParserBuiltOnce:
    def test_later_calls_match_a_fresh_process(self, tmp_path):
        config = tmp_path / "point.ini"
        config.write_text("L = 2\nn0 = 1.5\nn1 = 1e-3\nmethod = both\nformat = csv\n")
        plain = [
            "compute", "--L", "1", "--n0", "1.5", "--n1", "1e-3", "--method", "both",
            "--mode", "full", "--format", "json",
        ]
        sweep = [
            "sweep", "--variable", "L", "--min", "1", "--max", "4", "--points", "3",
            "--n0", "1.5", "--method", "both", "--format", "csv",
        ]
        # argparse's own path: abbreviated flags, and every flag as --flag=value
        short = {"--variable": "--var", "--points": "--poi", "--method": "--meth",
                 "--format": "--form"}
        abbreviated = [short.get(token, token) for token in sweep]
        equals = sweep[:1] + [f"{flag}={value}" for flag, value in zip(sweep[1::2], sweep[2::2])]
        calls = [
            ["compute", "--config", str(config)],
            ["compute", "--L", "1", "--method", "analytic", "--format", "csv"],  # no --n0
            plain,
            sweep,
            abbreviated,
            plain,
            equals,
            plain,
        ]
        proc = _python("-c", SEQUENCE, json.dumps(calls))
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        # the first call builds the parser and its three subcommands; no later one builds any
        assert [built for *_, built in results] == [4] * len(calls)
        assert [code for code, *_ in results] == [0, 2, 0, 0, 0, 0, 0, 0]
        assert results[3] == results[4] == results[6]
        for argv, (code, out, err, _) in zip(calls, results):
            fresh = _python("-m", "casdisp", *argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


# values that are no option's valid value, or that argparse reads apart
ODD_VALUES = ("x", "", "1e", "1.5.2", "--", "-1", "-2e-3", "-h", "--si", "both", "log", "a=b")


@st.composite
def _value(draw, action, tidy):
    """A valid value of the option; else, now and then, an odd one."""
    if not tidy and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(ODD_VALUES))
    if action.choices is not None:
        return draw(st.sampled_from(action.choices))
    if action.type is int:
        return str(draw(st.integers(-3, 60)))
    if action.type is float:
        return repr(draw(st.floats()))
    return draw(st.text("ab1./-= ", max_size=5))


@st.composite
def command_lines(draw):
    """A command word and its options, repeats allowed: in a tidy line exact
    flags with valid values, else also abbreviated flags, --flag=value, odd
    or missing values and unknown words."""
    commands = _build_parser()[1]
    word = draw(st.sampled_from(sorted(commands)))
    options = commands[word][1]
    argv = [word] if draw(st.integers(0, 15)) else [draw(st.sampled_from(["", "sweeps", "-h"]))]
    tidy = draw(st.booleans())
    forms = ["exact"] if tidy else ["exact"] * 4 + ["abbreviated", "equals", "missing", "unknown"]
    for _ in range(draw(st.integers(0, 8))):
        flag = draw(st.sampled_from(sorted(options)))
        action = options[flag]
        value = [] if action.nargs == 0 else [draw(_value(action, tidy))]
        form = draw(st.sampled_from(forms))
        if form == "abbreviated":
            flag = flag[: draw(st.integers(3, len(flag)))]
        elif form == "equals":
            flag, value = f"{flag}={draw(_value(action, tidy))}", []
        elif form == "missing":
            value = []
        elif form == "unknown":
            flag = draw(st.sampled_from(["--bogus", "bogus", "-h", "--help", "--tol", "--variable"]))
        argv += [flag, *value]
    return argv


def _same(a, b):
    return a == b or (a != a and b != b)  # nan == nan


class TestOnePassParse:
    """The one-pass parse gives argparse's namespace, or leaves the line to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_equals_argparse_or_returns_none(self, argv):
        parser, commands = _build_parser()
        plain = _parse_plain(commands, argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                expected = vars(parser.parse_args(argv))
        except SystemExit:
            assert plain is None
            return
        if plain is not None:
            got = vars(plain)
            assert list(got) == list(expected)
            assert all(_same(got[key], expected[key]) for key in got), (got, expected)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--poi", "3"],
            ["compute", "--L=1"],
            ["compute", "--cs", "-2e-3"],
            ["sweep", "--min", "-1"],
            ["compute", "--L", "x"],
            ["compute", "--method", "all"],
            ["compute", "--format"],
            ["compute", "--si", "1"],
            ["compute", "--tol", "1"],
            ["compute", "-h"],
            ["-h"],
            [],
        ],
    )
    def test_left_to_argparse(self, argv):
        assert _parse_plain(_build_parser()[1], argv) is None

    def test_golden_command_lines_take_it(self):
        # all but the two with --cs=-...; a config file is read after either parse
        parser, commands = _build_parser()
        lines = [argv for argv in SHAPES.values() if not any("=" in arg for arg in argv)]
        assert len(lines) == len(SHAPES) - 2
        for argv in lines:
            args = _parse_plain(commands, argv)
            assert args is not None and vars(args) == vars(parser.parse_args(argv))


class TestOutOfRangeInput:
    """Finite inputs whose powers leave the double range are argument errors."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--L", "1e-300", "--n0", "1", "--method", "analytic"],
             "separation 1e-300 out of range: L^6"),
            (["--L", "1e-300", "--n0", "1", "--method", "lifshitz"],
             "separation 1e-300 out of range: L^6"),
            (["--L", "1e200", "--n0", "1", "--method", "lifshitz"],
             "separation 1e+200 out of range: L^6"),
            (["--L", "1", "--n0", "1e-300", "--n1", "1e-3", "--method", "both"],
             "refractive index 1e-300 out of range: n^4"),
        ],
        ids=["tiny-L-analytic", "tiny-L-lifshitz", "huge-L-lifshitz", "tiny-n0"],
    )
    def test_flag(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "compute", *flags, "--format", "csv")
        assert (code, out) == (2, "")
        assert err == f"error: {message} must lie within 1e-300 and 1e300\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cs", "1e300", "--method", "both", "--format", "json"],
             "surface coefficient 1e+300 out of range at separation 0.001: c_s/L^4"),
            (["--n1", "1e300", "--method", "analytic", "--format", "csv"],
             "dispersion coefficient 1e+300 out of range at separation 0.001: n1/(n0^4*L^5)"),
        ],
        ids=["huge-cs", "huge-n1"],
    )
    def test_overflowing_numerator(self, capsys, flags, message):
        # c_s/L^4 and n1/(n0^4*L^5) overflow, which printed inf or Infinity
        code, out, err = run_cli(capsys, "compute", "--L", "1e-3", "--n0", "1", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {message} must not exceed 1e300\n"

    @pytest.mark.parametrize(
        "unit, shown", [("1e-120", "1e-120"), ("1e300", "1e+300")], ids=["tiny", "huge"]
    )
    def test_length_unit(self, capsys, unit, shown):
        # unit^3 underflowed to a ZeroDivisionError, or overflowed
        code, out, err = run_cli(
            capsys, "compute", "--L", "1", "--n0", "1", "--si", "--length-unit", unit,
            "--method", "analytic", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: length unit {shown} out of range: unit^3 and unit^4 "
            "must lie within 1e-300 and 1e300\n"
        )

    @pytest.mark.parametrize(
        "L, unit, message",
        [
            ("1e-40", "1e-70",
             "force per area -4.112335167120567e+158 out of range in SI units at "
             "length unit 1e-70: value*hbar*c/unit^4 is -inf"),
            ("1e40", "1e70",
             "energy per area -1.3707783890401886e-122 out of range in SI units at "
             "length unit 1e+70: value*hbar*c/unit^3 is -0.0"),
        ],
        ids=["overflow", "underflow"],
    )
    def test_converted_value(self, capsys, L, unit, message):
        # a unit in range can still take a value past the double range,
        # which printed -Infinity (not JSON), or -0.0 for every value
        code, out, err = run_cli(
            capsys, "compute", "--L", L, "--n0", "1", "--si", "--length-unit", unit,
            "--method", "analytic", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_edge_of_the_range_is_finite(self, capsys):
        # L^6 = 1e-300 is inside: every printed number is finite
        code, out, err = run_cli(
            capsys, "compute", "--L", "1e-50", "--n0", "1", "--n1", "1e-3",
            "--method", "both", "--format", "csv",
        )
        assert code == 0
        values = [float(v) for row in list(csv.reader(io.StringIO(out)))[1:] for v in row[:6]]
        assert all(math.isfinite(v) for v in values)


class TestTrustRegionRule:
    @pytest.mark.parametrize("n1", [1e-4, 1e-2, 0.25])
    @pytest.mark.parametrize("above", [False, True])
    def test_one_rule_one_flag(self, capsys, n1, above):
        L = 2.0 * math.pi * math.sqrt(n1)
        if above:
            L = math.nextafter(L, math.inf)
        scenario = Scenario(L, Cauchy(1.0, n1))
        expected = L <= min_separation(scenario.model)
        assert expected is not above
        assert total_energy_analytic(scenario).beyond_validity is expected
        split = total_energy_lifshitz(scenario, mode=Mode.FIRST_ORDER_SPLIT)
        assert split.beyond_validity is expected
        _, out, _ = run_cli(
            capsys, "compute", "--L", repr(L), "--n0", "1", "--n1", repr(n1),
            "--method", "both", "--mode", "split", "--format", "csv",
        )
        flags = [row[-1] for row in csv.reader(io.StringIO(out))][1:]
        assert flags == ["1" if expected else "0"] * 2


class TestValidate:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--tol", "1e-15")
        assert code == 1
        assert "FAIL" in out

    def test_loose_tolerance_passes(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--tol", "1e-3")
        assert code == 0
