"""Command-line front end: single-point computation, sweeps, validation.

Exit codes: 0 success, 1 validation-check failure, 2 argument errors,
3 quadrature failure, 4 file I/O errors.  Warnings go to stderr; the data
stream stays clean.  CSV numbers use a fixed 17-significant-digit form so
identical invocations are byte-identical; JSON uses the shortest
round-trip representation.  A sweep's rows are evaluated as columns, each
method in one pass over the whole grid (``compute`` is a one-point grid).
The CSV is built from those columns, and each printed number is
formatted once: a grid value once per point, and a field that one float
holds for a whole column once, as text in the template of a point's rows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import cache
from typing import Optional

import numpy as np

from .closed_form import SurfaceTermSpec, _at, analytic_rows, range_error
from .crosscheck import run_validation_checks
from .dispersion import Cauchy, Constant, Tabulated, load_index_table
from .lifshitz import (
    DEFAULT_QUADRATURE,
    Mode,
    QuadratureError,
    QuadratureSpec,
    lifshitz_rows,
)
from .units import UnitMode, UnitSystem, convert_units

# unused here; perfbench/tracer.py patches them as casdisp.cli.*
from .closed_form import force_analytic, total_energy_analytic  # noqa: F401
from .lifshitz import force_lifshitz, total_energy_lifshitz  # noqa: F401

__all__ = ["main", "SweepSpec"]

# the CSV columns after the swept variable, with the form of their cells: a float,
# the swept variable's too, prints 17 significant digits, which round-trip it
_CSV_COLUMNS = (
    ("e0", "%.16e"),
    ("delta_e", "%.16e"),
    ("e_surface", "%.16e"),
    ("total", "%.16e"),
    ("force", "%.16e"),
    ("method", "%s"),
    ("error_estimate", "%.16e"),
    ("validity_flag", "%d"),
)
# the breakdown fields a row prints, in order, with their JSON keys and kinds
_FIELDS = tuple(zip(
    ("e0", "delta_e", "e_surface", "total", "force", "error_estimate", "force_error"),
    ("e0", "delta_e", "e_surface", "total", "force", "error_estimate", "force_error_estimate"),
    ("energy_per_area",) * 4 + ("force_per_area", "energy_per_area", "force_per_area"),
))


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one swept variable ("L" or "n1")."""

    variable: str
    min: float
    max: float
    points: int
    scale: str

    def __post_init__(self):
        if self.variable not in ("L", "n1"):
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"grid ends must be finite, got [{self.min}, {self.max}]")
        if not self.min < self.max:
            raise ValueError(f"need min < max, got [{self.min}, {self.max}]")
        if self.scale == "log" and not self.min > 0.0:
            raise ValueError("log scale needs min > 0")
        if self.variable == "L" and not self.min > 0.0:
            raise ValueError("separations must be positive")
        if self.variable == "n1" and self.min < 0.0:
            raise ValueError("dispersion coefficients must be >= 0")

    def grid(self) -> np.ndarray:
        if self.scale == "linear":
            return np.linspace(self.min, self.max, self.points)
        # np.geomspace's definition, without its code for signs, complex values and dtypes
        grid = np.power(10.0, np.linspace(np.log10(self.min), np.log10(self.max), self.points))
        grid[0], grid[-1] = self.min, self.max
        return grid


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_argv(path: str, args: argparse.Namespace) -> list[str]:
    """The flags a config file stands for, so argparse checks them like typed flags."""
    known = set(vars(args)) - {"command", "handler", "parser", "config"}
    entries = _read_config(path)
    unknown = sorted(set(entries) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    argv = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):  # a switch such as --si
            if value.lower() in ("1", "true", "yes", "on"):
                argv.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ValueError(f"config key {key}: expected a boolean, got {value!r}")
        else:
            argv.append(f"{flag}={value}")
    return argv


def _add_shared_options(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    add = parser.add_argument
    return [
        add("--L", type=float, help="plate separation (natural length units)"),
        add("--n0", type=float, help="constant part of the refractive index"),
        add("--n1", type=float, help="quadratic dispersion coefficient (length^2)"),
        add("--ns-table", help="CSV of (xi, n) index samples on the imaginary-frequency axis"),
        add("--cs", type=float, help="surface-term coefficient c_s (energy = c_s/L^4)"),
        add("--method", choices=("analytic", "lifshitz", "both"), help="evaluation route"),
        add("--mode", choices=("split", "full"), help="quadrature mode (default: split; full for tabulated data)"),
        add("--rel-tol", type=float, default=DEFAULT_QUADRATURE.rel_tol, help="relative quadrature tolerance (default %(default)g)"),
        add("--si", action="store_true", help="emit SI values (J/m^2, Pa)"),
        add("--length-unit", type=float, help="meters per natural length unit (with --si)"),
        add("--format", choices=("json", "csv"), help="output format"),
        add("--out", help="write output to this file instead of stdout"),
        add("--config", help="flat key = value file mirroring the flags; flags win"),
    ]


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and per command word its defaults and its options' actions.

    Built once per process: parsing leaves a parser as it found it.
    """
    parser = argparse.ArgumentParser(
        prog="casdisp",
        description=(
            "Casimir energy and force per unit area between ideal metal plates "
            "separated by a dispersive dielectric, by closed form and by "
            "direct quadrature of the imaginary-frequency integral."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="energy breakdown and force at one point")
    compute_actions = _add_shared_options(compute)
    compute.set_defaults(handler=_cmd_compute, parser=compute)

    sweep = sub.add_parser("sweep", help="grid over the separation or the dispersion coefficient")
    sweep_actions = _add_shared_options(sweep) + [
        sweep.add_argument("--variable", choices=("L", "n1"), help="swept quantity"),
        sweep.add_argument("--min", type=float, help="grid start"),
        sweep.add_argument("--max", type=float, help="grid end"),
        sweep.add_argument("--points", type=int, help="number of grid points (>= 2)"),
        sweep.add_argument("--scale", choices=("linear", "log"), default="linear", help="grid spacing (default %(default)s)"),
    ]
    sweep.set_defaults(handler=_cmd_sweep, parser=sweep)

    validate = sub.add_parser("validate", help="run the cross-validation battery")
    validate_actions = [validate.add_argument(
        "--tol",
        type=float,
        default=1e-7,
        help=(
            "agreement tolerance for the closed-form vs quadrature checks "
            "(default 1e-7); the slope and regulated-sum checks keep their "
            "intrinsic thresholds"
        ),
    )]
    validate.set_defaults(handler=_cmd_validate, parser=validate)
    commands = {
        word: (
            vars(command.parse_args([])),
            {option: action for action in actions for option in action.option_strings},
        )
        for word, command, actions in (
            ("compute", compute, compute_actions),
            ("sweep", sweep, sweep_actions),
            ("validate", validate, validate_actions),
        )
    }
    return parser, commands


def _parse_plain(commands: dict, argv: list[str]) -> Optional[argparse.Namespace]:
    """argparse's namespace for a plain command line, in one pass; else None.

    Plain is a command word, then exact long options of that command, each
    followed by one value that does not start with "-", or a switch.  Help,
    abbreviations, ``--flag=value``, dash-led values and every error return
    None and are left to argparse, which alone prints usage and messages.
    """
    if not argv or argv[0] not in commands:
        return None
    defaults, options = commands[argv[0]]
    args = argparse.Namespace(command=argv[0])
    vars(args).update(defaults)  # Namespace(**defaults) sets them one by one, 4x slower
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        if action.nargs == 0:  # a switch
            setattr(args, action.dest, action.const)
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    return args


def _require(args: argparse.Namespace, *keys: str) -> None:
    # not argparse's required=True: a config file may supply these
    for key in keys:
        if getattr(args, key) is None:
            args.parser.error(f"--{key} is required")


def _build_model(args: argparse.Namespace):
    if args.ns_table is not None:
        if args.n0 is not None or args.n1 is not None:
            args.parser.error("--ns-table and --n0/--n1 are mutually exclusive")
        return load_index_table(args.ns_table)
    if args.n0 is None:
        args.parser.error("one of --n0 or --ns-table is required")
    if args.n1 is None:
        return Constant(args.n0)
    return Cauchy(args.n0, args.n1)


def _model_echo(model) -> dict:
    if isinstance(model, Tabulated):
        xi = model.xi
        return {"type": "tabulated", "samples": len(xi), "xi_min": xi[0], "xi_max": xi[-1]}
    return {"type": type(model).__name__.lower(), **asdict(model)}


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _column(x, rows: int) -> list:
    # an array's values, or a float that holds for every row
    return x.tolist() if isinstance(x, np.ndarray) else [x] * rows


def _run(args: argparse.Namespace, model, grid, spec: Optional[SweepSpec] = None) -> int:
    """Evaluate each method once over the grid's column, warn once, emit CSV or JSON.

    ``grid`` holds a sweep's values, or compute's one separation as a float;
    ``model`` is the medium (for an n1 sweep its dispersion-free base).  An
    error names the first failing value in the order the rows print.
    """
    variable = spec.variable if spec else "L"
    surface = SurfaceTermSpec(args.cs) if args.cs is not None else None
    quad = QuadratureSpec(rel_tol=args.rel_tol)
    units = UnitSystem(UnitMode.SI, args.length_unit) if args.si else UnitSystem()
    if args.mode is not None:
        mode = Mode(args.mode)
    else:
        mode = Mode.FULL_KAPPA1 if isinstance(model, Tabulated) else Mode.FIRST_ORDER_SPLIT
    methods = ["analytic", "lifshitz"] if args.method == "both" else [args.method]

    def rows(grid):
        # separations and medium of the rows; an n1 sweep's medium is a column
        return (args.L, Cauchy(model.n0, grid)) if variable == "n1" else (grid, model)

    L, medium = rows(grid)
    failure = range_error(L, medium, surface)
    if failure:
        # the rows before the first one out of range still run, and may fail first
        if failure[0] == 0:
            raise failure[1]
        grid = grid[: failure[0]]
        L, medium = rows(grid)
    values = grid.tolist() if isinstance(grid, np.ndarray) else [grid]
    breakdowns = [
        analytic_rows(L, medium, surface)
        if method == "analytic"
        else lifshitz_rows(L, medium, surface, quad, mode)
        for method in methods
    ]
    try:
        # each method's printed fields in output units, then its flags
        tables = [
            [convert_units(getattr(b, name), units, kind) for name, _, kind in _FIELDS]
            + [b.beyond_validity]
            for b in breakdowns
        ]
    except ValueError:
        # a row at a time in print order, the first value lost names the error
        for row in range(len(values)):
            for breakdown in breakdowns:
                for name, _, kind in _FIELDS:
                    convert_units(_at(getattr(breakdown, name), row), units, kind)
        raise
    if failure:
        raise failure[1]
    flagged = sum(sum(_column(table[-1], len(values))) for table in tables)
    if flagged:
        print(
            f"warning: {flagged} of {len(values) * len(methods)} rows lie outside the "
            "dispersion model's trust region",
            file=sys.stderr,
        )
    if args.format == "json":
        keys = ("method", *(key for _, key, _ in _FIELDS), "beyond_validity")
        head = {
            "scenario": {"L": args.L, "model": _model_echo(model), "c_s": args.cs},
            "units": {
                "mode": units.mode.value,
                "length_unit_in_meters": units.length_unit_in_meters,
            },
        }
        # point by point, and each point's methods in turn
        method_rows = [zip(*(_column(x, len(values)) for x in table)) for table in tables]
        printed = [
            (value, method, *fields)
            for value, *group in zip(values, *method_rows)
            for method, fields in zip(methods, group)
        ]
        records = [dict(zip(keys, row)) for _, *row in printed]
        if spec is None:
            document = {**head, "results": records}
        else:
            body = [{variable: row[0], **record} for row, record in zip(printed, records)]
            document = {"sweep": asdict(spec), **head, "rows": body}
        text = json.dumps(document, indent=2) + "\n"
    else:
        # one template prints a point's rows, one per method: a field that one
        # float gives for the whole column is text in it, an array a conversion;
        # the CSV leaves out force_error_estimate and names the method sixth
        points = ["%.16e" % value for value in values]
        template, columns = "", []
        for method, (*fields, _, flags) in zip(methods, tables):
            parts = ["%s"]
            columns.append(points)
            for cell, (_, form) in zip((*fields[:5], method, fields[5], flags), _CSV_COLUMNS):
                if isinstance(cell, np.ndarray):
                    parts.append(form)
                    columns.append(cell.tolist())
                else:
                    parts.append(form % cell)  # no text printed here holds a "%"
            template += ",".join(parts) + "\n"
        text = ",".join((variable, *(name for name, _ in _CSV_COLUMNS))) + "\n" + "".join(
            [template % point for point in zip(*columns)]
        )
    _emit(text, args.out)
    return 0


def _cmd_compute(args: argparse.Namespace) -> int:
    model = _build_model(args)
    _require(args, "L", "method", "format")
    return _run(args, model, args.L)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "variable", "min", "max", "points", "method", "format")
    try:
        spec = SweepSpec(args.variable, args.min, args.max, args.points, args.scale)
    except ValueError as exc:
        args.parser.error(str(exc))
    if getattr(args, spec.variable) is not None:
        args.parser.error(f"--{spec.variable} is the swept variable and cannot also be fixed")

    if spec.variable == "n1":
        if args.ns_table is not None:
            args.parser.error("cannot sweep n1 against a tabulated model")
        if args.n0 is None:
            args.parser.error("--n0 is required when sweeping n1")
        if args.L is None:
            args.parser.error("--L is required when sweeping n1")
        model = Cauchy(args.n0, 0.0)
    else:
        model = _build_model(args)
    return _run(args, model, spec.grid(), spec)


def _cmd_validate(args: argparse.Namespace) -> int:
    if not args.tol >= 0.0:
        args.parser.error("--tol must be non-negative")
    checks = run_validation_checks(tol=args.tol)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}  ({check.detail})")
    failed = sum(1 for check in checks if not check.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(commands, argv) or parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # config entries go in as flags ahead of the command line's own,
            # so they pass the same checks and a repeated flag wins
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(args.config, args) + argv[at:])
        return args.handler(args)
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
