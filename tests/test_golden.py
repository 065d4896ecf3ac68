"""Byte-exact CLI outputs for a fixed set of command shapes.

Each shape's stdout, stderr and exit code are stored in
``tests/golden/<name>.json``; the test runs the command in-process and
compares all three exactly.  Warnings are raised as errors, so a numpy
warning that would reach stderr fails the shape.  To record the files
again, from the repository root:

    PYTHONPATH=src python tests/test_golden.py [name ...]

which records only the named shapes, or every shape when none is named,
and rejects a name that is not a shape.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from casdisp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; "{golden}" stands for the directory of the fixtures
SHAPES = {
    "compute-analytic-json": [
        "compute", "--L", "1", "--n0", "1.5", "--n1", "1e-3", "--method", "analytic",
        "--format", "json",
    ],
    "compute-split-csv-cs": [
        "compute", "--L", "0.7", "--n0", "1.3", "--n1", "2e-3", "--cs", "1e-3",
        "--method", "both", "--format", "csv",
    ],
    "compute-full-json": [
        "compute", "--L", "1.96", "--n0", "1.00677", "--n1", "0.0108094", "--method", "both",
        "--mode", "full", "--format", "json",
    ],
    "compute-split-json-si": [
        "compute", "--L", "2", "--n0", "1.2", "--n1", "1e-3", "--cs=-2e-3",
        "--method", "both", "--format", "json", "--si", "--length-unit", "1e-9",
    ],
    "compute-flagged-csv": [
        "compute", "--L", "0.1", "--n0", "1", "--n1", "0.01", "--method", "both",
        "--format", "csv",
    ],
    "sweep-L-split-csv": [
        "sweep", "--variable", "L", "--min", "0.5", "--max", "1e4", "--points", "48",
        "--scale", "log", "--n0", "1.3", "--n1", "1e-2", "--method", "both", "--mode", "split",
        "--format", "csv",
    ],
    "sweep-L-split-json-si-cs": [
        "sweep", "--variable", "L", "--min", "0.5", "--max", "1e4", "--points", "48",
        "--scale", "log", "--n0", "1.3", "--n1", "1e-2", "--cs", "1e-3", "--method", "both",
        "--mode", "split", "--format", "json", "--si", "--length-unit", "1e-9",
    ],
    "sweep-L-split-csv-si": [
        "sweep", "--variable", "L", "--min", "300", "--max", "1e4", "--points", "24",
        "--scale", "log", "--n0", "2.1", "--n1", "4e3", "--method", "both", "--mode", "split",
        "--format", "csv", "--si", "--length-unit", "1e-9",
    ],
    # across the trust boundary L = 0.63; e_surface is a column for both methods
    "sweep-L-split-csv-si-cs": [
        "sweep", "--variable", "L", "--min", "0.2", "--max", "40", "--points", "20",
        "--scale", "log", "--n0", "1.3", "--n1", "1e-2", "--cs", "1e-3", "--method", "both",
        "--mode", "split", "--format", "csv", "--si", "--length-unit", "1e-9",
    ],
    "sweep-n1-from-zero-csv": [
        "sweep", "--variable", "n1", "--min", "0", "--max", "2e-2", "--points", "7",
        "--L", "0.9", "--n0", "1.4", "--method", "both", "--format", "csv",
    ],
    "sweep-n1-from-zero-json-cs": [
        "sweep", "--variable", "n1", "--min", "0", "--max", "1e-3", "--points", "5",
        "--L", "1", "--n0", "1", "--cs", "2e-3", "--method", "analytic", "--format", "json",
    ],
    "sweep-L-linear-analytic-csv": [
        "sweep", "--variable", "L", "--min", "0.25", "--max", "3", "--points", "12",
        "--n0", "1.7", "--n1", "5e-3", "--cs=-4e-4", "--method", "analytic",
        "--format", "csv",
    ],
    "sweep-L-full-csv": [
        "sweep", "--variable", "L", "--min", "0.2", "--max", "12", "--points", "8",
        "--scale", "log", "--n0", "1.5", "--n1", "1e-2", "--method", "both", "--mode", "full",
        "--format", "csv",
    ],
    "sweep-n1-full-json": [
        "sweep", "--variable", "n1", "--min", "0", "--max", "5e-2", "--points", "4",
        "--L", "1.2", "--n0", "1.1", "--method", "lifshitz", "--mode", "full",
        "--format", "json",
    ],
    "sweep-L-constant-lifshitz-json": [
        "sweep", "--variable", "L", "--min", "1", "--max", "2", "--points", "3",
        "--n0", "1.5", "--method", "lifshitz", "--format", "json",
    ],
    "sweep-table-csv": [
        "sweep", "--variable", "L", "--min", "0.5", "--max", "10", "--points", "6",
        "--scale", "log", "--ns-table", "{golden}/drude.csv", "--method", "lifshitz",
        "--format", "csv",
    ],
    # 200 knots: rows of 3,180, 2,535 and 2,025 nodes, most on the series branch
    "sweep-table200-csv": [
        "sweep", "--variable", "L", "--min", "0.5", "--max", "1.4", "--points", "3",
        "--scale", "log", "--ns-table", "{golden}/drude200.csv", "--method", "lifshitz",
        "--format", "csv",
    ],
    "compute-table-json-si": [
        "compute", "--L", "0.8", "--ns-table", "{golden}/drude.csv", "--cs", "1e-3",
        "--method", "lifshitz", "--format", "json", "--si", "--length-unit", "1e-8",
    ],
    "config-compute-csv": ["compute", "--config", "{golden}/point.cfg"],
    "config-sweep-json-si": ["sweep", "--config", "{golden}/sweep.cfg"],
    "error-range-partway": [
        "sweep", "--variable", "L", "--min", "1e45", "--max", "1e55", "--points", "6",
        "--scale", "log", "--n0", "1", "--method", "both", "--format", "csv",
    ],
    "error-n1-range-partway": [
        "sweep", "--variable", "n1", "--min", "0", "--max", "1e300", "--points", "4",
        "--L", "1e-3", "--n0", "1", "--method", "analytic", "--format", "json",
    ],
    "error-si-overflow-partway": [
        "sweep", "--variable", "n1", "--min", "0", "--max", "1e-24", "--points", "5",
        "--L", "1e-20", "--n0", "1", "--method", "both", "--format", "csv",
        "--si", "--length-unit", "1e-60",
    ],
    "error-si-before-range": [
        "sweep", "--variable", "n1", "--min", "0", "--max", "2e180", "--points", "5",
        "--L", "1e-20", "--n0", "1", "--method", "both", "--format", "csv",
        "--si", "--length-unit", "1e-60",
    ],
    "error-si-underflow-compute": [
        "compute", "--L", "1e40", "--n0", "1", "--method", "lifshitz", "--format", "json",
        "--si", "--length-unit", "1e70",
    ],
    "error-table-split": [
        "compute", "--L", "1", "--ns-table", "{golden}/drude.csv", "--method", "lifshitz",
        "--mode", "split", "--format", "csv",
    ],
    "error-table-analytic": [
        "sweep", "--variable", "L", "--min", "1", "--max", "2", "--points", "3",
        "--ns-table", "{golden}/drude.csv", "--method", "both", "--format", "csv",
    ],
}


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call."""
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_output_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert expected["argv"] == SHAPES[name]
    got = run(SHAPES[name])
    assert got["exit"] == expected["exit"]
    assert got["stderr"] == expected["stderr"]
    assert got["stdout"] == expected["stdout"]


def test_every_golden_file_has_a_shape():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(SHAPES)


if __name__ == "__main__":
    names = sys.argv[1:] or list(SHAPES)
    unknown = sorted(set(names) - set(SHAPES))
    if unknown:
        sys.exit(f"not a shape: {', '.join(unknown)}")
    for name in names:
        argv = SHAPES[name]
        record = {"argv": argv, **run(argv)}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: exit {record['exit']}", file=sys.stderr)
