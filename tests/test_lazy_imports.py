"""The run paths load numpy alone: scipy and mpmath stay out of sys.modules,
and every command runs where neither can be imported.

Each case runs in a fresh interpreter, because the test process itself may have
imported both.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casdisp

SRC = str(Path(casdisp.__file__).resolve().parents[1])

# imports casdisp, runs the CLI on the given arguments (if any) with stdout
# discarded, then prints the exit code and every scipy/mpmath module loaded
PROBE = """
import contextlib, io, json, sys
import casdisp
from casdisp.cli import main
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
print(json.dumps([code, loaded]))
"""


def _run(code: str, *argv: str) -> str:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_after(*argv: str) -> tuple[int | None, list[str]]:
    code, loaded = json.loads(_run(PROBE, *argv))
    return code, loaded


@pytest.fixture(scope="module")
def drude_table(tmp_path_factory):
    # Drude-like n(i*xi) = sqrt(1 + 2/(1 + xi^2)) on 40 knots
    lines = ["xi,n"]
    for k in range(40):
        xi = 40.0 * (k / 39) ** 2
        lines.append(f"{xi!r},{math.sqrt(1.0 + 2.0 / (1.0 + xi * xi))!r}")
    path = tmp_path_factory.mktemp("table") / "drude.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("compute", "--L", "1", "--n0", "1.5", "--n1", "1e-3", "--method", "analytic",
         "--format", "json"),
        ("sweep", "--variable", "L", "--min", "0.5", "--max", "20", "--points", "12",
         "--n0", "1.5", "--n1", "1e-2", "--method", "both", "--format", "csv"),
    ],
    ids=["import", "compute-analytic", "sweep-split-both"],
)
def test_run_paths_load_neither_scipy_nor_mpmath(argv):
    code, loaded = _loaded_after(*argv)
    assert code in (None, 0)
    assert loaded == []


def test_table_run_loads_neither_scipy_nor_mpmath(drude_table):
    code, loaded = _loaded_after(
        "compute", "--L", "0.5", "--ns-table", drude_table, "--method", "lifshitz",
        "--format", "csv",
    )
    assert code == 0
    assert loaded == []


def test_table_run_leaves_numpy_ma_unloaded(drude_table):
    # numpy.ma costs about 10 ms and 1.5 MB of a process's first table row
    # (np.unique, for one, imports it on its first call)
    probe = PROBE.replace('m.split(".")[0] in ("scipy", "mpmath")', 'm.split(".")[:2] == ["numpy", "ma"]')
    assert probe != PROBE
    code, loaded = json.loads(_run(
        probe, "compute", "--L", "0.5", "--ns-table", drude_table, "--method", "lifshitz",
        "--format", "csv",
    ))
    assert code == 0
    assert loaded == []


def test_validate_loads_neither_scipy_nor_mpmath():
    code, loaded = _loaded_after("validate")
    assert code == 0
    assert loaded == []


# with "block" as its first argument, makes scipy and mpmath unimportable
# before casdisp is imported, as on an install without the test extra; then
# runs the CLI on each argument list of the JSON second argument and prints
# every exit code and stdout, and what the QUADPACK oracle raises
BLOCKABLE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = sys.modules["mpmath"] = None
import casdisp
from casdisp.cli import main
from casdisp.lifshitz import inner_integral_quadrature
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
try:
    oracle = ["value", inner_integral_quadrature(1.0, 1.0)]
except ImportError as exc:
    oracle = [type(exc).__name__, str(exc)]
print(json.dumps([runs, oracle]))
"""


def test_every_command_runs_without_scipy_and_mpmath(drude_table):
    point = ["--L", "1", "--n0", "1.5", "--n1", "1e-3", "--format", "csv"]
    commands = [
        ["compute", *point, "--method", "analytic"],
        ["compute", *point, "--method", "lifshitz", "--mode", "split"],
        ["compute", *point, "--method", "lifshitz", "--mode", "full"],
        ["compute", "--L", "0.5", "--ns-table", drude_table, "--method", "lifshitz",
         "--format", "csv"],
        ["sweep", "--variable", "L", "--min", "0.5", "--max", "20", "--points", "12",
         "--n0", "1.5", "--n1", "1e-2", "--method", "both", "--mode", "split",
         "--format", "csv"],
        ["validate"],
    ]
    blocked, oracle = json.loads(_run(BLOCKABLE, "block", json.dumps(commands)))
    assert [code for code, _ in blocked] == [0] * len(commands)
    assert oracle == [
        "ImportError", "inner_integral_quadrature needs scipy: pip install 'casdisp[test]'"
    ]
    # where either library is missing, the "allow" run is blocked too and
    # would compare the blocked runs with themselves
    missing = [name for name in ("scipy", "mpmath") if importlib.util.find_spec(name) is None]
    if missing:
        pytest.skip(f"no run with scipy and mpmath to compare: {' and '.join(missing)} missing")
    unblocked, _ = json.loads(_run(BLOCKABLE, "allow", json.dumps(commands)))
    assert blocked == unblocked


# makes scipy and mpmath unimportable, puts the tests' directory (the first
# argument) on the path, imports each test module named after it, and prints
# each one that does not import, with what it raised: a module-level oracle
# import, or a module-level skip, would take its numpy-only tests with it
IMPORT_TESTS = """
import importlib, json, sys
sys.modules["scipy"] = sys.modules["mpmath"] = None
import pytest
sys.path.insert(0, sys.argv[1])
failed = []
for name in sys.argv[2:]:
    try:
        importlib.import_module(name)
    except (Exception, pytest.skip.Exception) as exc:
        failed.append(f"{name}: {exc!r}")
print(json.dumps(failed))
"""


def test_every_test_module_imports_without_scipy_and_mpmath():
    tests = Path(__file__).resolve().parent
    names = sorted(path.stem for path in tests.glob("test_*.py"))
    assert json.loads(_run(IMPORT_TESTS, str(tests), *names)) == []


def test_quadpack_oracle_imports_scipy_on_first_call():
    pytest.importorskip("scipy.integrate")
    out = _run(
        "import sys\n"
        "from casdisp.lifshitz import inner_integral, inner_integral_quadrature\n"
        "before = 'scipy' in sys.modules\n"
        "gap = abs(inner_integral_quadrature(1.0, 1.0) - inner_integral(1.0, 1.0))\n"
        "print(before, 'scipy.integrate' in sys.modules, gap)\n"
    )
    before, after, gap = out.split()
    assert (before, after) == ("False", "True")
    assert float(gap) < 1e-12


def test_package_exports_each_modules_names():
    # the package's names are its library modules' __all__ lists, in order,
    # each bound to the module's own object
    modules = [
        importlib.import_module(f"casdisp.{name}")
        for name in ("closed_form", "crosscheck", "dispersion", "lifshitz", "special", "units")
    ]
    names = [name for module in modules for name in module.__all__]
    assert casdisp.__all__ == names + ["__version__"]
    assert len(set(casdisp.__all__)) == len(casdisp.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(casdisp, name) is getattr(module, name), name
