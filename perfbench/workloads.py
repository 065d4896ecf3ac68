"""Seeded inputs for the two workloads.

Everything here is plain Python: the same seed gives the same command
lines, table files and parameter draws.  The program under test only ever
sees the generated argument lists and CSV files.

A run draws a fixed list of slots from its seed and runs them in passes:
every pass makes one call per slot, in the same order.  The machine the
benchmark was written on slows down by up to a half for seconds to
minutes at a time, so a run reports each slot's fastest call over its
passes, and a slot needs calls spread over the whole run.  Passes after the first scale every
separation by 1 + JITTER*pass: each call does the same work, but no call
repeats the input of an earlier one, so a cache across calls gains nothing
that users with distinct inputs would not see.

Each slot has its own cell of a grid of parameter strata that every seed
shares, and the seed moves each value only within the middle of its cell
(the tables and their separations not at all), so the work of a pass
hardly depends on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

WORKLOADS = ("sweep-split", "full-route")

JITTER = 1e-7

# Separation bands of the split sweeps and their grid sizes; points at large L
# are about three times cheaper, so that band gets twice the points and
# every command of a round costs about the same
SPLIT_L_BANDS = ((0.5, 5.0, 24), (5.0, 300.0, 24), (300.0, 1e4, 48))
SPLIT_ROUNDS = 6  # four slots each: an L-sweep per band and one n1-sweep
# the full-kappa_1 slots alternate Cauchy and tabulated sweeps; a Cauchy
# sweep of this size costs about the median tabulated sweep
FULL_CAUCHY_POINTS = 8
TABLE_POINTS = 2
TABLE_L_BANDS = ((0.5, 1.5), (1.5, 4.0), (4.0, 10.0))
FULL_ROUNDS = 4  # six slots each: a Cauchy and a tabulated sweep per band
TABLE_SAMPLES = 200
TABLE_XI_MAX = 40.0
SI_LENGTH_UNIT = 1e-9
BATTERY_SLOTS = 2


@dataclass(frozen=True)
class Op:
    """One call: a CLI command (argv) or one validation battery.

    ``check`` carries what the oracle needs to know about the inputs.
    """

    kind: str
    argv: tuple[str, ...] = ()
    check: dict = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _boundary_n1(L_bound: float) -> float:
    # n1 whose trust boundary 2*pi*sqrt(n1) sits at L_bound
    return (L_bound / (2.0 * math.pi)) ** 2


def _num(x: float) -> str:
    return repr(float(x))


def _stratum(rng: random.Random, i: int, strata: int, spread: float) -> float:
    """A point of stratum i of [0, 1): its centre, moved by a seeded share of its width."""
    return (i + 0.5 + spread * (rng.random() - 0.5)) / strata


def _scale(pass_no: int) -> float:
    return 1.0 + JITTER * pass_no


# ------------------------------------------------------------ split sweeps

def _split_op(params, si, out, pass_no):
    s = _scale(pass_no)
    p = dict(params)
    if p["variable"] == "L":
        p["min"], p["max"] = p["min"] * s, p["max"] * s
        argv = ["sweep", "--variable", "L", "--min", _num(p["min"]), "--max", _num(p["max"]),
                "--points", str(p["points"]), "--scale", "log", "--n0", _num(p["n0"]),
                "--n1", _num(p["n1"])]
    else:
        p["L"] *= s
        argv = ["sweep", "--variable", "n1", "--min", "0", "--max", _num(p["max"]),
                "--points", str(p["points"]), "--L", _num(p["L"]), "--n0", _num(p["n0"])]
    argv += ["--method", "both", "--mode", "split", "--format", "csv", "--out", str(out)]
    if si:
        argv += ["--si", "--length-unit", _num(SI_LENGTH_UNIT)]
    p.update(mode="split", method="both", si=SI_LENGTH_UNIT if si else None)
    return Op("sweep", tuple(argv), p)


def _split_L_sweep(rng, round_no, band, points):
    lo_edge, hi_edge = band
    span = 10.0 ** (0.5 + 0.5 * _stratum(rng, (5 * round_no + 1) % SPLIT_ROUNDS,
                                         SPLIT_ROUNDS, 0.5))
    lo = lo_edge * (hi_edge / span / lo_edge) ** _stratum(rng, round_no, SPLIT_ROUNDS, 0.5)
    hi = lo * span
    n0 = 1.0 + 1.5 * _stratum(rng, 5 * round_no % SPLIT_ROUNDS, SPLIT_ROUNDS, 0.5)
    # half the sweeps cross the trust boundary, the rest lie above it
    if round_no % 2:
        L_bound = lo * span ** rng.random()
    else:
        L_bound = lo * rng.uniform(0.1, 0.9)
    return {"variable": "L", "min": lo, "max": hi, "points": points,
            "n0": n0, "n1": _boundary_n1(L_bound)}


def _split_n1_sweep(rng, round_no, band, points):
    lo_edge, hi_edge = band
    visits = SPLIT_ROUNDS // len(SPLIT_L_BANDS)
    L = lo_edge * (hi_edge / lo_edge) ** _stratum(rng, round_no // len(SPLIT_L_BANDS),
                                                 visits, 0.5)
    n0 = 1.0 + 1.5 * _stratum(rng, round_no, SPLIT_ROUNDS, 0.5)
    n1_max = _boundary_n1(L) * (1.5 + 2.5 * _stratum(rng, 5 * round_no % SPLIT_ROUNDS,
                                                    SPLIT_ROUNDS, 0.5))
    return {"variable": "n1", "min": 0.0, "max": n1_max, "points": points,
            "L": L, "n0": n0}


def split_slots(seed: int, out: Path) -> list:
    """Split-mode `sweep --method both` commands over separations in [0.5, 1e4].

    A round: one L-sweep per band of SPLIT_L_BANDS and one n1-sweep at a
    fixed L in the next band in turn; one command of each round, at a
    seeded position, emits SI values.  Round r takes stratum r of the
    sweeps' start (log scale within the band) and other strata of their
    span, n0 and n1 in a fixed pairing; the seed moves each value within
    the middle half of its stratum.  In odd rounds the trust boundary
    L = 2*pi*sqrt(n1) lies inside the L-sweeps, in even rounds below them;
    every n1-sweep crosses it.
    """
    rng = random.Random(f"split:{seed}")
    bands = len(SPLIT_L_BANDS)
    slots = []
    for round_no in range(SPLIT_ROUNDS):
        si_slot = rng.randrange(bands + 1)
        for slot in range(bands + 1):
            if slot < bands:
                lo, hi, points = SPLIT_L_BANDS[slot]
                params = _split_L_sweep(rng, round_no, (lo, hi), points)
            else:
                lo, hi, points = SPLIT_L_BANDS[round_no % bands]
                params = _split_n1_sweep(rng, round_no, (lo, hi), points)
            slots.append(partial(_split_op, params, slot == si_slot, out))
    return slots


# ------------------------------------------------------- full-kappa_1 sweeps

def _drude_index(xi: list[float], eps0: float, w0: float) -> list[float]:
    # n(i*xi) = sqrt(1 + (eps0 - 1)/(1 + (xi/w0)^2)): positive and falling
    # monotonically, as an index on the imaginary axis does
    return [math.sqrt(1.0 + (eps0 - 1.0) / (1.0 + (x / w0) ** 2)) for x in xi]


def write_tables(seed: int, directory: Path) -> list[dict]:
    """Write one table per tabulated slot; the first has a constant index.

    The others are Drude-like, with the resonance w0 and the static
    permittivity eps0 on a grid that is the same for every seed: the centre
    of stratum i of w0 (log scale in [0.5, 20]) meets the centre of stratum
    4i mod 11 of eps0 (in [1.7, 6]).  Only the constant index is seeded.  A
    table's cost, and whether QUADPACK reports roundoff on it, change
    sharply with its shape and separation, so drawing them would make the
    work of a run depend on its seed.
    """
    rng = random.Random(f"tables:{seed}")
    xi = [TABLE_XI_MAX * (k / (TABLE_SAMPLES - 1)) ** 2 for k in range(TABLE_SAMPLES)]
    strata = FULL_ROUNDS * len(TABLE_L_BANDS) - 1
    indices = [[rng.uniform(1.2, 2.5)] * TABLE_SAMPLES]
    for i in range(strata):
        w0 = 0.5 * 40.0 ** ((i + 0.5) / strata)
        eps0 = 1.7 + 4.3 * (4 * i % strata + 0.5) / strata
        indices.append(_drude_index(xi, eps0, w0))
    tables = []
    for i, n in enumerate(indices):
        path = directory / f"table{i}.csv"
        path.write_text("xi,n\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(xi, n)))
        tables.append({"path": str(path), "n_min": min(n), "n_max": max(n),
                       "constant": i == 0})
    return tables


def _cauchy_op(params, out, pass_no):
    s = _scale(pass_no)
    p = dict(params, min=params["min"] * s, max=params["max"] * s)
    argv = ("sweep", "--variable", "L", "--min", _num(p["min"]), "--max", _num(p["max"]),
            "--points", str(FULL_CAUCHY_POINTS), "--scale", "log",
            "--n0", _num(p["n0"]), "--n1", _num(p["n1"]), "--method", "both",
            "--mode", "full", "--format", "csv", "--out", str(out))
    return Op("cauchy", argv, p)


def _table_op(params, out, pass_no):
    s = _scale(pass_no)
    p = dict(params, min=params["min"] * s, max=params["max"] * s)
    argv = ("sweep", "--variable", "L", "--min", _num(p["min"]), "--max", _num(p["max"]),
            "--points", str(TABLE_POINTS), "--scale", "log",
            "--ns-table", p["table"]["path"], "--method", "lifshitz",
            "--format", "csv", "--out", str(out))
    return Op("table", argv, p)


def full_slots(seed: int, out: Path, tables: list[dict]) -> list:
    """Full-kappa_1 work: Cauchy L-sweeps and tabulated L-sweeps, alternating.

    Cauchy slot j takes stratum j of L/(2*pi*sqrt(n1)) at the start of its
    sweep (log scale, from 1.05 up to 64 at its end, all inside the paper's
    trust region), and strata 5j, 7j and 11j mod 12 of n1 (log scale in
    [1e-4, 1e-1]), of the span and of n0; the seed moves each value within
    the middle half of its stratum.  Tabulated slot j sweeps table j from
    10^-0.2 to 10^0.2 times the geometric centre of band j mod 3 of
    TABLE_L_BANDS, the same separations for every seed.
    """
    rng = random.Random(f"full:{seed}")
    strata = len(tables)
    slots = []
    for j, table in enumerate(tables):
        span = 10.0 ** (0.3 + 0.5 * _stratum(rng, 7 * j % strata, strata, 0.5))
        c_lo = 1.05 * (64.0 / span / 1.05) ** _stratum(rng, j, strata, 0.5)
        n1 = 1e-4 * 1e3 ** _stratum(rng, 5 * j % strata, strata, 0.5)
        n0 = 1.0 + _stratum(rng, 11 * j % strata, strata, 0.5)
        unit = 2.0 * math.pi * math.sqrt(n1)
        slots.append(partial(_cauchy_op, {
            "variable": "L", "min": c_lo * unit, "max": c_lo * span * unit,
            "points": FULL_CAUCHY_POINTS, "n0": n0, "n1": n1,
            "mode": "full", "method": "both", "si": None}, out))
        band_lo, band_hi = TABLE_L_BANDS[j % len(TABLE_L_BANDS)]
        lo = math.sqrt(band_lo * band_hi) * 10.0 ** -0.2
        slots.append(partial(_table_op, {
            "variable": "L", "min": lo, "max": lo * 10.0 ** 0.4, "points": TABLE_POINTS,
            "table": table, "mode": "full", "method": "lifshitz", "si": None}, out))
    return slots


# --------------------------------------------------------------- workloads

def _battery(pass_no):
    # the battery takes no input, so every pass makes the same call
    return Op("battery", (), {"tol": 1e-7})


def workload_slots(workload: str, seed: int, out: Path, tables) -> list:
    """The slots of a workload; ``tables`` comes from ``write_tables`` (full-route only).

    full-route adds the validation battery, at the default tolerance of
    `validate`, to its full-kappa_1 sweeps.
    """
    if workload == "sweep-split":
        return split_slots(seed, out)
    return full_slots(seed, out, tables) + [_battery] * BATTERY_SLOTS
