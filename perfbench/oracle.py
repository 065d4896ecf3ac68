"""The benchmark's own correctness oracle.

The closed forms are written out here, not imported from the package, so
the check stays independent of the code it checks.  Natural units
(hbar = c = 1); SI values go through this file's own hbar*c.

Every output row passes, fails with a reason, or shows one of the
KNOWN_DEFECTS below.  A defect is recorded at the commit that added the
benchmark and bounded by what was seen there: its rows are counted by name
and reported, but the operation does not fail.  A miss outside those
bounds fails like any other, and a run is ``correct`` only when no
operation failed.
"""

from __future__ import annotations

import csv
import io
import math

HBAR_C_JOULE_METER = 3.161526773e-26
# the constant above has ten significant figures
SI_CONSTANT_SLACK = 1e-9

CSV_COLUMNS = ("e0", "delta_e", "e_surface", "total", "force", "method",
               "error_estimate", "validity_flag")

ANALYTIC_REL = 1e-12
SPLIT_REL = 1e-7      # default tolerance of `validate`
FORCE_REL = 1e-6      # acceptance criterion 5
FULL_R2_FACTOR = 16.0  # full-vs-first-order gap measured at 7.9*r^2
CONSTANT_TABLE_REL = 1e-8
# QuadratureSpec defaults of the package: below this |E| the absolute
# tolerance 1e-14 on the raw integral (2*pi^2*E) is looser than the
# relative one, 1e-10
DEFAULT_TAIL_CUT = 1e-16
ABS_TOL_GOVERNS_BELOW = 1e-14 / (1e-10 * 2.0 * math.pi**2)

# Bounds of the large-L split defect, from a scan of 30 seeds of sweep-split
# (about 7800 commands) at the commit that added the benchmark; README.md
# gives the figures.  Where the absolute tolerance governs, QUADPACK stops
# after one pass, and:
# - the first-order term dE comes out 3.9e-7 to 4.0e-7 relative off, so the
#   energy misses by that share of |dE|; a miss above 1e-6*|dE| is not this
#   defect
SPLIT_DELTA_ONE_PASS_REL = 1e-6
# - the force jumps where the central difference straddles an energy at which
#   QUADPACK changes its subdivision; the largest jump seen was 4.72e-5 of
#   |F|, at n0*L^3 = 4.45e11
SPLIT_FORCE_JUMP_REL = 2e-4
# - all misses were seen at |E| <= 2.2e-8 (L >= 79 for the drawn n0)
SPLIT_DEFECT_MAX_ABS_E = 1e-7

# Bound of the full-kappa_1 defect: over the Cauchy sweeps of seeds 1-40
# (480 sweeps, 3840 rows) the 320 missing rows lay at L/(2*pi*sqrt(n1))
# 1.13-2.77 and came out 1.58-13.2 times the closed form; a ratio outside
# (1, 40] is not this defect
FULL_DEFECT_MAX_RATIO = 40.0

KNOWN_DEFECTS = {
    "large-L-split":
        "split-mode energy within its error estimate but off the closed form by "
        "more than 1e-7 relative and at most 1e-6 of the first-order term, or "
        "force off by more than 1e-6 and at most 2e-4, at |E| <= 1e-7 where the "
        "quadrature's absolute tolerance governs (ROADMAP open item 2)",
    "full-kappa1-window":
        "full-mode Cauchy energy inside the trust region off the closed form, where "
        "the outer window xi <= ln(1/tail_cut)/(2*n0*L) reaches past the peak of "
        "kappa_1 at sqrt(n0/(3*n1)), by a factor in (1, 40] (ROADMAP open item 4a)",
    "tabulated-roundoff":
        "tabulated sweep exits 3: QUADPACK reports roundoff on the interpolated "
        "integrand for some smooth monotone tables",
}


def energy_parts(L: float, n0: float, n1: float) -> tuple[float, float]:
    """E0 = -pi^2/(720*n0*L^3) and dE = -n1*pi^4/(2520*n0^4*L^5)."""
    return -math.pi**2 / (720.0 * n0 * L**3), -n1 * math.pi**4 / (2520.0 * n0**4 * L**5)


def energy(L: float, n0: float, n1: float = 0.0) -> float:
    return sum(energy_parts(L, n0, n1))


def force(L: float, n0: float, n1: float = 0.0) -> float:
    """-dE/dL of ``energy``."""
    return -math.pi**2 / (240.0 * n0 * L**4) - n1 * math.pi**4 / (504.0 * n0**4 * L**6)


def beyond_trust(L: float, n1: float) -> bool:
    """The paper's rule: the quadratic model is trusted for L > 2*pi*sqrt(n1)."""
    return n1 > 0.0 and L <= 2.0 * math.pi * math.sqrt(n1)


def full_window_past_peak(L: float, n0: float, n1: float) -> bool:
    if n1 <= 0.0:
        return False
    xi_max = math.log(1.0 / DEFAULT_TAIL_CUT) / (2.0 * n0 * L)
    return xi_max > math.sqrt(n0 / (3.0 * n1))


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


class RowResult:
    __slots__ = ("reason", "defect")

    def __init__(self, reason=None, defect=None):
        self.reason = reason
        self.defect = defect  # a KNOWN_DEFECTS key, or None


def check_row(row: dict, L: float, n0: float, n1: float, mode: str, si, table=None) -> RowResult:
    """Check one output record (natural-unit parameters, values maybe in SI)."""
    method = row["method"]
    e_scale = f_scale = 1.0
    slack = 0.0
    if si is not None:
        e_scale = HBAR_C_JOULE_METER / si**3
        f_scale = HBAR_C_JOULE_METER / si**4
        slack = SI_CONSTANT_SLACK
    total = row["total"] / e_scale
    err = row["error_estimate"] / e_scale
    frc = row["force"] / f_scale
    flag = bool(row["validity_flag"])
    if not all(math.isfinite(v) for v in (total, err, frc)):
        return RowResult("non-finite value")
    if row["e_surface"] != 0.0:
        return RowResult("surface term without --cs")

    if table is not None:
        if method != "lifshitz" or flag or row["delta_e"] != 0.0 or row["e0"] != row["total"]:
            return RowResult("tabulated row layout")
        lo, hi = energy(L, table["n_min"]), energy(L, table["n_max"])
        f_lo, f_hi = force(L, table["n_min"]), force(L, table["n_max"])
        if table["constant"]:
            if not _close(total, lo, CONSTANT_TABLE_REL):
                return RowResult("constant table energy")
            if not _close(frc, f_lo, FORCE_REL):
                return RowResult("constant table force")
            return RowResult()
        e_slack = err + 1e-12 * abs(lo)
        if not lo - e_slack <= total <= hi + e_slack:
            return RowResult("tabulated energy outside the constant-index bracket")
        f_slack = FORCE_REL * abs(f_lo)
        if not f_lo - f_slack <= frc <= f_hi + f_slack:
            return RowResult("tabulated force outside the constant-index bracket")
        return RowResult()

    ref = energy(L, n0, n1)
    ref_force = force(L, n0, n1)
    outside = beyond_trust(L, n1)
    if method == "analytic":
        e0_ref, de_ref = energy_parts(L, n0, n1)
        rel = ANALYTIC_REL + slack
        ok = (_close(row["e0"] / e_scale, e0_ref, rel)
              and _close(row["delta_e"] / e_scale, de_ref, rel)
              and _close(total, ref, rel) and _close(frc, ref_force, rel)
              and err == 0.0)
        if not ok:
            return RowResult("analytic value differs from the closed form")
        if flag != outside:
            return RowResult("analytic validity flag differs from L <= 2*pi*sqrt(n1)")
        return RowResult()
    if method != "lifshitz":
        return RowResult(f"unknown method {method!r}")

    diff = abs(total - ref)
    if mode == "split":
        if flag != outside:
            return RowResult("validity flag differs from L <= 2*pi*sqrt(n1)")
        if diff > err + slack * abs(ref):
            return RowResult("split energy misses the closed form by more than its estimate")
        large_L = abs(ref) <= min(ABS_TOL_GOVERNS_BELOW, SPLIT_DEFECT_MAX_ABS_E)
        if not _close(frc, ref_force, FORCE_REL + slack):
            known = large_L and _close(frc, ref_force, SPLIT_FORCE_JUMP_REL + slack)
            return RowResult("split force misses the closed form by more than 1e-6",
                             "large-L-split" if known else None)
        if diff > (SPLIT_REL + slack) * abs(ref):
            delta_ref = energy_parts(L, n0, n1)[1]
            known = large_L and diff <= SPLIT_DELTA_ONE_PASS_REL * abs(delta_ref) \
                + slack * abs(ref)
            return RowResult("split energy misses the closed form by more than 1e-7",
                             "large-L-split" if known else None)
        return RowResult()

    if outside:
        if not flag:
            return RowResult("row beyond the trust region is not flagged")
        return RowResult()
    r = 2.0 * math.pi**2 * n1 / (7.0 * n0**3 * L * L)
    if diff > err + FULL_R2_FACTOR * r * r * abs(ref):
        known = full_window_past_peak(L, n0, n1) and 1.0 < total / ref <= FULL_DEFECT_MAX_RATIO
        return RowResult("full-kappa_1 energy misses the closed form",
                         "full-kappa1-window" if known else None)
    return RowResult()


class OpResult:
    """Verdict on one operation: rows checked, the first failure, known defects seen."""

    __slots__ = ("rows", "bad_rows", "reason", "defects", "defect_reason")

    def __init__(self):
        self.rows = 0
        self.bad_rows = 0        # rows that failed
        self.reason = None       # the first failure
        self.defects = set()     # KNOWN_DEFECTS keys shown by some row or the exit
        self.defect_reason = None

    def fail(self, reason: str, defect=None) -> "OpResult":
        """Record a miss; one that matches a known defect does not fail the operation."""
        if defect is not None:
            self.defects.add(defect)
            self.defect_reason = self.defect_reason or reason
        elif self.reason is None:
            self.reason = reason
        return self

    @property
    def failed(self) -> bool:
        return self.reason is not None


class Tally:
    """Outcome counts over the operations of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.rows = self.bad_rows = self.bytes_out = self.stderr_lines = 0
        self.defects = {key: 0 for key in KNOWN_DEFECTS}  # operations showing each
        self.rows_by_kind = {}  # kind of operation -> [rows, bad rows]
        self.first_failure = self.first_defect = None

    def add(self, verdict: OpResult, bytes_out: int = 0, stderr_lines: int = 0,
            kind: str = "") -> None:
        self.attempted += 1
        self.rows += verdict.rows
        self.bad_rows += verdict.bad_rows
        rows = self.rows_by_kind.setdefault(kind, [0, 0])
        rows[0] += verdict.rows
        rows[1] += verdict.bad_rows
        self.bytes_out += bytes_out
        self.stderr_lines += stderr_lines
        for defect in verdict.defects:
            self.defects[defect] += 1
        self.first_defect = self.first_defect or verdict.defect_reason
        if verdict.failed:
            self.failed += 1
            self.first_failure = self.first_failure or verdict.reason


def _row_from_csv(record: dict) -> dict:
    row = {k: float(record[k]) for k in ("e0", "delta_e", "e_surface", "total",
                                           "force", "error_estimate")}
    row["method"] = record["method"]
    if record["validity_flag"] not in ("0", "1"):
        raise ValueError(f"validity flag {record['validity_flag']!r}")
    row["validity_flag"] = record["validity_flag"] == "1"
    return row


def check_sweep_csv(text: str, check: dict) -> OpResult:
    """Check a `sweep --format csv` output against the command's inputs."""
    result = OpResult()
    variable = check["variable"]
    try:
        reader = csv.DictReader(io.StringIO(text))
        if tuple(reader.fieldnames or ()) != (variable, *CSV_COLUMNS):
            return result.fail(f"CSV header {reader.fieldnames}")
        rows = [(float(r[variable]), _row_from_csv(r)) for r in reader]
    except (ValueError, KeyError, TypeError) as exc:
        return result.fail(f"unparsable CSV: {exc}")
    methods = ("analytic", "lifshitz") if check["method"] == "both" else (check["method"],)
    if len(rows) != check["points"] * len(methods):
        return result.fail(f"{len(rows)} rows for {check['points']} points")
    grid = [value for value, _ in rows[:: len(methods)]]
    if not (_close(grid[0], check["min"], 1e-12) or grid[0] == check["min"]) \
            or not _close(grid[-1], check["max"], 1e-12) \
            or any(a >= b for a, b in zip(grid, grid[1:])):
        return result.fail("grid does not run from --min to --max")
    for i, (value, row) in enumerate(rows):
        if row["method"] != methods[i % len(methods)]:
            return result.fail("rows out of method order")
        if variable == "L":
            L, n1 = value, check.get("n1", 0.0)
        else:
            L, n1 = check["L"], value
        verdict = check_row(row, L, check.get("n0", 0.0), n1, check["mode"], check["si"],
                            check.get("table"))
        result.rows += 1
        if verdict.reason is not None:
            result.bad_rows += verdict.defect is None
            result.fail(f"{verdict.reason} at {variable}={value!r}", verdict.defect)
    return result


def check_stderr(stderr: str, flagged: bool, result: OpResult) -> OpResult:
    """Warnings go to stderr, and only when some row is flagged."""
    lines = [line for line in stderr.splitlines() if line.strip()]
    if any(not line.startswith("warning:") for line in lines):
        return result.fail("stderr holds more than warnings")
    if bool(lines) != flagged:
        return result.fail("a warning without a flagged row, or the reverse")
    return result


def flagged_rows(text: str) -> bool:
    return any(r["validity_flag"] == "1" for r in csv.DictReader(io.StringIO(text)))


# checks in one run of the validation battery
BATTERY_SIZE = 23
_LIMIT_WORDS = (" vs tol ", " vs limit ")


def check_battery(checks) -> OpResult:
    """Each check passes, and the number it reports sits inside its own limit."""
    result = OpResult()
    if len(checks) != BATTERY_SIZE:
        return result.fail(f"{len(checks)} checks, expected {BATTERY_SIZE}")
    for check in checks:
        result.rows += 1
        if not check.passed:
            result.bad_rows += 1
            result.fail(f"check failed: {check.name} ({check.detail})")
            continue
        for word in _LIMIT_WORDS:
            if word in check.detail:
                head, _, tail = check.detail.partition(word)
                if float(head.split()[-1]) > float(tail.split()[0]):
                    result.bad_rows += 1
                    result.fail(f"reported number above its limit: {check.detail}")
    return result
