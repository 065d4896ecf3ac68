"""Scan the split sweeps for the large-L split defect and print its bounds.

    python3 perfbench/scan_split.py --seeds 1 31 --passes 2

Runs ``--passes`` passes over each seed's split-sweep slots in process
and compares every quadrature row with the oracle's closed forms.
It prints the range of L, n1 and |E| over the rows that miss 1e-7 in energy
or 1e-6 in force, the largest energy miss as a share of the first-order
term dE, and the largest relative force miss.  The bounds in ``oracle.py``
(SPLIT_DELTA_ONE_PASS_REL, SPLIT_FORCE_JUMP_REL, SPLIT_DEFECT_MAX_ABS_E)
were set from this scan over seeds 1-30 of an earlier, unstratified draw
of the sweeps (7800 commands); two passes over seeds 1-30 of the present
slots stay inside them.  One pass of one seed takes about 2 s.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def misses(seed: int, passes: int, out: Path):
    """Yield (L, n1, |E|, energy miss / |dE|, relative force miss) of each missing row."""
    from casdisp import cli

    slots = workloads.split_slots(seed, out)
    for op in (slot(k) for k in range(passes) for slot in slots):
        with contextlib.redirect_stderr(io.StringIO()):
            if cli.main(list(op.argv)) != 0:
                raise RuntimeError(f"command failed: {op.argv}")
        check = op.check
        e_scale = f_scale = 1.0
        if check["si"]:
            e_scale = oracle.HBAR_C_JOULE_METER / check["si"] ** 3
            f_scale = oracle.HBAR_C_JOULE_METER / check["si"] ** 4
        for record in csv.DictReader(io.StringIO(out.read_text())):
            if record["method"] != "lifshitz":
                continue
            value = float(record[check["variable"]])
            L, n1 = (value, check["n1"]) if check["variable"] == "L" else (check["L"], value)
            n0 = check["n0"]
            ref, delta = oracle.energy(L, n0, n1), oracle.energy_parts(L, n0, n1)[1]
            e_miss = abs(float(record["total"]) / e_scale - ref)
            f_miss = abs(float(record["force"]) / f_scale / oracle.force(L, n0, n1) - 1.0)
            if e_miss > oracle.SPLIT_REL * abs(ref) or f_miss > oracle.FORCE_REL:
                yield L, n1, abs(ref), e_miss / abs(delta) if delta else float("inf"), f_miss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 31),
                        help="seed range, end excluded")
    parser.add_argument("--passes", type=int, default=2, help="passes over the slots")
    args = parser.parse_args(argv)
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(*args.seeds):
            found += misses(seed, args.passes, Path(tmp) / "out.csv")
    print(f"{len(found)} rows miss 1e-7 in energy or 1e-6 in force")
    if found:
        for i, name in enumerate(("L", "n1", "|E|")):
            print(f"  {name} from {min(r[i] for r in found):.4g} to {max(r[i] for r in found):.4g}")
        print(f"  largest energy miss / |dE|: {max(r[3] for r in found):.4g}")
        print(f"  largest relative force miss: {max(r[4] for r in found):.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
