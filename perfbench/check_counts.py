"""Self-check: two traced runs with the same seed give identical counts.

    python3 perfbench/check_counts.py [--seed 1] [workload ...]

Runs ``run.py --trace 1`` twice per workload (both by default) and
compares every machine-independent per-layer metric: the ``*.calls``
counts, ``lifshitz.evals_per_row``, ``lifshitz.energies_per_force``,
``cli.bytes_out``, ``cli.stderr_lines``, ``oracle.defect_ops.*`` and
``src_lines*``.  Exits 1 and
names the metric when any of them differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_SUFFIXES = (".calls", ".evals_per_row", ".energies_per_force",
                  ".bytes_out", ".stderr_lines")


def exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES) or name.startswith(("src_lines", "oracle.defect_ops."))


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=180)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if exact(name)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workload", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload:
        first, second = (traced_counts(workload, args.seed) for _ in range(2))
        differing = sorted(name for name in first if first[name] != second[name])
        for name in differing:
            print(f"{workload}: {name} differs: {first[name]!r} vs {second[name]!r}")
        print(f"{workload}: {len(first)} counts, {len(differing)} differ")
        status |= bool(differing)
    return status


if __name__ == "__main__":
    sys.exit(main())
