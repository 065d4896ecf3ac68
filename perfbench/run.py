"""casdisp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-split --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src``.  Every run checks every output with the benchmark's own
oracle (``oracle.py``).  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, measured with no
tracing installed; with ``--trace 1`` they are its per-layer metrics.  The
lines before it repeat the figures for people, with the sample counts and
the failure split.  See README.md for what each workload and metric means.

A run starts at most one child process at a time and waits for it.
Scratch files go to ``.perfbench-work/`` in the checkout; the spans of a
traced run are left there as ``spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
# a run may take this many times --seconds, plus a fixed allowance for the
# set-up processes and, in traced runs, the import timings
RUN_LIMIT_FACTOR = 2.0
RUN_LIMIT_FIXED_S = 120.0
SETUP_WORKERS = 4  # set-up-only workers before the measuring one
IMPORT_REPEATS = 3
IMPORT_DEPS = ("numpy", "scipy.interpolate", "scipy.integrate", "mpmath",
               "scipy.constants", "casdisp")
IMPORT_MARK = "perfbench-import-start"


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0.0:
            raise TimeoutError("run exceeded its time limit")
        return left


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(argv, deadline, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=deadline.left(), **kwargs)


def tail(samples):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    xs = sorted(samples)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


# ------------------------------------------------------------------- worker

def _worker(args, deadline, work, setup_only):
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    if setup_only:
        argv.append("--setup-only")
    t0 = perf_counter()
    proc = _run(argv + ["--t0", repr(t0)], deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_worker(args, deadline, work):
    setup = []
    if not args.trace:
        for _ in range(SETUP_WORKERS):
            setup.append(_worker(args, deadline, work, True)["setup_s"])
    result = _worker(args, deadline, work, False)
    setup.append(result["setup_s"])
    result["setup_s"] = statistics.median(setup)
    return result


# ------------------------------------------------------------------ metrics

def end_to_end(raw):
    """Gated metrics from each slot's fastest call; the raw latencies go to the notes."""
    best = raw["best_ms"]
    metrics = {
        "setup_s": raw["setup_s"],
        "call_p50_ms": statistics.median(best),
        "rows_per_s": sum(raw["slot_rows"]) / (sum(best) / 1e3),
        "peak_rss_mb": raw["rss_mb"],
    }
    latencies = raw["latencies_ms"]
    tail_ms, tail_pct = tail(latencies)
    notes = [f"{raw['passes']} passes over {len(best)} slots; call_p50_ms is the median "
             f"of the slots' fastest calls",
             f"call_tail_ms = {tail_ms!r} ms, p{tail_pct:.0f} of all n={len(latencies)} calls, "
             f"not gated: it follows the machine's slow spells"]
    for kind in dict.fromkeys(raw["slot_kinds"]):
        fastest = [ms for ms, k in zip(best, raw["slot_kinds"]) if k == kind]
        samples = [ms for ms, k in zip(latencies, raw["kinds"]) if k == kind]
        notes.append(f"{kind} calls: median of the slots' fastest {statistics.median(fastest):.1f} ms "
                     f"(n={len(fastest)}), median of all calls {statistics.median(samples):.1f} ms "
                     f"(n={len(samples)})")
    return metrics, notes


def _importtime(module, deadline):
    code = f"import sys; sys.stderr.write({IMPORT_MARK!r} + '\\n'); import {module}"
    proc = _run([sys.executable, "-X", "importtime", "-c", code], deadline, check=True)
    entries = []
    for line in proc.stderr.partition(IMPORT_MARK + "\n")[2].splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(parts[1]) / 1e3))
    return entries


def import_metrics(deadline):
    """`-X importtime` cumulative ms: inside `import casdisp`, and each dependency alone."""
    inside = {dep: [] for dep in IMPORT_DEPS}
    alone = {dep: [] for dep in IMPORT_DEPS}
    for _ in range(IMPORT_REPEATS):
        entries = _importtime("casdisp", deadline)
        for dep in IMPORT_DEPS:
            inside[dep].append(next((ms for _, name, ms in entries if name == dep), 0.0))
        for dep in IMPORT_DEPS:
            alone[dep].append(sum(ms for depth, _, ms in _importtime(dep, deadline) if depth == 0))
    metrics = {}
    for dep in IMPORT_DEPS:
        metrics[f"import.{dep}_ms"] = statistics.median(inside[dep])
        metrics[f"import_alone.{dep}_ms"] = statistics.median(alone[dep])
    return metrics


def size_metrics(modules):
    """Lines of every module of the package; a module in ``modules`` that is gone reads 0."""
    lines = {path.stem: len(path.read_text().splitlines())
             for path in (ROOT / "src" / "casdisp").glob("*.py")}
    metrics = {f"src_lines.{name}": lines.get(name, 0) for name in modules}
    metrics["src_lines"] = sum(lines.values())
    return metrics


def per_layer(raw, deadline, wanted):
    """Per-layer figures, per traced pass over the run's first operations.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; times are means over all traced passes.
    """
    snapshots = raw["snapshots"]
    first, every = snapshots[0], tracer.merge(snapshots)
    npass = len(snapshots)
    info = raw["passes"][0]
    checks = info["rows_by_kind"].get("battery", [0, 0])
    metrics = {}
    for name in tracer.TRACED_NAMES:
        metrics[f"{name}.calls"] = first["stats"][name][0]
        metrics[f"{name}.ms"] = every["stats"][name][1] * 1e3 / npass
        metrics[f"{name}.self_ms"] = every["stats"][name][2] * 1e3 / npass
    force_calls = first["stats"]["lifshitz.force_lifshitz"][0]
    in_force = sum(count for name, parent, count in first["parents"]
                   if name == "lifshitz.total_energy_lifshitz"
                   and parent == "lifshitz.force_lifshitz")
    metrics.update({f"oracle.defect_ops.{key}": count for key, count in info["defects"].items()})
    metrics.update({
        "lifshitz.evals_per_row": first["evals"] / info["rows"] if info["rows"] else 0.0,
        "lifshitz.energies_per_force": in_force / force_calls if force_calls else 0.0,
        "lifshitz.max_rel_error_estimate": every["max_rel_error_estimate"],
        "crosscheck.checks_passed_ratio": 1.0 - checks[1] / checks[0] if checks[0] else 0.0,
        "cli.bytes_out": info["bytes_out"],
        "cli.stderr_lines": info["stderr_lines"],
        "trace.overhead_frac": statistics.median(raw["traced_pass_s"])
            / statistics.median(raw["untraced_pass_s"]) - 1.0,
    })
    metrics.update(import_metrics(deadline))
    metrics.update(size_metrics([name.split(".", 1)[1] for name in wanted
                                 if name.startswith("src_lines.")]))
    notes = [f"{npass} traced and {len(raw['untraced_pass_s'])} untraced passes of "
             f"{info['attempted']} operations"]
    notes += [f"not traced, removed from the package: {target} ({tracer.REMOVED[target]})"
              for target in every["missing"]]
    return metrics, notes


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "casdisp" / "__init__.py").is_file():
        print(f"perfbench: no casdisp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    deadline = Deadline(RUN_LIMIT_FACTOR * args.seconds + RUN_LIMIT_FIXED_S)
    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        raw = run_worker(args, deadline, work)
        if args.trace:
            lost = tracer.unexpected_missing(tracer.merge(raw["snapshots"]))
            if lost:
                print(f"perfbench: patch targets not found, so their layers would read 0: "
                      f"{', '.join(lost)}; list a target dropped on purpose in "
                      f"tracer.REMOVED", file=sys.stderr)
                return 1
            metrics, notes = per_layer(raw, deadline, wanted)
        else:
            metrics, notes = end_to_end(raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = set(wanted) - set(metrics)
    if missing:
        print(f"perfbench: no value for {sorted(missing)}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    known = ", ".join(f"{n} {name}" for name, n in raw["defects"].items() if n) or "none"
    print(f"  attempted={raw['attempted']} failed={raw['failed']} "
          f"fail_frac={raw['failed'] / raw['attempted']!r} "
          f"rows={raw['rows']} bad_rows={raw['bad_rows']}")
    print(f"  operations showing a known defect (not failed): {known}")
    for key in ("first_failure", "first_defect"):
        if raw[key]:
            print(f"  {key}: {raw[key]}")
    for note in notes:
        print(f"  {note}")
    for name, unit in wanted.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
