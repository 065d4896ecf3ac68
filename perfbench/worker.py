"""The worker process of a workload.

    python perfbench/worker.py --workload sweep-split --seed 1 --seconds 55 \
        --trace 0 --work <dir> --t0 <perf_counter of the parent at spawn>

Imports casdisp from the checkout's ``src``, writes the seeded inputs,
warms up, then runs the closed loop (one client, one operation at a time)
and prints one JSON line with raw results for ``run.py`` to reduce.  With
``--setup-only`` it stops at the first timed call and reports set-up time
alone.  ``perf_counter`` is the system-wide monotonic clock on Linux, so
the parent's spawn time and this process's clock compare directly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import loops  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class Runner:
    """Runs operations and checks each one with the oracle."""

    def __init__(self, cli, crosscheck):
        self.cli = cli
        self.crosscheck = crosscheck
        self.tracer = None

    def run(self, op, call_id):
        """Return (latency in s, verdict, bytes written, stderr lines)."""
        if op.kind == "battery":
            return self._battery(op, call_id)
        stdout, stderr = io.StringIO(), io.StringIO()
        out_path = Path(op.argv[op.argv.index("--out") + 1])
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if self.tracer:
                self.tracer.begin(call_id)
            t0 = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed operation
                code = f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            if self.tracer:
                self.tracer.end()
        err_text = stderr.getvalue()
        verdict = oracle.OpResult()
        if code != 0:
            roundoff = op.kind == "table" and code == 3 and "roundoff" in err_text
            return latency, verdict.fail(f"exit {code}: {err_text.strip()[:200]}",
                                         "tabulated-roundoff" if roundoff else None), 0, 0
        text = out_path.read_text()
        verdict = oracle.check_sweep_csv(text, op.check)
        if stdout.getvalue():
            verdict.fail("stdout not empty with --out")
        if verdict.rows:
            oracle.check_stderr(err_text, oracle.flagged_rows(text), verdict)
        return latency, verdict, len(text) + len(stdout.getvalue()), len(err_text.splitlines())

    def _battery(self, op, call_id):
        if self.tracer:
            self.tracer.begin(call_id)
        t0 = perf_counter()
        try:
            checks = self.crosscheck.run_validation_checks(tol=op.check["tol"])
        except Exception as exc:  # reported as a failed operation
            checks = exc
        latency = perf_counter() - t0
        if self.tracer:
            self.tracer.end()
        if isinstance(checks, Exception):
            return latency, oracle.OpResult().fail(f"{type(checks).__name__}: {checks}"), 0, 0
        return latency, oracle.check_battery(checks), 0, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import casdisp
    from casdisp import cli, crosscheck

    if not Path(casdisp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"casdisp imported from {casdisp.__file__}, not this checkout")

    out = args.work / "out.csv"
    tables = None
    if args.workload == "full-route":
        tables = workloads.write_tables(args.seed, args.work)
    runner = Runner(cli, crosscheck)
    # one warm-up call of each kind, drawn from another seed, is checked and
    # counted in attempted and failed like the timed ones
    tally = oracle.Tally()
    warm = {}
    for slot in workloads.workload_slots(args.workload, -1 - args.seed, out, tables):
        warm.setdefault(slot(0).kind, slot)
    for slot in warm.values():
        op = slot(0)
        tally.add(runner.run(op, -1)[1], kind=op.kind)

    t_first = perf_counter()
    result = {"setup_s": t_first - args.t0}
    if not args.setup_only:
        slots = workloads.workload_slots(args.workload, args.seed, out, tables)
        if args.trace:
            trace = Tracer()
            pass_no = itertools.count(1)
            spans_path = args.work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(spans_path, "w") as spans:

                def begin():
                    trace.reset()
                    trace.install()
                    runner.tracer = trace

                def finish():
                    trace.uninstall()
                    runner.tracer = None
                    trace.dump_spans(spans, f"{args.workload} seed {args.seed} "
                                            f"pass {next(pass_no)}")
                    return trace.snapshot()

                result.update(loops.traced_passes(runner.run, slots, args.seconds, tally,
                                                  begin, finish))
        else:
            result.update(loops.timed(runner.run, slots, args.seconds, tally))
        result.update(vars(tally))
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
