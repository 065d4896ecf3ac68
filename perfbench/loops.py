"""The closed loop every workload runs: one client, one call at a time.

``run_op(op, call_id)`` makes one call and returns its latency in seconds,
the oracle's verdict, the bytes it wrote and its stderr lines.  A slot is
a function of the pass number that returns the slot's ``Op`` for that pass.
"""

from __future__ import annotations

import math
from time import perf_counter

import oracle


def timed(run_op, slots, seconds, tally):
    """Run passes over the slots until ``seconds`` have passed and one pass is whole.

    Returns every call's latency in ms and kind, and per slot its fastest
    call in ms, its kind and the rows one of its calls produces.
    """
    best = [math.inf] * len(slots)
    rows, slot_kinds = [0] * len(slots), [None] * len(slots)
    latencies, kinds = [], []
    start = perf_counter()
    call_id = pass_no = 0
    while pass_no == 0 or perf_counter() - start < seconds:
        for i, slot in enumerate(slots):
            if pass_no and perf_counter() - start >= seconds:
                break
            op = slot(pass_no)
            latency, verdict, nbytes, nerr = run_op(op, call_id)
            call_id += 1
            tally.add(verdict, nbytes, nerr, op.kind)
            latencies.append(latency * 1e3)
            kinds.append(op.kind)
            best[i] = min(best[i], latency * 1e3)
            rows[i], slot_kinds[i] = verdict.rows, op.kind
        pass_no += 1
    return {"latencies_ms": latencies, "kinds": kinds, "best_ms": best,
            "slot_kinds": slot_kinds, "slot_rows": rows, "passes": pass_no}


def traced_passes(run_op, slots, seconds, tally, begin, finish):
    """Alternate untraced and traced passes over the slots' first calls.

    Runs at least one pass of each and stops once ``seconds`` have passed.
    ``begin()`` switches tracing on before each traced pass; ``finish()``
    switches it off after the pass and returns the pass's tracer snapshot.
    """
    pass_ops = [slot(0) for slot in slots]
    untraced_s, traced_s, snapshots, passes = [], [], [], []
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        for traced in (False, True):
            one = oracle.Tally()
            if traced:
                begin()
            t0 = perf_counter()
            try:
                for call_id, op in enumerate(pass_ops):
                    _, verdict, nbytes, nerr = run_op(op, call_id)
                    one.add(verdict, nbytes, nerr, op.kind)
                    tally.add(verdict, nbytes, nerr, op.kind)
            finally:
                elapsed = perf_counter() - t0
                snapshot = finish() if traced else None
            if traced:
                traced_s.append(elapsed)
                snapshots.append(snapshot)
                passes.append(vars(one))
            else:
                untraced_s.append(elapsed)
    return {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
            "snapshots": snapshots, "passes": passes}
