"""Per-layer tracing by patching casdisp's public functions from outside.

Each entry of PATCHES replaces a function under the name its callers look
it up by (``casdisp.lifshitz.polylog_exp_neg`` is how ``inner_integral``
reaches the special-function layer), so nothing in the package changes.
``install`` puts the wrappers in place and ``uninstall`` restores the
originals; untraced runs never install them.

Every wrapped call adds to its function's call count, total time and self
time (total minus the time its wrapped callees took).  Calls of the layer
functions above the leaves are also kept as spans: name, start, end,
parent span and the id of the operation that caused them.  Leaves such as
``polylog_exp_neg`` run millions of times per run, so they are counted and
timed but not kept one by one.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute path, traced name, keep spans)
PATCHES = (
    ("casdisp.lifshitz", "polylog_exp_neg", "special.polylog_exp_neg", False),
    ("casdisp.lifshitz", "log_one_minus_exp", "special.log_one_minus_exp", False),
    ("casdisp.crosscheck", "cutoff_zeta_demo", "special.cutoff_zeta_demo", True),
    ("casdisp.lifshitz", "inner_integral", "lifshitz.inner_integral", False),
    ("casdisp.lifshitz", "e0_lifshitz", "lifshitz.e0_lifshitz", True),
    ("casdisp.lifshitz", "delta_e_lifshitz_first_order",
     "lifshitz.delta_e_lifshitz_first_order", True),
    ("casdisp.lifshitz", "delta_e_lifshitz_full", "lifshitz.delta_e_lifshitz_full", True),
    ("casdisp.crosscheck", "delta_e_lifshitz_full", "lifshitz.delta_e_lifshitz_full", True),
    ("casdisp.lifshitz", "total_energy_lifshitz", "lifshitz.total_energy_lifshitz", True),
    ("casdisp.cli", "total_energy_lifshitz", "lifshitz.total_energy_lifshitz", True),
    ("casdisp.crosscheck", "total_energy_lifshitz", "lifshitz.total_energy_lifshitz", True),
    ("casdisp.cli", "force_lifshitz", "lifshitz.force_lifshitz", True),
    ("casdisp.lifshitz", "kappa_lower", "dispersion.kappa_lower", False),
    ("casdisp.dispersion", "Tabulated.index_at", "dispersion.Tabulated.index_at", False),
    ("casdisp.cli", "load_index_table", "dispersion.load_index_table", True),
    ("casdisp.cli", "total_energy_analytic", "closed_form.total_energy_analytic", True),
    ("casdisp.crosscheck", "total_energy_analytic", "closed_form.total_energy_analytic", True),
    ("casdisp.cli", "force_analytic", "closed_form.force_analytic", True),
    ("casdisp.cli", "convert_units", "units.convert_units", False),
    ("casdisp.cli", "run_validation_checks", "crosscheck.run_validation_checks", True),
    ("casdisp.crosscheck", "run_validation_checks", "crosscheck.run_validation_checks", True),
    ("casdisp.crosscheck", "compare_methods", "crosscheck.compare_methods", True),
    ("casdisp.crosscheck", "first_order_slope", "crosscheck.first_order_slope", True),
    ("casdisp.cli", "main", "cli.main", True),
)
TRACED_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in PATCHES))

# QUADPACK entry point as lifshitz imports it; wrapped only to read the
# number of integrand evaluations from the infodict it already returns.
QUADPACK = ("casdisp.lifshitz", "_quadpack")

# Patch targets ("module:attribute path") the package has dropped on
# purpose, each with the reason.  Their metrics read 0.  Any other target
# that cannot be found makes a traced run fail, so a renamed or moved
# function never shows as a layer that costs nothing.
REMOVED: dict[str, str] = {}


class Tracer:
    """Spans and per-function totals, kept in memory until the run ends."""

    def __init__(self):
        self._saved = []
        self.missing = []  # targets of the last install that were not found
        # name -> [calls, total seconds, self seconds]; the wrappers hold on
        # to these lists and to the stack, so reset clears them in place
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}
        self._stack = []
        self.reset()

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self._stack.clear()
        self.parents = defaultdict(int)  # (name, parent name) -> calls
        self.spans = []
        self.evals = 0
        self.max_rel_error_estimate = 0.0
        self.call_id = None
        self._next_span = 0

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module, path, name, keep in PATCHES:
            self._patch(module, path, lambda fn: self._wrap(name, fn, keep))
        self._patch(*QUADPACK, self._wrap_quadpack)

    def _patch(self, module: str, path: str, wrap) -> None:
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            owner = None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}:{path}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn, keep):
        stats = self.stats[name]
        stack = self._stack
        observe = name == "lifshitz.total_energy_lifshitz"

        if not keep:
            def leaf(*args, **kwargs):
                frame = [0.0, name, None]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
            return leaf

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_span
            self._next_span += 1
            frame = [0.0, name, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                self.parents[(name, parent[1] if parent else None)] += 1
                self.spans.append((span_id, parent[2] if parent else None, self.call_id,
                                   name, t0, t1))
            if observe and result.total:
                self.max_rel_error_estimate = max(
                    self.max_rel_error_estimate, result.error_estimate / abs(result.total))
            return result
        return spanned

    def _wrap_quadpack(self, fn):
        def quadpack(*args, **kwargs):
            result = fn(*args, **kwargs)
            if kwargs.get("full_output") and len(result) > 2:
                self.evals += result[2]["neval"]
            return result
        return quadpack

    # -- operations -------------------------------------------------------
    def begin(self, call_id) -> None:
        """Open the root span of one operation; its id tags every span below."""
        self.call_id = call_id
        self._stack.append([0.0, "op", None])

    def end(self) -> None:
        self._stack.pop()
        self.call_id = None

    # -- output -----------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "parents": [[k[0], k[1], v] for k, v in self.parents.items()],
            "evals": self.evals,
            "max_rel_error_estimate": self.max_rel_error_estimate,
            "missing": list(self.missing),
        }

    def dump_spans(self, handle, label: str) -> None:
        for span_id, parent, call_id, name, t0, t1 in self.spans:
            handle.write(json.dumps({"run": label, "span": span_id, "parent": parent,
                                     "call": call_id, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots of several traced passes or processes."""
    stats = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}
    parents = defaultdict(int)
    for snap in snapshots:
        for name, values in snap["stats"].items():
            stats[name] = [a + b for a, b in zip(stats[name], values)]
        for name, parent, count in snap["parents"]:
            parents[(name, parent)] += count
    return {
        "stats": stats,
        "parents": [[k[0], k[1], v] for k, v in parents.items()],
        "evals": sum(snap["evals"] for snap in snapshots),
        "max_rel_error_estimate": max(
            (snap["max_rel_error_estimate"] for snap in snapshots), default=0.0),
        "missing": sorted({target for snap in snapshots for target in snap["missing"]}),
    }


def unexpected_missing(snapshot: dict) -> list[str]:
    """Patch targets that were not found and are not listed in REMOVED."""
    return [target for target in snapshot["missing"] if target not in REMOVED]
