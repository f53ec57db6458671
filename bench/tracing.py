"""Spans around the public calls into each coplant layer.

The tracer patches module attributes from the outside for the length of one
command and puts them back afterwards; nothing in the program changes.  A
span records its name, start, end and the span that was open when it began.
A layer's self time is its spans' time minus the time of the spans nested in
them, so the self times of one command add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path

# Span names double as the self-time metrics they feed.
CLI = "cli.self_s"

_REPORTS = ("write_cost_breakdown_csv", "write_electricity_allocation_csv",
            "write_molecule_costs_csv", "write_hourly_balances_csv",
            "write_storage_cycles_csv", "write_fleet_results_csv",
            "write_cost_capacity_curve_csv", "write_sensitivity_csv",
            "write_network_csv", "write_network_paths_csv", "save_solution",
            "_write_rows", "heatmap_svg", "waterfall_svg", "curves_svg",
            "network_svg")
_COSTING = ("cost_breakdown", "molecule_costs", "storage_cycle_counts",
            "bundle_metrics", "solution_abatement_cost", "emission_reduction")

#: (module, attribute, span name).  Names bound by `from ... import` are
#: patched where they are looked up.
PATCHES = (
    [("coplant.configio", f, "configio.load_s") for f in ("parse_scenario", "parse_system")]
    + [("coplant.dispatch", "build_lp", "dispatch.build_lp_s"),
       ("coplant.dispatch", "extract_solution", "dispatch.extract_solution_s"),
       ("coplant.lp", "solve_lp", "lp.assembly_s"),
       ("coplant.lp", "linprog", "lp.highs_s"),
       ("coplant.mps", "export_lp", "mps.export_lp_s")]
    + [("coplant.costing", f, "costing.s") for f in _COSTING]
    + [("coplant.fleet", "solution_abatement_cost", "costing.s")]
    + [("coplant.reports", f, "reports.write_s") for f in _REPORTS]
    + [("coplant.fleet", f, "fleet.self_s")
       for f in ("load_plants", "run_fleet", "sensitivity_sweep")]
    + [("coplant.fleet", "load_profile", "fleet.load_profile_s"),
       ("coplant.cli", "load_raster", "sinknet.raster.load_raster_s"),
       ("coplant.cli", "build_candidates", "sinknet.routing.build_candidates_s"),
       ("coplant.cli", "select_network", "sinknet.network.select_network_s")]
)

SELF_TIMES = sorted({CLI} | {name for _, _, name in PATCHES})

#: Per-layer metrics, in report order: (name, unit).
METRICS = (
    [("cli.cpu_s", "s"), ("cli.wait_s", "s")]
    + [(name, "s") for name in SELF_TIMES]
    + [("lp.solve_lp_s", "s"), ("lp.highs_iterations", "count"),
       ("lp.solve_calls", "count"), ("lp.n_cols", "count"), ("lp.n_rows", "count"),
       ("lp.nnz", "count"), ("dispatch.build_lp_calls", "count"),
       ("mps.bytes", "bytes"), ("reports.bytes", "bytes"),
       ("fleet.run_fleet_calls", "count"), ("fleet.lp_solves_per_plant", "count"),
       ("sinknet.routing.paths", "count"),
       ("trace.command_s", "s"), ("trace.layers_s", "s"), ("trace.overhead_s", "s")]
)


def _count_linprog(counts: Counter, args, kwargs, res) -> None:
    counts["lp.highs_iterations"] += int(res.nit)
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    mats = [m for m in (a_ub, a_eq) if m is not None]
    counts["lp.n_cols"] = max(counts["lp.n_cols"], len(args[0]))
    counts["lp.n_rows"] = max(counts["lp.n_rows"], sum(m.shape[0] for m in mats))
    counts["lp.nnz"] = max(counts["lp.nnz"], sum(m.nnz for m in mats))


_COUNTERS = {
    "linprog": _count_linprog,
    "solve_lp": lambda counts, a, k, res: counts.update(["lp.solve_calls"]),
    "build_lp": lambda counts, a, k, res: counts.update(["dispatch.build_lp_calls"]),
    "export_lp": lambda counts, a, k, res: counts.update({"mps.bytes": len(res)}),
    "run_fleet": lambda counts, a, k, res: counts.update(["fleet.run_fleet_calls"]),
    "load_plants": lambda counts, a, k, res: counts.update({"fleet.plants": len(res)}),
    "build_candidates": lambda counts, a, k, res: counts.update(
        {"sinknet.routing.paths": len(res[0])}),
}


class Tracer:
    """Collects spans and counts for traced commands, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []        # [command, name, start, end, parent]
        self.per_command: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._command = 0

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self._command, name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self._counts, args, kwargs, result)
            return result

        return traced

    def run(self, main, argv: list[str]) -> int:
        """Run one command with every layer patched; record its metrics."""
        saved = []
        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, _COUNTERS.get(attr)))
        first = len(self.spans)
        self._counts = Counter()
        root = self._wrap(CLI, main, None)
        cpu = time.process_time()
        try:
            return root(argv)
        finally:
            cpu = time.process_time() - cpu
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self.per_command.append(self._summarise(self.spans[first:], first, cpu))
            self._command += 1

    def _summarise(self, spans: list[list], first: int, cpu: float) -> dict[str, float]:
        nested = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= first:
                nested[parent - first] += end - start
        out = dict.fromkeys(SELF_TIMES, 0.0)
        for (_, name, start, end, _), inner in zip(spans, nested):
            out[name] += end - start - inner
        counts = self._counts
        wall = spans[0][3] - spans[0][2]
        plants = counts["fleet.plants"]
        out.update({
            "cli.cpu_s": cpu,
            "cli.wait_s": wall - cpu,
            "lp.solve_lp_s": out["lp.assembly_s"] + out["lp.highs_s"],
            "trace.layers_s": sum(out[name] for name in SELF_TIMES),
            "fleet.lp_solves_per_plant": counts["lp.solve_calls"] / plants if plants else 0.0,
        })
        for name, _ in METRICS:
            if name not in out and not name.startswith("trace."):
                out[name] = float(counts[name])
        return out

    def medians(self) -> dict[str, float]:
        """Median over the traced commands of every per-command metric."""
        return {name: statistics.median(c[name] for c in self.per_command)
                for name in self.per_command[0]}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; spans of a command share its id."""
        with path.open("w") as fh:
            for command, name, start, end, parent in self.spans:
                fh.write(json.dumps({"command": command, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
