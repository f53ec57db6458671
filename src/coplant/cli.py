"""Command-line front end.

Subcommands: solve, sweep, fleet, netopt, report.  Exit codes: 0 success,
2 usage error (argparse), 5 file I/O error (any OSError), and otherwise the
`exit_code` of the CoplantError raised: 3 invalid input, 4 infeasible or
unbounded model, 6 solver failure (HiGHS ended with a status other than
optimal, infeasible or unbounded, or its optimum breaks a balance) or every
plant of a fleet failed.  A file that is not UTF-8, or a solution.json
that is not JSON or holds a NaN or an infinity, is invalid input that
names the file.  Any other exception is a bug and shows its traceback.

COPLANT_WORKERS sets the process count for fleet runs (default 1); a value
that is not an integer >= 1 exits 3.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from coplant import configio, costing, dispatch, fleet, lp, reports
from coplant.domain import CoplantError
from coplant.sinknet.network import select_network
from coplant.sinknet.raster import load_raster
from coplant.sinknet.routing import SinkNode, SourceNode, build_candidates

#: The message prefix of each CoplantError exit code.
_LABELS = {3: "invalid input", 4: "infeasible", 6: "error"}


def _load_scenario(path: str):
    return configio.parse_scenario(configio.read_text(path), source=path)


def _load_system(path: str, horizon: int):
    return configio.parse_system(configio.read_text(path), horizon,
                                 base_dir=Path(path).parent, source=path)


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_solution_reports(out: Path, spec, scenario, sol) -> None:
    breakdown = costing.cost_breakdown(sol, spec, scenario)
    reports.write_cost_breakdown_csv(out / "cost_breakdown.csv", breakdown)
    reports.write_electricity_allocation_csv(
        out / "electricity_allocation.csv", breakdown)
    reports.write_molecule_costs_csv(
        out / "molecule_costs.csv", costing.molecule_costs(sol, spec, scenario))
    reports.write_hourly_balances_csv(out / "hourly_balances.csv", spec, sol)
    reports.write_storage_cycles_csv(
        out / "storage_cycles.csv", costing.storage_cycle_counts(sol))

    metrics = costing.bundle_metrics(sol, spec, scenario)
    metrics["abatement_cost"] = costing.solution_abatement_cost(sol, spec, scenario)
    metrics["emission_reduction"] = costing.emission_reduction(sol, spec, scenario)
    reports._write_rows(out / "metrics.csv", ["metric", "value"],
                        [[k, float(v)] for k, v in sorted(metrics.items())])

    (out / "cost_waterfall.svg").write_text(reports.waterfall_svg(breakdown))
    if sol.horizon % 24 == 0:
        for uid, series in sorted(sol.activity.items()):
            (out / f"heatmap_{uid}.svg").write_text(
                reports.heatmap_svg(series, f"{uid} activity"))


def cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    spec = _load_system(args.system, scenario.horizon_hours)
    out = _out_dir(args.out)
    problem = dispatch.build_lp(spec, scenario)
    if args.mps:
        from coplant.mps import export_lp
        Path(args.mps).write_text(export_lp(problem))
    sol = dispatch.extract_solution(spec, scenario, lp.solve_lp(problem))
    reports.save_solution(out / "solution.json", sol)
    _write_solution_reports(out, spec, scenario, sol)
    print(f"objective {sol.objective:.6g} $/yr; reports in {out}")
    return 0


def _check_solution_fits(path: str, sol, spec, scenario) -> None:
    """Raise CoplantError (exit 3) unless a saved solution fits the spec and
    scenario: the scenario's horizon, a capacity for every priced asset and
    a series for every unit and store, none for an asset the system lacks,
    `horizon` entries in every series, and every commodity's hourly balance
    closed as `dispatch.verify_balances` checks it."""
    if sol.horizon != scenario.horizon_hours:
        raise CoplantError(f"{path}: horizon is {sol.horizon} hours, but the scenario's "
                           f"horizon_hours is {scenario.horizon_hours}")
    index = dispatch.build_index(spec, scenario)
    for name in dispatch.ASSET_LEDGERS:
        kind = name if name in dispatch.ASSET_SERIES else "capacity"
        ids, saved = getattr(index, name), getattr(sol, name)
        for asset in ids:
            if asset not in saved:
                raise CoplantError(f"{path}: no {kind} for {asset!r}, which the system has")
        for asset in saved:
            if asset not in ids:
                raise CoplantError(f"{path}: {kind} for {asset!r}, which the system lacks")
    series = {f"{name} {key!r}": values for name in dispatch.ASSET_SERIES
              for key, values in getattr(sol, name).items()}
    series.update((name, getattr(sol, name)) for name in dispatch.SYSTEM_SERIES)
    for name, values in series.items():
        if values.shape != (sol.horizon,):
            raise CoplantError(f"{path}: {name} has {values.size} entries, but the "
                               f"horizon is {sol.horizon} hours")
    try:
        dispatch.verify_balances(spec, sol)
    except lp.LpSolverError as exc:
        raise CoplantError(f"{path}: {exc}") from None


def cmd_report(args) -> int:
    scenario = _load_scenario(args.scenario)
    spec = _load_system(args.system, scenario.horizon_hours)
    sol = reports.load_solution(args.solution)
    _check_solution_fits(args.solution, sol, spec, scenario)
    out = _out_dir(args.out)
    _write_solution_reports(out, spec, scenario, sol)
    print(f"reports regenerated in {out}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario)
    spec = _load_system(args.system, scenario.horizon_hours)
    out = _out_dir(args.out)
    rows = costing.sweep_stoichiometry(spec, scenario, args.x)
    reports.write_sweep_csv(out / "stoichiometry_sweep.csv", rows)
    feasible = [(r.x, r.abatement) for r in rows if r.feasible]
    if len(feasible) >= 2:
        (out / "sweep_abatement.svg").write_text(reports.curves_svg(
            {"abatement": feasible}, "abatement cost vs cement:methanol ratio",
            x_label="t cement per t methanol", y_label="$/t CO2"))
    print(f"swept {len(rows)} ratios; {sum(r.feasible for r in rows)} feasible")
    return 0


def _workers() -> int:
    """The COPLANT_WORKERS process count; anything but an integer >= 1 is an error."""
    raw = os.environ.get("COPLANT_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise CoplantError(f"COPLANT_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def cmd_fleet(args) -> int:
    scenario = _load_scenario(args.scenario)
    template = _load_system(args.system, scenario.horizon_hours)
    plants = fleet.load_plants(args.plants)
    workers = _workers()
    out = _out_dir(args.out)
    result = fleet.run_fleet(plants, template, scenario, args.profiles,
                             workers=workers, sensitivity=args.sensitivity)
    reports.write_fleet_results_csv(out / "fleet_results.csv", result)
    reports.write_cost_capacity_curve_csv(out / "cost_capacity_curve.csv",
                                          result.curve)
    if result.curve:
        (out / "cost_capacity_curve.svg").write_text(reports.curves_svg(
            {"fleet": result.curve}, "fleet cost-capacity curve",
            x_label="cumulative t cement/yr", y_label="$/t CO2"))
    if result.sensitivity is not None:
        reports.write_sensitivity_csv(out / "sensitivity_curves.csv", result)
        if result.curve:
            (out / "sensitivity_curves.svg").write_text(reports.curves_svg(
                {"baseline": result.curve, **result.sensitivity},
                "capex sensitivity", x_label="cumulative t cement/yr",
                y_label="$/t CO2"))
    failures = sum(1 for r in result.per_plant if r.error)
    print(f"fleet: {len(result.per_plant)} plants, {failures} failed")
    return 0


# (node class, amount column, cost column) of each node file
_NODE_KINDS = {"source": (SourceNode, "capturable", "capture_cost"),
               "sink": (SinkNode, "capacity", "sequestration_cost")}


def _load_nodes(path: str, kind: str, surface) -> list:
    """The rows of a node CSV as SourceNode or SinkNode, which check their
    amount and cost.  The first line names the columns; blank lines after
    it are skipped.  An error names the file line on which its row ends."""
    rows = configio.read_csv(path, CoplantError)
    columns = rows[0][1] if rows else []
    repeated = [c for c in columns if columns.count(c) > 1]
    if repeated:
        raise CoplantError(f"{path}:1: repeated {kind} column {repeated[0]!r}")
    node_class, amount, cost = _NODE_KINDS[kind]
    nodes = []
    first_line: dict[str, int] = {}
    for lineno, fields in rows[1:]:
        if not fields:
            continue
        row = dict(itertools.zip_longest(columns, fields))   # a missing field is None
        try:
            node_id, at = row["id"], (int(row["row"]), int(row["col"]))
            values = configio.finite_float(row[amount]), configio.finite_float(row[cost])
        except (KeyError, TypeError, ValueError) as exc:
            raise CoplantError(f"{path}:{lineno}: bad {kind} row: {exc}") from None
        try:
            cell = surface.index(*at)
        except CoplantError as exc:
            raise CoplantError(f"{path}:{lineno}: {kind} {node_id!r} {exc}") from None
        try:
            node = node_class(node_id, cell, *values)
        except CoplantError as exc:
            raise CoplantError(f"{path}:{lineno}: {exc}") from None
        if node.id in first_line:
            raise CoplantError(f"{path}:{lineno}: repeated {kind} id {node.id!r} "
                               f"(first on line {first_line[node.id]})")
        first_line[node.id] = lineno
        nodes.append(node)
    return nodes


def cmd_netopt(args) -> int:
    surface = load_raster(args.surface)
    sources = _load_nodes(args.sources, "source", surface)
    sinks = _load_nodes(args.sinks, "sink", surface)
    edges, report = build_candidates(surface, sources, sinks)
    if not report.ok:
        print(f"warning: unreachable sources {report.unreachable_sources}, "
              f"sinks {report.unreachable_sinks}", file=sys.stderr)
    sol = select_network(sources, sinks, edges, args.target)
    out = _out_dir(args.out)
    reports.write_network_csv(out / "network.csv", sol)
    reports.write_network_paths_csv(out / "network_paths.csv", sol, surface)
    (out / "network.svg").write_text(
        reports.network_svg(sol, surface, sources=sources, sinks=sinks))
    print(f"network: {len(sol.routes)} routes, "
          f"{sol.cost_per_tonne:.4g} $/t, reports in {out}")
    return 0


def _x_list(text: str) -> list[float]:
    """The finite ratios of a comma-separated `--x` list, at least one."""
    try:
        values = [configio.finite_float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --x list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("--x needs at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coplant",
        description="planning toolkit for renewable cement-methanol co-production")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", "--system", dest="system", required=True,
                       help="system config file")
        p.add_argument("--scenario", required=True, help="scenario config file")
        p.add_argument("-o", "--out", dest="out", required=True,
                       help="output directory")

    p = sub.add_parser("solve", help="size and dispatch one plant")
    common(p)
    p.add_argument("--mps", help="also export the LP in MPS format to this path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="sweep the cement:methanol ratio")
    common(p)
    p.add_argument("--x", required=True, type=_x_list,
                   help="comma-separated list of ratios, e.g. 2.77,5,9.76")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fleet", help="batch-optimize a fleet of plant sites")
    common(p)
    p.add_argument("--plants", required=True, help="plants CSV")
    p.add_argument("--profiles", required=True, help="directory of profile CSVs")
    p.add_argument("--sensitivity", action="store_true",
                   help="also run +/-20%% capex sensitivity curves")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("netopt", help="select a source-sink CO2 network")
    p.add_argument("--surface", required=True, help="ESRI ASCII cost raster")
    p.add_argument("--sources", required=True, help="sources CSV")
    p.add_argument("--sinks", required=True, help="sinks CSV")
    p.add_argument("--target", required=True, type=float,
                   help="t CO2/yr to sequester")
    p.add_argument("--method", default="auto", choices=("auto",),
                   help="kept for existing scripts; the search follows from "
                        "the source and assignment counts")
    p.add_argument("-o", "--out", dest="out", required=True,
                   help="output directory")
    p.set_defaults(func=cmd_netopt)

    p = sub.add_parser("report", help="regenerate reports from a saved solution")
    common(p)
    p.add_argument("--solution", required=True, help="solution.json from solve")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CoplantError as exc:
        print(f"{_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
