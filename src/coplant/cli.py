"""Command-line front end.

Subcommands: solve, sweep, fleet, netopt, report.  Exit codes:
0 success, 2 usage error, 3 input validation error, 4 infeasible or
unbounded model, 5 file I/O error, 6 solver failure (HiGHS ended with a
status other than optimal, infeasible or unbounded) or every plant of a
fleet failed.

COPLANT_WORKERS sets the process count for fleet runs (default 1); a value
that is not an integer >= 1 exits 3.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from coplant import configio, costing, dispatch, fleet, lp, reports
from coplant.domain import DomainError
from coplant.lp import LpSolverError, LpStatusError, LpValidationError
from coplant.sinknet.network import NetworkInfeasible, select_network
from coplant.sinknet.raster import RasterFormatError, load_raster
from coplant.sinknet.routing import SinkNode, SourceNode, build_candidates

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5
EXIT_SOLVER = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from None


def _load_scenario(path: str):
    return configio.parse_scenario(_read(path), source=path)


def _load_system(path: str, horizon: int):
    return configio.parse_system(_read(path), horizon,
                                 base_dir=Path(path).parent, source=path)


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path}: {exc}", EXIT_IO)
    return out


def _write_solution_reports(out: Path, spec, scenario, sol) -> None:
    breakdown = costing.cost_breakdown(sol, spec, scenario)
    reports.write_cost_breakdown_csv(out / "cost_breakdown.csv", breakdown)
    reports.write_electricity_allocation_csv(
        out / "electricity_allocation.csv", breakdown)
    reports.write_molecule_costs_csv(
        out / "molecule_costs.csv", costing.molecule_costs(sol, spec, scenario))
    reports.write_hourly_balances_csv(out / "hourly_balances.csv", spec, scenario, sol)
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
    return EXIT_OK


def _check_solution_fits(path: str, sol, spec, scenario) -> None:
    """Raise CliError (exit 3) unless a saved solution fits the spec and
    scenario: the scenario's horizon, a capacity for every priced asset and
    a series for every unit and store, none for an asset the system lacks,
    and `horizon` entries in every series."""
    if sol.horizon != scenario.horizon_hours:
        raise CliError(f"{path}: horizon is {sol.horizon} hours, but the scenario's "
                       f"horizon_hours is {scenario.horizon_hours}", EXIT_VALIDATION)
    stores = [s.id for s in spec.storage_units]
    assets = {"capacity": (list(dispatch.capacity_prices(spec, scenario)), sol.capacities),
              "activity": ([u.id for u in spec.conversion_units], sol.activity),
              **{kind: (stores, getattr(sol, kind)) for kind in ("charge", "discharge", "soc")}}
    for kind, (ids, saved) in assets.items():
        for asset in ids:
            if asset not in saved:
                raise CliError(f"{path}: no {kind} for {asset!r}, which the system has",
                               EXIT_VALIDATION)
        for asset in saved:
            if asset not in ids:
                raise CliError(f"{path}: {kind} for {asset!r}, which the system lacks",
                               EXIT_VALIDATION)
    series = {f"{kind} {key!r}": values
              for kind in ("activity", "charge", "discharge", "soc")
              for key, values in getattr(sol, kind).items()}
    series.update((kind, getattr(sol, kind)) for kind in
                  ("curtailment", "vented_o2", "emitted_co2", "sequestered_co2"))
    for name, values in series.items():
        if values.shape != (sol.horizon,):
            raise CliError(f"{path}: {name} has {values.size} entries, but the "
                           f"horizon is {sol.horizon} hours", EXIT_VALIDATION)


def cmd_report(args) -> int:
    scenario = _load_scenario(args.scenario)
    spec = _load_system(args.system, scenario.horizon_hours)
    try:
        sol = reports.load_solution(args.solution)
    except OSError as exc:
        raise CliError(f"cannot read {args.solution}: {exc}", EXIT_IO) from None
    _check_solution_fits(args.solution, sol, spec, scenario)
    out = _out_dir(args.out)
    _write_solution_reports(out, spec, scenario, sol)
    print(f"reports regenerated in {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario)
    spec = _load_system(args.system, scenario.horizon_hours)
    try:
        x_values = [configio.finite_float(v) for v in args.x.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"bad --x list: {args.x!r}", EXIT_USAGE) from None
    if not x_values:
        raise CliError("--x needs at least one value", EXIT_USAGE)
    out = _out_dir(args.out)
    rows = costing.sweep_stoichiometry(spec, scenario, x_values)
    reports.write_sweep_csv(out / "stoichiometry_sweep.csv", rows)
    feasible = [(r.x, r.abatement) for r in rows if r.feasible]
    if len(feasible) >= 2:
        (out / "sweep_abatement.svg").write_text(reports.curves_svg(
            {"abatement": feasible}, "abatement cost vs cement:methanol ratio",
            x_label="t cement per t methanol", y_label="$/t CO2"))
    print(f"swept {len(rows)} ratios; {sum(r.feasible for r in rows)} feasible")
    return EXIT_OK


def _workers() -> int:
    """The COPLANT_WORKERS process count; anything but an integer >= 1 is an error."""
    raw = os.environ.get("COPLANT_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise CliError(f"COPLANT_WORKERS must be an integer >= 1, got {raw!r}",
                       EXIT_VALIDATION)
    return workers


def cmd_fleet(args) -> int:
    scenario = _load_scenario(args.scenario)
    template = _load_system(args.system, scenario.horizon_hours)
    try:
        plants = fleet.load_plants(args.plants)
    except FileNotFoundError as exc:
        raise CliError(str(exc), EXIT_IO) from None
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
    return EXIT_OK


# (node class, amount column, cost column) of each node file
_NODE_KINDS = {"source": (SourceNode, "capturable", "capture_cost"),
               "sink": (SinkNode, "capacity", "sequestration_cost")}


def _load_nodes(path: str, kind: str, surface) -> list:
    """The rows of a node CSV as SourceNode or SinkNode, which check their
    amount and cost.  An error names the file line on which its row ends."""
    try:
        with Path(path).open(newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from None
    columns = reader.fieldnames or []
    repeated = [c for c in columns if columns.count(c) > 1]
    if repeated:
        raise CliError(f"{path}:1: repeated {kind} column {repeated[0]!r}", EXIT_VALIDATION)
    node_class, amount, cost = _NODE_KINDS[kind]
    nodes = []
    first_line: dict[str, int] = {}
    for lineno, row in rows:
        try:
            node_id, at = row["id"], (int(row["row"]), int(row["col"]))
            values = configio.finite_float(row[amount]), configio.finite_float(row[cost])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{path}:{lineno}: bad {kind} row: {exc}", EXIT_VALIDATION) from None
        try:
            cell = surface.index(*at)
        except DomainError as exc:
            raise CliError(f"{path}:{lineno}: {kind} {node_id!r} {exc}",
                           EXIT_VALIDATION) from None
        try:
            node = node_class(node_id, cell, *values)
        except DomainError as exc:
            raise CliError(f"{path}:{lineno}: {exc}", EXIT_VALIDATION) from None
        if node.id in first_line:
            raise CliError(f"{path}:{lineno}: repeated {kind} id {node.id!r} "
                           f"(first on line {first_line[node.id]})", EXIT_VALIDATION)
        first_line[node.id] = lineno
        nodes.append(node)
    return nodes


def cmd_netopt(args) -> int:
    try:
        surface = load_raster(args.surface)
    except OSError as exc:
        raise CliError(f"cannot read {args.surface}: {exc}", EXIT_IO) from None
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
    return EXIT_OK


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
    p.add_argument("--x", required=True,
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
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (dispatch.StructuralInfeasibility, LpStatusError,
            NetworkInfeasible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (LpSolverError, fleet.FleetFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (configio.ConfigError, DomainError, LpValidationError,
            RasterFormatError, reports.ReportError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
