#!/usr/bin/env python3
"""Show that every output check rejects a deliberately corrupted output.

    python3 bench/corrupt.py [--seed N]

For each workload it runs one command, confirms that the checks pass on the
true outputs, then damages a copy of them one way at a time and confirms that
the checks raise.  For the netopt workloads one damaged output is a network
that is consistent in every respect but costlier than the method allows.
Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from coplant import cli, reports  # noqa: E402
from coplant.sinknet import network  # noqa: E402
from coplant.sinknet.raster import load_raster  # noqa: E402
from coplant.sinknet.routing import SinkNode, SourceNode, build_candidates  # noqa: E402


def edit_csv(path: Path, change) -> None:
    """Apply change(rows) to a CSV's rows and write it back."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    change(rows)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def scale(row: dict, column: str, factor: float) -> None:
    row[column] = repr(float(row[column]) * factor)


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _soc_over(sol: dict) -> None:
    sid = max(sol["soc"], key=lambda k: max(sol["soc"][k]))
    sol["capacities"][sid] = 0.5 * max(sol["soc"][sid])


def _mps_rhs(path: Path) -> None:
    head, rest = path.read_text().split("\nRHS\n")
    rhs, bounds = rest.split("\nBOUNDS\n")
    lines = [line[:24] + f"{float(line.split()[-1]) * 1.05:<12.6G}" for line in rhs.splitlines()]
    path.write_text(head + "\nRHS\n" + "\n".join(lines) + "\nBOUNDS\n" + bounds)


def _drop_middle_cell(rows: list) -> None:
    first = rows[0]["source"], rows[0]["sink"]
    route = [r for r in rows if (r["source"], r["sink"]) == first]
    rows.remove(route[len(route) // 2])


def _lower_curve(rows: list) -> None:
    for r in rows:
        if r["curve"] == "solar_capex:+20%":
            r["abatement_cost"] = repr(float(r["abatement_cost"]) - 1.0)


def _unbalance(rows: list) -> None:
    row = max(rows, key=lambda r: abs(float(r["value"])))
    scale(row, "value", 1.01)


SOLVE = {
    "objective": lambda o: edit_json(o / "solution.json",
                                     lambda s: s.update(objective=s["objective"] * 1.001)),
    "mps": lambda o: _mps_rhs(Path(f"{o}.mps")),
    "balance": lambda o: edit_csv(o / "hourly_balances.csv", _unbalance),
    "cost split": lambda o: edit_csv(o / "cost_breakdown.csv", lambda rows: scale(
        max(rows[:-1], key=lambda r: float(r["annual_cost"])), "annual_cost", 1.01)),
    "net zero": lambda o: edit_json(o / "solution.json", lambda s: s.update(
        sequestered_co2=[0.0 for _ in s["sequestered_co2"]])),
    "state of charge": lambda o: edit_json(o / "solution.json", _soc_over),
}
FLEET = {
    "plant error": lambda o: edit_csv(o / "fleet_results.csv",
                                      lambda rows: rows[0].update(error="infeasible")),
    "flex ratio": lambda o: edit_csv(o / "fleet_results.csv",
                                     lambda rows: rows[0].update(flex_inflex_ratio="1.01")),
    "capacity": lambda o: edit_csv(o / "fleet_results.csv",
                                   lambda rows: scale(rows[0], "cement_capacity", 1.01)),
    "curve end": lambda o: edit_csv(o / "sensitivity_curves.csv",
                                    lambda rows: scale(rows[-1], "cumulative_capacity", 1.01)),
    "curve direction": lambda o: edit_csv(o / "sensitivity_curves.csv", _lower_curve),
}
NETOPT = {
    "path jump": lambda o: edit_csv(o / "network_paths.csv", _drop_middle_cell),
    "path length": lambda o: edit_csv(o / "network.csv",
                                      lambda rows: scale(rows[0], "length_km", 1.01)),
    "flow": lambda o: edit_csv(o / "network.csv",
                               lambda rows: scale(rows[0], "flow_t_per_yr", 0.9)),
    "pipe cost": lambda o: edit_csv(o / "network.csv",
                                    lambda rows: scale(rows[0], "annual_cost", 1.01)),
}
CASES = {"solve-long": SOLVE, "fleet-sensitivity": FLEET,
         "netopt-routing": NETOPT, "netopt-exact": NETOPT}


def command(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"coplant {argv[0]} exited {code}")


def rejected(check, facts: dict, out: Path) -> bool:
    try:
        check(facts, out)
    except checks.CheckError as exc:
        print(f"    rejected: {exc}")
        return True
    return False


def costlier_network(name: str, directory: Path, inputs, out: Path) -> bool:
    """Write the cheapest network that is one reassignment away from a base
    and costlier than it, consistent in every other respect.  The base is the
    optimum for netopt-exact (the enumeration must reject the network) and
    the greedy start for netopt-routing (the greedy bound must reject it)."""
    surface = load_raster(inputs.argv[inputs.argv.index("--surface") + 1])
    sources = [SourceNode(s["id"], surface.index(s["row"], s["col"]), s["capturable"],
                          s["capture_cost"]) for s in inputs.facts["sources"]]
    sinks = [SinkNode(k["id"], surface.index(k["row"], k["col"]), k["capacity"],
                      k["sequestration_cost"]) for k in inputs.facts["sinks"]]
    edges, _ = build_candidates(surface, sources, sinks)
    inst = network._make_instance(sources, sinks, edges, inputs.facts["target"],
                                  network.NetworkParams())
    if name == "netopt-exact":
        base = {s.id: None for s in sources}
        base.update({r["source"]: r["sink"]
                     for r in csv.DictReader((out / "network.csv").open())})
    else:
        base = {s.id: min(sinks, key=lambda k: (k.sequestration_cost, k.id)).id
                for s in sources}
    base_cost = inst.evaluate(base)[0]
    worse = []
    for s in sources:
        for k in [None] + [k.id for k in sinks]:
            result = inst.evaluate({**base, s.id: k}) if k != base[s.id] else None
            if result is not None and result[0] > base_cost * (1 + 1e-6):
                worse.append(result)
    sol = min(worse, key=lambda r: r[0])[1]
    copy = directory / "costlier"
    copy.mkdir()
    reports.write_network_csv(copy / "network.csv", sol)
    reports.write_network_paths_csv(copy / "network_paths.csv", sol, surface)
    print("  costlier network")
    return rejected(checks.CHECKS[name], inputs.facts, copy)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    workdir = run.OUT / "corrupt"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    missed = 0
    for name, cases in CASES.items():
        check = checks.CHECKS[name]
        directory = workdir / name
        directory.mkdir()
        inputs = workloads.WORKLOADS[name][0](seed, directory)
        out = directory / "out"
        command(inputs.argv_for(out))
        check(inputs.facts, out)
        print(f"{name}: true outputs pass")
        for label, damage in cases.items():
            copy = directory / label.replace(" ", "_")
            shutil.copytree(out, copy)
            if Path(f"{out}.mps").exists():
                shutil.copy(f"{out}.mps", f"{copy}.mps")
            damage(copy)
            print(f"  {label}")
            if not rejected(check, inputs.facts, copy):
                print("    NOT REJECTED")
                missed += 1
        if name.startswith("netopt") and not costlier_network(name, directory, inputs, out):
            print("    NOT REJECTED")
            missed += 1
    print(f"{missed} corruption(s) went unnoticed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
