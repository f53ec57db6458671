"""Output checks computed apart from coplant.

Nothing here calls into the program: each check reads the files a command
wrote and compares them with a computation of its own (an MPS reader and
scipy's HiGHS interior-point solver, a csgraph shortest-path search, a
vectorised enumeration of network assignments) or with a property the method
must have.  Each check raises `CheckError` naming the first violation.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import dijkstra


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ solve

def mps_objective(path: Path) -> float:
    """Read fixed-column MPS and minimise it with HiGHS interior point."""
    section, obj_row = "", None
    row_index: dict[str, int] = {}
    senses: list[str] = []
    col_index: dict[str, int] = {}
    cost: dict[int, float] = {}
    ii, jj, vv = [], [], []
    rhs: dict[int, float] = {}
    lower: dict[int, float] = {}
    upper: dict[int, float] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        fields = line.split()
        if not line[0].isspace():
            section = fields[0]
            continue
        if section == "ROWS":
            kind, name = fields
            if kind == "N":
                obj_row = name
            else:
                row_index[name] = len(senses)
                senses.append(kind)
        elif section == "COLUMNS":
            j = col_index.setdefault(fields[0], len(col_index))
            for name, value in zip(fields[1::2], fields[2::2]):
                if name == obj_row:
                    cost[j] = float(value)
                else:
                    ii.append(row_index[name])
                    jj.append(j)
                    vv.append(float(value))
        elif section == "RHS":
            for name, value in zip(fields[1::2], fields[2::2]):
                rhs[row_index[name]] = float(value)
        elif section == "BOUNDS":
            kind, j = fields[0], col_index[fields[2]]
            value = float(fields[3]) if len(fields) > 3 else math.nan
            if kind in ("UP", "FX"):
                upper[j] = value
            if kind in ("LO", "FX"):
                lower[j] = value
            if kind in ("MI", "FR"):
                lower[j] = -math.inf
            if kind in ("PL", "FR"):
                upper[j] = math.inf
            _require(kind in ("UP", "LO", "FX", "MI", "FR", "PL"),
                     f"{path}: unknown bound type {kind}")
    n, m = len(col_index), len(senses)
    c = np.zeros(n)
    for j, value in cost.items():
        c[j] = value
    a = sparse.csr_matrix((vv, (ii, jj)), shape=(m, n))
    sense = np.array(senses)
    b = np.array([rhs.get(i, 0.0) for i in range(m)])
    sign = np.where(sense == "G", -1.0, 1.0)
    ub, eq = sense != "E", sense == "E"
    bounds = np.array([(lower.get(j, 0.0), upper.get(j, math.inf)) for j in range(n)])
    res = linprog(c, A_ub=sparse.diags(sign[ub]) @ a[ub], b_ub=sign[ub] * b[ub],
                  A_eq=a[eq], b_eq=b[eq], bounds=bounds, method="highs-ipm")
    _require(res.status == 0, f"{path}: independent solve ended with '{res.message}'")
    return float(res.fun)


def check_solve(facts: dict, out: Path) -> None:
    """solve --mps: MPS re-solve, hourly balances, cost split, net zero, SOC."""
    spec = facts["spec"]
    sol = json.loads((out / "solution.json").read_text())
    objective = sol["objective"]

    independent = mps_objective(Path(f"{out}.mps"))
    _require(_close(independent, objective, 1e-6),
             f"MPS re-solve gives {independent!r}, solution.json {objective!r}")

    totals: dict[tuple[str, int], float] = defaultdict(float)
    scale: dict[tuple[str, int], float] = defaultdict(lambda: 1.0)
    for row in _rows(out / "hourly_balances.csv"):
        key, value = (row["commodity"], int(row["hour"])), float(row["value"])
        totals[key] += value
        scale[key] = max(scale[key], abs(value))
    hours = {h for _, h in totals}
    _require(hours == set(range(sol["horizon"])), "hourly_balances.csv misses hours")
    for key, total in totals.items():
        _require(abs(total) <= 1e-6 * scale[key],
                 f"balance of {key[0]} at hour {key[1]} is off by {total:.3e}")

    categories = {r["category"]: float(r["annual_cost"])
                  for r in _rows(out / "cost_breakdown.csv")}
    split = sum(v for k, v in categories.items() if k != "total")
    _require(_close(split, objective, 1e-6),
             f"cost categories sum to {split!r}, objective is {objective!r}")

    burden = 0.0
    for u in spec.conversion_units:
        inputs = {c.value: v for c, v in u.inputs.items()}
        outputs = {c.value for c in u.outputs}
        per_unit = u.co2_emitted + (inputs.get("co2_gas", 0.0)
                                    if "methanol" in outputs else 0.0)
        burden += per_unit * sum(sol["activity"][u.id])
    sequestered = sum(sol["sequestered_co2"])
    _require(sequestered >= burden - 1e-6 * max(1.0, burden),
             f"sequestered {sequestered:.6g} t < net-zero burden {burden:.6g} t")

    for sid, soc in sol["soc"].items():
        cap = sol["capacities"][sid]
        tol = 1e-6 * max(1.0, cap)
        _require(max(soc) <= cap + tol and min(soc) >= -tol,
                 f"state of charge of {sid} leaves [0, {cap:.6g}]")


# ------------------------------------------------------------------ fleet

UTILIZATION = 0.80           # documented default capacity utilisation
SENSITIVITY_PARAMETERS = ("solar_capex", "wind_capex", "electrolyzer_capex")


def _step(curve: list[tuple[float, float]], x: float) -> float:
    """Cost of the step of a sorted cost-capacity curve that covers x."""
    for cumulative, cost in curve:
        if x <= cumulative:
            return cost
    return curve[-1][1]


def _curves(path: Path) -> dict[str, list[tuple[float, float]]]:
    curves: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for row in _rows(path):
        curves[row.get("curve", "baseline")].append(
            (float(row["cumulative_capacity"]), float(row["abatement_cost"])))
    return curves


def check_fleet(facts: dict, out: Path) -> None:
    """fleet --sensitivity: plant results, capacities, sensitivity directions."""
    scenario, clinker = facts["scenario"], facts["clinker_tpd"]
    capacity = {pid: tpd / 24.0 * scenario.cement_per_clinker * UTILIZATION * 8760.0
                for pid, tpd in clinker.items()}
    results = _rows(out / "fleet_results.csv")
    _require(sorted(r["id"] for r in results) == sorted(capacity),
             "fleet_results.csv does not list every plant once")
    for r in results:
        _require(r["error"] == "" and math.isfinite(float(r["abatement_cost"])),
                 f"plant {r['id']} failed: {r['error']!r}")
        _require(float(r["flex_inflex_ratio"]) <= 1.0 + 1e-8,
                 f"plant {r['id']}: flexible costs more than inflexible")
        _require(_close(float(r["cement_capacity"]), capacity[r["id"]], 1e-9),
                 f"plant {r['id']}: capacity {r['cement_capacity']}")

    total = sum(capacity.values())
    baseline = _curves(out / "cost_capacity_curve.csv")["baseline"]
    sens = _curves(out / "sensitivity_curves.csv")
    _require(sens["baseline"] == baseline, "sensitivity baseline differs from the fleet curve")
    for label, curve in sens.items():
        _require(_close(curve[-1][0], total, 1e-9),
                 f"curve {label} ends at {curve[-1][0]!r}, plants add up to {total!r}")
    for p in SENSITIVITY_PARAMETERS:
        for label, sign in ((f"{p}:+20%", 1.0), (f"{p}:-20%", -1.0)):
            _require(label in sens, f"sensitivity curve {label} is missing")
            edges = sorted({0.0} | {c for c, _ in baseline} | {c for c, _ in sens[label]})
            for lo, hi in zip(edges, edges[1:]):
                x = 0.5 * (lo + hi)
                base, moved = _step(baseline, x), _step(sens[label], x)
                _require(sign * (moved - base) >= -1e-7 * max(1.0, abs(base)),
                         f"curve {label} crosses the baseline at {x:.6g} t/yr")


# ----------------------------------------------------------------- netopt

# Documented network defaults: diameter classes (t/yr, $/km), discount rate,
# pipeline lifetime and O&M share.
PIPE_CLASSES = (("D1", 1e6, 0.45e6), ("D2", 3e6, 0.75e6), ("D3", 9e6, 1.30e6),
                ("D4", 27e6, 2.20e6))
RATE, LIFETIME, OM = 0.08, 30.0, 0.02
ANNUAL_FACTOR = RATE * (1 + RATE) ** LIFETIME / ((1 + RATE) ** LIFETIME - 1) + OM
NEIGHBOURS = ((0, 1), (1, 0), (1, 1), (1, -1))


def _raster(path: Path) -> tuple[np.ndarray, float, float]:
    lines = path.read_text().splitlines()
    header = {line.split()[0].lower(): float(line.split()[1]) for line in lines[:6]}
    cells = np.array([[float(v) for v in line.split()] for line in lines[6:]])
    _require(cells.shape == (header["nrows"], header["ncols"]), f"{path}: bad shape")
    return cells, header["cellsize"], header["nodata_value"]


def _graph(cells: np.ndarray, size: float, passable: np.ndarray) -> sparse.csr_matrix:
    """Undirected 8-neighbour graph; a step costs the mean of its two cells."""
    nr, nc = cells.shape
    index = np.arange(nr * nc).reshape(nr, nc)
    flat = cells.ravel()
    ok = passable.ravel()
    heads, tails, weights = [], [], []
    for dr, dc in NEIGHBOURS:
        c0, c1 = max(0, -dc), nc - max(0, dc)
        a = index[:nr - dr, c0:c1].ravel()
        b = index[dr:, c0 + dc:c1 + dc].ravel()
        keep = ok[a] & ok[b]
        a, b = a[keep], b[keep]
        factor = math.sqrt(2.0) if dr and dc else 1.0
        heads.append(a)
        tails.append(b)
        weights.append(0.5 * (flat[a] + flat[b]) * size * factor)
    return sparse.csr_matrix((np.concatenate(weights),
                              (np.concatenate(heads), np.concatenate(tails))),
                             shape=(nr * nc, nr * nc))


def pipe_capex_per_km(flow: np.ndarray) -> np.ndarray:
    """Smallest class carrying the flow; parallel largest pipes beyond it."""
    flow = np.asarray(flow, dtype=float)
    caps = np.array([c for _, c, _ in PIPE_CLASSES])
    capex = np.array([k for _, _, k in PIPE_CLASSES])
    pick = np.minimum(np.searchsorted(caps, flow, side="left"), len(caps) - 1)
    parallel = np.ceil(flow / caps[-1]) * capex[-1]
    out = np.where(flow <= caps[-1], capex[pick], parallel)
    return np.where(flow > 0, out, 0.0)


class Network:
    """The instance as the checks see it: nodes, corridor costs, the rule."""

    def __init__(self, facts: dict):
        cells, self.size, nodata = _raster(facts["raster"])
        self.cells = cells
        self.passable = cells != nodata
        self.ncols = cells.shape[1]
        self.sources = sorted(facts["sources"], key=lambda s: s["id"])
        self.sinks = sorted(facts["sinks"], key=lambda k: k["id"])
        self.target = facts["target"]
        src_cells = [s["row"] * self.ncols + s["col"] for s in self.sources]
        snk_cells = [k["row"] * self.ncols + k["col"] for k in self.sinks]
        dist = dijkstra(_graph(cells, self.size, self.passable), directed=False,
                        indices=src_cells)
        self.terrain = dist[:, snk_cells]              # (sources, sinks)
        self.capturable = np.array([s["capturable"] for s in self.sources])
        self.capture = np.array([s["capture_cost"] for s in self.sources])
        self.capacity = np.array([k["capacity"] for k in self.sinks])
        self.seq = np.array([k["sequestration_cost"] for k in self.sinks])

    def evaluate(self, choice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flows and total cost of assignments, one per row of `choice`.

        choice[n, s] is -1 for an unused source, else its sink.  Sources fill
        the target in ascending per-tonne cost (capture + sequestration),
        ties by id, each up to min(capturable, sink room, remaining).  The
        cost is infinite where the target is not met.
        """
        choice = np.atleast_2d(choice)
        n, n_src = choice.shape
        used = choice >= 0
        sink = np.where(used, choice, 0)
        rate = np.where(used, self.capture + self.seq[sink], 0.0)
        order = np.argsort(np.where(used, rate, np.inf), axis=1, kind="stable")
        rows = np.arange(n)
        remaining = np.full(n, self.target)
        room = np.tile(self.capacity, (n, 1))
        flow = np.zeros((n, n_src))
        for p in range(n_src):
            s = order[:, p]
            k = sink[rows, s]
            live = used[rows, s] & (remaining > 1e-12)
            f = np.minimum(np.minimum(self.capturable[s], room[rows, k]), remaining)
            f = np.where(live & (f > 0), f, 0.0)
            room[rows, k] -= f
            remaining -= f
            flow[rows, s] = f
        cost = (flow * rate).sum(axis=1) + (
            pipe_capex_per_km(flow) * np.where(used, self.terrain[np.arange(n_src), sink], 0.0)
            * ANNUAL_FACTOR).sum(axis=1)
        return flow, np.where(remaining > 1e-6, np.inf, cost)

    def enumerate_best(self) -> float:
        """Cheapest of all (sinks + 1)^sources assignments."""
        n_src, n_snk = len(self.sources), len(self.sinks)
        reach = np.isfinite(self.terrain)
        codes = np.arange((n_snk + 1) ** n_src)
        choice = np.stack([(codes // (n_snk + 1) ** (n_src - 1 - s)) % (n_snk + 1) - 1
                           for s in range(n_src)], axis=1)
        ok = np.all((choice < 0) | reach[np.arange(n_src), np.maximum(choice, 0)], axis=1)
        best = math.inf
        for block in np.array_split(choice[ok], max(1, int(ok.sum()) // 20_000)):
            best = min(best, float(self.evaluate(block)[1].min()))
        return best


def _paths(path: Path) -> dict[tuple[str, str], list[tuple[int, int]]]:
    paths: dict[tuple[str, str], list[tuple[int, int, int]]] = defaultdict(list)
    for row in _rows(path):
        paths[(row["source"], row["sink"])].append(
            (int(row["seq"]), int(row["row"]), int(row["col"])))
    return {key: [(r, c) for _, r, c in sorted(steps)] for key, steps in paths.items()}


def check_netopt(facts: dict, out: Path, exact: bool = False) -> None:
    """netopt: corridors against csgraph, flows, the allocation rule, and
    optimality: the greedy start bounds a heuristic network, and an exact one
    must match a full enumeration."""
    net = Network(facts)
    src = {s["id"]: i for i, s in enumerate(net.sources)}
    snk = {k["id"]: i for i, k in enumerate(net.sinks)}
    routes = _rows(out / "network.csv")
    paths = _paths(out / "network_paths.csv")
    _require(len(routes) == len(paths), "network.csv and network_paths.csv disagree")

    choice = np.full(len(src), -1)
    for route in routes:
        s, k = src[route["source"]], snk[route["sink"]]
        _require(choice[s] < 0, f"source {route['source']} has two routes")
        choice[s] = k
        cells = paths[(route["source"], route["sink"])]
        ends = [(net.sources[s]["row"], net.sources[s]["col"]),
                (net.sinks[k]["row"], net.sinks[k]["col"])]
        _require([cells[0], cells[-1]] == ends,
                 f"route {route['source']}->{route['sink']} does not join its nodes")
        cost = length = 0.0
        for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
            _require(max(abs(r1 - r0), abs(c1 - c0)) == 1,
                     f"route {route['source']}->{route['sink']} jumps at ({r1},{c1})")
            _require(net.passable[r1, c1],
                     f"route {route['source']}->{route['sink']} crosses nodata")
            step = net.size * (math.sqrt(2.0) if r1 != r0 and c1 != c0 else 1.0)
            cost += 0.5 * (net.cells[r0, c0] + net.cells[r1, c1]) * step
            length += step
        _require(_close(cost, net.terrain[s, k], 1e-9),
                 f"route {route['source']}->{route['sink']} costs {cost!r}, "
                 f"the least-cost corridor {net.terrain[s, k]!r}")
        _require(_close(float(route["length_km"]), length, 1e-9),
                 f"route {route['source']}->{route['sink']} length {route['length_km']}")

    flow_out = {r["source"]: float(r["flow_t_per_yr"]) for r in routes}
    flows, cost = net.evaluate(choice)
    _require(math.isfinite(cost[0]), "the reported routes do not meet the target")
    for name, s in src.items():
        _require(_close(flow_out.get(name, 0.0), flows[0, s], 1e-9),
                 f"source {name}: flow {flow_out.get(name, 0.0)!r}, "
                 f"the rule gives {float(flows[0, s])!r}")
        _require(flows[0, s] <= net.capturable[s], f"source {name} over capturable")
    inflow = np.bincount(choice[choice >= 0], weights=flows[0][choice >= 0],
                         minlength=len(snk))
    _require(np.all(inflow <= net.capacity * (1 + 1e-12)), "a sink is over capacity")
    _require(flows.sum() >= net.target - 1e-6, "flows miss the target")
    pipe = {r["source"]: float(r["annual_cost"]) for r in routes}
    reported = float(sum(pipe.values()) + sum(
        float(r["flow_t_per_yr"]) * (net.capture[src[r["source"]]] + net.seq[snk[r["sink"]]])
        for r in routes))
    _require(_close(reported, cost[0], 1e-9),
             f"network.csv totals {reported!r} $/yr, the rule gives {float(cost[0])!r}")

    if not exact:
        # Local search starts from every source at its cheapest linear-rate
        # sink and only accepts improvements.  It does not promise that no
        # single reassignment of the reported routes is cheaper: sources left
        # without flow keep their sinks during the search and can block such
        # a move, and on about a third of the seeds one exists.
        rate = np.where(np.isfinite(net.terrain), net.seq, np.inf)
        greedy = float(net.evaluate(np.argmin(rate, axis=1))[1][0])
        _require(reported <= greedy * (1 + 1e-9),
                 f"network.csv totals {reported!r} $/yr, above the greedy start {greedy!r}")
        return
    # Every single-source reassignment is one of the enumerated assignments,
    # so the enumeration also shows that none of them is cheaper.
    best = net.enumerate_best()
    _require(_close(reported, best, 1e-9),
             f"enumeration finds {best!r} $/yr, network.csv totals {reported!r}")

CHECKS = {
    "solve-long": check_solve,
    "fleet-sensitivity": check_fleet,
    "netopt-routing": check_netopt,
    "netopt-exact": lambda facts, out: check_netopt(facts, out, exact=True),
}
