"""Input generation for the four benchmark workloads.

Every workload turns a seed into input files in a directory and returns the
`coplant` argument list that runs on them, plus what the checks need to know
about the inputs.  The program sees only the files.

Each generator keeps the amount of work steady across seeds: the seed moves
weather, plant sizes, prices, terrain and (by a few cells) node positions,
while horizon, fleet size, raster size, node counts and node layout stay
fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from coplant import configio, reference
from coplant.sinknet.raster import CostSurface, write_raster

NODATA = -9999.0


@dataclass
class Inputs:
    """Generated inputs: the CLI arguments and the facts the checks read."""

    argv: list[str]                  # "{out}" stands for the output directory
    facts: dict

    def argv_for(self, out: Path) -> list[str]:
        """Arguments writing into `out`; an MPS file goes to `out`.mps."""
        return [a.replace("{out}", str(out)) for a in self.argv]


def _write_plant(directory: Path, scenario, spec) -> tuple[Path, Path]:
    scn_path, sys_path = directory / "scenario.cfg", directory / "system.cfg"
    scn_path.write_text(configio.serialize_scenario(scenario))
    sys_path.write_text(configio.serialize_system(spec, profiles_dir=directory))
    return scn_path, sys_path


def solve_long(seed: int, directory: Path) -> Inputs:
    """Reference net-zero plant, flexible, one week; the seed sets the weather."""
    scenario = reference.netzero_scenario(horizon=168, flexible=True)
    spec = reference.reference_system(scenario, seed=seed)
    scn_path, sys_path = _write_plant(directory, scenario, spec)
    argv = ["solve", "--spec", str(sys_path), "--scenario", str(scn_path),
            "-o", "{out}", "--mps", "{out}.mps"]
    return Inputs(argv, {"spec": spec})


FLEET_PLANTS = 2


def fleet_sensitivity(seed: int, directory: Path) -> Inputs:
    """Two synthetic sites at 48 h; the seed sets sizes, places and weather."""
    rng = np.random.default_rng(seed)
    scenario = reference.netzero_scenario(horizon=48, flexible=True)
    spec = reference.reference_system(scenario, seed=seed)
    scn_path, sys_path = _write_plant(directory, scenario, spec)
    profiles = directory / "profiles"
    profiles.mkdir()
    rows = ["id,lat,lon,clinker_tpd,solar_ref,wind_ref"]
    clinker = {}
    for i in range(FLEET_PLANTS):
        pid = f"P{i + 1:02d}"
        tpd = float(np.round(rng.uniform(2_600.0, 9_800.0), 1))
        clinker[pid] = tpd
        sub_seed = int(rng.integers(0, 2**31))
        for name, maker, offset in (("s", reference.solar_profile, 0),
                                    ("w", reference.wind_profile, 1)):
            values = maker(scenario.horizon_hours, sub_seed + offset)
            (profiles / f"{name}{i + 1}.csv").write_text(
                "capacity_factor\n" + "".join(f"{v:.10g}\n" for v in values))
        lat, lon = rng.uniform(22.0, 42.0), rng.uniform(100.0, 122.0)
        rows.append(f"{pid},{lat:.4f},{lon:.4f},{tpd:g},s{i + 1},w{i + 1}")
    plants = directory / "plants.csv"
    plants.write_text("\n".join(rows) + "\n")
    argv = ["fleet", "--spec", str(sys_path), "--scenario", str(scn_path),
            "--plants", str(plants), "--profiles", str(profiles),
            "-o", "{out}", "--sensitivity"]
    return Inputs(argv, {"scenario": scenario, "clinker_tpd": clinker})


def _terrain(rng: np.random.Generator, n: int, walls: int, wall_len: int) -> np.ndarray:
    """Smooth cost multipliers in [1, 3] crossed by nodata walls with gaps."""
    field_ = ndimage.gaussian_filter(rng.standard_normal((n, n)), sigma=3.0,
                                     mode="wrap")
    field_ = (field_ - field_.min()) / (field_.max() - field_.min())
    cells = np.round(1.0 + 2.0 * field_, 3)
    for _ in range(walls):
        r, c = rng.integers(0, n, size=2)
        horizontal = rng.random() < 0.5
        gap = rng.integers(wall_len // 4, 3 * wall_len // 4)
        for k in range(wall_len):
            if abs(k - gap) <= 1:
                continue  # a three-cell gap lets routes through
            rr, cc = (r, c + k) if horizontal else (r + k, c)
            if 0 <= rr < n and 0 <= cc < n:
                cells[rr, cc] = NODATA
    return cells


def _jittered(rng: np.random.Generator, anchors: np.ndarray, jitter: int,
              free: np.ndarray, taken: set) -> list[tuple[int, int]]:
    """One free cell near each anchor, in the main connected region.

    The window widens by a cell after every 50 misses, so a walled-in anchor
    still gets a cell."""
    n = free.shape[0]
    out = []
    for ar, ac in anchors:
        for attempt in itertools.count():
            reach = jitter + attempt // 50
            r = int(np.clip(ar + rng.integers(-reach, reach + 1), 0, n - 1))
            c = int(np.clip(ac + rng.integers(-reach, reach + 1), 0, n - 1))
            if free[r, c] and (r, c) not in taken:
                taken.add((r, c))
                out.append((r, c))
                break
    return out


def _network(seed: int, directory: Path, n: int, walls: int, wall_len: int,
             source_anchors: np.ndarray, sink_anchors: np.ndarray, jitter: int,
             target_share: float, sink_share: float) -> Inputs:
    rng = np.random.default_rng(seed)
    cells = _terrain(rng, n, walls, wall_len)
    passable = cells != NODATA
    labels, _ = ndimage.label(passable, structure=np.ones((3, 3), dtype=int))
    main = np.argmax(np.bincount(labels.ravel())[1:]) + 1
    free = labels == main
    surface = CostSurface(ncols=n, nrows=n, cell_size=5.0, origin=(0.0, 0.0),
                          nodata=NODATA, cells=cells)
    raster = directory / "cost.asc"
    write_raster(surface, raster)

    taken: set = set()
    src_cells = _jittered(rng, source_anchors, jitter, free, taken)
    snk_cells = _jittered(rng, sink_anchors, jitter, free, taken)
    capturable = np.round(rng.uniform(0.8e6, 3.0e6, len(src_cells)), -3)
    capture_cost = np.round(rng.uniform(30.0, 70.0, len(src_cells)), 2)
    target = float(np.round(target_share * capturable.sum(), -3))
    capacity = np.full(len(snk_cells), float(np.round(sink_share * target, -3)))
    seq_cost = np.round(rng.uniform(4.0, 12.0, len(snk_cells)), 2)

    sources = [dict(id=f"S{i + 1:02d}", row=r, col=c, capturable=float(capturable[i]),
                    capture_cost=float(capture_cost[i]))
               for i, (r, c) in enumerate(src_cells)]
    sinks = [dict(id=f"K{i + 1}", row=r, col=c, capacity=float(capacity[i]),
                  sequestration_cost=float(seq_cost[i]))
             for i, (r, c) in enumerate(snk_cells)]
    (directory / "sources.csv").write_text(
        "id,row,col,capturable,capture_cost\n" + "".join(
            f"{s['id']},{s['row']},{s['col']},{s['capturable']!r},{s['capture_cost']!r}\n"
            for s in sources))
    (directory / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\n" + "".join(
            f"{k['id']},{k['row']},{k['col']},{k['capacity']!r},"
            f"{k['sequestration_cost']!r}\n" for k in sinks))
    argv = ["netopt", "--surface", str(raster),
            "--sources", str(directory / "sources.csv"),
            "--sinks", str(directory / "sinks.csv"),
            "--target", repr(target), "--method", "auto", "-o", "{out}"]
    return Inputs(argv, {"raster": raster, "sources": sources, "sinks": sinks,
                         "target": target})


def _grid(rows: int, cols: int, lo: int, hi: int) -> np.ndarray:
    """Anchors at the centres of a rows x cols grid over [lo, hi)^2."""
    rr = lo + (np.arange(rows) + 0.5) * (hi - lo) / rows
    cc = lo + (np.arange(cols) + 0.5) * (hi - lo) / cols
    return np.array([(int(r), int(c)) for r in rr for c in cc])


def netopt_routing(seed: int, directory: Path) -> Inputs:
    """200x200 raster with walls (about 5% nodata), 20 sources, 3 sinks."""
    n = 200
    sinks = np.array([(87, 100), (113, 85), (113, 115)])
    return _network(seed, directory, n, walls=260, wall_len=10,
                    source_anchors=_grid(4, 5, 80, 120), sink_anchors=sinks, jitter=1,
                    target_share=0.45, sink_share=1.0)


def netopt_exact(seed: int, directory: Path) -> Inputs:
    """48x48 raster, 11 sources, 2 sinks: `auto` enumerates 3^11 assignments."""
    n = 48
    anchors = _grid(3, 4, 0, n)[:11]
    sinks = np.array([(8, 40), (40, 8)])
    return _network(seed, directory, n, walls=6, wall_len=12,
                    source_anchors=anchors, sink_anchors=sinks, jitter=3,
                    target_share=0.75, sink_share=0.55)


#: name -> (generator, instances per run).  The simplex iteration count of
#: one week of weather varies by about 6% across seeds, so solve-long runs
#: three weeks per round; the other workloads vary by 4% or less.
WORKLOADS = {
    "solve-long": (solve_long, 3),
    "fleet-sensitivity": (fleet_sensitivity, 1),
    "netopt-routing": (netopt_routing, 1),
    "netopt-exact": (netopt_exact, 1),
}


def generate(name: str, seed: int, directory: Path) -> list[Inputs]:
    """The inputs of one run: instance i is generated from seed 16 * seed + i."""
    make, instances = WORKLOADS[name]
    out = []
    for i in range(instances):
        sub = directory / f"instance{i}"
        sub.mkdir()
        out.append(make(16 * seed + i, sub))
    return out

