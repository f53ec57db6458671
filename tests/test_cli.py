import dataclasses
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from coplant import cli, configio, reference
from coplant.sinknet.raster import MAX_MAGNITUDE, CostSurface, write_raster


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = reference.netzero_scenario(horizon=48)
    spec = reference.reference_system(scenario)
    (root / "scenario.cfg").write_text(configio.serialize_scenario(scenario))
    (root / "system.cfg").write_text(
        configio.serialize_system(spec, profiles_dir=root))

    cells = np.ones((6, 8))
    cells[2, 2:6] = 5.0
    cells[4, 3] = -9999.0
    write_raster(CostSurface(ncols=8, nrows=6, cell_size=10.0, origin=(0.0, 0.0),
                             nodata=-9999.0, cells=cells), root / "cost.asc")
    (root / "sources.csv").write_text(
        "id,row,col,capturable,capture_cost\nS1,0,1,2.0e6,40\nS2,5,0,1.5e6,35\n")
    (root / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\nK1,5,7,3.0e6,6\nK2,0,7,1.0e6,5\n")
    return root


@pytest.fixture(scope="module")
def saved_solution(workspace):
    """solution.json of the workspace's 48 h plant."""
    out = workspace / "solved"
    assert run(["solve", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "-o", out]) == 0
    return out / "solution.json"


def run(args):
    return cli.main([str(a) for a in args])


def readme_commands() -> list[str]:
    """Each `coplant ...` line of the README's CLI block, with continuation
    lines joined and the brackets around optional arguments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.replace("[", "").replace("]", "")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("coplant ")]


def test_readme_cli_block_parses():
    commands = readme_commands()
    assert sorted(c.split()[1] for c in commands) == [
        "fleet", "netopt", "report", "solve", "sweep"]
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_solve_writes_reports(workspace, tmp_path):
    out = tmp_path / "out"
    code = run(["solve", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "-o", out])
    assert code == 0
    for name in ("solution.json", "cost_breakdown.csv", "molecule_costs.csv",
                 "hourly_balances.csv", "storage_cycles.csv", "metrics.csv",
                 "cost_waterfall.svg"):
        assert (out / name).exists(), name


def test_solve_determinism(workspace, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(["solve", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "-o", out]) == 0
    for path1 in sorted(out1.iterdir()):
        path2 = out2 / path1.name
        assert path1.read_bytes() == path2.read_bytes(), path1.name


def test_report_reproduces_solve(workspace, tmp_path):
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert run(["solve", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "-o", out]) == 0
    assert run(["report", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg",
                "--solution", out / "solution.json", "-o", rep]) == 0
    for path in sorted(out.iterdir()):
        if path.name == "solution.json":
            continue
        assert path.read_bytes() == (rep / path.name).read_bytes(), path.name


def test_sweep(workspace, tmp_path):
    out = tmp_path / "sweep"
    code = run(["sweep", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg",
                "--x", "2.77,9.76,20.5", "-o", out])
    assert code == 0
    lines = (out / "stoichiometry_sweep.csv").read_text().splitlines()
    xs = [line.split(",")[0] for line in lines[1:]]
    assert xs == ["2.77", "9.76", "20.5"]  # order preserved


def test_netopt_and_determinism(workspace, tmp_path):
    outs = [tmp_path / "n1", tmp_path / "n2"]
    for out in outs:
        code = run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", workspace / "sources.csv",
                    "--sinks", workspace / "sinks.csv",
                    "--target", "2.5e6", "-o", out])
        assert code == 0
    for name in ("network.csv", "network_paths.csv", "network.svg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the 8x6 surface is one image of 24 units per cell; the only rects are
    # the two sink markers, 8 units square around their cell centres
    svg = "{http://www.w3.org/2000/svg}"
    root = ET.parse(outs[0] / "network.svg").getroot()
    (image,) = root.iter(svg + "image")
    assert [image.get(k) for k in ("x", "y", "width", "height")] == \
        ["20", "20", "192", "144"]
    assert sorted((r.get("x"), r.get("y"), r.get("width"), r.get("height"))
                  for r in root.iter(svg + "rect")) == \
        [("196", "148", "8", "8"), ("196", "28", "8", "8")]


def test_netopt_warns_of_unreachable_nodes(tmp_path, capsys):
    """A node walled off by nodata cells is named on stderr; the rest is solved."""
    cells = np.ones((3, 4))
    cells[:, 2] = -9999.0
    write_raster(CostSurface(ncols=4, nrows=3, cell_size=10.0, origin=(0.0, 0.0),
                             nodata=-9999.0, cells=cells), tmp_path / "cost.asc")
    (tmp_path / "sources.csv").write_text(
        "id,row,col,capturable,capture_cost\nS1,0,0,1e6,30\nS2,0,3,1e6,30\n")
    (tmp_path / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\nK1,2,0,2e6,5\n")
    assert run(["netopt", "--surface", tmp_path / "cost.asc",
                "--sources", tmp_path / "sources.csv", "--sinks", tmp_path / "sinks.csv",
                "--target", "1e6", "-o", tmp_path / "net"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: unreachable sources ['S2'], sinks []\n"
    rows = (tmp_path / "net" / "network.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["S1", "K1"]]


def write_same_cell_inputs(root):
    """A 3x3 raster, source A on sink K's cell and source B in a corner."""
    write_raster(CostSurface(ncols=3, nrows=3, cell_size=10.0, origin=(0.0, 0.0),
                             nodata=-9999.0, cells=np.ones((3, 3))), root / "cost.asc")
    (root / "sources.csv").write_text(
        "id,row,col,capturable,capture_cost\nA,1,1,100,30\nB,0,0,100,30\n")
    (root / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\nK,1,1,1000,5\n")
    return ["netopt", "--surface", root / "cost.asc", "--sources", root / "sources.csv",
            "--sinks", root / "sinks.csv", "--target", "150", "-o", root / "net"]


def test_netopt_every_route_has_a_trace(tmp_path):
    """Each network.csv route has rows in network_paths.csv that run from its
    source's cell to its sink's, a source on its sink's cell included."""
    assert run(write_same_cell_inputs(tmp_path)) == 0
    out = tmp_path / "net"
    cells = {"A": ["1", "1"], "B": ["0", "0"], "K": ["1", "1"]}
    routes = [r.split(",")[:2] for r in (out / "network.csv").read_text().splitlines()[1:]]
    assert routes == [["A", "K"], ["B", "K"]]
    trace = [r.split(",") for r in (out / "network_paths.csv").read_text().splitlines()[1:]]
    for source, sink in routes:
        rows = [r for r in trace if r[:2] == [source, sink]]
        assert [r[2] for r in rows] == [str(i) for i in range(len(rows))]
        assert rows[0][3:5] == cells[source] and rows[-1][3:5] == cells[sink]
    assert 'points=""' not in (out / "network.svg").read_text()


def test_netopt_every_route_is_visible(tmp_path):
    """Each network.csv route is drawn in network.svg in the route colour
    with a visible extent: a polyline through the centres of its cells with
    two or more distinct points, or, for a one-cell route, a ring of
    positive radius around its cell."""
    assert run(write_same_cell_inputs(tmp_path)) == 0
    out = tmp_path / "net"
    routes = [r.split(",")[:2] for r in (out / "network.csv").read_text().splitlines()[1:]]
    trace = [r.split(",") for r in (out / "network_paths.csv").read_text().splitlines()[1:]]
    svg = "{http://www.w3.org/2000/svg}"
    root = ET.parse(out / "network.svg").getroot()
    (image,) = root.iter(svg + "image")
    margin, cell = float(image.get("x")), float(image.get("width")) / 3

    def centre(row, col):
        return margin + (int(col) + 0.5) * cell, margin + (int(row) + 0.5) * cell

    drawn = [e for e in root if e.get("stroke") == "rgb(200,60,30)"]
    lines = [[tuple(map(float, p.split(","))) for p in e.get("points").split()]
             for e in drawn if e.tag == svg + "polyline"]
    rings = [(float(e.get("cx")), float(e.get("cy"))) for e in drawn
             if e.tag == svg + "circle" and float(e.get("r")) > 0]
    assert len(routes) == 2 and len(drawn) == len(routes)
    for source, sink in routes:
        points = [centre(*r[3:5]) for r in trace if r[:2] == [source, sink]]
        if len(points) == 1:
            assert points[0] in rings, (source, sink)
        else:
            assert points in lines and len(set(points)) >= 2, (source, sink)


def test_netopt_binding_sinks_above_exact_limit(tmp_path, capsys):
    """13 sources of 1 Mt/yr and two sinks of 7.15 Mt/yr, target 13 Mt/yr:
    local search starts with every source at the cheaper sink, which cannot
    hold the target, and still lays out a network that meets it."""
    write_raster(CostSurface(ncols=8, nrows=4, cell_size=10.0, origin=(0.0, 0.0),
                             nodata=-9999.0, cells=np.ones((4, 8))), tmp_path / "cost.asc")
    (tmp_path / "sources.csv").write_text("id,row,col,capturable,capture_cost\n" + "".join(
        f"S{i:02d},{i // 8},{i % 8},1e6,{30 + i}\n" for i in range(13)))
    (tmp_path / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\nK1,3,0,7.15e6,5\nK2,3,7,7.15e6,6\n")
    out = tmp_path / "net"
    assert run(["netopt", "--surface", tmp_path / "cost.asc",
                "--sources", tmp_path / "sources.csv", "--sinks", tmp_path / "sinks.csv",
                "--target", "13e6", "--method", "auto", "-o", out]) == 0
    rows = (out / "network.csv").read_text().splitlines()[1:]
    assert len(rows) == 13
    assert sum(float(r.split(",")[2]) for r in rows) == pytest.approx(13e6, rel=1e-12)
    for sink in ("K1", "K2"):
        assert sum(float(r.split(",")[2]) for r in rows if r.split(",")[1] == sink) <= 7.15e6


ABOVE_BOUND = math.nextafter(MAX_MAGNITUDE, math.inf)
ABOVE_KINDS = ("cell", "cellsize", "capturable", "capture_cost", "capacity",
               "sequestration_cost")


def write_bound_inputs(root, above=None):
    """netopt inputs with every open cell, the cell size, and each node's
    amount and |cost| at the magnitude bound: a 12 x 12 raster with two
    nodata walls, three sources and two sinks.  `above` names one value to
    set one step above the bound instead: "cell" (row 3, col 3),
    "cellsize", or the node column of source line 3 or sink line 2."""
    def value(kind, sign=1.0):
        return repr(sign * (ABOVE_BOUND if above == kind else MAX_MAGNITUDE))

    cells = [[repr(MAX_MAGNITUDE)] * 12 for _ in range(12)]
    cells[3][3] = value("cell")
    for r in range(10):
        cells[r][6] = "-9999"
    for c in range(5):
        cells[4][c] = "-9999"
    (root / "cost.asc").write_text(
        f"NCOLS 12\nNROWS 12\nCELLSIZE {value('cellsize')}\nNODATA_VALUE -9999\n"
        + "".join(" ".join(row) + "\n" for row in cells))
    (root / "sources.csv").write_text(
        "id,row,col,capturable,capture_cost\n"
        f"S1,0,0,{MAX_MAGNITUDE!r},{value('capture_cost', -1.0)}\n"
        f"S2,7,2,{value('capturable')},{MAX_MAGNITUDE!r}\n"
        f"S3,1,10,{MAX_MAGNITUDE!r},{MAX_MAGNITUDE!r}\n")
    (root / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\n"
        f"K1,0,11,{value('capacity')},{value('sequestration_cost')}\n"
        f"K2,11,3,{MAX_MAGNITUDE!r},{-MAX_MAGNITUDE!r}\n")
    return ["netopt", "--surface", root / "cost.asc", "--sources", root / "sources.csv",
            "--sinks", root / "sinks.csv", "--target", "1.5e15", "-o", root / "net"]


def test_netopt_inputs_at_the_bound(tmp_path, capsys):
    """Every cell, the cell size, and every amount and |cost| at the bound:
    no float overflows, no RuntimeWarning escapes, and the network costs a
    finite $/t."""
    argv = write_bound_inputs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    per_tonne = float(capsys.readouterr().out.split(" $/t")[0].split()[-1])
    assert math.isfinite(per_tonne)
    rows = (tmp_path / "net" / "network.csv").read_text().splitlines()[1:]
    assert sum(float(r.split(",")[2]) for r in rows) == 1.5e15
    assert all(math.isfinite(float(x)) for r in rows for x in r.split(",")[2:4])


def test_fleet(workspace, tmp_path):
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for name, seed in (("s1", 1), ("w1", 2)):
        maker = reference.solar_profile if name.startswith("s") else \
            reference.wind_profile
        with (profiles / f"{name}.csv").open("w") as fh:
            fh.write("cf\n")
            fh.writelines(f"{v:.8g}\n" for v in maker(48, seed))
    plants = tmp_path / "plants.csv"
    plants.write_text("id,lat,lon,clinker_tpd,solar_ref,wind_ref\n"
                      "P1,30,110,4000,s1,w1\n")
    out = tmp_path / "fleet_out"
    code = run(["fleet", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg",
                "--plants", plants, "--profiles", profiles, "-o", out])
    assert code == 0
    assert (out / "fleet_results.csv").exists()
    assert (out / "cost_capacity_curve.csv").exists()


def write_fleet_inputs(root, n_plants):
    """Plants P1..Pn with their own solar and wind profiles at 48 h."""
    profiles = root / "profiles"
    profiles.mkdir()
    rows = ["id,lat,lon,clinker_tpd,solar_ref,wind_ref"]
    for i in range(1, n_plants + 1):
        for kind, maker in (("s", reference.solar_profile),
                            ("w", reference.wind_profile)):
            with (profiles / f"{kind}{i}.csv").open("w") as fh:
                fh.write("cf\n")
                fh.writelines(f"{v:.8g}\n" for v in maker(48, i))
        rows.append(f"P{i},30,{109 + i},{3000 + 1000 * i},s{i},w{i}")
    plants = root / "plants.csv"
    plants.write_text("\n".join(rows) + "\n")
    return plants, profiles


def test_fleet_sensitivity_uses_workers(workspace, tmp_path, monkeypatch):
    """COPLANT_WORKERS reaches the one run_fleet call and its one pool of
    per-plant jobs, which also solve the perturbations."""
    from coplant import fleet
    runs, pools, starts = [], [], []
    run_fleet = fleet.run_fleet

    def recording_run_fleet(plants, template, scenario, profiles_dir, workers=1,
                            sensitivity=False):
        runs.append((workers, sensitivity))
        return run_fleet(plants, template, scenario, profiles_dir, workers, sensitivity)

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            jobs = list(zip(*iterables))
            pools.append((self.max_workers, len(jobs)))
            return [fn(*job) for job in jobs]

    def fake_solve_plant(template, scenario, plant, profiles_dir, perturbations=(),
                         basis=None):
        assert perturbations == tuple(fleet.PERTURBATIONS.values())
        starts.append((plant.id, basis))
        moved = fleet.PlantResult(plant=plant, abatement=50.0, cement_capacity=1.0,
                                  flex_inflex_ratio=float("nan"))
        return fleet.PlantResult(plant=plant, abatement=50.0, cement_capacity=1.0,
                                 flex_inflex_ratio=1.0, perturbed=(moved,) * 6), \
            f"basis of {plant.id}"

    monkeypatch.setattr(fleet, "run_fleet", recording_run_fleet)
    monkeypatch.setattr(fleet, "_solve_plant", fake_solve_plant)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("COPLANT_WORKERS", "2")
    plants = tmp_path / "plants.csv"
    plants.write_text("id,lat,lon,clinker_tpd,solar_ref,wind_ref\n"
                      "P1,30,110,4000,s1,w1\nP2,31,111,5000,s1,w1\nP3,32,112,6000,s1,w1\n")
    code = run(["fleet", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "--plants", plants,
                "--profiles", tmp_path, "--sensitivity", "-o", tmp_path / "out"])
    assert code == 0
    assert runs == [(2, True)]
    # P1 first in this process; one pooled job for each later plant, from P1's basis
    assert pools == [(2, 2)]
    assert starts == [("P1", None), ("P2", "basis of P1"), ("P3", "basis of P1")]


def test_fleet_sensitivity_solves_eight_lps_per_plant(workspace, tmp_path, monkeypatch):
    """Two modes and six capex perturbations per plant: 8 LPs."""
    from coplant import lp
    plants, profiles = write_fleet_inputs(tmp_path, 2)
    calls = []
    solve_lp = lp.solve_lp

    def counting(problem, basis=None, *, keep_basis=False):
        calls.append(1)
        return solve_lp(problem, basis, keep_basis=keep_basis)

    monkeypatch.setattr(lp, "solve_lp", counting)
    code = run(["fleet", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "--plants", plants,
                "--profiles", profiles, "--sensitivity", "-o", tmp_path / "out"])
    assert code == 0
    assert len(calls) == 8 * 2


def test_only_fleet_own_mode_solves_keep_a_basis(workspace, tmp_path, monkeypatch):
    """`solve` and `sweep` ask HiGHS for no basis file; a fleet asks for one
    per plant, the basis its later solves start from."""
    from coplant import lp
    linprog = lp.linprog
    written = []

    def recording(*args, options, **kwargs):
        written.append("write_basis_file" in options)
        return linprog(*args, options=options, **kwargs)

    monkeypatch.setattr(lp, "linprog", recording)
    config = ["--spec", workspace / "system.cfg", "--scenario", workspace / "scenario.cfg"]
    assert run(["solve", *config, "-o", tmp_path / "solve"]) == 0
    assert run(["sweep", *config, "--x", "2.77,9.76", "-o", tmp_path / "sweep"]) == 0
    assert written == [False] * 3
    written.clear()
    plants, profiles = write_fleet_inputs(tmp_path, 3)
    assert run(["fleet", *config, "--plants", plants, "--profiles", profiles,
                "--sensitivity", "-o", tmp_path / "fleet"]) == 0
    assert written == ([True] + [False] * 7) * 3


def test_fleet_sensitivity_builds_at_most_two_lps_per_plant(workspace, tmp_path,
                                                           monkeypatch):
    """Each plant's LP is built once and re-priced for every perturbation; a
    second build is the other flexibility mode."""
    from coplant import dispatch
    plants, profiles = write_fleet_inputs(tmp_path, 2)
    built = []
    build_lp = dispatch.build_lp

    def counting(spec, scenario):
        built.append(scenario.flexibility_mode)
        return build_lp(spec, scenario)

    monkeypatch.setattr(dispatch, "build_lp", counting)
    assert run(["fleet", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "--plants", plants,
                "--profiles", profiles, "--sensitivity", "-o", tmp_path / "out"]) == 0
    assert built == ["flexible", "inflexible"] * 2


def test_fleet_sensitivity_without_eligible_plants(workspace, tmp_path):
    """A fleet whose every row is out of range writes empty curves and no plots."""
    plants = tmp_path / "plants.csv"
    plants.write_text("id,lat,lon,clinker_tpd,solar_ref,wind_ref\n"
                      "P1,30,110,100,s1,w1\n")
    out = tmp_path / "out"
    assert run(["fleet", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "--plants", plants,
                "--profiles", tmp_path, "--sensitivity", "-o", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "cost_capacity_curve.csv", "fleet_results.csv", "sensitivity_curves.csv"]
    assert (out / "sensitivity_curves.csv").read_text().splitlines() == [
        "curve,cumulative_capacity,abatement_cost"]


def test_solve_mps_builds_lp_once(workspace, tmp_path, monkeypatch):
    from coplant import dispatch
    built = []
    build_lp = dispatch.build_lp

    def counting(spec, scenario):
        built.append(1)
        return build_lp(spec, scenario)

    monkeypatch.setattr(dispatch, "build_lp", counting)
    mps = tmp_path / "model.mps"
    assert run(["solve", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "--mps", mps,
                "-o", tmp_path / "out"]) == 0
    assert len(built) == 1
    assert mps.read_text().startswith("NAME")
    assert (tmp_path / "out" / "solution.json").exists()


BOM = "\ufeff".encode()


def bom_inputs(workspace, saved_solution, root):
    """A copy of the workspace's inputs under root, with a one-plant fleet's
    plants and profiles and the saved solution, and the argv, bar `-o`, of
    each command that reads them."""
    shutil.copytree(workspace, root)
    plants, profiles = write_fleet_inputs(root, 1)
    solution = root / "solution.json"
    shutil.copyfile(saved_solution, solution)
    plant = ["--spec", root / "system.cfg", "--scenario", root / "scenario.cfg"]
    return {"solve": ["solve", *plant],
            "fleet": ["fleet", *plant, "--plants", plants, "--profiles", profiles],
            "netopt": ["netopt", "--surface", root / "cost.asc", "--sources",
                       root / "sources.csv", "--sinks", root / "sinks.csv", "--target", "2.5e6"],
            "report": ["report", *plant, "--solution", solution]}


@pytest.mark.parametrize("command, name", [
    ("solve", "scenario.cfg"), ("solve", "system.cfg"), ("fleet", "plants.csv"),
    ("fleet", "profiles/s1.csv"), ("netopt", "sources.csv"), ("netopt", "sinks.csv"),
    ("netopt", "cost.asc"), ("report", "solution.json")])
def test_leading_byte_order_mark_is_dropped(workspace, saved_solution, tmp_path, command, name):
    """Every reader of an outside file takes a UTF-8 byte order mark at its
    start, as Excel's "CSV UTF-8" writes, and writes the files it writes
    without one."""
    argv = bom_inputs(workspace, saved_solution, tmp_path / "in")[command]
    assert run([*argv, "-o", tmp_path / "plain"]) == 0
    path = tmp_path / "in" / name
    path.write_bytes(BOM + path.read_bytes())
    assert run([*argv, "-o", tmp_path / "bom"]) == 0
    written = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "bom").iterdir())
    for file in written:
        assert (tmp_path / "plain" / file).read_bytes() == \
            (tmp_path / "bom" / file).read_bytes(), file


@pytest.mark.parametrize("command, name, line, message", [
    ("netopt", "sources.csv", 0, "sources.csv:2: bad source row: 'id'"),
    ("netopt", "cost.asc", 1, "missing header key NROWS"),
    ("solve", "scenario.cfg", 1, "missing required key 'stoichiometry_x'")])
def test_byte_order_mark_past_the_start_is_text(workspace, saved_solution, tmp_path, capsys,
                                                command, name, line, message):
    """A byte order mark after the first one, or at the start of a later
    line, is text, and here makes a bad header or key."""
    argv = bom_inputs(workspace, saved_solution, tmp_path / "in")[command]
    path = tmp_path / "in" / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line] = BOM * (line == 0) + BOM + lines[line]
    path.write_bytes(b"".join(lines))
    assert run([*argv, "-o", tmp_path / "x"]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


class TestExitCodes:
    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", ""])
    def test_bad_workers(self, workspace, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("COPLANT_WORKERS", value)
        plants, profiles = write_fleet_inputs(tmp_path, 1)
        assert run(["fleet", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "--plants", plants,
                    "--profiles", profiles, "-o", tmp_path / "out"]) == 3
        assert "COPLANT_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_error(self):
        assert cli.main(["solve"]) == 2
        assert cli.main(["bogus-command"]) == 2

    def test_validation_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nstoichiometry_x = 5\nbogus = 1\n")
        assert run(["solve", "--spec", workspace / "system.cfg",
                    "--scenario", bad, "-o", tmp_path / "x"]) == 3

    def test_io_error(self, workspace, tmp_path):
        assert run(["solve", "--spec", tmp_path / "missing.cfg",
                    "--scenario", workspace / "scenario.cfg",
                    "-o", tmp_path / "x"]) == 5

    def test_infeasible(self, workspace, tmp_path):
        scenario = dataclasses.replace(
            reference.netzero_scenario(horizon=48), stoichiometry_x=2.0)
        spec = reference.reference_system(scenario)
        (tmp_path / "scn.cfg").write_text(configio.serialize_scenario(scenario))
        (tmp_path / "sys.cfg").write_text(
            configio.serialize_system(spec, profiles_dir=tmp_path))
        assert run(["solve", "--spec", tmp_path / "sys.cfg",
                    "--scenario", tmp_path / "scn.cfg",
                    "-o", tmp_path / "x"]) == 4

    def test_netopt_infeasible_target(self, workspace, tmp_path):
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", workspace / "sources.csv",
                    "--sinks", workspace / "sinks.csv",
                    "--target", "1e9", "-o", tmp_path / "x"]) == 4

    @pytest.mark.parametrize("method", ["exact", "heuristic"])
    def test_netopt_method_auto_only(self, workspace, tmp_path, method):
        """The source count picks the search; `--method` accepts only auto."""
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", workspace / "sources.csv",
                    "--sinks", workspace / "sinks.csv", "--target", "2.5e6",
                    "--method", method, "-o", tmp_path / "x"]) == 2
        assert not (tmp_path / "x").exists()

    def test_fleet_non_finite_capacity(self, workspace, tmp_path, capsys):
        plants, profiles = write_fleet_inputs(tmp_path, 2)
        rows = plants.read_text().splitlines()
        rows[1] = rows[1].replace(",4000,", ",nan,")
        plants.write_text("\n".join(rows) + "\n")
        assert run(["fleet", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "--plants", plants,
                    "--profiles", profiles, "-o", tmp_path / "x"]) == 3
        assert "plants.csv:2: column 'clinker_tpd'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_netopt_bad_sources_csv(self, workspace, tmp_path):
        bad = tmp_path / "sources.csv"
        bad.write_text("id,row,col,capturable,capture_cost\nS1,0,zero,1,1\n")
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", bad, "--sinks", workspace / "sinks.csv",
                    "--target", "1", "-o", tmp_path / "x"]) == 3

    def test_netopt_repeated_node_column(self, workspace, tmp_path, capsys):
        bad = tmp_path / "sources.csv"
        bad.write_text("id,row,col,capturable,capture_cost,capturable\nS1,0,0,1.0,1,5.0\n")
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", bad, "--sinks", workspace / "sinks.csv",
                    "--target", "1", "-o", tmp_path / "x"]) == 3
        assert "sources.csv:1: repeated source column 'capturable'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("stoichiometry_x", "nan"), ("grid_emission_factor", "nan"),
        ("incumbent_cost_cement", "inf")])
    def test_solve_non_finite_scenario(self, workspace, tmp_path, capsys, key, value):
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
                 for line in (workspace / "scenario.cfg").read_text().splitlines()]
        assert f"{key} = {value}" in lines
        (tmp_path / "scn.cfg").write_text("\n".join(lines) + "\n")
        assert run(["solve", "--spec", workspace / "system.cfg",
                    "--scenario", tmp_path / "scn.cfg", "-o", tmp_path / "x"]) == 3
        assert f"key '{key}': not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind, row", [
        ("sources", "S1,0,1,2.0e6,nan"), ("sources", "S1,0,1,inf,40"),
        ("sinks", "K1,5,7,nan,6"), ("sinks", "K1,5,7,3.0e6,-inf")])
    def test_netopt_non_finite_node(self, workspace, tmp_path, capsys, kind, row):
        nodes = {name: workspace / f"{name}.csv" for name in ("sources", "sinks")}
        header = nodes[kind].read_text().splitlines()[0]
        nodes[kind] = tmp_path / f"{kind}.csv"
        nodes[kind].write_text(f"{header}\n{row}\n")
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", nodes["sources"], "--sinks", nodes["sinks"],
                    "--target", "1", "-o", tmp_path / "x"]) == 3
        assert "not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["sources", "sinks"])
    def test_netopt_repeated_node_id(self, workspace, tmp_path, capsys, kind):
        nodes = {name: workspace / f"{name}.csv" for name in ("sources", "sinks")}
        lines = nodes[kind].read_text().splitlines()
        node_id = lines[1].split(",")[0]
        nodes[kind] = tmp_path / f"{kind}.csv"
        nodes[kind].write_text("\n".join(lines + [lines[1]]) + "\n")
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", nodes["sources"], "--sinks", nodes["sinks"],
                    "--target", "1", "-o", tmp_path / "x"]) == 3
        assert (f"{kind}.csv:{len(lines) + 1}: repeated {kind[:-1]} id '{node_id}' "
                "(first on line 2)") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["sources", "sinks"])
    @pytest.mark.parametrize("layout, message", [
        ("{0}\n{1}\n\n{bad}\n", "{kind}.csv:4: bad {node} row"),
        ('{0}\n"X\nY"{rest}\n{bad}\n', "{kind}.csv:4: bad {node} row"),
        ("{0}\n{1}\n\n{1}\n", "{kind}.csv:4: repeated {node} id {id!r} (first on line 2)"),
        ('{0}\n"X\nY"{rest}\n"X\nY"{rest}\n',
         "{kind}.csv:5: repeated {node} id 'X\\nY' (first on line 3)"),
        ("\n{0}\n{1}\n", "{kind}.csv:2: bad {node} row: 'id'")],
        ids=["bad-after-blank", "bad-after-multiline", "repeated-after-blank",
             "repeated-multiline", "blank-before-header"])
    def test_netopt_node_error_names_file_line(self, workspace, tmp_path, capsys, kind,
                                               layout, message):
        """A node error names the file line on which its row ends, past blank
        lines and quoted fields that span lines.  The first line is the
        header, blank or not."""
        nodes = {name: workspace / f"{name}.csv" for name in ("sources", "sinks")}
        lines = nodes[kind].read_text().splitlines()
        fields = lines[2].split(",")
        bad = ",".join(fields[:3] + ["x"] + fields[4:])
        nodes[kind] = tmp_path / f"{kind}.csv"
        nodes[kind].write_text(layout.format(*lines, bad=bad, rest=lines[1][lines[1].index(","):]))
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", nodes["sources"], "--sinks", nodes["sinks"],
                    "--target", "1", "-o", tmp_path / "x"]) == 3
        assert message.format(kind=kind, node=kind[:-1], id=lines[1].split(",")[0]) \
            in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_netopt_non_finite_target(self, workspace, tmp_path, capsys, target):
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", workspace / "sources.csv",
                    "--sinks", workspace / "sinks.csv",
                    "--target", target, "-o", tmp_path / "x"]) == 3
        assert "target must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("config, line, value, message", [
        ("scenario.cfg", "transport_cost = 8.7", "transport_cost = 1e19",
         "has cost 1.825e+21; HiGHS reads a magnitude of 1e+20 or more as infinite"),
        ("system.cfg", "discharge_eff = 0.95", "discharge_eff = 1e-300",
         "has coefficient 1e+300 on variable")], ids=["transport-cost", "discharge-eff"])
    def test_solve_magnitude_highs_misreads(self, workspace, tmp_path, capsys, config, line,
                                            value, message):
        """A transport cost of 1e19 $/t puts a cost HiGHS reads as infinite
        into the LP, which failed in HiGHS (exit 6); a battery discharge
        efficiency of 1e-300 a coefficient of 1e300, which HiGHS read as
        infeasible (exit 4).  Both are input errors, named before HiGHS runs."""
        for name in ("scenario.cfg", "system.cfg", "solar.csv", "wind.csv"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        text = (tmp_path / config).read_text()
        assert line in text.splitlines()
        (tmp_path / config).write_text(text.replace(line, value))
        assert run(["solve", "--spec", tmp_path / "system.cfg",
                    "--scenario", tmp_path / "scenario.cfg", "-o", tmp_path / "x"]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x" / "solution.json").exists()

    def test_solve_empty_profile(self, workspace, tmp_path, capsys):
        system = (workspace / "system.cfg").read_text()
        assert "profile_file = solar.csv" in system
        (tmp_path / "sys.cfg").write_text(
            system.replace("profile_file = solar.csv", "profile_file = empty.csv"))
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "wind.csv").write_bytes((workspace / "wind.csv").read_bytes())
        assert run(["solve", "--spec", tmp_path / "sys.cfg",
                    "--scenario", workspace / "scenario.cfg",
                    "-o", tmp_path / "x"]) == 3
        assert "empty.csv is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("row, col", [(0, 4), (5, 1)])
    def test_netopt_node_outside_raster(self, tmp_path, capsys, row, col):
        """A source or a sink off the raster is named by file, line and id."""
        write_raster(CostSurface(ncols=3, nrows=3, cell_size=1.0, origin=(0.0, 0.0),
                                 nodata=-9999.0, cells=np.ones((3, 3))),
                     tmp_path / "cost.asc")
        for kind, node_id in (("source", "S2"), ("sink", "K2")):
            rows = {"source": "S1,0,0,1.0,1\n", "sink": "K1,2,2,1.0,1\n"}
            rows[kind] += f"{node_id},{row},{col},1.0,1\n"
            (tmp_path / "sources.csv").write_text(
                "id,row,col,capturable,capture_cost\n" + rows["source"])
            (tmp_path / "sinks.csv").write_text(
                "id,row,col,capacity,sequestration_cost\n" + rows["sink"])
            assert run(["netopt", "--surface", tmp_path / "cost.asc",
                        "--sources", tmp_path / "sources.csv",
                        "--sinks", tmp_path / "sinks.csv",
                        "--target", "0.5", "-o", tmp_path / "x"]) == 3
            assert (f"invalid input: {tmp_path / kind}s.csv:3: {kind} '{node_id}' cell "
                    f"(row {row}, col {col}) is outside the 3x3 raster"
                    ) in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("sources, sinks, message", [
        ("S1,0,0,-5,40\nS2,0,1,4,40\n", "K1,3,3,10,5\n",
         "sources.csv:2: source capturable must be >= 0, got -5"),
        ("S1,0,0,4,40\n", "K1,3,3,-10,5\nK2,3,2,10,5\n",
         "sinks.csv:2: sink capacity must be >= 0, got -10")], ids=["source", "sink"])
    def test_netopt_negative_amount(self, tmp_path, capsys, sources, sinks, message):
        write_raster(CostSurface(ncols=4, nrows=4, cell_size=1.0, origin=(0.0, 0.0),
                                 nodata=-9999.0, cells=np.ones((4, 4))),
                     tmp_path / "cost.asc")
        (tmp_path / "sources.csv").write_text(
            "id,row,col,capturable,capture_cost\n" + sources)
        (tmp_path / "sinks.csv").write_text(
            "id,row,col,capacity,sequestration_cost\n" + sinks)
        assert run(["netopt", "--surface", tmp_path / "cost.asc",
                    "--sources", tmp_path / "sources.csv",
                    "--sinks", tmp_path / "sinks.csv",
                    "--target", "3", "-o", tmp_path / "x"]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind, row, message", [
        ("sinks", "K1,5,7,3.0e6,1e308", "sinks.csv:2: sink sequestration_cost must be a "
         "finite number of magnitude at most 1e+15, got 1e+308"),
        ("sources", "S1,0,1,2.0e6,-1e308", "sources.csv:2: source capture_cost must be a "
         "finite number of magnitude at most 1e+15, got -1e+308")], ids=["sink", "source"])
    def test_netopt_node_cost_overflow(self, workspace, tmp_path, capsys, kind, row,
                                       message):
        """A node cost whose product with the node's flow would overflow a
        float is above the magnitude bound, and is rejected as its file is
        read, with the file and line named."""
        nodes = {name: workspace / f"{name}.csv" for name in ("sources", "sinks")}
        lines = nodes[kind].read_text().splitlines()
        nodes[kind] = tmp_path / f"{kind}.csv"
        nodes[kind].write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", nodes["sources"], "--sinks", nodes["sinks"],
                    "--target", "2.5e6", "-o", tmp_path / "x"]) == 3
        assert f"invalid input: {tmp_path / message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cost", [1e307, 1.7e308, 1e305], ids=[
        "path-sum-overflows", "step-overflows", "pipe-cost-overflows"])
    def test_netopt_corridor_cost_overflow(self, tmp_path, capsys, cost):
        """Cost cells that gave corridors or pipes past the largest float (29
        cells of 1e307 summed, one step between two cells of 1.7e308, a pipe
        along 29 cells of 1e305) are above the magnitude bound, and the
        raster is rejected as it is read, with the first such cell named."""
        (tmp_path / "cost.asc").write_text(
            "NCOLS 30\nNROWS 1\nCELLSIZE 1\nNODATA_VALUE -9999\n"
            + " ".join(["1"] * 3 + [repr(cost)] * 27) + "\n")
        (tmp_path / "sources.csv").write_text(
            "id,row,col,capturable,capture_cost\nS1,0,0,1.0,1\n")
        (tmp_path / "sinks.csv").write_text(
            "id,row,col,capacity,sequestration_cost\nK1,0,29,1.0,1\n")
        assert run(["netopt", "--surface", tmp_path / "cost.asc",
                    "--sources", tmp_path / "sources.csv",
                    "--sinks", tmp_path / "sinks.csv",
                    "--target", "0.5", "-o", tmp_path / "x"]) == 3
        assert (f"invalid input: {tmp_path / 'cost.asc'}: cost cell {cost} at row 0, col 3 "
                "is outside [0, 1e+15]") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("above, where, message", [
        ("cell", "cost.asc", f"cost cell {ABOVE_BOUND!r} at row 3, col 3 is outside [0, 1e+15]"),
        ("cellsize", "cost.asc", f"CELLSIZE must be at most 1e+15, got {ABOVE_BOUND!r}"),
        ("capturable", "sources.csv:3", "source capturable"),
        ("capture_cost", "sources.csv:2", "source capture_cost"),
        ("capacity", "sinks.csv:2", "sink capacity"),
        ("sequestration_cost", "sinks.csv:2", "sink sequestration_cost")],
        ids=ABOVE_KINDS)
    def test_netopt_input_above_the_bound(self, tmp_path, capsys, above, where, message):
        """One step above the magnitude bound, each input kind is rejected
        where it is read, naming the file and line, or the raster cell."""
        argv = write_bound_inputs(tmp_path, above)
        assert run(argv) == 3
        if ".csv" in where:
            sign = "-" if above == "capture_cost" else ""
            message += (" must be a finite number of magnitude at most 1e+15, got "
                        f"{sign}{ABOVE_BOUND!r}")
        assert f"{tmp_path / where}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "net").exists()

    def test_netopt_negative_cost_accepted(self, workspace, tmp_path):
        """An equivalent capture cost below zero is a saving, not an error."""
        (tmp_path / "sources.csv").write_text(
            "id,row,col,capturable,capture_cost\nS1,0,1,2.0e6,-40\n")
        assert run(["netopt", "--surface", workspace / "cost.asc",
                    "--sources", tmp_path / "sources.csv",
                    "--sinks", workspace / "sinks.csv",
                    "--target", "1e6", "-o", tmp_path / "x"]) == 0

    @pytest.mark.parametrize("nodata, cells, message", [
        ("-9999", "1 nan 1\n1 inf 1\n1 1 1\n", "non-finite cost cell nan at row 0, col 1"),
        ("-9999", "1 nan 1\nnan nan nan\n1 nan 1\n", "non-finite cost cell nan"),
        ("nan", "1 1 1\n1 nan 1\n1 1 1\n", "NODATA_VALUE must be a finite number")])
    def test_netopt_non_finite_raster(self, tmp_path, capsys, nodata, cells, message):
        (tmp_path / "cost.asc").write_text(
            f"NCOLS 3\nNROWS 3\nCELLSIZE 1\nNODATA_VALUE {nodata}\n{cells}")
        (tmp_path / "sources.csv").write_text(
            "id,row,col,capturable,capture_cost\nS1,0,0,1.0,1\n")
        (tmp_path / "sinks.csv").write_text(
            "id,row,col,capacity,sequestration_cost\nK1,2,2,1.0,1\n")
        assert run(["netopt", "--surface", tmp_path / "cost.asc",
                    "--sources", tmp_path / "sources.csv",
                    "--sinks", tmp_path / "sinks.csv",
                    "--target", "0.5", "-o", tmp_path / "x"]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("header, message", [
        ("NCOLS 3\nNROWS 3\nCELLSIZE nan\n", "CELLSIZE must be a finite number > 0, got nan"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE -5\n", "CELLSIZE must be a finite number > 0, got -5.0"),
        ("NCOLS 3.7\nNROWS 3\nCELLSIZE 1\n", "NCOLS must be a positive integer, got 3.7"),
        ("NCOLS 3\nNROWS 3\nXLLCORNER nan\nCELLSIZE 1\n",
         "XLLCORNER and YLLCORNER must be finite numbers, got (nan, 0.0)"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\nCELLSIZE 7\n", "cost.asc:4: repeated header key CELLSIZE"),
        ("NCOLS 3 4\nNROWS 3\nCELLSIZE 1\n", "cost.asc:1: malformed header line"),
        ("NCOLS 3\nNROWS x\nCELLSIZE 1\n", "cost.asc:2: non-numeric header value 'x'")])
    def test_netopt_bad_raster_header(self, tmp_path, capsys, header, message):
        (tmp_path / "cost.asc").write_text(f"{header}1 1 1\n1 1 1\n1 1 1\n")
        (tmp_path / "sources.csv").write_text(
            "id,row,col,capturable,capture_cost\nS1,0,0,1.0,1\n")
        (tmp_path / "sinks.csv").write_text(
            "id,row,col,capacity,sequestration_cost\nK1,2,2,1.0,1\n")
        assert run(["netopt", "--surface", tmp_path / "cost.asc",
                    "--sources", tmp_path / "sources.csv",
                    "--sinks", tmp_path / "sinks.csv",
                    "--target", "0.5", "-o", tmp_path / "x"]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cut, message", [
        (lambda d: d.update(horizon=168),
         "horizon is 168 hours, but the scenario's horizon_hours is 48"),
        (lambda d: d["capacities"].pop("asu"), "no capacity for 'asu', which the system has"),
        (lambda d: d["activity"].pop("kiln"), "no activity for 'kiln', which the system has"),
        (lambda d: d["activity"].update(asu=d["activity"]["asu"][:10]),
         "activity 'asu' has 10 entries, but the horizon is 48 hours"),
        (lambda d: d.update(curtailment=d["curtailment"][:47]),
         "curtailment has 47 entries, but the horizon is 48 hours"),
        (lambda d: d["capacities"].update(ghost=1.0),
         "capacity for 'ghost', which the system lacks"),
        (lambda d: d["activity"].update(ghost=d["activity"]["asu"]),
         "activity for 'ghost', which the system lacks"),
        (lambda d: d["charge"].update(ghost_tank=d["charge"]["battery"]),
         "charge for 'ghost_tank', which the system lacks"),
        (lambda d: d["discharge"].update(ghost_tank=d["discharge"]["battery"]),
         "discharge for 'ghost_tank', which the system lacks"),
        (lambda d: d["soc"].update(ghost_tank=d["soc"]["battery"]),
         "soc for 'ghost_tank', which the system lacks"),
        (lambda d: d["capacities"].update(asu=math.nan),
         "malformed solution file: capacities 'asu' is nan, not a finite number"),
        (lambda d: d["activity"]["asu"].__setitem__(5, math.inf),
         "malformed solution file: activity 'asu' is inf, not a finite number"),
        (lambda d: d["curtailment"].__setitem__(0, -math.inf),
         "malformed solution file: curtailment is -inf, not a finite number"),
        (lambda d: d["activity"]["electrolyzer"].__setitem__(3, 1e308),
         "malformed solution file: activity 'electrolyzer' is 1e+308, above 1e+15 in magnitude"),
        (lambda d: d["curtailment"].__setitem__(1, d["curtailment"][1] + 50.0),
         "balance violated for electricity at hour 1: residual 5.000e+01 > ")],
        ids=["horizon", "capacity", "activity", "activity-length", "curtailment-length",
             "extra-capacity", "extra-activity", "extra-charge", "extra-discharge",
             "extra-soc", "nan-capacity", "inf-activity", "minus-inf-curtailment",
             "huge-activity", "unbalanced"])
    def test_report_solution_for_another_system(self, workspace, saved_solution, tmp_path,
                                                capsys, cut, message):
        data = json.loads(saved_solution.read_text())
        cut(data)
        (tmp_path / "solution.json").write_text(json.dumps(data))
        assert run(["report", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg",
                    "--solution", tmp_path / "solution.json", "-o", tmp_path / "x"]) == 3
        assert f"invalid input: {tmp_path / 'solution.json'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_report_solution_for_another_wind_profile(self, workspace, saved_solution,
                                                       tmp_path, capsys):
        """With every wind capacity factor halved, the saved dispatch breaks
        the electricity balance: exit 3 naming the solution file, the
        commodity and the hour, and no reports."""
        for name in ("system.cfg", "scenario.cfg", "solar.csv"):
            shutil.copy(workspace / name, tmp_path)
        header, *values = (workspace / "wind.csv").read_text().splitlines()
        (tmp_path / "wind.csv").write_text(
            "\n".join([header, *(repr(float(v) / 2) for v in values)]) + "\n")
        assert run(["report", "--spec", tmp_path / "system.cfg",
                    "--scenario", tmp_path / "scenario.cfg",
                    "--solution", saved_solution, "-o", tmp_path / "x"]) == 3
        assert (f"invalid input: {saved_solution}: balance violated for electricity at hour "
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_fleet_repeated_plant_id(self, workspace, tmp_path, capsys):
        plants, profiles = write_fleet_inputs(tmp_path, 1)
        plants.write_text(plants.read_text() + "P1,31,111,5000,s1,w1\n")
        assert run(["fleet", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "--plants", plants,
                    "--profiles", profiles, "-o", tmp_path / "x"]) == 3
        assert "plants.csv:3: repeated plant id 'P1' (first on line 2)" in \
            capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_fleet_bad_coordinate_in_excluded_row(self, workspace, tmp_path, capsys):
        """A bad coordinate exits 3 even where the clinker range would drop the row."""
        plants, profiles = write_fleet_inputs(tmp_path, 1)
        plants.write_text("id,lat,lon,clinker_tpd,solar_ref,wind_ref\nC,95,110,12000,s1,w1\n")
        assert run(["fleet", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "--plants", plants,
                    "--profiles", profiles, "-o", tmp_path / "x"]) == 3
        assert "plants.csv:2: C: latitude out of range" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sweep_non_finite_x(self, workspace, tmp_path, capsys, value):
        assert run(["sweep", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "--x", f"5,{value}",
                    "-o", tmp_path / "x"]) == 2
        assert "bad --x list" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_sweep_empty_x(self, workspace, tmp_path, capsys):
        assert run(["sweep", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "--x", ",",
                    "-o", tmp_path / "x"]) == 2
        assert "--x needs at least one value" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_fleet_all_plants_failed(self, workspace, tmp_path, capsys):
        plants, _ = write_fleet_inputs(tmp_path, 1)
        assert run(["fleet", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg", "--plants", plants,
                    "--profiles", tmp_path / "nonexistent",
                    "-o", tmp_path / "x"]) == 6
        assert "every plant in the fleet failed" in capsys.readouterr().err

    def test_solver_failure(self, workspace, tmp_path, monkeypatch, capsys):
        from scipy.optimize import OptimizeResult

        from coplant import lp

        def stalled(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties")

        monkeypatch.setattr(lp, "linprog", stalled)
        assert run(["solve", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg",
                    "-o", tmp_path / "x"]) == 6
        assert "status 4" in capsys.readouterr().err


class TestStartUp:
    """Which scipy modules a command loads, each checked in a fresh interpreter
    because this one has long since imported them."""

    LAZY = ("scipy.optimize", "scipy.sparse", "scipy.sparse.csgraph")

    def fresh(self, code: str):
        """Run `code` in a new interpreter with `src` first on its path; return
        the JSON it prints last."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def loaded_after(self, argv: list) -> list:
        code = ("import json, sys\nfrom coplant import cli\n"
                f"code = cli.main({[str(a) for a in argv]!r})\n"
                f"print(json.dumps([code, [m for m in {self.LAZY!r} if m in sys.modules]]))")
        return self.fresh(code)

    def test_import_cli_loads_neither(self):
        assert self.fresh("import json, sys, coplant.cli\n"
                          f"print(json.dumps([m for m in {self.LAZY!r} if m in sys.modules]))"
                          ) == []

    def test_netopt_loads_no_lp_solver(self, workspace, tmp_path):
        code, loaded = self.loaded_after(
            ["netopt", "--surface", workspace / "cost.asc",
             "--sources", workspace / "sources.csv", "--sinks", workspace / "sinks.csv",
             "--target", "2.5e6", "-o", tmp_path / "net"])
        assert code == 0
        assert loaded == ["scipy.sparse", "scipy.sparse.csgraph"]

    def test_report_loads_neither(self, workspace, saved_solution, tmp_path):
        code, loaded = self.loaded_after(
            ["report", "--spec", workspace / "system.cfg",
             "--scenario", workspace / "scenario.cfg", "--solution", saved_solution,
             "-o", tmp_path / "rep"])
        assert code == 0
        assert loaded == []

    def test_linprog_patched_before_first_solve_sees_it(self):
        """The seam the benchmark's tracer and the tests patch exists before
        scipy.optimize is loaded, and the first solve goes through it."""
        calls = self.fresh("""
import json, sys
from coplant import lp
assert "scipy.optimize" not in sys.modules
calls = []
real = lp.linprog
def recorder(*args, **kwargs):
    calls.append(len(args[0]))
    return real(*args, **kwargs)
lp.linprog = recorder
problem = lp.LinearProgram()
problem.add_columns(2, cost=[1.0, 2.0])
problem.add_rows(">=", [1.0], [(0, [0, 1], [1.0, 1.0])])
solution = lp.solve_lp(problem)
print(json.dumps([solution.status, solution.objective, calls]))
""")
        assert calls == ["optimal", 1.0, [2]]
