import dataclasses
import json
import os
import shlex
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from coplant import cli, configio, reference
from coplant.sinknet.raster import CostSurface, write_raster


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
    runs, pools = [], []
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

    def fake_solve_plant(template, scenario, plant, profiles_dir, perturbations=()):
        assert perturbations == tuple(fleet.PERTURBATIONS.values())
        moved = fleet.PlantResult(plant=plant, abatement=50.0, cement_capacity=1.0,
                                  flex_inflex_ratio=float("nan"))
        return fleet.PlantResult(plant=plant, abatement=50.0, cement_capacity=1.0,
                                 flex_inflex_ratio=1.0, perturbed=(moved,) * 6)

    monkeypatch.setattr(fleet, "run_fleet", recording_run_fleet)
    monkeypatch.setattr(fleet, "_solve_plant", fake_solve_plant)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("COPLANT_WORKERS", "2")
    plants = tmp_path / "plants.csv"
    plants.write_text("id,lat,lon,clinker_tpd,solar_ref,wind_ref\n"
                      "P1,30,110,4000,s1,w1\nP2,31,111,5000,s1,w1\n")
    code = run(["fleet", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "--plants", plants,
                "--profiles", tmp_path, "--sensitivity", "-o", tmp_path / "out"])
    assert code == 0
    assert runs == [(2, True)]
    # one job per plant, each with its 6 perturbed solves
    assert pools == [(2, 2)]


def test_fleet_sensitivity_solves_eight_lps_per_plant(workspace, tmp_path, monkeypatch):
    """Two modes and six capex perturbations per plant: 8 LPs."""
    from coplant import lp
    plants, profiles = write_fleet_inputs(tmp_path, 2)
    calls = []
    solve_lp = lp.solve_lp

    def counting(problem, basis=None):
        calls.append(1)
        return solve_lp(problem, basis)

    monkeypatch.setattr(lp, "solve_lp", counting)
    code = run(["fleet", "--spec", workspace / "system.cfg",
                "--scenario", workspace / "scenario.cfg", "--plants", plants,
                "--profiles", profiles, "--sensitivity", "-o", tmp_path / "out"])
    assert code == 0
    assert len(calls) == 8 * 2


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
         "{kind}.csv:5: repeated {node} id 'X\\nY' (first on line 3)")],
        ids=["bad-after-blank", "bad-after-multiline", "repeated-after-blank",
             "repeated-multiline"])
    def test_netopt_node_error_names_file_line(self, workspace, tmp_path, capsys, kind,
                                               layout, message):
        """A node error names the file line on which its row ends, past blank
        lines and quoted fields that span lines."""
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
            assert (f"error: {tmp_path / kind}s.csv:3: {kind} '{node_id}' cell "
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
        ("sinks", "K1,5,7,3.0e6,1e308", "sink K1: its cost at up to 2.5e+06 t/yr"),
        ("sources", "S1,0,1,2.0e6,-1e308", "source S1: its cost at up to 2e+06 t/yr")],
        ids=["sink", "source"])
    def test_netopt_node_cost_overflow(self, workspace, tmp_path, capsys, kind, row,
                                       message):
        """A node whose cost times the flow it can carry overflows a float is
        named, where the run used to print an infinite $/t and exit 0."""
        nodes = {name: workspace / f"{name}.csv" for name in ("sources", "sinks")}
        lines = nodes[kind].read_text().splitlines()
        nodes[kind] = tmp_path / f"{kind}.csv"
        nodes[kind].write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["netopt", "--surface", workspace / "cost.asc",
                        "--sources", nodes["sources"], "--sinks", nodes["sinks"],
                        "--target", "2.5e6", "-o", tmp_path / "x"]) == 3
        assert (f"invalid input: {message} takes the network's cost bound past the "
                "largest float") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cost", [1e307, 1.7e308, 1e305], ids=[
        "path-sum-overflows", "step-overflows", "pipe-cost-overflows"])
    def test_netopt_corridor_cost_overflow(self, tmp_path, capsys, cost):
        """A corridor whose terrain cost, or pipe cost, is not a finite float
        is named: summed over 29 cells of 1e307 it overflows, one step
        between two cells of 1.7e308 overflows, and 29 cells of 1e305 give
        a terrain cost whose pipe costs more than the largest float.  The
        first two used to leave the source unreachable (exit 4)."""
        write_raster(CostSurface(ncols=30, nrows=1, cell_size=1.0, origin=(0.0, 0.0),
                                 nodata=-9999.0, cells=np.full((1, 30), cost)),
                     tmp_path / "cost.asc")
        (tmp_path / "sources.csv").write_text(
            "id,row,col,capturable,capture_cost\nS1,0,0,1.0,1\n")
        (tmp_path / "sinks.csv").write_text(
            "id,row,col,capacity,sequestration_cost\nK1,0,29,1.0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["netopt", "--surface", tmp_path / "cost.asc",
                        "--sources", tmp_path / "sources.csv",
                        "--sinks", tmp_path / "sinks.csv",
                        "--target", "0.5", "-o", tmp_path / "x"]) == 3
        assert "invalid input: corridor S1 -> K1: its " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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
         "soc for 'ghost_tank', which the system lacks")],
        ids=["horizon", "capacity", "activity", "activity-length", "curtailment-length",
             "extra-capacity", "extra-activity", "extra-charge", "extra-discharge",
             "extra-soc"])
    def test_report_solution_for_another_system(self, workspace, saved_solution, tmp_path,
                                                capsys, cut, message):
        data = json.loads(saved_solution.read_text())
        cut(data)
        (tmp_path / "solution.json").write_text(json.dumps(data))
        assert run(["report", "--spec", workspace / "system.cfg",
                    "--scenario", workspace / "scenario.cfg",
                    "--solution", tmp_path / "solution.json", "-o", tmp_path / "x"]) == 3
        assert f"error: {tmp_path / 'solution.json'}: {message}" in capsys.readouterr().err
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
