"""Acceptance criteria, one test per criterion.

Each test prints a PASS line naming the criterion when it succeeds (run
pytest with -s or check captured output).
"""

import dataclasses
import time

import numpy as np
import pytest

import test_dispatch
import test_lp
import test_sinknet
from coplant import costing, domain, reference
from coplant.dispatch import commodity_balance, hourly_utilized_co2, solve_dispatch
from coplant.domain import Commodity
from coplant.lp import solve_lp
from coplant.sinknet.network import NetworkInfeasible


def _scenarios(horizon):
    return {
        "netzero": reference.netzero_scenario(horizon=horizon),
        "noseq": reference.noseq_scenario(horizon=horizon),
    }


@pytest.fixture(scope="module")
def solved_week():
    out = {}
    for name, scenario in _scenarios(168).items():
        include_co2 = name != "noseq"
        spec = reference.reference_system(scenario,
                                          include_co2_storage=include_co2)
        out[name] = (spec, scenario, solve_dispatch(spec, scenario))
    return out


def test_lp_oracle():
    """objective matches vertex enumeration on 200 random LPs in < 10 s."""
    rng = np.random.default_rng(424242)
    start = time.monotonic()
    for i in range(200):
        lp = test_lp.random_lp(rng)
        sol = solve_lp(lp)
        oracle = test_lp.vertex_enumeration_oracle(lp)
        if oracle is None:
            assert sol.status == "infeasible", f"instance {i}"
        else:
            assert sol.status == "optimal", f"instance {i}"
            assert sol.objective == pytest.approx(oracle, rel=1e-6, abs=1e-6), \
                f"instance {i}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nPASS: LP oracle (200 LPs vs vertex enumeration, {elapsed:.1f}s)")


def test_conservation_suite(solved_week):
    """balances and cyclic SOC close at T=168 and T=336."""
    cases = list(solved_week.values())
    scenario336 = reference.netzero_scenario(horizon=336)
    spec336 = reference.reference_system(scenario336)
    cases.append((spec336, scenario336, solve_dispatch(spec336, scenario336)))
    for spec, scenario, sol in cases:
        for commodity in Commodity:
            terms = commodity_balance(spec, sol, commodity)
            if not terms:
                continue
            stack = np.vstack(list(terms.values()))
            scale = max(1.0, float(np.abs(stack).max()))
            assert float(np.abs(stack.sum(axis=0)).max()) <= 1e-6 * scale, \
                (scenario.horizon_hours, commodity)
        for store in spec.storage_units:
            if not store.cyclic:
                continue
            soc = sol.soc[store.id]
            wrap = (soc[-1] + store.charge_eff * sol.charge[store.id][-1]
                    - sol.discharge[store.id][-1] / store.discharge_eff)
            tol = 1e-6 * max(1.0, float(np.abs(soc).max()))
            assert abs(wrap - soc[0]) <= tol, store.id
    print("\nPASS: conservation suite (T=168 and T=336, residuals <= 1e-6*scale)")


def test_flexibility_dominance():
    """objective(flexible) <= objective(inflexible) on reference scenarios."""
    for maker in (reference.netzero_scenario, reference.noseq_scenario):
        flex_scn = maker(horizon=168, flexible=True)
        inflex_scn = maker(horizon=168, flexible=False)
        spec = reference.reference_system(
            flex_scn, include_co2_storage=flex_scn.sequestration_allowed)
        flex = solve_dispatch(spec, flex_scn).objective
        inflex = solve_dispatch(spec, inflex_scn).objective
        assert flex <= inflex * (1 + 1e-8) + 1e-6, maker.__name__
    print("\nPASS: flexibility dominance (flexible <= inflexible)")


def test_calibration_anchors(solved_week):
    """published calibration values reproduced."""
    assert domain.min_stoichiometry() == pytest.approx(2.770, abs=0.005)
    spec, scenario, sol = solved_week["netzero"]
    bd = costing.cost_breakdown(sol, spec, scenario)
    expected = (8.7 + 5.8) * sol.annual_sequestered
    assert bd.categories["co2_sequestration"] == pytest.approx(expected, rel=1e-12)
    print("\nPASS: calibration anchors (min ratio 2.770, 14.5 $/t sequestration)")


def test_structural_scenarios(solved_week):
    """no-seq equality, net-zero inequality and reduction, min load."""
    spec, scenario, sol = solved_week["noseq"]
    assert float(np.abs(sol.sequestered_co2).max()) == 0.0
    captured = test_dispatch.captured_co2(spec, sol)
    utilized = hourly_utilized_co2(spec, sol)
    assert float(np.abs(captured - utilized).max()) <= \
        1e-6 * max(1.0, float(captured.max()))

    spec, scenario, sol = solved_week["netzero"]
    utilized_yr = sol.annual(hourly_utilized_co2(spec, sol))
    requirement = domain.netzero_sequestration_requirement(
        sol.annual_emitted, utilized_yr)
    assert sol.annual_sequestered >= requirement - 1e-6
    reduction = costing.emission_reduction(sol, spec, scenario)
    assert reduction == pytest.approx(1.0, abs=1e-3)

    for _, (spec, scenario, sol) in solved_week.items():
        cap = sol.capacities["electrolyzer"]
        if cap > 1e-6:
            assert float(sol.activity["electrolyzer"].min()) >= \
                0.05 * cap - 1e-6 * max(1.0, cap)
    print("\nPASS: structural scenario checks (no-seq equality, net-zero "
          "rule, 100% reduction, 5% min load)")


def test_stoichiometry_sweep_direction():
    """abatement falls as the cement share rises (x=2.77 -> 9.76)."""
    scenario = reference.netzero_scenario(horizon=168)
    spec = reference.reference_system(scenario)
    rows = costing.sweep_stoichiometry(spec, scenario, [2.77, 9.76])
    assert all(r.feasible for r in rows)
    assert rows[1].abatement <= rows[0].abatement
    print(f"\nPASS: stoichiometry sweep direction "
          f"(abatement {rows[0].abatement:.1f} -> {rows[1].abatement:.1f} $/t)")


def test_sensitivity_monotonicity(tmp_path):
    """+/-20% capex moves every plant's cost the right way, 5 plants < 60 s."""
    from coplant.fleet import PlantSite, run_fleet
    horizon = 48
    scenario = reference.netzero_scenario(horizon=horizon)
    template = reference.reference_system(scenario)
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for i in range(5):
        for kind, maker in (("s", reference.solar_profile),
                            ("w", reference.wind_profile)):
            with (profiles / f"{kind}{i}.csv").open("w") as fh:
                fh.write("cf\n")
                fh.writelines(f"{v:.8g}\n" for v in maker(horizon, 100 + i))
    plants = [PlantSite(id=f"P{i}", latitude=28 + i, longitude=105 + i,
                        clinker_capacity=3000 + 1200 * i,
                        solar_profile_ref=f"s{i}", wind_profile_ref=f"w{i}")
              for i in range(5)]
    start = time.monotonic()
    result = run_fleet(plants, template, scenario, profiles, sensitivity=True)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    base = dict(result.curve)
    for label, curve in result.sensitivity.items():
        perturbed = dict(curve)
        for capacity, cost in base.items():
            if capacity not in perturbed:
                continue
            if label.endswith("+20%"):
                assert perturbed[capacity] >= cost - 1e-6, (label, capacity)
            else:
                assert perturbed[capacity] <= cost + 1e-6, (label, capacity)
    print(f"\nPASS: sensitivity monotonicity (5-plant fleet, {elapsed:.1f}s)")


def test_routing_oracle():
    """Dijkstra equals exhaustive simple-path enumeration, 20+ 5x5 grids."""
    rng = np.random.default_rng(90210)
    solved = 0
    for _ in range(24):
        cells = np.round(rng.uniform(0.5, 10.0, size=(5, 5)), 3)
        mask = rng.random((5, 5)) < 0.2
        mask[0, 0] = mask[4, 4] = False
        cells[mask] = -9999.0
        surface = test_sinknet.make_surface(cells)
        a, b = surface.index(0, 0), surface.index(4, 4)
        oracle = test_sinknet.exhaustive_path_oracle(surface, a, b)
        if oracle == float("inf"):
            assert test_sinknet.route(surface, a, b) is None
        else:
            _, cost = test_sinknet.route(surface, a, b)
            assert cost == oracle  # exact, identical arithmetic
        solved += 1
    assert solved >= 20
    print(f"\nPASS: routing oracle ({solved} randomized 5x5 grids, exact)")


def test_network_oracle():
    """The enumeration equals brute force (<=3x2); local search parity <=12."""
    rng = np.random.default_rng(60601)
    compared = 0
    for _ in range(25):
        n_src = int(rng.integers(1, 4))
        n_snk = int(rng.integers(1, 3))
        sources, sinks, edges = test_sinknet.random_instance(rng, n_src, n_snk)
        cap = min(sum(s.capturable for s in sources),
                  sum(k.capacity for k in sinks))
        target = float(rng.uniform(0.2, 0.9)) * cap
        oracle = test_sinknet.brute_force_network(sources, sinks, edges, target)
        try:
            sol = test_sinknet.solve_exact(sources, sinks, edges, target)
        except NetworkInfeasible:
            assert oracle is None
            continue
        assert oracle is not None
        assert sol.total_cost == pytest.approx(oracle[0], abs=1e-6)
        compared += 1
    assert compared >= 15

    for n_src in (6, 10, 12):
        sources, sinks, edges = test_sinknet.random_instance(rng, n_src, 2)
        total = sum(s.capturable for s in sources)
        sinks = [dataclasses.replace(k, capacity=total) for k in sinks]
        target = 0.6 * total
        exact = test_sinknet.solve_exact(sources, sinks, edges, target)
        heur = test_sinknet.solve_local(sources, sinks, edges, target)
        assert heur.total_cost == pytest.approx(exact.total_cost, abs=1e-6)
    print(f"\nPASS: network oracle ({compared} brute-force instances, "
          "local search parity at 6/10/12 sources)")


def test_end_to_end_determinism(tmp_path):
    """repeated solve / fleet / netopt runs give byte-identical outputs."""
    from coplant import cli, configio
    from coplant.sinknet.raster import CostSurface, write_raster

    scenario = reference.netzero_scenario(horizon=48)
    spec = reference.reference_system(scenario)
    (tmp_path / "scenario.cfg").write_text(configio.serialize_scenario(scenario))
    (tmp_path / "system.cfg").write_text(
        configio.serialize_system(spec, profiles_dir=tmp_path))

    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for name, maker in (("s0", reference.solar_profile),
                        ("w0", reference.wind_profile)):
        with (profiles / f"{name}.csv").open("w") as fh:
            fh.write("cf\n")
            fh.writelines(f"{v:.8g}\n" for v in maker(48, 9))
    (tmp_path / "plants.csv").write_text(
        "id,lat,lon,clinker_tpd,solar_ref,wind_ref\nP1,30,110,4000,s0,w0\n")

    cells = np.ones((6, 8))
    cells[2, 2:6] = 5.0
    write_raster(CostSurface(ncols=8, nrows=6, cell_size=10.0, origin=(0.0, 0.0),
                             nodata=-9999.0, cells=cells), tmp_path / "cost.asc")
    (tmp_path / "sources.csv").write_text(
        "id,row,col,capturable,capture_cost\nS1,0,1,2.0e6,40\nS2,5,0,1.5e6,35\n")
    (tmp_path / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\nK1,5,7,3.0e6,6\n")

    commands = {
        "solve": lambda out: ["solve", "--spec", tmp_path / "system.cfg",
                              "--scenario", tmp_path / "scenario.cfg", "-o", out],
        "fleet": lambda out: ["fleet", "--spec", tmp_path / "system.cfg",
                              "--scenario", tmp_path / "scenario.cfg",
                              "--plants", tmp_path / "plants.csv",
                              "--profiles", profiles, "-o", out],
        "netopt": lambda out: ["netopt", "--surface", tmp_path / "cost.asc",
                               "--sources", tmp_path / "sources.csv",
                               "--sinks", tmp_path / "sinks.csv",
                               "--target", "2.0e6", "-o", out],
    }
    for name, build in commands.items():
        out1, out2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        for out in (out1, out2):
            assert cli.main([str(a) for a in build(out)]) == 0, name
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for fname in files1:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), \
                (name, fname)
    print("\nPASS: end-to-end determinism (solve, fleet, netopt byte-identical)")
