import dataclasses
import random

import numpy as np
import pytest

from coplant import fleet, reference
from coplant.dispatch import solve_dispatch
from coplant.domain import Commodity
from coplant.fleet import (
    FleetResult,
    PlantSite,
    PlantsSchemaError,
    load_plants,
    run_fleet,
    sensitivity_sweep,
)

HORIZON = 24


@pytest.fixture(scope="module")
def fleet_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    profiles = root / "profiles"
    profiles.mkdir()
    rng_profiles = {
        "s1": reference.solar_profile(HORIZON, 11),
        "s2": reference.solar_profile(HORIZON, 12),
        "w1": reference.wind_profile(HORIZON, 11),
        "w2": reference.wind_profile(HORIZON, 12),
    }
    for name, values in rng_profiles.items():
        with (profiles / f"{name}.csv").open("w") as fh:
            fh.write("capacity_factor\n")
            fh.writelines(f"{v:.8g}\n" for v in values)
    scenario = reference.netzero_scenario(horizon=HORIZON)
    template = reference.reference_system(scenario)
    return root, profiles, scenario, template


def write_plants(path, rows):
    with path.open("w") as fh:
        fh.write("id,lat,lon,clinker_tpd,solar_ref,wind_ref\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return path


class TestLoadPlants:
    def test_out_of_range_excluded(self, tmp_path):
        path = write_plants(tmp_path / "p.csv", [
            ("A", 30, 110, 12000, "s1", "w1"),
            ("B", 31, 111, 5000, "s1", "w1"),
            ("C", 32, 112, 2000, "s2", "w2"),
        ])
        plants = load_plants(path)
        assert [p.id for p in plants] == ["B"]

    def test_header_only(self, tmp_path):
        path = write_plants(tmp_path / "p.csv", [])
        assert load_plants(path) == []

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("plant,latitude\nA,1\n")
        with pytest.raises(PlantsSchemaError):
            load_plants(path)

    def test_malformed_row_names_location(self, tmp_path):
        path = write_plants(tmp_path / "p.csv", [
            ("A", 30, "oops", 5000, "s1", "w1")])
        with pytest.raises(PlantsSchemaError) as err:
            load_plants(path)
        assert "2" in str(err.value)  # line number

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_capacity_names_location(self, tmp_path, value):
        """A non-finite clinker_tpd is an error, not an out-of-range row to drop."""
        path = write_plants(tmp_path / "p.csv", [
            ("A", 30, 110, value, "s1", "w1"),
            ("B", 31, 111, 5000, "s1", "w1")])
        with pytest.raises(PlantsSchemaError, match="p.csv:2: column 'clinker_tpd'"):
            load_plants(path)

    def test_coordinate_range(self, tmp_path):
        path = write_plants(tmp_path / "p.csv", [
            ("A", 95, 110, 5000, "s1", "w1")])
        with pytest.raises(PlantsSchemaError):
            load_plants(path)


class TestRunFleet:
    def test_single_plant_curve(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plant = PlantSite(id="P", latitude=30, longitude=110,
                          clinker_capacity=4000, solar_profile_ref="s1",
                          wind_profile_ref="w1")
        result = run_fleet([plant], template, scenario, profiles)
        assert len(result.curve) == 1
        capacity, abate = result.curve[0]
        assert capacity == pytest.approx(result.per_plant[0].cement_capacity)
        assert np.isfinite(abate)

    def test_order_independence(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plants = [
            PlantSite(id=f"P{i}", latitude=30 + i, longitude=110,
                      clinker_capacity=3000 + 1000 * i,
                      solar_profile_ref=["s1", "s2"][i % 2],
                      wind_profile_ref=["w1", "w2"][i % 2])
            for i in range(3)
        ]
        shuffled = plants[:]
        random.Random(4).shuffle(shuffled)
        a = run_fleet(plants, template, scenario, profiles)
        b = run_fleet(shuffled, template, scenario, profiles)
        assert [(r.plant.id, r.abatement) for r in a.per_plant] == \
            [(r.plant.id, r.abatement) for r in b.per_plant]
        assert a.curve == b.curve

    def test_curve_sorted_and_cumulative(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plants = [
            PlantSite(id=f"P{i}", latitude=30, longitude=110 + i,
                      clinker_capacity=3000 + 1500 * i,
                      solar_profile_ref=["s1", "s2"][i % 2],
                      wind_profile_ref=["w1", "w2"][(i + 1) % 2])
            for i in range(3)
        ]
        curve = run_fleet(plants, template, scenario, profiles).curve
        costs = [c for _, c in curve]
        caps = [c for c, _ in curve]
        assert costs == sorted(costs)
        assert caps == sorted(caps)

    def test_missing_profile_recorded_not_fatal(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        good = PlantSite(id="G", latitude=30, longitude=110,
                         clinker_capacity=4000, solar_profile_ref="s1",
                         wind_profile_ref="w1")
        bad = PlantSite(id="B", latitude=30, longitude=111,
                        clinker_capacity=4000, solar_profile_ref="nope",
                        wind_profile_ref="w1")
        result = run_fleet([good, bad], template, scenario, profiles)
        errors = {r.plant.id: r.error for r in result.per_plant}
        assert errors["G"] is None
        assert errors["B"].startswith("FileNotFoundError: profile 'nope'")
        assert len(result.curve) == 1

    def test_empty_profile_recorded_not_fatal(self, fleet_env, tmp_path):
        _, profiles, scenario, template = fleet_env
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "header.csv").write_text("cf\n")
        for name in ("s1", "w1"):
            (tmp_path / f"{name}.csv").write_bytes((profiles / f"{name}.csv").read_bytes())
        plants = [PlantSite(id="G", latitude=30, longitude=110, clinker_capacity=4000,
                            solar_profile_ref="s1", wind_profile_ref="w1")]
        plants += [PlantSite(id=ref, latitude=30, longitude=111, clinker_capacity=4000,
                             solar_profile_ref=ref, wind_profile_ref="w1")
                   for ref in ("empty", "header")]
        result = run_fleet(plants, template, scenario, tmp_path)
        errors = {r.plant.id: r.error for r in result.per_plant}
        assert errors["G"] is None
        assert errors["empty"].startswith("ValueError: profile ")
        assert errors["empty"].endswith("empty.csv is empty")
        assert errors["header"].startswith("ValueError: profile ")
        assert "has 0 hours" in errors["header"]
        assert len(result.curve) == 1

    def test_all_failed_raises(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        bad = PlantSite(id="B", latitude=30, longitude=111,
                        clinker_capacity=4000, solar_profile_ref="nope",
                        wind_profile_ref="w1")
        with pytest.raises(RuntimeError):
            run_fleet([bad], template, scenario, profiles)

    def test_unexpected_error_propagates(self, fleet_env, monkeypatch):
        _, profiles, scenario, template = fleet_env
        plant = PlantSite(id="P", latitude=30, longitude=110,
                          clinker_capacity=4000, solar_profile_ref="s1",
                          wind_profile_ref="w1")

        def broken(spec, scenario, basis=None):
            raise TypeError("a bug, not a plant failure")

        monkeypatch.setattr(fleet, "solve_dispatch", broken)
        with pytest.raises(TypeError):
            run_fleet([plant], template, scenario, profiles)

    def test_better_resource_not_worse(self, fleet_env, tmp_path):
        root, _, scenario, template = fleet_env
        profiles = tmp_path / "profiles"
        profiles.mkdir()
        base_s = reference.solar_profile(HORIZON, 11)
        base_w = reference.wind_profile(HORIZON, 11)
        lifted_s = tuple(min(1.0, v * 1.2) for v in base_s)
        lifted_w = tuple(min(1.0, v * 1.2) for v in base_w)
        for name, values in (("s", base_s), ("sL", lifted_s),
                             ("w", base_w), ("wL", lifted_w)):
            with (profiles / f"{name}.csv").open("w") as fh:
                fh.write("cf\n")
                fh.writelines(f"{v:.8g}\n" for v in values)
        a = PlantSite(id="A", latitude=30, longitude=110, clinker_capacity=4000,
                      solar_profile_ref="s", wind_profile_ref="w")
        b = PlantSite(id="B", latitude=30, longitude=110, clinker_capacity=4000,
                      solar_profile_ref="sL", wind_profile_ref="wL")
        result = run_fleet([a, b], template, scenario, profiles)
        abate = {r.plant.id: r.abatement for r in result.per_plant}
        assert abate["B"] <= abate["A"] + 1e-6

    def test_flex_ratio_at_most_one(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plant = PlantSite(id="P", latitude=30, longitude=110,
                          clinker_capacity=4000, solar_profile_ref="s1",
                          wind_profile_ref="w1")
        result = run_fleet([plant], template, scenario, profiles)
        assert result.per_plant[0].flex_inflex_ratio <= 1.0 + 1e-8


@pytest.fixture(scope="module")
def reference_plants(tmp_path_factory):
    """48 h reference plants P176-P178, each on the profiles of
    `reference_system(seed=...)`, written so that they read back exactly.
    Seeds 176 and 178 run methanol synthesis flat when flexible; 177 does not."""
    profiles = tmp_path_factory.mktemp("reference_profiles")
    scenario = reference.netzero_scenario(horizon=48)
    plants = {}
    for seed in (176, 177, 178):
        solar, wind = (r.profile for r in
                       reference.reference_system(scenario, seed=seed).renewables)
        for ref, values in ((f"s{seed}", solar), (f"w{seed}", wind)):
            (profiles / f"{ref}.csv").write_text(
                "cf\n" + "".join(f"{v!r}\n" for v in values))
        plants[seed] = PlantSite(id=f"P{seed}", latitude=30, longitude=110,
                                 clinker_capacity=4000, solar_profile_ref=f"s{seed}",
                                 wind_profile_ref=f"w{seed}")
    return profiles, scenario, plants


def methanol_runs_flat(spec, solution):
    units = [u for u in spec.conversion_units if Commodity.METHANOL in u.outputs]
    assert units
    return all(np.allclose(solution.activity[u.id], solution.capacities[u.id],
                           rtol=1e-9, atol=1e-9) for u in units)


class TestFlexRatio:
    """Each plant's flexible/inflexible cost ratio, with the inflexible solve
    skipped when the flexible optimum already runs methanol flat."""

    @pytest.mark.parametrize("seed, flat", [(176, True), (177, False), (178, True)])
    def test_ratio_matches_two_cold_solves(self, reference_plants, seed, flat):
        profiles, scenario, plants = reference_plants
        spec = reference.reference_system(
            scenario, demand_cement=plants[seed].cement_demand_tph(scenario), seed=seed)
        flexible = solve_dispatch(spec, scenario)
        inflexible = solve_dispatch(
            spec, dataclasses.replace(scenario, flexibility_mode="inflexible"))
        assert methanol_runs_flat(spec, flexible) is flat
        result = run_fleet([plants[seed]], reference.reference_system(scenario, seed=seed),
                           scenario, profiles)
        assert result.per_plant[0].flex_inflex_ratio == pytest.approx(
            flexible.objective / inflexible.objective, rel=1e-9)

    @pytest.mark.parametrize("own", ["flexible", "inflexible"])
    @pytest.mark.parametrize("seed", [176, 177])
    def test_solves_per_plant(self, reference_plants, monkeypatch, seed, own):
        """A flexible scenario solves one LP for a flat plant and two otherwise;
        an inflexible scenario always solves both modes, its own first."""
        profiles, scenario, plants = reference_plants
        scenario = dataclasses.replace(scenario, flexibility_mode=own)
        modes = []
        solve = fleet.solve_dispatch

        def recording(spec, scenario, basis=None):
            modes.append(scenario.flexibility_mode)
            return solve(spec, scenario, basis)

        monkeypatch.setattr(fleet, "solve_dispatch", recording)
        result = run_fleet([plants[seed]], reference.reference_system(scenario, seed=seed),
                           scenario, profiles)
        assert result.per_plant[0].error is None
        if own == "flexible" and seed == 176:
            assert modes == ["flexible"]
            assert result.per_plant[0].flex_inflex_ratio == 1.0
        else:
            other = "inflexible" if own == "flexible" else "flexible"
            assert modes == [own, other]


class TestSensitivity:
    def test_unknown_parameter(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        with pytest.raises(ValueError) as err:
            sensitivity_sweep(run_fleet([], template, scenario, profiles),
                              template, scenario, profiles,
                              parameters=("coal_capex",))
        assert "solar_capex" in str(err.value)

    def test_monotone_and_envelope(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plants = [
            PlantSite(id=f"P{i}", latitude=30, longitude=110 + i,
                      clinker_capacity=3000 + 500 * i,
                      solar_profile_ref=["s1", "s2"][i % 2],
                      wind_profile_ref=["w1", "w2"][i % 2])
            for i in range(2)
        ]
        sens = sensitivity_sweep(run_fleet(plants, template, scenario, profiles),
                                 template, scenario, profiles)
        base = dict(sens.baseline)
        for label, curve in sens.curves.items():
            costs = dict(curve)
            for capacity in base:
                if capacity not in costs:
                    continue
                if label.endswith("+20%"):
                    assert costs[capacity] >= base[capacity] - 1e-6
                else:
                    assert costs[capacity] <= base[capacity] + 1e-6
        # envelope contains the baseline pointwise
        for (capacity, lo, hi), (cap_b, cost_b) in zip(sens.envelope, sens.baseline):
            assert capacity == cap_b
            assert lo - 1e-9 <= cost_b <= hi + 1e-9

    def test_delta_zero_identity(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plant = PlantSite(id="P", latitude=30, longitude=110,
                          clinker_capacity=4000, solar_profile_ref="s1",
                          wind_profile_ref="w1")
        sens = sensitivity_sweep(run_fleet([plant], template, scenario, profiles),
                                 template, scenario, profiles,
                                 parameters=("solar_capex",), delta=0.0)
        for curve in sens.curves.values():
            assert curve == pytest.approx(sens.baseline)

    def test_failed_plant_solved_once(self, fleet_env, monkeypatch):
        _, profiles, scenario, template = fleet_env
        good = PlantSite(id="G", latitude=30, longitude=110,
                         clinker_capacity=4000, solar_profile_ref="s1",
                         wind_profile_ref="w1")
        bad = PlantSite(id="B", latitude=30, longitude=111,
                        clinker_capacity=4000, solar_profile_ref="nope",
                        wind_profile_ref="w1")
        loaded = []
        load_profile = fleet.load_profile

        def counting(profiles_dir, ref, horizon):
            loaded.append(ref)
            return load_profile(profiles_dir, ref, horizon)

        monkeypatch.setattr(fleet, "load_profile", counting)
        result = run_fleet([good, bad], template, scenario, profiles)
        sens = sensitivity_sweep(result, template, scenario, profiles)
        assert loaded.count("nope") == 1
        capacity = next(r.cement_capacity for r in result.per_plant if r.plant.id == "G")
        assert [c for c, _ in sens.baseline] == [capacity]
        assert len(sens.curves) == 6
        for curve in sens.curves.values():
            assert [c for c, _ in curve] == [capacity]

    def test_workers_match_serial(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plants = [
            PlantSite(id=f"P{i}", latitude=30, longitude=110 + i,
                      clinker_capacity=3000 + 500 * i,
                      solar_profile_ref=["s1", "s2"][i % 2],
                      wind_profile_ref=["w1", "w2"][i % 2])
            for i in range(2)
        ]
        serial = sensitivity_sweep(run_fleet(plants, template, scenario, profiles),
                                   template, scenario, profiles)
        pooled = sensitivity_sweep(
            run_fleet(plants, template, scenario, profiles, workers=2),
            template, scenario, profiles, workers=2)
        assert pooled == serial

    def test_without_bases_matches_warm_start(self, fleet_env, monkeypatch):
        """Each perturbed solve starts from its plant's baseline basis.
        Baseline results that carry no basis give cold perturbed solves, and
        the same curves as the warm-started sweep."""
        _, profiles, scenario, template = fleet_env
        plants = [
            PlantSite(id=f"P{i}", latitude=30, longitude=110 + i,
                      clinker_capacity=3000 + 500 * i,
                      solar_profile_ref=["s1", "s2"][i % 2],
                      wind_profile_ref=["w1", "w2"][i % 2])
            for i in range(2)
        ]
        result = run_fleet(plants, template, scenario, profiles)
        bare = FleetResult(per_plant=[dataclasses.replace(r, basis=None)
                                      for r in result.per_plant], curve=result.curve)
        starts = []
        solve_dispatch = fleet.solve_dispatch

        def recording(spec, scenario, basis=None):
            starts.append(basis)
            return solve_dispatch(spec, scenario, basis)

        monkeypatch.setattr(fleet, "solve_dispatch", recording)
        warm = sensitivity_sweep(result, template, scenario, profiles)
        assert starts == [r.basis for r in result.per_plant] * 6
        cold = sensitivity_sweep(bare, template, scenario, profiles)
        assert starts[12:] == [None] * 12
        assert warm.curves.keys() == cold.curves.keys()
        for label, curve in warm.curves.items():
            np.testing.assert_allclose(curve, cold.curves[label], rtol=1e-9)
        np.testing.assert_allclose(warm.envelope, cold.envelope, rtol=1e-9)
