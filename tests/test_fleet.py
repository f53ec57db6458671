import dataclasses
import random

import numpy as np
import pytest

from coplant import dispatch, fleet, lp, reference
from coplant.dispatch import solve_dispatch
from coplant.domain import Commodity
from coplant.fleet import (
    FleetFailedError,
    PlantSite,
    PlantsSchemaError,
    load_plants,
    run_fleet,
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

    def test_repeated_id_names_both_lines(self, tmp_path):
        """Results are keyed by plant id, so an id may name one row only."""
        path = write_plants(tmp_path / "p.csv", [
            ("A", 30, 110, 5000, "s1", "w1"),
            ("B", 31, 111, 5000, "s1", "w1"),
            ("A", 32, 112, 6000, "s2", "w2")])
        with pytest.raises(PlantsSchemaError,
                           match=r"p.csv:4: repeated plant id 'A' \(first on line 2\)"):
            load_plants(path)

    def test_coordinate_range(self, tmp_path):
        for row, message in [(("A", 95, 110, 5000, "s1", "w1"), "A: latitude out of range"),
                             (("A", 30, -181, 5000, "s1", "w1"),
                              "A: longitude out of range")]:
            path = write_plants(tmp_path / "p.csv", [("B", 31, 111, 5000, "s1", "w1"), row])
            with pytest.raises(PlantsSchemaError) as err:
                load_plants(path)
            assert str(err.value) == f"{path}:3: {message}"
        with pytest.raises(PlantsSchemaError, match="^A: longitude out of range$"):
            PlantSite(id="A", latitude=0, longitude=180.5, clinker_capacity=5000,
                      solar_profile_ref="s1", wind_profile_ref="w1")


    def test_errors_name_the_file_line(self, tmp_path):
        """A quoted id spanning lines 2-3 is one record; the bad latitude of the
        next record is on file line 4, not record 3."""
        path = tmp_path / "plants.csv"
        path.write_text('id,lat,lon,clinker_tpd,solar_ref,wind_ref\n'
                        '"A\nB",30,110,5000,s,w\n'
                        'C,95,110,5000,s,w\n')
        with pytest.raises(PlantsSchemaError) as err:
            load_plants(path)
        assert str(err.value) == f"{path}:4: C: latitude out of range"

    def test_coordinates_checked_before_capacity_range(self, tmp_path):
        """A row the capacity range would drop is still rejected for a bad
        coordinate, not silently counted as excluded."""
        path = write_plants(tmp_path / "plants.csv", [("C", 95, 110, 12000, "s", "w")])
        with pytest.raises(PlantsSchemaError) as err:
            load_plants(path)
        assert str(err.value) == f"{path}:2: C: latitude out of range"


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
        assert errors["empty"].startswith("ConfigError: profile ")
        assert errors["empty"].endswith("empty.csv is empty")
        assert errors["header"].startswith("ConfigError: profile ")
        assert "has 0 hours" in errors["header"]
        assert len(result.curve) == 1

    def test_non_numeric_profile_names_line(self, fleet_env, tmp_path):
        _, profiles, scenario, template = fleet_env
        rows = (profiles / "s1.csv").read_text().splitlines()
        rows[5] = "abc"
        (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "w1.csv").write_bytes((profiles / "w1.csv").read_bytes())
        plant = PlantSite(id="P", latitude=30, longitude=110, clinker_capacity=4000,
                          solar_profile_ref="bad", wind_profile_ref="w1")
        good = dataclasses.replace(plant, id="G", solar_profile_ref="w1")
        result = run_fleet([good, plant], template, scenario, tmp_path)
        errors = {r.plant.id: r.error for r in result.per_plant}
        assert errors == {"G": None, "P": f"ConfigError: {tmp_path / 'bad.csv'}:6: "
                                          "not a number: 'abc'"}

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

        def broken(spec, scenario):
            raise TypeError("a bug, not a plant failure")

        monkeypatch.setattr(dispatch, "build_lp", broken)
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
    """Each plant's flexible/inflexible cost ratio, with the other mode's LP
    solved from the basis of the scenario's own mode, whether or not the
    flexible optimum runs methanol flat."""

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
        """Each plant builds both modes' LPs, its own mode first, solves its
        own mode cold and the other from the own mode's optimal basis."""
        profiles, scenario, plants = reference_plants
        scenario = dataclasses.replace(scenario, flexibility_mode=own)
        modes, solves = [], []
        build_lp, solve_lp = dispatch.build_lp, lp.solve_lp

        def recording(spec, scenario):
            modes.append(scenario.flexibility_mode)
            return build_lp(spec, scenario)

        def counting(problem, basis=None):
            res = solve_lp(problem, basis)
            solves.append((basis, res.basis))
            return res

        monkeypatch.setattr(dispatch, "build_lp", recording)
        monkeypatch.setattr(lp, "solve_lp", counting)
        result = run_fleet([plants[seed]], reference.reference_system(scenario, seed=seed),
                           scenario, profiles)
        assert result.per_plant[0].error is None
        other = "inflexible" if own == "flexible" else "flexible"
        assert modes == [own, other]
        (cold, own_basis), (warm, _) = solves
        assert [cold, warm] == [None, own_basis]


def two_plants():
    return [
        PlantSite(id=f"P{i}", latitude=30, longitude=110 + i,
                  clinker_capacity=3000 + 500 * i,
                  solar_profile_ref=["s1", "s2"][i % 2],
                  wind_profile_ref=["w1", "w2"][i % 2])
        for i in range(2)
    ]


class TestSensitivity:
    def test_unknown_parameter(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plant = two_plants()[0]
        with pytest.raises(ValueError) as err:
            fleet._solve_plant(template, scenario, plant, profiles,
                               perturbations=(("coal_capex", 1.2),))
        assert "solar_capex" in str(err.value)

    def test_monotone_and_envelope(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        result = run_fleet(two_plants(), template, scenario, profiles, sensitivity=True)
        assert list(result.sensitivity) == list(fleet.PERTURBATIONS)
        base = dict(result.curve)
        for label, curve in result.sensitivity.items():
            costs = dict(curve)
            for capacity in base:
                if capacity not in costs:
                    continue
                if label.endswith("+20%"):
                    assert costs[capacity] >= base[capacity] - 1e-6
                else:
                    assert costs[capacity] <= base[capacity] + 1e-6

    def test_delta_zero_identity(self, fleet_env):
        """A perturbation by factor 1.0 prices the plant at its baseline."""
        _, profiles, scenario, template = fleet_env
        plant = PlantSite(id="P", latitude=30, longitude=110,
                          clinker_capacity=4000, solar_profile_ref="s1",
                          wind_profile_ref="w1")
        result = fleet._solve_plant(
            template, scenario, plant, profiles,
            perturbations=tuple((p, 1.0) for p in fleet.SENSITIVITY_PARAMETERS))
        assert len(result.perturbed) == 3
        for moved in result.perturbed:
            assert moved.error is None
            assert moved.cement_capacity == result.cement_capacity
            assert moved.abatement == pytest.approx(result.abatement, rel=1e-9)

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
        result = run_fleet([good, bad], template, scenario, profiles, sensitivity=True)
        assert loaded.count("nope") == 1
        assert loaded.count("s1") == 1   # the good plant's profiles are read once
        capacity = next(r.cement_capacity for r in result.per_plant if r.plant.id == "G")
        assert [c for c, _ in result.curve] == [capacity]
        assert len(result.sensitivity) == 6
        for curve in result.sensitivity.values():
            assert [c for c, _ in curve] == [capacity]

    def test_failed_perturbation_drops_only_that_plant(self, fleet_env, monkeypatch,
                                                       caplog):
        """A perturbed solve that fails leaves that plant out of that one curve,
        with a warning; when every plant fails for one label, the fleet fails."""
        _, profiles, scenario, template = fleet_env
        plants = two_plants()
        solve_lp = lp.solve_lp

        def failing(at):
            warm = []

            def solve(problem, basis=None):
                if basis is not None:
                    warm.append(1)
                    if len(warm) - 1 in at:
                        return lp.LpSolution(status="infeasible")
                return solve_lp(problem, basis)
            return solve

        # serial jobs in id order, seven warm-started solves each (the other
        # mode, then the six perturbations): P0's wind +20%
        monkeypatch.setattr(lp, "solve_lp", failing({3}))
        with caplog.at_level("WARNING", logger="coplant.fleet"):
            result = run_fleet(plants, template, scenario, profiles, sensitivity=True)
        assert "plant P0 failed" in caplog.text
        assert all(r.error is None for r in result.per_plant)
        capacity = {r.plant.id: r.cement_capacity for r in result.per_plant}
        for label, curve in result.sensitivity.items():
            caps = [c for c, _ in curve]
            if label == "wind_capex:+20%":
                assert caps == [capacity["P1"]]
            else:
                assert caps[-1] == pytest.approx(sum(capacity.values()), rel=1e-12)
        monkeypatch.setattr(lp, "solve_lp", failing({3, 10}))
        with pytest.raises(FleetFailedError):
            run_fleet(plants, template, scenario, profiles, sensitivity=True)

    def test_workers_match_serial(self, fleet_env):
        _, profiles, scenario, template = fleet_env
        plants = two_plants()
        serial = run_fleet(plants, template, scenario, profiles, sensitivity=True)
        pooled = run_fleet(plants, template, scenario, profiles, workers=2,
                           sensitivity=True)
        assert pooled.sensitivity == serial.sensitivity
        assert pooled.curve == serial.curve

    def test_without_bases_matches_warm_start(self, fleet_env, monkeypatch):
        """The other-mode and perturbed solves start from their plant's own-mode
        optimal basis.  Cold solves give the same curves as the warm-started ones."""
        _, profiles, scenario, template = fleet_env
        plants = two_plants()
        calls = []
        solve_lp = lp.solve_lp

        def recording(problem, basis=None):
            res = solve_lp(problem, basis)
            calls.append((basis, res.basis))
            return res

        monkeypatch.setattr(lp, "solve_lp", recording)
        warm = run_fleet(plants, template, scenario, profiles, sensitivity=True).sensitivity
        if calls[0][1] is None:
            pytest.skip("this HiGHS writes no basis file")
        starts = [basis for basis, _ in calls]
        assert len(calls) == 8 * len(plants)
        for i in range(0, len(calls), 8):
            # a plant's own mode cold, then its other mode and six perturbations
            assert starts[i:i + 8] == [None] + [calls[i][1]] * 7

        monkeypatch.setattr(lp, "solve_lp", lambda problem, basis=None: solve_lp(problem))
        cold = run_fleet(plants, template, scenario, profiles, sensitivity=True).sensitivity
        assert warm.keys() == cold.keys()
        for label, curve in warm.items():
            np.testing.assert_allclose(curve, cold[label], rtol=1e-9)

    def test_repriced_lp_matches_fresh_build(self, reference_plants):
        """Re-pricing one built LP through all six perturbations in turn gives
        each time the LP `build_lp` makes of the perturbed spec, and differs
        from the baseline LP in one cost entry."""
        _, scenario, plants = reference_plants
        spec = reference.reference_system(
            scenario, demand_cement=plants[176].cement_demand_tph(scenario), seed=176)
        base = dispatch.build_lp(spec, scenario)
        problem = dispatch.build_lp(spec, scenario)
        for parameter, factor in fleet.PERTURBATIONS.values():
            moved = fleet._perturbed(spec, parameter, factor)
            dispatch.reprice_capacity(problem, moved, scenario)
            fresh = dispatch.build_lp(moved, scenario)
            assert problem.cost.tobytes() == fresh.cost.tobytes()
            assert np.count_nonzero(problem.cost != base.cost) == 1
            assert (problem.matrix() != fresh.matrix()).nnz == 0
            for field in ("lower", "upper", "sense", "rhs"):
                np.testing.assert_array_equal(getattr(problem, field), getattr(fresh, field))
