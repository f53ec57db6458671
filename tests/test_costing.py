import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from coplant import costing, dispatch, reference
from coplant.costing import (
    CATEGORIES,
    abatement_cost,
    bundle_metrics,
    cost_breakdown,
    default_category,
    emission_reduction,
    molecule_costs,
    scenario_min_stoichiometry,
    storage_cycle_counts,
    sweep_stoichiometry,
)
from coplant.dispatch import capital_recovery_factor, solve_dispatch
from coplant.domain import Commodity, DomainError, Scenario


class TestAnnualize:
    """Annual capital charge: capex times the capital recovery factor."""

    def test_crf_oracle(self):
        # independent evaluation: 1000 * 0.08*1.08^20 / (1.08^20 - 1)
        assert 1000 * capital_recovery_factor(0.08, 20) == pytest.approx(101.85, abs=0.005)

    def test_zero_rate_limit(self):
        assert 1000 * capital_recovery_factor(0.0, 20) == pytest.approx(50.0)

    def test_zero_capex(self):
        assert 0 * capital_recovery_factor(0.05, 10) == 0.0

    def test_bad_lifetime(self):
        with pytest.raises(DomainError):
            capital_recovery_factor(0.08, 0)

    @given(st.floats(0.0, 0.3), st.floats(0.01, 0.3))
    @example(2.8847581968250525e-16, 0.015625)  # 1 + r rounds r to 2.2e-16
    def test_monotone_in_rate(self, r, dr):
        assert 1000 * capital_recovery_factor(r + dr, 20) >= \
            1000 * capital_recovery_factor(r, 20) - 1e-9


class TestAbatement:
    def test_simple(self):
        assert abatement_cost(150, 100, 1.0, 0.0) == pytest.approx(50.0)

    def test_equal_cost(self):
        assert abatement_cost(100, 100, 1.0, 0.0) == 0.0

    def test_magnitude(self):
        assert abatement_cost(736 + 100, 100, 20.0, 0.0) == pytest.approx(36.8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            abatement_cost(150, 100, 1.0, 1.0)

    @given(st.floats(-1e3, 1e3))
    def test_shift_invariance(self, shift):
        a = abatement_cost(150, 100, 2.0, 0.5)
        b = abatement_cost(150 + shift, 100 + shift, 2.0, 0.5)
        assert b == pytest.approx(a, abs=1e-6)


class TestBreakdown:
    def test_closure(self, netzero48):
        spec, scenario, sol = netzero48
        bd = cost_breakdown(sol, spec, scenario)
        assert set(bd.categories) == set(CATEGORIES)
        assert all(v >= -1e-9 for v in bd.categories.values())
        total_from_cats = sum(bd.categories.values())
        assert total_from_cats == pytest.approx(bd.total, rel=1e-6)
        # closure against the LP objective plus the fixed sequestration adder
        assert bd.total == pytest.approx(sol.objective, rel=1e-6)

    def test_sequestration_category_exact(self, netzero48):
        spec, scenario, sol = netzero48
        bd = cost_breakdown(sol, spec, scenario)
        expected = scenario.co2_charge * sol.annual_sequestered
        assert bd.categories["co2_sequestration"] == pytest.approx(expected, rel=1e-12)

    def test_fixed_mode_rate(self):
        # 1000 t sequestered at default (8.7 + 5.8) $/t -> $14,500/yr
        assert Scenario(stoichiometry_x=5.0).co2_charge * 1000 == pytest.approx(14500.0)

    def test_zero_co2_charge(self, netzero48):
        """Zero transport and storage costs do what `transport_mode = network`
        did: no charge on the sequestration column, none in the sequestration
        category, and none for the bundle metrics to take out."""
        spec, scenario, sol = netzero48
        free = dataclasses.replace(scenario, transport_cost=0.0, storage_cost=0.0)
        idx = dispatch.build_index(spec, free)
        seq = slice(idx.seq, idx.seq + free.horizon_hours)
        assert sol.annual_sequestered > 0 and idx.has_seq
        assert (dispatch.build_lp(spec, scenario).cost[seq] > 0).all()
        assert not dispatch.build_lp(spec, free).cost[seq].any()
        assert cost_breakdown(sol, spec, free).categories["co2_sequestration"] == 0.0
        assert bundle_metrics(sol, spec, free, include_transport=False) == \
            bundle_metrics(sol, spec, free)

    def test_electricity_allocation_covers_consumers(self, netzero48):
        spec, scenario, sol = netzero48
        bd = cost_breakdown(sol, spec, scenario)
        assert bd.electricity_allocation
        assert all(v >= -1e-9 for v in bd.electricity_allocation.values())
        # supplementary view: total allocated = generation + battery cost
        gen = bd.categories["solar"] + bd.categories["wind"] + bd.categories["battery"]
        assert sum(bd.electricity_allocation.values()) == pytest.approx(gen, rel=1e-6)

    def test_store_electricity_allocated_to_its_category(self, netzero48):
        spec, scenario, sol = netzero48
        bd = cost_breakdown(sol, spec, scenario)
        tank = next(s for s in spec.storage_units if s.id == "h2_tank")
        mwh = tank.charge_electricity * sol.annual(sol.charge[tank.id])
        assert mwh > 0
        lcoe = costing.levelized_electricity_cost(spec, scenario, sol)
        # the tank is the only electricity consumer in h2_storage
        assert bd.electricity_allocation["h2_storage"] == pytest.approx(mwh * lcoe, rel=1e-12)

    @pytest.mark.parametrize("unit_id, category", [
        ("co2_gas_tank", "co2_processing"),
        ("co2_liquid_tank", "co2_processing"),
        ("co2_compressor", "co2_processing"),
        ("o2_gas_tank", "o2_supply"),
        ("asu", "o2_supply"),
        ("seq_compressor", "co2_processing"),
    ])
    def test_default_category(self, unit_id, category):
        assert default_category(unit_id) == category


class TestMoleculeCosts:
    def test_components_sum(self, netzero48):
        spec, scenario, sol = netzero48
        for mol in molecule_costs(sol, spec, scenario):
            per_tonne = sum(mol.components.values())
            assert per_tonne == pytest.approx(mol.levelized, rel=1e-6)
            assert mol.annual_tonnes > 0

    def test_molecules_present(self, netzero48):
        spec, scenario, sol = netzero48
        names = {m.molecule for m in molecule_costs(sol, spec, scenario)}
        assert names == {"H2", "O2", "CO2"}

    def test_homogeneity_under_demand_doubling(self):
        scenario = reference.netzero_scenario(horizon=24)
        spec = reference.reference_system(scenario)
        sol1 = solve_dispatch(spec, scenario)
        spec2 = dataclasses.replace(spec, demand_cement=2 * spec.demand_cement,
                                    demand_methanol=2 * spec.demand_methanol)
        sol2 = solve_dispatch(spec2, scenario)
        costs1 = {m.molecule: m.levelized for m in molecule_costs(sol1, spec, scenario)}
        costs2 = {m.molecule: m.levelized for m in molecule_costs(sol2, spec2, scenario)}
        for mol in costs1:
            assert costs2[mol] == pytest.approx(costs1[mol], rel=1e-5)

    def test_store_noise_costs_nothing(self, netzero48):
        """Unbuilt CO2 stores whose charge is solver noise below zero add no
        processing cost, not a negative one."""
        spec, scenario, sol = netzero48
        stores = [s.id for s in spec.storage_units if s.commodity is Commodity.CO2_GAS]
        sol = dataclasses.replace(
            sol, capacities={**sol.capacities, **dict.fromkeys(stores, 0.0)},
            charge={**sol.charge, **dict.fromkeys(stores, np.full(sol.horizon, -1e-12))},
            discharge={**sol.discharge, **dict.fromkeys(stores, np.zeros(sol.horizon))})
        co2 = next(m for m in molecule_costs(sol, spec, scenario) if m.molecule == "CO2")
        assert co2.components["storage"] == co2.components["processing"] == 0.0
        assert min(co2.components.values()) >= 0.0


class TestEmissionReduction:
    def test_netzero_is_one(self, netzero48):
        spec, scenario, sol = netzero48
        assert emission_reduction(sol, spec, scenario) == pytest.approx(1.0, abs=1e-3)

    def test_noseq_below_one(self, noseq48):
        spec, scenario, sol = noseq48
        red = emission_reduction(sol, spec, scenario)
        assert 0.0 < red < 1.0

    def test_bundle_metrics_consistent(self, netzero48):
        spec, scenario, sol = netzero48
        metrics = bundle_metrics(sol, spec, scenario)
        assert metrics["cement_per_bundle"] == pytest.approx(
            scenario.stoichiometry_x, rel=1e-4)
        assert metrics["emis_incumbent"] > metrics["emis_decarb"]


class TestSweep:
    def test_min_ratio_has_no_sequestration(self):
        scenario = reference.noseq_scenario(horizon=24)
        spec = reference.reference_system(scenario)
        xmin = scenario_min_stoichiometry(scenario)
        rows = sweep_stoichiometry(spec, scenario, [xmin])
        assert rows[0].feasible
        assert rows[0].share_sequestration == pytest.approx(0.0, abs=1e-6)

    def test_direction(self):
        scenario = reference.netzero_scenario(horizon=48)
        spec = reference.reference_system(scenario)
        rows = sweep_stoichiometry(spec, scenario, [2.77, 9.76])
        assert all(r.feasible for r in rows)
        assert rows[1].abatement <= rows[0].abatement

    def test_below_minimum_flagged(self):
        scenario = reference.netzero_scenario(horizon=24)
        spec = reference.reference_system(scenario)
        rows = sweep_stoichiometry(spec, scenario, [1.0])
        assert not rows[0].feasible
        assert math.isnan(rows[0].abatement)

    def test_duplicate_rows_identical(self):
        scenario = reference.netzero_scenario(horizon=24)
        spec = reference.reference_system(scenario)
        rows = sweep_stoichiometry(spec, scenario, [9.76, 9.76])
        assert rows[0] == rows[1]

    def test_shares_probability_vector(self):
        scenario = reference.netzero_scenario(horizon=24)
        spec = reference.reference_system(scenario)
        for row in sweep_stoichiometry(spec, scenario, [5.0, 9.76]):
            total = (row.share_methanol + row.share_sequestration
                     + row.share_atmosphere)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert min(row.share_methanol, row.share_sequestration,
                       row.share_atmosphere) >= -1e-12


def test_storage_cycles(netzero48):
    spec, scenario, sol = netzero48
    cycles = storage_cycle_counts(sol)
    for sid, count in cycles.items():
        assert count >= 0
        peak = float(np.max(sol.soc[sid]))
        if peak > 1e-9:
            assert count == pytest.approx(
                max(sol.annual(sol.discharge[sid]), 0.0) / peak, rel=1e-9)


def test_cycle_count_rule():
    # annual discharge = 2.1x max SOC -> 2.1 cycles
    import types
    sol = types.SimpleNamespace(
        horizon=8760,
        soc={"s": np.full(8760, 10.0)},
        discharge={"s": np.full(8760, 21.0 / 8760)},
        annual=lambda arr: float(np.sum(arr)),
    )
    assert storage_cycle_counts(sol)["s"] == pytest.approx(2.1)
