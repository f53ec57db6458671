import dataclasses

import numpy as np
import pytest

from coplant import dispatch, reference
from coplant.dispatch import (
    StructuralInfeasibility,
    build_index,
    build_lp,
    hourly_utilized_co2,
    solve_dispatch,
)
from coplant.domain import (
    Commodity,
    ConversionUnit,
    RenewableSource,
    Scenario,
    StorageUnit,
    SystemSpec,
)
from coplant.lp import EQ, GE, LE, solve_lp


def captured_co2(spec, sol):
    """CO2 captured from kiln flue gas each hour (co2_gas produced by units)."""
    return sum(u.outputs[Commodity.CO2_GAS] * sol.activity[u.id]
               for u in spec.conversion_units if Commodity.CO2_GAS in u.outputs)


def toy_system(T=24):
    """1 renewable + 1 storage + 1 converter making cement from electricity."""
    converter = ConversionUnit(id="maker", inputs={Commodity.ELECTRICITY: 1.0},
                               outputs={Commodity.CEMENT: 1.0}, capex=100.0)
    battery = StorageUnit(id="batt", commodity=Commodity.ELECTRICITY,
                          capex_capacity=10.0)
    profile = tuple(0.5 + 0.5 * np.sin(t / 4) ** 2 for t in range(T))
    solar = RenewableSource(id="pv", profile=profile, capex=500.0)
    spec = SystemSpec(conversion_units=(converter,), storage_units=(battery,),
                      renewables=(solar,), demand_cement=1.0, demand_methanol=0.0)
    scenario = Scenario(stoichiometry_x=2.77, horizon_hours=T)
    return spec, scenario


def test_toy_variable_count_formula():
    # capacities (1+1+1) + activities 24 + charge 24 + discharge 24 + SOC 24
    # + curtailment 24 = 123
    spec, scenario = toy_system(24)
    index = build_index(spec, scenario)
    assert index.n_variables == 123
    lp = build_lp(spec, scenario)
    assert lp.n_variables == 123


@pytest.mark.parametrize("system", ["toy", "reference"])
def test_capacity_prices_are_the_lp_capacity_costs(system):
    if system == "toy":
        spec, scenario = toy_system(24)
    else:
        scenario = reference.netzero_scenario(horizon=24)
        spec = reference.reference_system(scenario)
    prices = dispatch.capacity_prices(spec, scenario)
    index = build_index(spec, scenario)
    offsets = {**index.cap_unit, **index.cap_store, **index.cap_renew}
    assert [offsets[asset_id] for asset_id in prices] == list(range(len(offsets)))
    assert list(build_lp(spec, scenario).cost[:len(prices)]) == list(prices.values())
    if system == "toy":
        batt = spec.storage_units[0]
        crf = dispatch.capital_recovery_factor(scenario.discount_rate, batt.lifetime)
        assert prices["batt"] == pytest.approx((crf + batt.fixed_om_frac) * 10.0)


def test_toy_solves_and_balances():
    spec, scenario = toy_system(24)
    sol = solve_dispatch(spec, scenario)
    assert sol.capacities["maker"] >= 1.0 - 1e-9
    assert np.all(sol.activity["maker"] >= 1.0 - 1e-6)
    # SOC bounded by built storage capacity
    assert np.all(sol.soc["batt"] <= sol.capacities["batt"] + 1e-9)


def test_extract_rejects_short_or_unbalanced_x():
    spec, scenario = toy_system(24)
    res = solve_lp(build_lp(spec, scenario))
    short = dataclasses.replace(res, x=res.x[:-1])
    with pytest.raises(ValueError, match="^solution has 122 values, expected 123$"):
        dispatch.extract_solution(spec, scenario, short)
    x = res.x.copy()
    x[build_index(spec, scenario).act["maker"] + 5] += 0.5
    with pytest.raises(ValueError, match="^balance violated for cement at hour 5: "):
        dispatch.extract_solution(spec, scenario, dataclasses.replace(res, x=x))


def test_zero_demand_all_zero():
    spec, scenario = toy_system(24)
    spec = dataclasses.replace(spec, demand_cement=0.0)
    sol = solve_dispatch(spec, scenario)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert all(cap == pytest.approx(0.0, abs=1e-9) for cap in sol.capacities.values())


def test_profile_length_mismatch_rejected():
    spec, scenario = toy_system(24)
    scenario = dataclasses.replace(scenario, horizon_hours=48)
    with pytest.raises(ValueError):
        build_lp(spec, scenario)


def test_structural_infeasibility_names_commodity():
    converter = ConversionUnit(id="maker", inputs={Commodity.HYDROGEN: 1.0},
                               outputs={Commodity.CEMENT: 1.0})
    spec = SystemSpec(conversion_units=(converter,), storage_units=(),
                      renewables=(), demand_cement=1.0, demand_methanol=0.0)
    scenario = Scenario(stoichiometry_x=2.77, horizon_hours=4)
    with pytest.raises(StructuralInfeasibility) as err:
        build_lp(spec, scenario)
    assert "hydrogen" in str(err.value)


def test_inflexible_methanol_pinned():
    scenario = reference.netzero_scenario(horizon=24, flexible=False)
    spec = reference.reference_system(scenario)
    sol = solve_dispatch(spec, scenario)
    act = sol.activity["meoh_synthesis"]
    assert np.ptp(act) <= 1e-6 * max(1.0, act.max())


def test_min_load_rows_reference_capacity():
    scenario = reference.netzero_scenario(horizon=24)
    spec = reference.reference_system(scenario)
    lp = build_lp(spec, scenario)
    index = build_index(spec, scenario)
    act = index.act["electrolyzer"]
    matrix = lp.matrix()
    # the min-load rows are the GE rows on the electrolyzer's hourly activity
    touches = np.diff(matrix[:, act:act + 24].tocsr().indptr) > 0
    rows = np.flatnonzero(touches & (lp.sense == GE))
    assert rows.size == 24, "expected one electrolyzer min-load row per hour"
    cap_idx = index.cap_unit["electrolyzer"]
    for row in rows:
        coeff = matrix[row, cap_idx]
        assert coeff == pytest.approx(0.05) or coeff == pytest.approx(-0.05)


def test_electrolyzer_respects_min_load(netzero48):
    spec, scenario, sol = netzero48
    cap = sol.capacities["electrolyzer"]
    assert cap > 0
    assert np.all(sol.activity["electrolyzer"] >= 0.05 * cap - 1e-6 * max(1.0, cap))


def test_conservation_and_cyclic_soc(netzero48):
    spec, scenario, sol = netzero48
    T = sol.horizon
    for commodity in Commodity:
        terms = dispatch.commodity_balance(spec, scenario, sol, commodity)
        if not terms:
            continue
        stack = np.vstack(list(terms.values()))
        scale = max(1.0, np.abs(stack).max())
        assert np.abs(stack.sum(axis=0)).max() <= 1e-6 * scale, commodity
    for sid, soc in sol.soc.items():
        store = next(s for s in spec.storage_units if s.id == sid)
        if not store.cyclic:
            continue
        # closing the cycle: SOC after hour T-1 returns to SOC_0
        final = (soc[T - 1] + store.charge_eff * sol.charge[sid][T - 1]
                 - sol.discharge[sid][T - 1] / store.discharge_eff)
        # SOC array stores start-of-hour states; compare across the wrap
        assert abs(final - soc[0]) <= 1e-6 * max(1.0, np.abs(soc).max())


def test_renewable_output_bounded(netzero48):
    spec, scenario, sol = netzero48
    for r in spec.renewables:
        available = sol.capacities[r.id] * np.asarray(r.profile)
        assert np.all(available >= -1e-9)


def test_flexibility_dominance():
    for horizon in (48,):
        flex_scn = reference.netzero_scenario(horizon=horizon, flexible=True)
        inflex_scn = reference.netzero_scenario(horizon=horizon, flexible=False)
        spec = reference.reference_system(flex_scn)
        flex = solve_dispatch(spec, flex_scn)
        inflex = solve_dispatch(spec, inflex_scn)
        assert flex.objective <= inflex.objective * (1 + 1e-8) + 1e-6


@pytest.mark.parametrize("kind", ["netzero", "noseq"])
@pytest.mark.parametrize("horizon", [24, 48])
def test_inflexible_lp_matches_pinned_oracle(kind, horizon):
    """The inflexible LP pins methanol synthesis through its lb and ub rows.
    Its oracle is the flexible LP plus one `act_t - cap = 0` row per hour,
    which makes the flexible bound and ramp rows redundant.  The two modes'
    LPs have one shape, so either mode's basis can start the other's solve."""
    flexible, inflexible = (getattr(reference, f"{kind}_scenario")(horizon=horizon,
                                                                  flexible=flag)
                            for flag in (True, False))
    spec = reference.reference_system(flexible)
    problem, oracle = build_lp(spec, inflexible), build_lp(spec, flexible)
    assert ((problem.n_variables, problem.n_constraints, problem.matrix().nnz)
            == (oracle.n_variables, oracle.n_constraints, oracle.matrix().nnz))
    np.testing.assert_array_equal(problem.sense, oracle.sense)
    index = build_index(spec, flexible)
    hours = np.arange(horizon)
    oracle.add_rows(EQ, np.zeros(horizon),
                    [(hours, index.act["meoh_synthesis"] + hours, 1.0),
                     (hours, index.cap_unit["meoh_synthesis"], -1.0)])
    assert solve_lp(problem).objective == pytest.approx(solve_lp(oracle).objective,
                                                        rel=1e-9)


@pytest.mark.parametrize("flexible", [True, False])
def test_min_load_one_pins_a_unit(flexible):
    """A unit with min_load_frac = 1 gets one EQ row per hour and no ramp rows,
    whatever its ramp limit.  A clinker kiln with a lower floor gets ub and lb
    rows, and ramp rows from its own limit, like any other unit."""
    T = 24
    scenario = reference.netzero_scenario(horizon=T, flexible=flexible)
    base = reference.reference_system(scenario)
    moved = {"electrolyzer": dict(min_load_frac=1.0, ramp_frac_per_hour=0.5),
             "kiln": dict(min_load_frac=0.5, ramp_frac_per_hour=0.25)}
    spec = dataclasses.replace(base, conversion_units=tuple(
        dataclasses.replace(u, **moved.get(u.id, {})) for u in base.conversion_units))
    problem, index = build_lp(spec, scenario), build_index(spec, scenario)
    matrix = problem.matrix().tocsr()

    def capacity_rows(uid):
        """Sense, capacity coefficient and number of activity terms of each
        row that holds both the unit's capacity and its activity."""
        cap = matrix[:, [index.cap_unit[uid]]].toarray().ravel()
        n_act = np.diff(matrix[:, index.act[uid]:index.act[uid] + T].tocsr().indptr)
        rows = np.flatnonzero((cap != 0) & (n_act > 0))
        return problem.sense[rows], cap[rows], n_act[rows]

    sense, cap, n_act = capacity_rows("electrolyzer")
    assert list(sense) == [EQ] * T and list(cap) == [-1.0] * T and list(n_act) == [1] * T
    sense, cap, n_act = capacity_rows("kiln")
    bound = n_act == 1
    assert list(sense[bound]) == [LE, GE] * T and list(cap[bound]) == [-1.0, -0.5] * T
    assert list(sense[~bound]) == [LE] * 2 * (T - 1)
    assert list(cap[~bound]) == [-0.25] * 2 * (T - 1)


def test_capex_monotonicity():
    scenario = reference.netzero_scenario(horizon=24)
    spec = reference.reference_system(scenario)
    base = solve_dispatch(spec, scenario).objective
    for uid in ("solar", "wind"):
        renewables = tuple(
            dataclasses.replace(r, capex=r.capex * 1.2) if r.id == uid else r
            for r in spec.renewables)
        raised = solve_dispatch(
            dataclasses.replace(spec, renewables=renewables), scenario).objective
        assert raised >= base - 1e-6 * max(1.0, abs(base))
    units = tuple(dataclasses.replace(u, capex=u.capex * 1.2)
                  if u.id == "electrolyzer" else u for u in spec.conversion_units)
    raised = solve_dispatch(
        dataclasses.replace(spec, conversion_units=units), scenario).objective
    assert raised >= base - 1e-6 * max(1.0, abs(base))


def test_no_sequestration_forces_equality(noseq48):
    spec, scenario, sol = noseq48
    assert not scenario.sequestration_allowed
    assert np.abs(sol.sequestered_co2).max() == 0.0
    captured = captured_co2(spec, sol)
    utilized = hourly_utilized_co2(spec, sol)
    scale = max(1.0, captured.max())
    assert np.abs(captured - utilized).max() <= 1e-6 * scale


def test_netzero_requirement_met(netzero48):
    spec, scenario, sol = netzero48
    assert scenario.net_zero
    utilized = sol.annual(hourly_utilized_co2(spec, sol))
    uncaptured = sol.annual_emitted
    assert sol.annual_sequestered >= uncaptured + utilized - 1e-6


def test_determinism():
    scenario = reference.netzero_scenario(horizon=24)
    spec = reference.reference_system(scenario)
    a = solve_dispatch(spec, scenario)
    b = solve_dispatch(spec, scenario)
    assert a.objective == b.objective
    for uid in a.activity:
        assert np.array_equal(a.activity[uid], b.activity[uid])
    assert a.capacities == b.capacities


def test_kiln_always_pinned(netzero48):
    spec, scenario, sol = netzero48
    act = sol.activity["kiln"]
    assert np.ptp(act) <= 1e-6 * max(1.0, act.max())
