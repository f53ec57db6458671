"""Economic post-processing of dispatch solutions.

Category cost breakdowns, per-molecule levelized costs, CO2 abatement cost
against the incumbent coal routes, emission-reduction accounting, and
cement-to-methanol stoichiometry sweeps.  Capacity is priced with
`dispatch.capacity_prices`, the LP's own capacity-column costs, so the
categories add up to the LP objective.

All results are reported in $/yr (or $/t); the discount-rate assumption comes
from the scenario and is echoed in report headers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from coplant.dispatch import (
    DispatchSolution,
    HOURS_PER_YEAR,
    capacity_prices,
    hourly_utilized_co2,
    solve_dispatch,
)
from coplant.domain import (
    CO2_PER_T_MEOH,
    Commodity,
    DomainError,
    Scenario,
    SystemSpec,
    min_stoichiometry,
)

CATEGORIES = ("solar", "wind", "battery", "electrolyzer", "h2_storage", "o2_supply",
              "co2_processing", "co2_sequestration", "biomass", "other")

# Electricity intensity of the incumbent coal routes, MWh per tonne of product;
# combined with the scenario grid emission factor for the benchmark scope.
INCUMBENT_ELEC_CEMENT = 0.10
INCUMBENT_ELEC_METHANOL = 1.20

# The first keyword found in the id wins; "co2" comes before "o2" because
# every co2 id also contains "o2".
_KEYWORD_CATEGORIES = (
    ("solar", "solar"),
    ("wind", "wind"),
    ("battery", "battery"),
    ("electrolyzer", "electrolyzer"),
    ("h2", "h2_storage"),
    ("co2", "co2_processing"),
    ("seq", "co2_processing"),
    ("asu", "o2_supply"),
    ("o2", "o2_supply"),
    ("biomass", "biomass"),
)


def abatement_cost(cost_decarb: float, cost_incumbent: float,
                   emis_incumbent: float, emis_decarb: float) -> float:
    """Extra cost of the decarbonized route per tonne of CO2 avoided."""
    if emis_incumbent <= emis_decarb:
        raise DomainError(
            f"incumbent emissions ({emis_incumbent}) must exceed decarbonized "
            f"emissions ({emis_decarb})")
    return (cost_decarb - cost_incumbent) / (emis_incumbent - emis_decarb)


def default_category(unit_id: str) -> str:
    uid = unit_id.lower()
    for key, cat in _KEYWORD_CATEGORIES:
        if key in uid:
            return cat
    return "other"


@dataclass
class CostBreakdown:
    categories: dict[str, float]
    total: float
    electricity_allocation: dict[str, float]  # generation+battery $ spread over consumers

    def share(self, category: str) -> float:
        return self.categories[category] / self.total if self.total else 0.0


@dataclass
class MoleculeCost:
    molecule: str                     # H2 | O2 | CO2
    levelized: float                  # $/t supplied to consumers
    components: dict[str, float]      # generation electricity, storage, processing,
                                      # capacity equipment ($/t)
    annual_tonnes: float


def _capacity_costs(spec: SystemSpec, scenario: Scenario,
                    sol: DispatchSolution) -> dict[str, float]:
    """Annual capacity cost ($/yr) of each unit, store and renewable, at the
    prices the LP charged."""
    return {asset_id: sol.capacities[asset_id] * price
            for asset_id, price in capacity_prices(spec, scenario).items()}


def _category(spec: SystemSpec, asset_id: str) -> str:
    """Cost category of a unit, store or renewable: an electricity store is
    a battery, anything else goes by its id (`default_category`)."""
    if any(s.id == asset_id and s.commodity is Commodity.ELECTRICITY
           for s in spec.storage_units):
        return "battery"
    return default_category(asset_id)


def _electricity_use_mwh(spec: SystemSpec, sol: DispatchSolution) -> dict[str, float]:
    """Annual MWh drawn from the bus, keyed by consumer id: unit inputs, and
    the charge and discharge overhead of stores, clamped at 0 because an
    unbuilt store carries only solver noise, which can be negative."""
    use: dict[str, float] = {}
    for u in spec.conversion_units:
        e = u.inputs.get(Commodity.ELECTRICITY, 0.0)
        if e > 0:
            use[u.id] = e * sol.annual(sol.activity[u.id])
    for s in spec.storage_units:
        if s.charge_electricity > 0 or s.discharge_electricity > 0:
            use[s.id] = max(0.0, s.charge_electricity * sol.annual(sol.charge[s.id])
                            + s.discharge_electricity * sol.annual(sol.discharge[s.id]))
    return use


def levelized_electricity_cost(spec: SystemSpec, scenario: Scenario,
                               sol: DispatchSolution) -> float:
    """System-average $/MWh of delivered electricity (generation plus battery)."""
    capacity = _capacity_costs(spec, scenario, sol)
    supply_cost = sum(capacity[r.id] for r in spec.renewables)
    supply_cost += sum(capacity[s.id] for s in spec.storage_units
                       if s.commodity is Commodity.ELECTRICITY)
    consumed = sum(_electricity_use_mwh(spec, sol).values())
    return supply_cost / consumed if consumed > 0 else 0.0


def cost_breakdown(sol: DispatchSolution, spec: SystemSpec, scenario: Scenario) -> CostBreakdown:
    """Annual cost by category; categories sum to the LP objective.

    The sequestration category carries exactly the fixed per-tonne transport
    and storage charge; compressors and tanks stay under processing.  The
    supplementary `electricity_allocation` view spreads generation and battery
    costs over consuming categories pro-rata to MWh drawn.
    """
    cats = {c: 0.0 for c in CATEGORIES}
    for asset_id, cost in _capacity_costs(spec, scenario, sol).items():
        cats[_category(spec, asset_id)] += cost
    for u in spec.conversion_units:
        annual = sol.annual(sol.activity[u.id])
        cats[default_category(u.id)] += annual * u.var_om
        cats["biomass"] += annual * u.inputs.get(Commodity.BIOMASS, 0.0) * spec.biomass_price
    cats["co2_sequestration"] += scenario.co2_charge * sol.annual_sequestered

    total = sum(cats.values())

    lcoe = levelized_electricity_cost(spec, scenario, sol)
    alloc = {c: 0.0 for c in CATEGORIES}
    for consumer, mwh in _electricity_use_mwh(spec, sol).items():
        alloc[_category(spec, consumer)] += mwh * lcoe

    return CostBreakdown(categories=cats, total=total, electricity_allocation=alloc)


_MOLECULE_SCOPES = {
    "H2": (Commodity.HYDROGEN, ("electrolyzer", "h2_storage")),
    "O2": (Commodity.OXYGEN_GAS, ("o2_supply",)),
    "CO2": (Commodity.CO2_GAS, ("co2_processing",)),
}


def molecule_costs(sol: DispatchSolution, spec: SystemSpec,
                   scenario: Scenario) -> list[MoleculeCost]:
    """Levelized $/t of H2, O2 and CO2 delivered to consumers.

    Costs are gathered from the units and tanks in each molecule's supply
    scope and divided by annual tonnes consumed; no byproduct credits.
    Molecules with zero annual supply are omitted.
    """
    lcoe = levelized_electricity_cost(spec, scenario, sol)
    capacity = _capacity_costs(spec, scenario, sol)
    use = _electricity_use_mwh(spec, sol)
    out: list[MoleculeCost] = []
    for molecule, (commodity, scope) in _MOLECULE_SCOPES.items():
        tonnes = sum(u.inputs.get(commodity, 0.0) * sol.annual(sol.activity[u.id])
                     for u in spec.conversion_units)
        if tonnes <= 0:
            continue
        comp = {"generation electricity": 0.0, "storage": 0.0, "processing": 0.0,
                "capacity equipment": 0.0}
        for u in spec.conversion_units:
            if default_category(u.id) not in scope:
                continue
            comp["capacity equipment"] += (capacity[u.id]
                                           + sol.annual(sol.activity[u.id]) * u.var_om)
            comp["generation electricity"] += use.get(u.id, 0.0) * lcoe
        for s in spec.storage_units:
            if s.commodity is not commodity:
                continue
            comp["storage"] += capacity[s.id]
            comp["processing"] += use.get(s.id, 0.0) * lcoe
        comp = {k: v / tonnes for k, v in comp.items()}
        out.append(MoleculeCost(molecule=molecule, levelized=sum(comp.values()),
                                components=comp, annual_tonnes=tonnes))
    return out


def bundle_metrics(sol: DispatchSolution, spec: SystemSpec, scenario: Scenario,
                   include_transport: bool = True) -> dict[str, float]:
    """Cost and emissions per product bundle (1 t methanol + x t cement)."""
    meoh_yr = spec.demand_methanol * HOURS_PER_YEAR
    cement_yr = spec.demand_cement * HOURS_PER_YEAR
    if meoh_yr <= 0:
        raise DomainError("bundle metrics need a positive methanol demand")
    x = scenario.stoichiometry_x

    cost_yr = sol.objective
    if not include_transport:
        cost_yr -= scenario.co2_charge * sol.annual_sequestered
    cost_inc = x * scenario.incumbent_cost_cement + scenario.incumbent_cost_methanol

    combustion = CO2_PER_T_MEOH * meoh_yr
    emitted = sol.annual_emitted
    credit = min(sol.annual_sequestered, emitted + combustion)
    emis_decarb_yr = emitted + combustion - credit

    emis_inc = (x * (scenario.incumbent_emis_cement
                     + INCUMBENT_ELEC_CEMENT * scenario.grid_emission_factor)
                + scenario.incumbent_emis_methanol
                + INCUMBENT_ELEC_METHANOL * scenario.grid_emission_factor
                + CO2_PER_T_MEOH)
    return {
        "cost_decarb": cost_yr / meoh_yr,
        "cost_incumbent": cost_inc,
        "emis_decarb": emis_decarb_yr / meoh_yr,
        "emis_incumbent": emis_inc,
        "cement_per_bundle": cement_yr / meoh_yr,
    }


def emission_reduction(sol: DispatchSolution, spec: SystemSpec,
                       scenario: Scenario) -> float:
    """Fraction of incumbent-scope CO2 emissions avoided.

    Scope: direct production emissions, grid electricity of the incumbent
    routes, and complete combustion of the methanol.  Sequestered biogenic
    CO2 is credited up to the uncaptured-plus-utilized total, per the
    net-zero sequestration rule.
    """
    m = bundle_metrics(sol, spec, scenario)
    if m["emis_incumbent"] <= 0:
        raise DomainError("incumbent emissions are zero; reduction undefined")
    return 1.0 - m["emis_decarb"] / m["emis_incumbent"]


def solution_abatement_cost(sol: DispatchSolution, spec: SystemSpec, scenario: Scenario,
                            include_transport: bool = True) -> float:
    m = bundle_metrics(sol, spec, scenario, include_transport=include_transport)
    return abatement_cost(m["cost_decarb"], m["cost_incumbent"],
                          m["emis_incumbent"], m["emis_decarb"])


@dataclass
class SweepRow:
    x: float
    feasible: bool
    abatement: float = math.nan           # $/t CO2, transport included
    share_methanol: float = math.nan      # CO2 destination shares, sum to 1
    share_sequestration: float = math.nan
    share_atmosphere: float = math.nan


def scenario_min_stoichiometry(scenario: Scenario) -> float:
    """Minimum feasible cement-to-methanol ratio under the scenario calibration."""
    captured_per_cement = (scenario.capture_rate * scenario.kiln_co2_per_t_clinker
                           / scenario.cement_per_clinker)
    return min_stoichiometry(CO2_PER_T_MEOH, captured_per_cement)


def sweep_stoichiometry(spec: SystemSpec, scenario: Scenario,
                        x_values: list[float]) -> list[SweepRow]:
    """Re-solve the plant across cement-to-methanol ratios.

    Methanol demand is held fixed; cement demand scales with x.  Ratios below
    the stoichiometric minimum are flagged infeasible rather than dropped.
    The net-zero constraint is released so the sweep spans the closed-loop
    (no sequestration) end of the range.
    """
    rows: list[SweepRow] = []
    x_min = scenario_min_stoichiometry(scenario)
    for x in x_values:
        if x < x_min - 1e-9:
            rows.append(SweepRow(x=x, feasible=False))
            continue
        scn = dataclasses.replace(scenario, stoichiometry_x=x,
                                  sequestration_allowed=True, net_zero=False)
        spc = dataclasses.replace(spec, demand_cement=x * spec.demand_methanol)
        sol = solve_dispatch(spc, scn)
        utilized = sol.annual(hourly_utilized_co2(spc, sol))
        seq = sol.annual_sequestered
        emitted = sol.annual_emitted
        total = utilized + seq + emitted
        rows.append(SweepRow(
            x=x, feasible=True,
            abatement=solution_abatement_cost(sol, spc, scn),
            share_methanol=utilized / total,
            share_sequestration=seq / total,
            share_atmosphere=emitted / total,
        ))
    return rows


def storage_cycle_counts(sol: DispatchSolution) -> dict[str, float]:
    """Annual round-trip cycles per store: annual discharge over max SOC."""
    out = {}
    for sid, dis in sol.discharge.items():
        peak = float(np.max(sol.soc[sid]))
        annual_dis = sol.annual(dis)
        # stores the optimizer left unbuilt carry only solver noise
        out[sid] = max(annual_dis, 0.0) / peak if peak > 1e-9 else 0.0
    return out
