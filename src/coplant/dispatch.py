"""Hourly capacity-sizing and operation LP for a co-production plant.

`build_lp` translates a (SystemSpec, Scenario) pair into a LinearProgram;
`extract_solution` maps an optimal LP solution back into typed ledgers.
`capacity_prices` is the one place capacity is priced: the LP's capacity
columns cost these prices, and `costing` reads them to report annual costs.

Variable layout (in order), with U conversion units, S storage units,
R renewables and horizon T:

    capacities:   U + S + R
    activities:   U * T
    storage:      S * T charge, S * T discharge, S * T state of charge
    curtailment:  T            (present when R > 0)
    O2 venting:   T            (present when oxygen_gas can be produced)
    sequestration sink: T      (present when co2_sequestration can be produced)

For the canonical toy (1 renewable, 1 storage, 1 converter, T=24, no O2 or
sequestration commodities) this gives 3 + 24*4 + 24 = 123 variables.

All hourly costs are scaled by 8760/T so that the objective is $/yr for any
horizon length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from coplant.domain import (
    Commodity,
    DomainError,
    Scenario,
    SystemSpec,
)
from coplant.lp import EQ, GE, LE, LinearProgram, LpSolution

HOURS_PER_YEAR = 8760.0
BALANCE_TOL = 1e-6


class StructuralInfeasibility(ValueError):
    """A commodity is consumed but nothing in the system can supply it."""

    def __init__(self, commodity: Commodity):
        super().__init__(
            f"commodity '{commodity.value}' is consumed but has no possible supply "
            "(no producing unit, renewable, or import)")
        self.commodity = commodity


def capital_recovery_factor(rate: float, lifetime: float) -> float:
    """Annuity coefficient rate / (1 - (1 + rate)^-lifetime); the zero-rate
    limit is 1/lifetime.

    The denominator goes through log1p and expm1 because forming 1 + rate
    would round a rate near 1e-16 to a multiple of the float spacing at 1."""
    if lifetime <= 0:
        raise DomainError("lifetime must be > 0")
    d = -math.expm1(-lifetime * math.log1p(rate))
    if d == 0.0:  # rate 0 (or too small to move the annuity): its limit
        return 1.0 / lifetime
    return rate / d


def capacity_prices(spec: SystemSpec, scenario: Scenario) -> dict[str, float]:
    """Annual cost ($/yr) of one unit of capacity of each unit, store and
    renewable, keyed by id in capacity-column order: the capital recovery
    factor plus the fixed O&M fraction, times capex (`capex_capacity` for a
    store).

    These are the LP's capacity-column costs, and `costing` prices capacity
    with them.
    """
    rate = scenario.discount_rate
    capex = ([(u, u.capex) for u in spec.conversion_units]
             + [(s, s.capex_capacity) for s in spec.storage_units]
             + [(r, r.capex) for r in spec.renewables])
    return {a.id: (capital_recovery_factor(rate, a.lifetime) + a.fixed_om_frac) * c
            for a, c in capex}


def reprice_capacity(problem: LinearProgram, spec: SystemSpec, scenario: Scenario) -> None:
    """Give the capacity columns of `problem`, built from a spec that differs
    from `spec` in capex only, the costs `build_lp(spec, scenario)` gives them."""
    prices = capacity_prices(spec, scenario)
    problem.cost[:len(prices)] = list(prices.values())


@dataclass
class DispatchIndex:
    """Deterministic variable numbering shared by builder and extractor."""

    cap_unit: dict[str, int] = field(default_factory=dict)
    cap_store: dict[str, int] = field(default_factory=dict)
    cap_renew: dict[str, int] = field(default_factory=dict)
    act: dict[str, int] = field(default_factory=dict)      # uid -> first index
    charge: dict[str, int] = field(default_factory=dict)
    discharge: dict[str, int] = field(default_factory=dict)
    soc: dict[str, int] = field(default_factory=dict)
    curtail: int = -1
    vent_o2: int = -1
    seq: int = -1
    n_variables: int = 0

    @property
    def has_curtail(self) -> bool:
        return self.curtail >= 0

    @property
    def has_vent(self) -> bool:
        return self.vent_o2 >= 0

    @property
    def has_seq(self) -> bool:
        return self.seq >= 0


def _produced_commodities(spec: SystemSpec) -> set[Commodity]:
    out: set[Commodity] = set()
    for u in spec.conversion_units:
        out.update(u.outputs)
    if spec.renewables:
        out.add(Commodity.ELECTRICITY)
    return out


def _consumed_commodities(spec: SystemSpec) -> set[Commodity]:
    used: set[Commodity] = set()
    for u in spec.conversion_units:
        used.update(u.inputs)
    for s in spec.storage_units:
        if s.charge_electricity > 0 or s.discharge_electricity > 0:
            used.add(Commodity.ELECTRICITY)
    if spec.demand_cement > 0:
        used.add(Commodity.CEMENT)
    if spec.demand_methanol > 0:
        used.add(Commodity.METHANOL)
    return used


def build_index(spec: SystemSpec, scenario: Scenario) -> DispatchIndex:
    T = scenario.horizon_hours
    idx = DispatchIndex()
    n = 0
    for u in spec.conversion_units:
        idx.cap_unit[u.id] = n
        n += 1
    for s in spec.storage_units:
        idx.cap_store[s.id] = n
        n += 1
    for r in spec.renewables:
        idx.cap_renew[r.id] = n
        n += 1
    for u in spec.conversion_units:
        idx.act[u.id] = n
        n += T
    for s in spec.storage_units:
        idx.charge[s.id] = n
        n += T
    for s in spec.storage_units:
        idx.discharge[s.id] = n
        n += T
    for s in spec.storage_units:
        idx.soc[s.id] = n
        n += T
    if spec.renewables:
        idx.curtail = n
        n += T
    produced = _produced_commodities(spec)
    if Commodity.OXYGEN_GAS in produced:
        idx.vent_o2 = n
        n += T
    if Commodity.CO2_SEQUESTRATION in produced:
        idx.seq = n
        n += T
    idx.n_variables = n
    return idx


def _validate_inputs(spec: SystemSpec, scenario: Scenario) -> None:
    T = scenario.horizon_hours
    for r in spec.renewables:
        if len(r.profile) != T:
            raise DomainError(
                f"renewable '{r.id}' profile length {len(r.profile)} != horizon {T}")
    if spec.demand_methanol > 0:
        ratio = spec.demand_cement / spec.demand_methanol
        if abs(ratio - scenario.stoichiometry_x) > 1e-6 * max(1.0, scenario.stoichiometry_x):
            raise DomainError(
                f"demand ratio cement:methanol {ratio:.6f} does not match "
                f"scenario stoichiometry {scenario.stoichiometry_x:.6f}")
    produced = _produced_commodities(spec)
    for c in sorted(_consumed_commodities(spec), key=lambda c: c.value):
        if c is Commodity.BIOMASS:
            continue  # biomass is purchased, not produced on site
        if c not in produced:
            raise StructuralInfeasibility(c)


def build_lp(spec: SystemSpec, scenario: Scenario) -> LinearProgram:
    """Encode hourly commodity balances, storage dynamics, flexibility bounds
    and the annualized cost objective.

    Each row family is one block per commodity, unit or store.  The row
    order is fixed (ub/lb and rup/rdn rows interleave per hour) because
    HiGHS's pivoting, and so the vertex it returns for a degenerate optimum,
    depends on it.

    A unit with `min_load_frac = 1` gets one EQ row per hour, pinning it at
    capacity, and no ramp rows; any other unit gets ub, lb (if it has a
    floor) and ramp (if `ramp_frac_per_hour < 1`) rows.

    `flexibility_mode` changes coefficients only, never the row shape:
    inflexible mode sets methanol synthesis's min-load coefficient to 1, so
    its lb and ub rows pin the activity to capacity and its ramp rows hold
    trivially.  `fleet` relies on this to start the other mode's solve from
    the basis of the scenario's own mode.
    """
    _validate_inputs(spec, scenario)
    idx = build_index(spec, scenario)
    T = scenario.horizon_hours
    scale = HOURS_PER_YEAR / T
    hours = np.arange(T)
    lp = LinearProgram()

    prices = capacity_prices(spec, scenario)
    lp.add_columns(len(prices), cost=list(prices.values()))
    for u in spec.conversion_units:
        lp.add_columns(T, cost=(u.var_om + spec.biomass_price
                                * u.inputs.get(Commodity.BIOMASS, 0.0)) * scale)
    lp.add_columns(3 * len(spec.storage_units) * T)  # charge, discharge, state of charge
    lp.add_columns((idx.has_curtail + idx.has_vent) * T)  # curtailment, O2 venting
    if idx.has_seq:
        lp.add_columns(T, upper=np.inf if scenario.sequestration_allowed else 0.0,
                       cost=scenario.co2_charge * scale)
    assert lp.n_variables == idx.n_variables

    balance_commodities = sorted(
        (_produced_commodities(spec) | _consumed_commodities(spec)) - {Commodity.BIOMASS},
        key=lambda c: c.value)

    for c in balance_commodities:
        terms = []  # (hour, column, coefficient)
        for u in spec.conversion_units:
            coef = u.outputs.get(c, 0.0) - u.inputs.get(c, 0.0)
            if coef != 0.0:
                terms.append((hours, idx.act[u.id] + hours, coef))
        for s in spec.storage_units:
            if s.commodity is c:
                terms.append((hours, idx.discharge[s.id] + hours, 1.0))
                terms.append((hours, idx.charge[s.id] + hours, -1.0))
            if c is Commodity.ELECTRICITY:
                if s.charge_electricity > 0:
                    terms.append((hours, idx.charge[s.id] + hours, -s.charge_electricity))
                if s.discharge_electricity > 0:
                    terms.append((hours, idx.discharge[s.id] + hours,
                                  -s.discharge_electricity))
        if c is Commodity.ELECTRICITY:
            for r in spec.renewables:
                cf = np.asarray(r.profile)
                sunny = np.flatnonzero(cf > 0)
                terms.append((sunny, idx.cap_renew[r.id], cf[sunny]))
            if idx.has_curtail:
                terms.append((hours, idx.curtail + hours, -1.0))
        if c is Commodity.OXYGEN_GAS and idx.has_vent:
            terms.append((hours, idx.vent_o2 + hours, -1.0))
        if c is Commodity.CO2_SEQUESTRATION and idx.has_seq:
            terms.append((hours, idx.seq + hours, -1.0))
        demand = {Commodity.CEMENT: spec.demand_cement,
                  Commodity.METHANOL: spec.demand_methanol}.get(c, 0.0)
        lp.add_rows(EQ, np.full(T, demand), terms)

    for u in spec.conversion_units:
        cap = idx.cap_unit[u.id]
        act = idx.act[u.id] + hours
        # a unit with min_load_frac = 1 runs at capacity in either mode
        pinned = u.min_load_frac == 1.0
        if pinned:
            lp.add_rows(EQ, np.zeros(T), [(hours, act, 1.0), (hours, cap, -1.0)])
        else:
            # methanol synthesis has lb rows in both modes; inflexible pins it by lb = ub
            by_mode = Commodity.METHANOL in u.outputs
            floor = (1.0 if by_mode and scenario.flexibility_mode == "inflexible"
                     else u.min_load_frac)
            per_hour = 2 if u.min_load_frac > 0 or by_mode else 1  # ub row, then lb row
            ub = per_hour * hours
            terms = [(ub, act, 1.0), (ub, cap, -1.0)]
            if per_hour == 2:
                terms += [(ub + 1, act, 1.0), (ub + 1, cap, -floor)]
            lp.add_rows(np.tile([LE, GE][:per_hour], T), np.zeros(per_hour * T), terms)
        ramp = u.ramp_frac_per_hour
        if not pinned and ramp < 1.0:
            rup = 2 * hours[:-1]  # rup row, then rdn row
            a0, a1 = act[:-1], act[1:]
            lp.add_rows(LE, np.zeros(2 * (T - 1)),
                        [(rup, a1, 1.0), (rup, a0, -1.0), (rup, cap, -ramp),
                         (rup + 1, a0, 1.0), (rup + 1, a1, -1.0), (rup + 1, cap, -ramp)])

    for s in spec.storage_units:
        cap = idx.cap_store[s.id]
        soc = idx.soc[s.id] + hours
        steps = hours if s.cyclic else hours[:-1]
        lp.add_rows(EQ, np.zeros(steps.size),
                    [(steps, np.roll(soc, -1)[steps], 1.0), (steps, soc[steps], -1.0),
                     (steps, idx.charge[s.id] + steps, -s.charge_eff),
                     (steps, idx.discharge[s.id] + steps, 1.0 / s.discharge_eff)])
        lp.add_rows(LE, np.zeros(T), [(hours, soc, 1.0), (hours, cap, -1.0)])

    if scenario.net_zero and idx.has_seq:
        terms = [(0, idx.seq + hours, 1.0)]
        for u in spec.conversion_units:
            burden = u.co2_emitted + (u.inputs.get(Commodity.CO2_GAS, 0.0)
                                      if Commodity.METHANOL in u.outputs else 0.0)
            if burden > 0:
                terms.append((0, idx.act[u.id] + hours, -burden))
        lp.add_rows(GE, [0.0], terms)

    return lp


@dataclass
class DispatchSolution:
    """Typed view of an optimal dispatch: capacities, hourly ledgers, costs."""

    horizon: int
    capacities: dict[str, float]
    activity: dict[str, np.ndarray]
    charge: dict[str, np.ndarray]
    discharge: dict[str, np.ndarray]
    soc: dict[str, np.ndarray]
    curtailment: np.ndarray
    vented_o2: np.ndarray
    emitted_co2: np.ndarray
    sequestered_co2: np.ndarray
    objective: float

    @property
    def annual_scale(self) -> float:
        return HOURS_PER_YEAR / self.horizon

    def annual(self, hourly: np.ndarray) -> float:
        return float(np.sum(hourly)) * self.annual_scale

    @property
    def annual_sequestered(self) -> float:
        return self.annual(self.sequestered_co2)

    @property
    def annual_emitted(self) -> float:
        return self.annual(self.emitted_co2)


def hourly_utilized_co2(spec: SystemSpec, solution: DispatchSolution) -> np.ndarray:
    """CO2 routed into methanol synthesis each hour."""
    out = np.zeros(solution.horizon)
    for u in spec.conversion_units:
        if Commodity.METHANOL in u.outputs and Commodity.CO2_GAS in u.inputs:
            out += u.inputs[Commodity.CO2_GAS] * solution.activity[u.id]
    return out


def commodity_balance(spec: SystemSpec, scenario: Scenario, solution: DispatchSolution,
                      commodity: Commodity) -> dict[str, np.ndarray]:
    """Signed hourly ledger for one commodity: positive = supply, negative = use."""
    T = solution.horizon
    terms: dict[str, np.ndarray] = {}

    def _add(label: str, series: np.ndarray) -> None:
        if np.any(series != 0.0):
            terms[label] = series

    for u in spec.conversion_units:
        coef = u.outputs.get(commodity, 0.0) - u.inputs.get(commodity, 0.0)
        if coef != 0.0:
            _add(u.id, coef * solution.activity[u.id])
    for s in spec.storage_units:
        if s.commodity is commodity:
            _add(f"{s.id}:discharge", solution.discharge[s.id])
            _add(f"{s.id}:charge", -solution.charge[s.id])
        if commodity is Commodity.ELECTRICITY:
            overhead = (s.charge_electricity * solution.charge[s.id]
                        + s.discharge_electricity * solution.discharge[s.id])
            _add(f"{s.id}:processing", -overhead)
    if commodity is Commodity.ELECTRICITY:
        for r in spec.renewables:
            _add(r.id, solution.capacities[r.id] * np.asarray(r.profile))
        _add("curtailment", -solution.curtailment)
    if commodity is Commodity.OXYGEN_GAS:
        _add("vented", -solution.vented_o2)
    if commodity is Commodity.CO2_SEQUESTRATION:
        _add("sequestration", -solution.sequestered_co2)
    if commodity is Commodity.CEMENT and spec.demand_cement > 0:
        _add("demand", np.full(T, -spec.demand_cement))
    if commodity is Commodity.METHANOL and spec.demand_methanol > 0:
        _add("demand", np.full(T, -spec.demand_methanol))
    if commodity is Commodity.BIOMASS and terms:
        # biomass is bought on the open market, not produced in-system
        _add("purchase", -np.sum(list(terms.values()), axis=0))
    return terms


def extract_solution(spec: SystemSpec, scenario: Scenario,
                     lp_solution: LpSolution) -> DispatchSolution:
    """Map an optimal LP solution back into ledgers and verify every balance."""
    lp_solution.require_optimal()
    idx = build_index(spec, scenario)
    T = scenario.horizon_hours
    x = np.asarray(lp_solution.x)
    if x.shape[0] != idx.n_variables:
        raise ValueError(
            f"solution has {x.shape[0]} values, expected {idx.n_variables}")

    sol = DispatchSolution(
        horizon=T,
        capacities={uid: float(x[j]) for uid, j in
                    {**idx.cap_unit, **idx.cap_store, **idx.cap_renew}.items()},
        activity={uid: x[j:j + T].copy() for uid, j in idx.act.items()},
        charge={sid: x[j:j + T].copy() for sid, j in idx.charge.items()},
        discharge={sid: x[j:j + T].copy() for sid, j in idx.discharge.items()},
        soc={sid: x[j:j + T].copy() for sid, j in idx.soc.items()},
        curtailment=(x[idx.curtail:idx.curtail + T].copy() if idx.has_curtail
                     else np.zeros(T)),
        vented_o2=(x[idx.vent_o2:idx.vent_o2 + T].copy() if idx.has_vent
                   else np.zeros(T)),
        emitted_co2=np.zeros(T),
        sequestered_co2=(x[idx.seq:idx.seq + T].copy() if idx.has_seq
                         else np.zeros(T)),
        objective=float(lp_solution.objective),
    )
    for u in spec.conversion_units:
        if u.co2_emitted > 0:
            sol.emitted_co2 = sol.emitted_co2 + u.co2_emitted * sol.activity[u.id]

    verify_balances(spec, scenario, sol)
    return sol


def verify_balances(spec: SystemSpec, scenario: Scenario, solution: DispatchSolution) -> None:
    """Check every commodity/hour residual against BALANCE_TOL."""
    commodities = sorted(
        (_produced_commodities(spec) | _consumed_commodities(spec)) - {Commodity.BIOMASS},
        key=lambda c: c.value)
    for c in commodities:
        terms = commodity_balance(spec, scenario, solution, c)
        if not terms:
            continue
        stack = np.vstack(list(terms.values()))
        residual = np.abs(stack.sum(axis=0))
        limit = BALANCE_TOL * np.maximum(1.0, np.abs(stack).max(axis=0))
        worst = int(np.argmax(residual - limit))
        if residual[worst] > limit[worst]:
            raise ValueError(
                f"balance violated for {c.value} at hour {worst}: "
                f"residual {residual[worst]:.3e} > {limit[worst]:.3e}")


def solve_dispatch(spec: SystemSpec, scenario: Scenario) -> DispatchSolution:
    """Convenience wrapper: build, solve, extract."""
    from coplant.lp import solve_lp

    return extract_solution(spec, scenario, solve_lp(build_lp(spec, scenario)))
