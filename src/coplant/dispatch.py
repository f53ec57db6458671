"""Hourly capacity-sizing and operation LP for a co-production plant.

`build_lp` translates a (SystemSpec, Scenario) pair into a LinearProgram;
`extract_solution` maps an optimal LP solution back into typed ledgers.
Each commodity's hourly balance is written once, in `_balance_terms`:
`build_lp` makes its balance rows of it and `commodity_balance` its ledger.
`capacity_prices` is the one place capacity is priced: the LP's capacity
columns cost these prices, and `costing` reads them to report annual costs.

Variable layout (in order), with U conversion units, S storage units,
R renewables and horizon T.  `build_index` numbers it in blocks, each named
by the `DispatchSolution` field it fills:

    capacities:       U + S + R  (one per unit, store and renewable)
    activity:         U * T
    charge:           S * T
    discharge:        S * T
    soc:              S * T      (state of charge)
    curtailment:      T          (present when R > 0)
    vented_o2:        T          (present when oxygen_gas can be produced)
    sequestered_co2:  T          (present when co2_sequestration can be produced)

For the canonical toy (1 renewable, 1 storage, 1 converter, T=24, no O2 or
sequestration commodities) this gives 3 + 24*4 + 24 = 123 variables.

All hourly costs are scaled by 8760/T so that the objective is $/yr for any
horizon length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coplant.domain import Commodity, CoplantError, DomainError, Scenario, SystemSpec
from coplant.lp import EQ, GE, LE, LinearProgram, LpSolution, LpSolverError

HOURS_PER_YEAR = 8760.0
BALANCE_TOL = 1e-6


class StructuralInfeasibility(CoplantError, ValueError):
    """A commodity is consumed but nothing in the system can supply it."""

    exit_code = 4

    def __init__(self, commodity: Commodity):
        super().__init__(
            f"commodity '{commodity.value}' is consumed but has no possible supply "
            "(no producing unit, renewable, or import)")
        self.commodity = commodity

    def __reduce__(self):
        """Pickle by the commodity, which `__init__` takes, not by the message."""
        return type(self), (self.commodity,)


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
    problem.cost[list(build_index(spec, scenario).capacities.values())] = list(prices.values())


@dataclass
class DispatchIndex:
    """Deterministic variable numbering shared by builder and extractor.

    Each block is named by the DispatchSolution ledger it fills and maps an
    asset id, or in `series` a system-wide series the system has, to its
    first column.  A capacity is one column, in `capacity_prices` order;
    every other block is `horizon` columns."""

    capacities: dict[str, int]
    activity: dict[str, int]
    charge: dict[str, int]
    discharge: dict[str, int]
    soc: dict[str, int]
    series: dict[str, int]
    n_variables: int


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
    used.update(c for c, demand in _demands(spec).items() if demand > 0)
    return used


def _demands(spec: SystemSpec) -> dict[Commodity, float]:
    """The fixed hourly demand of each product."""
    return {Commodity.CEMENT: spec.demand_cement, Commodity.METHANOL: spec.demand_methanol}


def _balanced_commodities(spec: SystemSpec) -> list[Commodity]:
    """The commodities with an hourly balance row, by name: all produced or
    consumed but biomass, which is bought."""
    return sorted((_produced_commodities(spec) | _consumed_commodities(spec))
                  - {Commodity.BIOMASS}, key=lambda c: c.value)


def _balance_terms(spec: SystemSpec, c: Commodity) -> list[tuple]:
    """One commodity's hourly balance as (label, ledger, key, coefficient)
    terms, positive for supply: the coefficient times entry `key` of
    `ledger`, a DispatchIndex block and DispatchSolution ledger (`series`
    names the system-wide series, each a ledger of its own).  A renewable's
    coefficient is its profile, on its capacity; any other is a nonzero
    number.  The demand and biomass purchase are not terms."""
    terms = [(u.id, "activity", u.id, u.outputs.get(c, 0.0) - u.inputs.get(c, 0.0))
             for u in spec.conversion_units]
    for s in spec.storage_units:
        if s.commodity is c:
            terms += [(f"{s.id}:discharge", "discharge", s.id, 1.0),
                      (f"{s.id}:charge", "charge", s.id, -1.0)]
        if c is Commodity.ELECTRICITY:   # compression or liquefaction overheads
            terms += [(f"{s.id}:processing", "charge", s.id, -s.charge_electricity),
                      (f"{s.id}:processing", "discharge", s.id, -s.discharge_electricity)]
    terms = [t for t in terms if t[3] != 0.0]
    if c is Commodity.ELECTRICITY:
        terms += [(r.id, "capacities", r.id, np.asarray(r.profile)) for r in spec.renewables]
    # the series that draws the commodity off
    return terms + {
        Commodity.ELECTRICITY: [("curtailment", "series", "curtailment", -1.0)],
        Commodity.OXYGEN_GAS: [("vented", "series", "vented_o2", -1.0)],
        Commodity.CO2_SEQUESTRATION: [("sequestration", "series", "sequestered_co2", -1.0)],
    }.get(c, [])


def build_index(spec: SystemSpec, scenario: Scenario) -> DispatchIndex:
    T = scenario.horizon_hours
    units = [u.id for u in spec.conversion_units]
    stores = [s.id for s in spec.storage_units]
    produced = _produced_commodities(spec)
    present = {"curtailment": bool(spec.renewables),
               "vented_o2": Commodity.OXYGEN_GAS in produced,
               "sequestered_co2": Commodity.CO2_SEQUESTRATION in produced}
    blocks = {"capacities": dict.fromkeys(units + stores + [r.id for r in spec.renewables], 1),
              "activity": dict.fromkeys(units, T),
              "charge": dict.fromkeys(stores, T),
              "discharge": dict.fromkeys(stores, T),
              "soc": dict.fromkeys(stores, T),
              "series": {name: T for name, has in present.items() if has}}
    n = 0
    for block in blocks.values():   # each width becomes its block's first column
        for key, width in block.items():
            block[key] = n
            n += width
    return DispatchIndex(**blocks, n_variables=n)


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

    lp.add_columns(idx.n_variables)  # free of cost and bounded below by 0
    reprice_capacity(lp, spec, scenario)
    for u in spec.conversion_units:
        lp.cost[idx.activity[u.id] + hours] = (
            u.var_om + spec.biomass_price * u.inputs.get(Commodity.BIOMASS, 0.0)) * scale
    if "sequestered_co2" in idx.series:
        seq = idx.series["sequestered_co2"] + hours
        lp.upper[seq] = np.inf if scenario.sequestration_allowed else 0.0
        lp.cost[seq] = scenario.co2_charge * scale

    for c in _balanced_commodities(spec):
        terms = []  # (hour, column, coefficient)
        for _, ledger, key, coef in _balance_terms(spec, c):
            first = getattr(idx, ledger).get(key)
            if first is None:   # a series the system lacks
                continue
            if ledger == "capacities":   # a profile on a capacity: its nonzero hours
                producing = np.flatnonzero(coef)
                terms.append((producing, first, coef[producing]))
            else:
                terms.append((hours, first + hours, coef))
        lp.add_rows(EQ, np.full(T, _demands(spec).get(c, 0.0)), terms)

    for u in spec.conversion_units:
        cap = idx.capacities[u.id]
        act = idx.activity[u.id] + hours
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
        cap = idx.capacities[s.id]
        soc = idx.soc[s.id] + hours
        steps = hours if s.cyclic else hours[:-1]
        lp.add_rows(EQ, np.zeros(steps.size),
                    [(steps, np.roll(soc, -1)[steps], 1.0), (steps, soc[steps], -1.0),
                     (steps, idx.charge[s.id] + steps, -s.charge_eff),
                     (steps, idx.discharge[s.id] + steps, 1.0 / s.discharge_eff)])
        lp.add_rows(LE, np.zeros(T), [(hours, soc, 1.0), (hours, cap, -1.0)])

    if scenario.net_zero and "sequestered_co2" in idx.series:
        terms = [(0, idx.series["sequestered_co2"] + hours, 1.0)]
        for u in spec.conversion_units:
            burden = u.co2_emitted + (u.inputs.get(Commodity.CO2_GAS, 0.0)
                                      if Commodity.METHANOL in u.outputs else 0.0)
            if burden > 0:
                terms.append((0, idx.activity[u.id] + hours, -burden))
        lp.add_rows(GE, [0.0], terms)

    return lp


#: DispatchSolution's ledgers, in field and column order.  `capacities` and
#: the ASSET_SERIES map an asset id to one number or to an hourly series;
#: each of SYSTEM_SERIES is one hourly series, an LP column where the system
#: has it, except `emitted_co2`, which `extract_solution` computes.
ASSET_SERIES = ("activity", "charge", "discharge", "soc")
ASSET_LEDGERS = ("capacities", *ASSET_SERIES)
SYSTEM_SERIES = ("curtailment", "vented_o2", "emitted_co2", "sequestered_co2")


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


def commodity_balance(spec: SystemSpec, solution: DispatchSolution,
                      commodity: Commodity) -> dict[str, np.ndarray]:
    """Signed hourly ledger for one commodity: positive = supply, negative = use.

    Each term of `_balance_terms` on the solution's ledgers, those that
    share a label summed, then the demand and, for biomass, the purchase
    that closes the balance.  A term that is zero every hour is left out."""
    terms: dict[str, np.ndarray] = {}
    for label, ledger, key, coef in _balance_terms(spec, commodity):
        values = getattr(solution, key) if ledger == "series" else getattr(solution, ledger)[key]
        term = coef * values
        terms[label] = terms[label] + term if label in terms else term
    demand = _demands(spec).get(commodity, 0.0)
    if demand:
        terms["demand"] = np.full(solution.horizon, -demand)
    if commodity is Commodity.BIOMASS:
        # biomass is bought on the open market, not produced in-system
        terms["purchase"] = -np.sum(list(terms.values()), axis=0)
    return {label: series for label, series in terms.items() if np.any(series != 0.0)}


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

    series = {name: np.zeros(T) for name in SYSTEM_SERIES}
    series.update((name, x[j:j + T].copy()) for name, j in idx.series.items())
    sol = DispatchSolution(
        horizon=T,
        capacities={asset: float(x[j]) for asset, j in idx.capacities.items()},
        **{name: {asset: x[j:j + T].copy() for asset, j in getattr(idx, name).items()}
           for name in ASSET_SERIES},
        **series,
        objective=float(lp_solution.objective),
    )
    for u in spec.conversion_units:
        if u.co2_emitted > 0:
            sol.emitted_co2 = sol.emitted_co2 + u.co2_emitted * sol.activity[u.id]

    verify_balances(spec, sol)
    return sol


def verify_balances(spec: SystemSpec, solution: DispatchSolution) -> None:
    """Check every commodity/hour residual against BALANCE_TOL; a residual
    above it raises LpSolverError, numerical trouble in the solve."""
    for c in _balanced_commodities(spec):
        terms = commodity_balance(spec, solution, c)
        if not terms:
            continue
        stack = np.vstack(list(terms.values()))
        residual = np.abs(stack.sum(axis=0))
        limit = BALANCE_TOL * np.maximum(1.0, np.abs(stack).max(axis=0))
        worst = int(np.argmax(residual - limit))
        if residual[worst] > limit[worst]:
            raise LpSolverError(
                f"balance violated for {c.value} at hour {worst}: "
                f"residual {residual[worst]:.3e} > {limit[worst]:.3e}")


def solve_dispatch(spec: SystemSpec, scenario: Scenario) -> DispatchSolution:
    """Convenience wrapper: build, solve, extract."""
    from coplant.lp import solve_lp

    return extract_solution(spec, scenario, solve_lp(build_lp(spec, scenario)))
