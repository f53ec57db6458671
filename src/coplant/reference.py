"""Reference plant definition and synthetic renewable profiles.

The shipped default system is a biomass-fired oxy-fuel cement line coupled to
an electrolysis/methanol train, with gaseous and liquid molecule buffers.
Cost and stoichiometric coefficients are declared, configurable defaults
(2035-era projections and literature-typical values), not measured data.

Renewable profiles are synthetic diurnal/seasonal series generated from a
seed, standing in for real weather years.
"""

from __future__ import annotations

import math

import numpy as np

from coplant.domain import (
    CO2_PER_T_MEOH,
    H2_PER_T_MEOH,
    O2_PER_T_H2,
    Commodity,
    ConversionUnit,
    RenewableSource,
    Scenario,
    StorageUnit,
    SystemSpec,
    min_stoichiometry,
)

# Oxy-fuel O2 demand per tonne of clinker, calibrated so byproduct O2 is
# ~2.7x the O2 demand at the minimum cement-to-methanol ratio.
O2_PER_T_CLINKER = 0.2687
BIOMASS_PER_T_CLINKER = 0.15
RAW_MEAL_PER_T_CLINKER = 1.55


def solar_profile(hours: int, seed: int = 42) -> tuple[float, ...]:
    """Clear-sky diurnal shape with seasonal drift and daily cloudiness."""
    rng = np.random.default_rng(seed)
    days = (hours + 23) // 24
    cloud = rng.uniform(0.35, 1.0, size=days)
    out = np.zeros(hours)
    for t in range(hours):
        d, h = divmod(t, 24)
        diurnal = max(0.0, math.sin(math.pi * (h - 6.0) / 12.0))
        seasonal = 0.75 + 0.25 * math.sin(2.0 * math.pi * (d - 80.0) / 365.0)
        out[t] = diurnal * seasonal * cloud[d]
    return tuple(np.clip(out, 0.0, 1.0))


def wind_profile(hours: int, seed: int = 43) -> tuple[float, ...]:
    """Smoothed autoregressive series pushed through a logistic ramp."""
    rng = np.random.default_rng(seed)
    z = 0.0
    out = np.zeros(hours)
    for t in range(hours):
        z = 0.96 * z + 0.28 * rng.standard_normal()
        out[t] = 1.0 / (1.0 + math.exp(-1.6 * z))
    return tuple(np.clip(out, 0.0, 1.0))


def reference_units(scenario: Scenario) -> list[ConversionUnit]:
    captured_per_clinker = scenario.capture_rate * scenario.kiln_co2_per_t_clinker
    emitted_per_clinker = (1.0 - scenario.capture_rate) * scenario.kiln_co2_per_t_clinker
    clinker_per_cement = 1.0 / scenario.cement_per_clinker
    return [
        ConversionUnit(
            id="electrolyzer",
            inputs={Commodity.ELECTRICITY: 52.0},
            outputs={Commodity.HYDROGEN: 1.0, Commodity.OXYGEN_GAS: O2_PER_T_H2},
            capex=15.6e6, fixed_om_frac=0.02, lifetime=20.0, min_load_frac=0.05,
            ramp_frac_per_hour=1.0),
        ConversionUnit(
            id="asu",
            inputs={Commodity.ELECTRICITY: 0.6},
            outputs={Commodity.OXYGEN_GAS: 1.0},
            capex=1.2e6, fixed_om_frac=0.03, lifetime=25.0),
        ConversionUnit(
            id="raw_meal_mill",
            inputs={Commodity.ELECTRICITY: 0.03},
            outputs={Commodity.RAW_MEAL: 1.0},
            capex=0.15e6, fixed_om_frac=0.03, var_om=0.5, lifetime=30.0),
        ConversionUnit(
            id="kiln",
            inputs={Commodity.RAW_MEAL: RAW_MEAL_PER_T_CLINKER,
                    Commodity.BIOMASS: BIOMASS_PER_T_CLINKER,
                    Commodity.OXYGEN_GAS: O2_PER_T_CLINKER,
                    Commodity.ELECTRICITY: 0.08},
            outputs={Commodity.CLINKER: 1.0, Commodity.CO2_GAS: captured_per_clinker},
            co2_emitted=emitted_per_clinker,
            capex=2.0e6, fixed_om_frac=0.04, var_om=2.0, lifetime=30.0, min_load_frac=1.0),
        ConversionUnit(
            id="cement_mill",
            inputs={Commodity.CLINKER: clinker_per_cement, Commodity.ELECTRICITY: 0.04},
            outputs={Commodity.CEMENT: 1.0},
            capex=0.3e6, fixed_om_frac=0.03, var_om=1.0, lifetime=30.0),
        ConversionUnit(
            id="meoh_synthesis",
            inputs={Commodity.CO2_GAS: CO2_PER_T_MEOH,
                    Commodity.HYDROGEN: H2_PER_T_MEOH,
                    Commodity.ELECTRICITY: 0.8},
            outputs={Commodity.METHANOL: 1.0},
            capex=2.6e6, fixed_om_frac=0.03, var_om=3.0, lifetime=25.0, min_load_frac=0.30,
            ramp_frac_per_hour=0.20),
        ConversionUnit(
            id="seq_compressor",
            inputs={Commodity.CO2_GAS: 1.0, Commodity.ELECTRICITY: 0.1},
            outputs={Commodity.CO2_SEQUESTRATION: 1.0},
            capex=0.2e6, fixed_om_frac=0.04, lifetime=25.0),
    ]


def reference_storages(include_co2_storage: bool = True) -> list[StorageUnit]:
    stores = [
        StorageUnit(id="battery", commodity=Commodity.ELECTRICITY,
                    charge_eff=0.95, discharge_eff=0.95,
                    capex_capacity=150e3, fixed_om_frac=0.02, lifetime=15.0),
        StorageUnit(id="h2_tank", commodity=Commodity.HYDROGEN,
                    charge_electricity=0.3, capex_capacity=500e3, lifetime=25.0),
        StorageUnit(id="o2_gas_tank", commodity=Commodity.OXYGEN_GAS,
                    charge_electricity=0.12, capex_capacity=60e3, lifetime=25.0),
        StorageUnit(id="o2_liquid_tank", commodity=Commodity.OXYGEN_GAS,
                    charge_electricity=0.35, discharge_electricity=0.01,
                    capex_capacity=10e3, lifetime=25.0),
        StorageUnit(id="meoh_tank", commodity=Commodity.METHANOL,
                    charge_electricity=0.005, capex_capacity=0.3e3, lifetime=30.0),
        StorageUnit(id="clinker_silo", commodity=Commodity.CLINKER,
                    capex_capacity=1e3, lifetime=30.0),
        StorageUnit(id="raw_meal_silo", commodity=Commodity.RAW_MEAL,
                    capex_capacity=1e3, lifetime=30.0),
    ]
    if include_co2_storage:
        stores.extend([
            StorageUnit(id="co2_gas_tank", commodity=Commodity.CO2_GAS,
                        charge_electricity=0.09, capex_capacity=50e3, lifetime=25.0),
            StorageUnit(id="co2_liquid_tank", commodity=Commodity.CO2_GAS,
                        charge_electricity=0.15, discharge_electricity=0.02,
                        capex_capacity=15e3, lifetime=25.0),
        ])
    return stores


def reference_renewables(hours: int, seed: int = 42,
                         solar: tuple[float, ...] | None = None,
                         wind: tuple[float, ...] | None = None,
                         solar_capex: float = 550e3,
                         wind_capex: float = 1.05e6) -> list[RenewableSource]:
    return [
        RenewableSource(id="solar", profile=solar or solar_profile(hours, seed),
                        capex=solar_capex, fixed_om_frac=0.02, lifetime=25.0),
        RenewableSource(id="wind", profile=wind or wind_profile(hours, seed + 1),
                        capex=wind_capex, fixed_om_frac=0.025, lifetime=25.0),
    ]


def reference_system(scenario: Scenario, demand_cement: float = 100.0,
                     seed: int = 42, include_co2_storage: bool = True,
                     solar: tuple[float, ...] | None = None,
                     wind: tuple[float, ...] | None = None) -> SystemSpec:
    """Full co-production plant matching the scenario's stoichiometry."""
    return SystemSpec(
        conversion_units=tuple(reference_units(scenario)),
        storage_units=tuple(reference_storages(include_co2_storage)),
        renewables=tuple(reference_renewables(scenario.horizon_hours, seed,
                                              solar=solar, wind=wind)),
        demand_cement=demand_cement,
        demand_methanol=demand_cement / scenario.stoichiometry_x,
        biomass_price=80.0,
    )


def netzero_scenario(horizon: int = 168, flexible: bool = True) -> Scenario:
    return Scenario(stoichiometry_x=9.76, sequestration_allowed=True, net_zero=True,
                    flexibility_mode="flexible" if flexible else "inflexible",
                    horizon_hours=horizon)


def noseq_scenario(horizon: int = 168, flexible: bool = True) -> Scenario:
    return Scenario(stoichiometry_x=min_stoichiometry(),
                    sequestration_allowed=False,
                    flexibility_mode="flexible" if flexible else "inflexible",
                    horizon_hours=horizon)
