"""Core data model for the co-production system.

Commodities, conversion/storage/renewable assets, scenario definitions (the
per-tonne CO2 transport and storage charge among them), and the
stoichiometric relations that tie cement output to methanol output.

Units convention: electricity in MWh, every molecule/solid in metric tonnes.
Pressure states are distinct commodities (e.g. CO2 at 50 bar for synthesis vs
150 bar for sequestration) so that every compression penalty stays explicit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


#: The largest magnitude of any netopt input (cost cell, cell size, node amount or
#: cost), of a unit's coefficient or a store's electricity overhead, and of any
#: value of a saved solution, checked where each enters.  It keeps every sum of
#: the netopt inputs (`sinknet.routing`) and every balance term finite.
MAX_MAGNITUDE = 1e15


class CoplantError(Exception):
    """Base of every error that bad input or a failed solve raises.

    `exit_code` is the CLI's exit status for it: 3 invalid input, 4
    infeasible model, 6 solver failure.  Each subclass also keeps a builtin
    base (ValueError, RuntimeError) for callers that catch those."""

    exit_code = 3


class DomainError(CoplantError, ValueError):
    """Invalid value for a domain quantity (negative mass, bad fraction, ...)."""


class Commodity(str, enum.Enum):
    ELECTRICITY = "electricity"           # MWh
    HYDROGEN = "hydrogen"                 # t, at 150 bar
    OXYGEN_GAS = "oxygen_gas"             # t
    OXYGEN_LIQUID = "oxygen_liquid"       # t
    CO2_GAS = "co2_gas"                   # t, at 50 bar
    CO2_LIQUID = "co2_liquid"             # t
    CO2_SEQUESTRATION = "co2_sequestration"  # t, at 150 bar
    BIOMASS = "biomass"                   # t dry
    RAW_MEAL = "raw_meal"                 # t
    CLINKER = "clinker"                   # t
    CEMENT = "cement"                     # t
    METHANOL = "methanol"                 # t

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Ideal reaction stoichiometry (CO2 + 3 H2 -> CH3OH + H2O, 2 H2O -> 2 H2 + O2).
CO2_PER_T_MEOH = 1.375     # 44 / 32
H2_PER_T_MEOH = 0.1875     # 6 / 32
O2_PER_T_H2 = 7.94         # 32 / 4.032

# Default calibration: captured CO2 per tonne of cement, back-solved so the
# minimum cement-to-methanol ratio lands at the published 2.77.
DEFAULT_CAPTURED_CO2_PER_T_CEMENT = 0.4964
# Oxy-fuel capture rate default; calibration-typical, configurable.
DEFAULT_CAPTURE_RATE = 0.9294
# National average cement-to-clinker mass ratio (t cement per t clinker).
DEFAULT_CEMENT_PER_CLINKER = 1.35


def _check_fraction(name: str, value: float, lo: float = 0.0, hi: float = 1.0,
                    lo_open: bool = False) -> None:
    ok = (value > lo if lo_open else value >= lo) and value <= hi
    if not ok:
        raise DomainError(f"{name} must be in {'(' if lo_open else '['}{lo}, {hi}]: got {value}")


@dataclass(frozen=True)
class ConversionUnit:
    """A process unit converting input commodities into outputs.

    `inputs` / `outputs` map commodities to coefficients per unit of activity;
    activity and nameplate capacity share the unit of the primary product
    (t/h, or MWh/h for electric assets).  `co2_emitted` is the uncaptured CO2
    released to the atmosphere per unit activity (only nonzero for the kiln).
    """

    id: str
    inputs: dict[Commodity, float] = field(default_factory=dict)
    outputs: dict[Commodity, float] = field(default_factory=dict)
    capex: float = 0.0            # $ per unit nameplate capacity
    fixed_om_frac: float = 0.0    # fraction of capex per year
    var_om: float = 0.0           # $ per unit activity
    lifetime: float = 20.0        # years
    min_load_frac: float = 0.0    # activity floor per unit capacity; 1 pins it there
    ramp_frac_per_hour: float = 1.0  # max hourly activity change per unit capacity
    co2_emitted: float = 0.0      # t CO2 vented per unit activity (uncaptured share)

    def __post_init__(self) -> None:
        for coll, label in ((self.inputs, "input"), (self.outputs, "output")):
            for c, v in coll.items():
                if not 0 <= v <= MAX_MAGNITUDE:
                    raise DomainError(f"{self.id}: {label} coefficient for {c} is {v}, "
                                      f"outside [0, {MAX_MAGNITUDE:g}]")
        _check_fraction(f"{self.id}.min_load_frac", self.min_load_frac)
        _check_fraction(f"{self.id}.ramp_frac_per_hour", self.ramp_frac_per_hour, lo_open=True)
        if self.lifetime <= 0:
            raise DomainError(f"{self.id}: lifetime must be positive")
        if self.co2_emitted < 0:
            raise DomainError(f"{self.id}: co2_emitted must be >= 0")


@dataclass(frozen=True)
class StorageUnit:
    """A buffer for one commodity, sized by stored quantity.

    Compression/liquefaction overheads are expressed as electricity demands
    per tonne charged or discharged.
    """

    id: str
    commodity: Commodity
    charge_eff: float = 1.0
    discharge_eff: float = 1.0
    charge_electricity: float = 0.0     # MWh per unit charged
    discharge_electricity: float = 0.0  # MWh per unit discharged
    capex_capacity: float = 0.0         # $ per unit stored
    fixed_om_frac: float = 0.0
    lifetime: float = 20.0
    cyclic: bool = True

    def __post_init__(self) -> None:
        _check_fraction(f"{self.id}.charge_eff", self.charge_eff, lo_open=True)
        _check_fraction(f"{self.id}.discharge_eff", self.discharge_eff, lo_open=True)
        for overhead in (self.charge_electricity, self.discharge_electricity):
            if not 0 <= overhead <= MAX_MAGNITUDE:
                raise DomainError(f"{self.id}: electricity overheads must be in "
                                  f"[0, {MAX_MAGNITUDE:g}], got {overhead}")
        if self.capex_capacity < 0:
            raise DomainError(f"{self.id}: capex_capacity must be >= 0")
        if self.lifetime <= 0:
            raise DomainError(f"{self.id}: lifetime must be positive")


@dataclass(frozen=True)
class RenewableSource:
    """A dedicated variable renewable generator with an hourly profile."""

    id: str
    profile: tuple[float, ...]
    capex: float = 0.0          # $ per MW
    fixed_om_frac: float = 0.0
    lifetime: float = 25.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", tuple(float(v) for v in self.profile))
        for i, cf in enumerate(self.profile):
            if not 0.0 <= cf <= 1.0:
                raise DomainError(f"{self.id}: capacity factor out of [0,1] at hour {i}: {cf}")
        if self.lifetime <= 0:
            raise DomainError(f"{self.id}: lifetime must be positive")


@dataclass(frozen=True)
class Scenario:
    """One decarbonization scenario: stoichiometry, CO2 policy and economics."""

    stoichiometry_x: float              # t cement per t methanol
    sequestration_allowed: bool = True
    net_zero: bool = False              # enforce the 100%-reduction sequestration rule
    flexibility_mode: str = "flexible"  # methanol synthesis: flexible | inflexible
    capture_rate: float = DEFAULT_CAPTURE_RATE
    kiln_co2_per_t_clinker: float = (
        DEFAULT_CAPTURED_CO2_PER_T_CEMENT / DEFAULT_CAPTURE_RATE * DEFAULT_CEMENT_PER_CLINKER
    )
    cement_per_clinker: float = DEFAULT_CEMENT_PER_CLINKER
    discount_rate: float = 0.08
    grid_emission_factor: float = 0.58  # t CO2/MWh, incumbent grid benchmark
    incumbent_cost_cement: float = 55.0   # $/t, coal-route
    incumbent_cost_methanol: float = 310.0  # $/t, coal-route
    incumbent_emis_cement: float = 0.86   # t CO2/t, incl. grid electricity
    incumbent_emis_methanol: float = 3.1  # t CO2/t, production only
    horizon_hours: int = 168
    transport_cost: float = 8.7         # $/t CO2 sequestered
    storage_cost: float = 5.8           # $/t CO2 sequestered

    def __post_init__(self) -> None:
        if self.stoichiometry_x <= 0:
            raise DomainError("stoichiometry_x must be > 0")
        _check_fraction("capture_rate", self.capture_rate, lo_open=True)
        if self.kiln_co2_per_t_clinker <= 0:
            raise DomainError("kiln_co2_per_t_clinker must be > 0")
        if self.cement_per_clinker <= 0:
            raise DomainError("cement_per_clinker must be > 0")
        if self.discount_rate < 0:
            raise DomainError("discount_rate must be >= 0")
        if self.horizon_hours <= 0:
            raise DomainError("horizon_hours must be a positive integer")
        if self.flexibility_mode not in ("flexible", "inflexible"):
            raise DomainError(f"unknown flexibility_mode: {self.flexibility_mode}")
        if self.net_zero and not self.sequestration_allowed:
            raise DomainError("net_zero requires sequestration_allowed")
        if self.transport_cost < 0 or self.storage_cost < 0:
            raise DomainError("transport/storage costs must be >= 0")

    @property
    def co2_charge(self) -> float:
        """Transport and storage charge on every sequestered tonne, $/t CO2."""
        return self.transport_cost + self.storage_cost


@dataclass(frozen=True)
class SystemSpec:
    """Declarative plant description fed to the dispatch optimizer."""

    conversion_units: tuple[ConversionUnit, ...]
    storage_units: tuple[StorageUnit, ...]
    renewables: tuple[RenewableSource, ...]
    demand_cement: float    # t/h, fixed every hour
    demand_methanol: float  # t/h, fixed every hour
    biomass_price: float = 80.0  # $/t dry matter

    def __post_init__(self) -> None:
        object.__setattr__(self, "conversion_units", tuple(self.conversion_units))
        object.__setattr__(self, "storage_units", tuple(self.storage_units))
        object.__setattr__(self, "renewables", tuple(self.renewables))
        if self.demand_cement < 0 or self.demand_methanol < 0:
            raise DomainError("demands must be >= 0")
        if self.biomass_price < 0:
            raise DomainError("biomass_price must be >= 0")
        ids = [u.id for u in self.conversion_units] + [s.id for s in self.storage_units] \
            + [r.id for r in self.renewables]
        if len(ids) != len(set(ids)):
            raise DomainError("unit ids must be unique across the system")


def min_stoichiometry(co2_per_t_meoh: float = CO2_PER_T_MEOH,
                      captured_co2_per_t_cement: float = DEFAULT_CAPTURED_CO2_PER_T_CEMENT,
                      ) -> float:
    """Smallest cement-to-methanol ratio with zero CO2 left for sequestration.

    At the minimum, every captured tonne of kiln CO2 is consumed by methanol
    synthesis, so the ratio is the CO2 demand of one tonne of methanol over
    the CO2 captured per tonne of cement.
    """
    if co2_per_t_meoh <= 0 or captured_co2_per_t_cement <= 0:
        raise DomainError("min_stoichiometry arguments must be > 0")
    return co2_per_t_meoh / captured_co2_per_t_cement


def netzero_sequestration_requirement(uncaptured: float, utilized: float) -> float:
    """Minimum biogenic CO2 sequestration for a net-zero product pair.

    The sequestered biogenic CO2 must cover both the uncaptured kiln emissions
    and the CO2 routed into methanol, which is ultimately released on
    combustion.
    """
    if uncaptured < 0 or utilized < 0:
        raise DomainError("sequestration requirement arguments must be >= 0")
    return uncaptured + utilized
