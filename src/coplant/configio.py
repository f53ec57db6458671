"""Sectioned plain-text configuration for scenarios and system specs.

Grammar: `[section]` headers followed by `key = value` lines; `#` starts a
comment.  `[unit]`, `[storage]` and `[renewable]` blocks are repeatable.
Booleans are `true`/`false`; lists of commodity coefficients are written
`commodity:coefficient, commodity:coefficient`.

Renewable profiles come either from `profile_file = <csv>` (one column of
hourly capacity factors, one header line, resolved relative to the config
file) or `profile_synthetic = solar:<seed>` / `wind:<seed>`.
"""

from __future__ import annotations

import csv
from pathlib import Path

from coplant.domain import (
    Commodity,
    ConversionUnit,
    DomainError,
    Flexibility,
    RenewableSource,
    Scenario,
    StorageUnit,
    SystemSpec,
    TransportCost,
)

class ConfigError(ValueError):
    pass


def parse_sections(text: str, source: str = "<config>") -> list[tuple[str, dict[str, str]]]:
    """Split config text into (section name, key-value dict) blocks, in order."""
    blocks: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            blocks.append((line[1:-1].strip().lower(), current))
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        current[key] = value
    return blocks


def _bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


def _coeffs(value: str) -> dict[Commodity, float]:
    out: dict[Commodity, float] = {}
    if not value.strip():
        return out
    for item in value.split(","):
        try:
            name, coef = item.split(":")
            out[Commodity(name.strip())] = float(coef)
        except (ValueError, KeyError):
            raise ConfigError(f"bad coefficient entry {item.strip()!r}; "
                              "expected 'commodity:number'") from None
    return out


def _pop(block: dict[str, str], key: str, convert, default=None, required: bool = False):
    if key in block:
        raw = block.pop(key)
        try:
            return convert(raw)
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if required:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _reject_unknown(section: str, block: dict[str, str]) -> None:
    if block:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(block))}")


_SCENARIO_FLOATS = (
    "stoichiometry_x", "capture_rate", "kiln_co2_per_t_clinker", "process_frac",
    "biogenic_frac", "cement_per_clinker", "discount_rate", "grid_emission_factor",
    "incumbent_cost_cement", "incumbent_cost_methanol", "incumbent_emis_cement",
    "incumbent_emis_methanol",
)


def parse_scenario(text: str, source: str = "<config>") -> Scenario:
    blocks = parse_sections(text, source)
    merged: dict[str, str] = {}
    for name, block in blocks:
        if name != "scenario":
            raise ConfigError(f"{source}: unexpected section [{name}] in scenario config")
        merged.update(block)

    kwargs = {}
    for key in _SCENARIO_FLOATS:
        value = _pop(merged, key, float)
        if value is not None:
            kwargs[key] = value
    if "stoichiometry_x" not in kwargs:
        raise ConfigError(f"{source}: scenario needs stoichiometry_x")
    for key in ("sequestration_allowed", "net_zero"):
        value = _pop(merged, key, _bool)
        if value is not None:
            kwargs[key] = value
    mode = _pop(merged, "flexibility_mode", str)
    if mode is not None:
        kwargs["flexibility_mode"] = mode
    horizon = _pop(merged, "horizon_hours", int)
    if horizon is not None:
        kwargs["horizon_hours"] = horizon
    tmode = _pop(merged, "transport_mode", str, default="fixed_per_tonne")
    kwargs["transport_cost"] = TransportCost(
        mode=tmode,
        transport=_pop(merged, "transport_cost", float, default=8.7),
        storage=_pop(merged, "storage_cost", float, default=5.8))
    _reject_unknown("scenario", merged)
    try:
        return Scenario(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _parse_unit(block: dict[str, str]) -> ConversionUnit:
    unit = ConversionUnit(
        id=_pop(block, "id", str, required=True),
        inputs=_pop(block, "inputs", _coeffs, default={}),
        outputs=_pop(block, "outputs", _coeffs, default={}),
        capex=_pop(block, "capex", float, default=0.0),
        fixed_om_frac=_pop(block, "fixed_om_frac", float, default=0.0),
        var_om=_pop(block, "var_om", float, default=0.0),
        lifetime=_pop(block, "lifetime", float, default=20.0),
        flexibility=_pop(block, "flexibility", Flexibility,
                         default=Flexibility.FULLY_FLEXIBLE),
        min_load_frac=_pop(block, "min_load_frac", float, default=0.0),
        ramp_frac_per_hour=_pop(block, "ramp_frac_per_hour", float, default=1.0),
        co2_emitted=_pop(block, "co2_emitted", float, default=0.0),
    )
    _reject_unknown("unit", block)
    return unit


def _parse_storage(block: dict[str, str]) -> StorageUnit:
    store = StorageUnit(
        id=_pop(block, "id", str, required=True),
        commodity=_pop(block, "commodity", Commodity, required=True),
        charge_eff=_pop(block, "charge_eff", float, default=1.0),
        discharge_eff=_pop(block, "discharge_eff", float, default=1.0),
        charge_electricity=_pop(block, "charge_electricity", float, default=0.0),
        discharge_electricity=_pop(block, "discharge_electricity", float, default=0.0),
        capex_capacity=_pop(block, "capex_capacity", float, default=0.0),
        fixed_om_frac=_pop(block, "fixed_om_frac", float, default=0.0),
        lifetime=_pop(block, "lifetime", float, default=20.0),
        cyclic=_pop(block, "cyclic", _bool, default=True),
    )
    _reject_unknown("storage", block)
    return store


def read_profile_csv(path: Path, horizon: int) -> tuple[float, ...]:
    """The first `horizon` values of the first column of a CSV file with one
    header line; blank lines are skipped.

    Raises ValueError for an empty, non-numeric or too short file.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"profile {path} is empty")
        values = [float(row[0]) for row in reader if any(field.strip() for field in row)]
    if len(values) < horizon:
        raise ValueError(f"profile {path} has {len(values)} hours, need {horizon}")
    return tuple(values[:horizon])


def _parse_renewable(block: dict[str, str], base_dir: Path, horizon: int) -> RenewableSource:
    rid = _pop(block, "id", str, required=True)
    profile_file = _pop(block, "profile_file", str)
    synthetic = _pop(block, "profile_synthetic", str)
    if (profile_file is None) == (synthetic is None):
        raise ConfigError(
            f"renewable {rid!r} needs exactly one of profile_file / profile_synthetic")
    if profile_file is not None:
        path = base_dir / profile_file
        if not path.exists():
            raise ConfigError(f"profile file not found: {path}")
        try:
            profile = read_profile_csv(path, horizon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        from coplant.reference import solar_profile, wind_profile
        try:
            kind, seed = synthetic.split(":")
            maker = {"solar": solar_profile, "wind": wind_profile}[kind.strip()]
        except (ValueError, KeyError):
            raise ConfigError(f"bad profile_synthetic {synthetic!r}; "
                              "expected 'solar:<seed>' or 'wind:<seed>'") from None
        profile = maker(horizon, int(seed))
    ren = RenewableSource(
        id=rid, profile=profile,
        capex=_pop(block, "capex", float, default=0.0),
        fixed_om_frac=_pop(block, "fixed_om_frac", float, default=0.0),
        lifetime=_pop(block, "lifetime", float, default=25.0),
    )
    _reject_unknown("renewable", block)
    return ren


def parse_system(text: str, horizon: int, base_dir: str | Path = ".",
                 source: str = "<config>") -> SystemSpec:
    base_dir = Path(base_dir)
    units: list[ConversionUnit] = []
    storages: list[StorageUnit] = []
    renewables: list[RenewableSource] = []
    system: dict[str, str] = {}
    for name, block in parse_sections(text, source):
        if name == "system":
            system.update(block)
        elif name == "unit":
            units.append(_parse_unit(block))
        elif name == "storage":
            storages.append(_parse_storage(block))
        elif name == "renewable":
            renewables.append(_parse_renewable(block, base_dir, horizon))
        else:
            raise ConfigError(f"{source}: unexpected section [{name}] in system config")
    demand_cement = _pop(system, "demand_cement", float, required=True)
    demand_methanol = _pop(system, "demand_methanol", float, required=True)
    biomass_price = _pop(system, "biomass_price", float, default=80.0)
    _reject_unknown("system", system)
    try:
        return SystemSpec(
            conversion_units=tuple(units), storage_units=tuple(storages),
            renewables=tuple(renewables), demand_cement=demand_cement,
            demand_methanol=demand_methanol, biomass_price=biomass_price)
    except DomainError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _coeff_str(coeffs: dict[Commodity, float]) -> str:
    return ", ".join(f"{c.value}:{v!r}" for c, v in coeffs.items())


def serialize_scenario(scenario: Scenario) -> str:
    lines = ["[scenario]"]
    for key in _SCENARIO_FLOATS:
        lines.append(f"{key} = {getattr(scenario, key)!r}")
    lines.append(f"sequestration_allowed = {str(scenario.sequestration_allowed).lower()}")
    lines.append(f"net_zero = {str(scenario.net_zero).lower()}")
    lines.append(f"flexibility_mode = {scenario.flexibility_mode}")
    lines.append(f"horizon_hours = {scenario.horizon_hours}")
    lines.append(f"transport_mode = {scenario.transport_cost.mode}")
    lines.append(f"transport_cost = {scenario.transport_cost.transport!r}")
    lines.append(f"storage_cost = {scenario.transport_cost.storage!r}")
    return "\n".join(lines) + "\n"


def serialize_system(spec: SystemSpec, profiles_dir: str | Path | None = None) -> str:
    """Emit system config text; profiles are written as CSVs next to it when
    profiles_dir is given, otherwise referenced by id."""
    lines = ["[system]",
             f"demand_cement = {spec.demand_cement!r}",
             f"demand_methanol = {spec.demand_methanol!r}",
             f"biomass_price = {spec.biomass_price!r}"]
    for u in spec.conversion_units:
        lines += ["", "[unit]", f"id = {u.id}"]
        if u.inputs:
            lines.append(f"inputs = {_coeff_str(u.inputs)}")
        if u.outputs:
            lines.append(f"outputs = {_coeff_str(u.outputs)}")
        lines += [f"capex = {u.capex!r}", f"fixed_om_frac = {u.fixed_om_frac!r}",
                  f"var_om = {u.var_om!r}", f"lifetime = {u.lifetime!r}",
                  f"flexibility = {u.flexibility.value}",
                  f"min_load_frac = {u.min_load_frac!r}",
                  f"ramp_frac_per_hour = {u.ramp_frac_per_hour!r}"]
        if u.co2_emitted:
            lines.append(f"co2_emitted = {u.co2_emitted!r}")
    for s in spec.storage_units:
        lines += ["", "[storage]", f"id = {s.id}", f"commodity = {s.commodity.value}",
                  f"charge_eff = {s.charge_eff!r}", f"discharge_eff = {s.discharge_eff!r}",
                  f"charge_electricity = {s.charge_electricity!r}",
                  f"discharge_electricity = {s.discharge_electricity!r}",
                  f"capex_capacity = {s.capex_capacity!r}",
                  f"fixed_om_frac = {s.fixed_om_frac!r}",
                  f"lifetime = {s.lifetime!r}",
                  f"cyclic = {str(s.cyclic).lower()}"]
    for r in spec.renewables:
        lines += ["", "[renewable]", f"id = {r.id}"]
        if profiles_dir is not None:
            path = Path(profiles_dir) / f"{r.id}.csv"
            with path.open("w") as fh:
                fh.write("capacity_factor\n")
                fh.writelines(f"{v:.10g}\n" for v in r.profile)
            lines.append(f"profile_file = {path.name}")
        else:
            lines.append(f"profile_file = {r.id}.csv")
        lines += [f"capex = {r.capex!r}", f"fixed_om_frac = {r.fixed_om_frac!r}",
                  f"lifetime = {r.lifetime!r}"]
    return "\n".join(lines) + "\n"
