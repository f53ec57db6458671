"""Sectioned plain-text configuration for scenarios and system specs.

Grammar: `[section]` headers followed by `key = value` lines; `#` starts a
comment.  A scenario file has one `[scenario]` section.  A system file has
one `[system]` section and repeatable `[unit]`, `[storage]` and
`[renewable]` blocks.

The dataclasses of `coplant.domain` are the schema.  The keys of `[scenario]`,
`[system]`, `[unit]`, `[storage]` and `[renewable]` are the field names of
`Scenario`, `SystemSpec`, `ConversionUnit`, `StorageUnit` and
`RenewableSource`; a field without a default is a required key, and an
omitted key takes the field's default.  Numbers must be finite.  Booleans are
`true`/`false`; lists of commodity coefficients are written
`commodity:coefficient, commodity:coefficient`, each commodity once.

A renewable's profile is the one set of keys that are not field names: it
comes either from `profile_file = <csv>` (one column of hourly capacity
factors, one header line, resolved relative to the config file) or
`profile_synthetic = solar:<seed>` / `wind:<seed>`.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import MISSING, Field, fields
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from coplant.domain import (
    Commodity,
    ConversionUnit,
    DomainError,
    RenewableSource,
    Scenario,
    StorageUnit,
    SystemSpec,
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


def finite_float(value: str) -> float:
    """`float(value)` that rejects nan and infinities."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


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
            commodity, number = Commodity(name.strip()), finite_float(coef)
        except ValueError:
            raise ConfigError(f"bad coefficient entry {item.strip()!r}; "
                              "expected 'commodity:finite number'") from None
        if commodity in out:
            raise ConfigError(f"commodity {commodity.value!r} given twice")
        out[commodity] = number
    return out


def _coeff_str(coeffs: dict[Commodity, float]) -> str:
    return ", ".join(f"{c.value}:{v!r}" for c, v in coeffs.items())


#: (parse, format) for each field type that a config key can set.  Fields of
#: any other type (tuples) are not config keys.
_TYPES = {
    float: (finite_float, repr),
    int: (int, repr),
    str: (str, str),
    bool: (_bool, lambda v: str(v).lower()),
    Commodity: (Commodity, attrgetter("value")),
    dict[Commodity, float]: (_coeffs, _coeff_str),
}


@functools.cache
def _config_fields(cls: type) -> tuple[tuple[Field, tuple], ...]:
    """(field, (parse, format)) for each field of `cls` that a config key sets."""
    hints = get_type_hints(cls)
    return tuple((f, _TYPES[hints[f.name]]) for f in fields(cls) if hints[f.name] in _TYPES)


def _pop_fields(cls: type, block: dict[str, str], source: str) -> dict[str, object]:
    """Pop and parse each field of `cls` that `block` sets.  A field without
    a default is required; the dataclass supplies every other default."""
    kwargs: dict[str, object] = {}
    for f, (parse, _) in _config_fields(cls):
        if f.name in block:
            try:
                kwargs[f.name] = parse(block.pop(f.name))
            except ValueError as exc:
                raise ConfigError(f"{source}: key {f.name!r}: {exc}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{source}: missing required key {f.name!r}")
    return kwargs


def _build(cls: type, section: str, block: dict[str, str], source: str, **given):
    """`cls` from the keys of one `[section]` block plus the `given` fields."""
    kwargs = _pop_fields(cls, block, source)
    if block:
        raise ConfigError(
            f"{source}: unknown key(s) in [{section}]: {', '.join(sorted(block))}")
    try:
        return cls(**kwargs, **given)
    except DomainError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _group(text: str, source: str, single: str,
           repeatable: tuple[str, ...] = ()) -> dict[str, list[dict[str, str]]]:
    """The blocks of `text` by section name: at most one `[single]` section
    and any number of each repeatable one."""
    groups: dict[str, list[dict[str, str]]] = {name: [] for name in (single, *repeatable)}
    for name, block in parse_sections(text, source):
        if name not in groups:
            raise ConfigError(f"{source}: unexpected section [{name}] in {single} config")
        if name == single and groups[single]:
            raise ConfigError(f"{source}: repeated [{single}] section")
        groups[name].append(block)
    return groups


def parse_scenario(text: str, source: str = "<config>") -> Scenario:
    block = (_group(text, source, "scenario")["scenario"] or [{}])[0]
    return _build(Scenario, "scenario", block, source)


def read_profile_csv(path: Path, horizon: int) -> tuple[float, ...]:
    """The first `horizon` values of the first column of a CSV file with one
    header line; blank lines are skipped.

    Raises ValueError for an empty or too short file, and for a value that is
    not a number, naming its file and line.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"profile {path} is empty")
        values = []
        for row in reader:
            if any(field.strip() for field in row):
                try:
                    values.append(float(row[0]))
                except ValueError:
                    raise ValueError(
                        f"{path}:{reader.line_num}: not a number: {row[0]!r}") from None
    if len(values) < horizon:
        raise ValueError(f"profile {path} has {len(values)} hours, need {horizon}")
    return tuple(values[:horizon])


def _parse_renewable(block: dict[str, str], base_dir: Path, horizon: int,
                     source: str) -> RenewableSource:
    profile_file = block.pop("profile_file", None)
    synthetic = block.pop("profile_synthetic", None)
    if (profile_file is None) == (synthetic is None):
        raise ConfigError(f"renewable {block.get('id')!r} needs exactly one of "
                          "profile_file / profile_synthetic")
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
            profile = maker(horizon, int(seed))
        except (ValueError, KeyError):
            raise ConfigError(f"bad profile_synthetic {synthetic!r}; "
                              "expected 'solar:<seed>' or 'wind:<seed>'") from None
    return _build(RenewableSource, "renewable", block, source, profile=profile)


def parse_system(text: str, horizon: int, base_dir: str | Path = ".",
                 source: str = "<config>") -> SystemSpec:
    groups = _group(text, source, "system", ("unit", "storage", "renewable"))
    return _build(
        SystemSpec, "system", (groups["system"] or [{}])[0], source,
        conversion_units=tuple(_build(ConversionUnit, "unit", block, source)
                               for block in groups["unit"]),
        storage_units=tuple(_build(StorageUnit, "storage", block, source)
                            for block in groups["storage"]),
        renewables=tuple(_parse_renewable(block, Path(base_dir), horizon, source)
                         for block in groups["renewable"]))


def _format_fields(obj) -> list[str]:
    """A `key = value` line for each field of `obj` that a config key sets."""
    return [f"{f.name} = {fmt(getattr(obj, f.name))}"
            for f, (_, fmt) in _config_fields(type(obj))]


def serialize_scenario(scenario: Scenario) -> str:
    return "\n".join(["[scenario]", *_format_fields(scenario)]) + "\n"


def serialize_system(spec: SystemSpec, profiles_dir: str | Path) -> str:
    """Emit system config text for a file in `profiles_dir`; each renewable
    profile is written there as `<id>.csv`, at 10 significant digits."""
    lines = ["[system]", *_format_fields(spec)]
    for section, items in (("unit", spec.conversion_units), ("storage", spec.storage_units)):
        for item in items:
            lines += ["", f"[{section}]", *_format_fields(item)]
    for r in spec.renewables:
        path = Path(profiles_dir) / f"{r.id}.csv"
        with path.open("w") as fh:
            fh.write("capacity_factor\n")
            fh.writelines(f"{v:.10g}\n" for v in r.profile)
        lines += ["", "[renewable]", *_format_fields(r), f"profile_file = {path.name}"]
    return "\n".join(lines) + "\n"
