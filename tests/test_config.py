import dataclasses
import enum
import functools

import numpy as np
import pytest

from coplant import configio, costing, dispatch, reference
from coplant.configio import ConfigError, parse_scenario, parse_sections, parse_system
from coplant.dispatch import StructuralInfeasibility
from coplant.domain import (
    Commodity,
    ConversionUnit,
    DomainError,
    RenewableSource,
    Scenario,
    StorageUnit,
    SystemSpec,
)
from coplant.fleet import PlantSite


def test_sections_and_comments():
    blocks = parse_sections("# top\n[a]\nx = 1  # trailing\n\n[b]\ny = 2\n")
    assert blocks == [("a", {"x": "1"}), ("b", {"y": "2"})]


def test_key_outside_section():
    with pytest.raises(ConfigError):
        parse_sections("x = 1\n")


def test_duplicate_key():
    with pytest.raises(ConfigError):
        parse_sections("[a]\nx = 1\nx = 2\n")


@pytest.mark.parametrize("text", ["[a]\nfoo = 1\nFoo = 2\n", "[a]\nFoo = 1\nfoo = 2\n"])
def test_duplicate_key_any_case(text):
    with pytest.raises(ConfigError, match="duplicate key 'foo'"):
        parse_sections(text)


def test_missing_equals_names_line():
    with pytest.raises(ConfigError) as err:
        parse_sections("[a]\njunk line\n", source="f.cfg")
    assert "f.cfg:2" in str(err.value)


def test_scenario_round_trip():
    scenario = reference.netzero_scenario(horizon=48)
    back = parse_scenario(configio.serialize_scenario(scenario))
    assert back == scenario


def test_scenario_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_scenario("[scenario]\nstoichiometry_x = 5\nwhatever = 1\n")
    assert "whatever" in str(err.value)


def test_scenario_requires_x():
    with pytest.raises(ConfigError):
        parse_scenario("[scenario]\nnet_zero = true\n")


def test_scenario_bad_value_names_key():
    with pytest.raises(ConfigError) as err:
        parse_scenario("[scenario]\nstoichiometry_x = abc\n")
    assert "stoichiometry_x" in str(err.value)


def test_system_round_trip(tmp_path):
    scenario = reference.netzero_scenario(horizon=48)
    spec = reference.reference_system(scenario)
    text = configio.serialize_system(spec, profiles_dir=tmp_path)
    back = parse_system(text, scenario.horizon_hours, base_dir=tmp_path)
    assert back.demand_cement == spec.demand_cement
    assert back.conversion_units == spec.conversion_units
    assert back.storage_units == spec.storage_units
    assert [r.id for r in back.renewables] == [r.id for r in spec.renewables]
    for a, b in zip(back.renewables, spec.renewables):
        assert max(abs(x - y) for x, y in zip(a.profile, b.profile)) < 1e-9
        assert dataclasses.replace(a, profile=b.profile) == b


def test_synthetic_profiles():
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[renewable]\nid = pv\nprofile_synthetic = solar:7\ncapex = 1\n"
            "[unit]\nid = maker\ninputs = electricity:1\noutputs = cement:10, methanol:1\n")
    spec = parse_system(text, 24)
    assert len(spec.renewables[0].profile) == 24
    assert spec.renewables[0].profile == reference.solar_profile(24, 7)


def test_profile_file_missing(tmp_path):
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[renewable]\nid = pv\nprofile_file = nope.csv\n")
    with pytest.raises(ConfigError):
        parse_system(text, 24, base_dir=tmp_path)


def test_profile_too_short(tmp_path):
    (tmp_path / "p.csv").write_text("cf\n0.5\n0.5\n")
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[renewable]\nid = pv\nprofile_file = p.csv\n")
    with pytest.raises(ConfigError) as err:
        parse_system(text, 24, base_dir=tmp_path)
    assert "24" in str(err.value)


def test_profile_empty(tmp_path):
    (tmp_path / "p.csv").write_text("")
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[renewable]\nid = pv\nprofile_file = p.csv\n")
    with pytest.raises(ConfigError, match="p.csv is empty"):
        parse_system(text, 24, base_dir=tmp_path)


def test_profile_non_numeric_names_line(tmp_path):
    (tmp_path / "p.csv").write_text("cf\n0.5\n\nabc\n0.5\n")
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[renewable]\nid = pv\nprofile_file = p.csv\n")
    with pytest.raises(ConfigError) as err:
        parse_system(text, 3, base_dir=tmp_path)
    assert str(err.value) == f"{tmp_path / 'p.csv'}:4: not a number: 'abc'"


def test_bad_coefficient_entry():
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[unit]\nid = u\ninputs = electricity\n")
    with pytest.raises(ConfigError):
        parse_system(text, 24)


def test_unknown_section():
    with pytest.raises(ConfigError):
        parse_system("[banana]\nx = 1\n", 24)


def test_minimal_blocks_take_dataclass_defaults():
    assert parse_scenario("[scenario]\nstoichiometry_x = 5\n") == Scenario(stoichiometry_x=5.0)
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[unit]\nid = u\n"
            "[storage]\nid = s\ncommodity = hydrogen\n"
            "[renewable]\nid = pv\nprofile_synthetic = solar:7\n")
    spec = parse_system(text, 24)
    assert spec == SystemSpec(
        conversion_units=(ConversionUnit(id="u"),),
        storage_units=(StorageUnit(id="s", commodity=Commodity.HYDROGEN),),
        renewables=(RenewableSource(id="pv", profile=reference.solar_profile(24, 7)),),
        demand_cement=10.0, demand_methanol=1.0)


@pytest.mark.parametrize("text, key", [
    ("[system]\ndemand_methanol = 1\n", "demand_cement"),
    ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n[unit]\ninputs = cement:1\n", "id"),
    ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n[storage]\nid = s\n", "commodity"),
])
def test_system_missing_required_key(text, key):
    with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
        parse_system(text, 24)


# Written by the serializer of an earlier release: scenario keys in another
# order, co2_emitted only when nonzero, inputs/outputs only when non-empty.
EARLIER_SCENARIO = """\
[scenario]
stoichiometry_x = 5.0
capture_rate = 0.9294
kiln_co2_per_t_clinker = 0.7210458360232409
process_frac = 0.6666666666666666
biogenic_frac = 0.3333333333333333
cement_per_clinker = 1.35
discount_rate = 0.08
grid_emission_factor = 0.58
incumbent_cost_cement = 55.0
incumbent_cost_methanol = 310.0
incumbent_emis_cement = 0.86
incumbent_emis_methanol = 3.1
sequestration_allowed = false
net_zero = false
flexibility_mode = flexible
horizon_hours = 4
transport_mode = network
transport_cost = 1.5
storage_cost = 0.25
"""

EARLIER_SYSTEM = """\
[system]
demand_cement = 10.0
demand_methanol = 1.0
biomass_price = 80.0

[unit]
id = maker
inputs = electricity:1.5
outputs = cement:10.0, methanol:1.0
capex = 1000.0
fixed_om_frac = 0.0
var_om = 0.0
lifetime = 20.0
flexibility = fully_flexible
min_load_frac = 0.0
ramp_frac_per_hour = 1.0
co2_emitted = 0.05

[unit]
id = vent
inputs = co2_gas:1.0
capex = 0.0
fixed_om_frac = 0.0
var_om = 0.0
lifetime = 30.0
flexibility = partially_flexible
min_load_frac = 0.25
ramp_frac_per_hour = 0.5

[storage]
id = battery
commodity = electricity
charge_eff = 0.95
discharge_eff = 1.0
charge_electricity = 0.0
discharge_electricity = 0.0
capex_capacity = 0.0
fixed_om_frac = 0.0
lifetime = 20.0
cyclic = false

[renewable]
id = pv
profile_file = pv.csv
capex = 500.0
fixed_om_frac = 0.0
lifetime = 25.0
"""


def test_earlier_scenario_format():
    """The earlier file parses once `process_frac` and `biogenic_frac`, which
    the model never read, and `transport_mode`, whose `network` value only
    zeroed both costs, are taken out; with them it is rejected."""
    scenario = Scenario(stoichiometry_x=5.0, sequestration_allowed=False,
                        horizon_hours=4, transport_cost=1.5, storage_cost=0.25)
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[scenario\]: "
                                          "biogenic_frac, process_frac, transport_mode$"):
        parse_scenario(EARLIER_SCENARIO)
    current = "".join(line for line in EARLIER_SCENARIO.splitlines(keepends=True)
                      if not line.startswith(("process_frac", "biogenic_frac",
                                              "transport_mode")))
    assert parse_scenario(current) == scenario
    assert parse_scenario(configio.serialize_scenario(scenario)) == scenario


# ------------------------------------------------- every [scenario] key is read

#: Each `[scenario]` key: the fields of `Scenario` that a key sets.
SCENARIO_KEYS = [f.name for f, _ in configio._config_fields(Scenario)]

#: The other value of each string field but `id`.
OTHER_STRING = {"flexibility_mode": "inflexible"}


def _perturbed(base, name: str):
    """`base` with one field moved: a number to 0.8 times itself, a flag
    flipped, an enum to the next member that `base` accepts (`base` itself
    if it accepts none), each coefficient to 0.8 times itself, an id
    renamed, another string to its other value."""
    value = getattr(base, name)
    if isinstance(value, bool):
        value = not value
    elif isinstance(value, (int, float)):
        value = type(value)(value * 0.8)
    elif isinstance(value, enum.Enum):
        members = list(type(value))
        i = members.index(value)
        for other in members[i + 1:] + members[:i]:
            try:
                return dataclasses.replace(base, **{name: other})
            except DomainError:
                pass
        return base
    elif isinstance(value, dict):
        value = {k: v * 0.8 for k, v in value.items()}
    elif name == "id":
        value += "_moved"
    else:
        value = OTHER_STRING[name]
    return dataclasses.replace(base, **{name: value})


def _fingerprint(value):
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, dict):
        return tuple(sorted((k, _fingerprint(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(map(_fingerprint, value))
    return value


def _lp_arrays(spec: SystemSpec, scenario: Scenario) -> list[np.ndarray]:
    problem = dispatch.build_lp(spec, scenario)
    matrix = problem.matrix()
    return [problem.lower, problem.upper, problem.cost, problem.sense, problem.rhs,
            matrix.indptr, matrix.indices, matrix.data]


@pytest.fixture(scope="module")
def scenario_probes():
    """A 24 h reference plant that is neither net-zero nor barred from
    sequestering, so either flag can flip; its solution; and the probes that
    read a scenario: the LP's arrays, the bundle metrics of that solution,
    the minimum stoichiometry and a plant's cement demand.  A probe that
    rejects a scenario yields its error message."""
    base = dataclasses.replace(reference.netzero_scenario(horizon=24), net_zero=False)
    spec = reference.reference_system(base)
    sol = dispatch.solve_dispatch(spec, base)
    plant = PlantSite(id="P", latitude=30.0, longitude=110.0, clinker_capacity=5000.0,
                      solar_profile_ref="s", wind_profile_ref="w")

    probes = (lambda scenario: _lp_arrays(spec, scenario),
              lambda scenario: costing.bundle_metrics(sol, spec, scenario),
              costing.scenario_min_stoichiometry,
              plant.cement_demand_tph)

    def outcomes(scenario):
        for probe in probes:
            try:
                yield _fingerprint(probe(scenario))
            except DomainError as exc:
                yield f"rejected: {exc}"

    return base, outcomes


@pytest.mark.parametrize("name", SCENARIO_KEYS)
def test_every_scenario_key_changes_something(scenario_probes, name):
    """Moving any one `[scenario]` value changes the LP, the bundle
    metrics, the minimum stoichiometry or a plant's cement demand."""
    base, outcomes = scenario_probes
    moved = _perturbed(base, name)
    assert moved != base
    assert any(a != b for a, b in zip(outcomes(base), outcomes(moved))), name


# ---------------------------------------- every system-file key is read

#: Each key of `[system]`, `[unit]`, `[storage]` and `[renewable]`: the
#: section and the field of `SystemSpec` or of an asset that it sets, and the
#: `SystemSpec` field that holds the section's assets (None for `[system]`).
SYSTEM_KEYS = [(section, assets, f.name) for section, cls, assets in (
    ("system", SystemSpec, None), ("unit", ConversionUnit, "conversion_units"),
    ("storage", StorageUnit, "storage_units"), ("renewable", RenewableSource, "renewables"))
    for f, _ in configio._config_fields(cls)]


@pytest.mark.parametrize("section, assets, name", SYSTEM_KEYS,
                         ids=[f"{section}.{name}" for section, _, name in SYSTEM_KEYS])
def test_every_system_key_changes_something(section, assets, name):
    """Moving one system-file key, on every asset of its section at once,
    changes the LP of a 24 h reference plant or its capacity prices.  A
    rejection, by the asset, the system or the LP builder, is a change."""
    scenario = reference.netzero_scenario(horizon=24)
    base = reference.reference_system(scenario)

    def outcome(spec):
        try:
            return _fingerprint([_lp_arrays(spec, scenario),
                                 dispatch.capacity_prices(spec, scenario)])
        except (DomainError, StructuralInfeasibility) as exc:
            return f"rejected: {exc}"

    try:
        moved = (_perturbed(base, name) if assets is None else dataclasses.replace(
            base, **{assets: tuple(_perturbed(a, name) for a in getattr(base, assets))}))
    except DomainError:
        return
    assert moved != base
    assert outcome(moved) != outcome(base), f"[{section}] {name}"


def test_earlier_system_format(tmp_path):
    """The earlier file parses once its `flexibility` lines, which only
    repeated what `min_load_frac` says, are taken out; with them it is
    rejected."""
    spec = SystemSpec(
        conversion_units=(
            ConversionUnit(id="maker", inputs={Commodity.ELECTRICITY: 1.5},
                           outputs={Commodity.CEMENT: 10.0, Commodity.METHANOL: 1.0},
                           capex=1000.0, co2_emitted=0.05),
            ConversionUnit(id="vent", inputs={Commodity.CO2_GAS: 1.0}, min_load_frac=0.25,
                           ramp_frac_per_hour=0.5, lifetime=30.0)),
        storage_units=(StorageUnit(id="battery", commodity=Commodity.ELECTRICITY,
                                   charge_eff=0.95, cyclic=False),),
        renewables=(RenewableSource(id="pv", profile=(0.0, 0.5, 0.25, 1.0), capex=500.0),),
        demand_cement=10.0, demand_methanol=1.0)
    text = configio.serialize_system(spec, tmp_path)
    assert (tmp_path / "pv.csv").read_text() == "capacity_factor\n0\n0.5\n0.25\n1\n"
    assert parse_system(text, 4, base_dir=tmp_path) == spec
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[unit\]: flexibility$"):
        parse_system(EARLIER_SYSTEM, 4, base_dir=tmp_path)
    current = "".join(line for line in EARLIER_SYSTEM.splitlines(keepends=True)
                      if not line.startswith("flexibility"))
    assert parse_system(current, 4, base_dir=tmp_path) == spec


@pytest.mark.parametrize("key, value", [
    ("stoichiometry_x", "nan"), ("grid_emission_factor", "nan"),
    ("incumbent_cost_cement", "inf"), ("capture_rate", "-inf"), ("transport_cost", "nan")])
def test_scenario_non_finite_rejected(key, value):
    block = {"stoichiometry_x": "5", key: value}
    text = "[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in block.items())
    with pytest.raises(ConfigError, match=f"key '{key}': not a finite number"):
        parse_scenario(text)


@pytest.mark.parametrize("section, line, key", [
    ("system", "biomass_price = inf", "biomass_price"),
    ("unit", "capex = nan", "capex"),
    ("unit", "inputs = electricity:nan", "inputs"),
    ("storage", "charge_electricity = inf", "charge_electricity"),
    ("renewable", "lifetime = nan", "lifetime"),
])
def test_system_non_finite_rejected(section, line, key):
    blocks = {"system": "[system]\ndemand_cement = 10\ndemand_methanol = 1\n",
              "unit": "[unit]\nid = u\n",
              "storage": "[storage]\nid = s\ncommodity = hydrogen\n",
              "renewable": "[renewable]\nid = pv\nprofile_synthetic = solar:1\n"}
    blocks[section] += line + "\n"
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_system("".join(blocks.values()), 24)


def test_repeated_scenario_section():
    with pytest.raises(ConfigError, match=r"repeated \[scenario\] section"):
        parse_scenario("[scenario]\nstoichiometry_x = 5\n[scenario]\nstoichiometry_x = 9\n")


def test_repeated_system_section():
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[unit]\nid = u\n[system]\ndemand_cement = 20\n")
    with pytest.raises(ConfigError, match=r"repeated \[system\] section"):
        parse_system(text, 24)


def test_repeated_commodity_in_coefficients():
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[unit]\nid = u\ninputs = electricity:1, electricity:2\n")
    with pytest.raises(ConfigError, match="key 'inputs': commodity 'electricity' given twice"):
        parse_system(text, 24)


@pytest.mark.parametrize("parse, text", [
    (parse_scenario, "[scenario]\nstoichiometry_x = 5\ntransport_cost = -1\n"),
    (parse_scenario, "[scenario]\nstoichiometry_x = 5\nnet_zero = true\n"
                     "sequestration_allowed = false\n"),
    (functools.partial(parse_system, horizon=24),
     "[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
     "[unit]\nid = u\nmin_load_frac = 2\n"),
])
def test_domain_error_becomes_config_error(parse, text):
    with pytest.raises(ConfigError, match="^cfg: "):
        parse(text, source="cfg")


def test_transport_bad_value_names_key():
    with pytest.raises(ConfigError, match="key 'storage_cost'"):
        parse_scenario("[scenario]\nstoichiometry_x = 5\nstorage_cost = cheap\n")
