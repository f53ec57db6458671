import pytest

from coplant import configio, reference
from coplant.configio import ConfigError, parse_scenario, parse_sections, parse_system


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
    assert [u.id for u in back.conversion_units] == \
        [u.id for u in spec.conversion_units]
    assert [s.id for s in back.storage_units] == [s.id for s in spec.storage_units]
    for a, b in zip(back.renewables, spec.renewables):
        assert max(abs(x - y) for x, y in zip(a.profile, b.profile)) < 1e-9
    for a, b in zip(back.conversion_units, spec.conversion_units):
        assert a.inputs == pytest.approx(b.inputs)
        assert a.flexibility == b.flexibility


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


def test_bad_coefficient_entry():
    text = ("[system]\ndemand_cement = 10\ndemand_methanol = 1\n"
            "[unit]\nid = u\ninputs = electricity\n")
    with pytest.raises(ConfigError):
        parse_system(text, 24)


def test_unknown_section():
    with pytest.raises(ConfigError):
        parse_system("[banana]\nx = 1\n", 24)
