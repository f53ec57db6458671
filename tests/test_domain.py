import math

import pytest

from coplant import domain
from coplant.domain import (
    Commodity,
    ConversionUnit,
    DomainError,
    RenewableSource,
    Scenario,
    StorageUnit,
    SystemSpec,
)


class TestMinStoichiometry:
    def test_default_calibration(self):
        assert domain.min_stoichiometry(1.375, 0.4964) == pytest.approx(2.770, abs=0.005)

    def test_identity(self):
        assert domain.min_stoichiometry(1.0, 1.0) == 1.0

    def test_forced_arithmetic(self):
        assert domain.min_stoichiometry(2.0, 0.5) == 4.0

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            domain.min_stoichiometry(0.0, 0.5)
        with pytest.raises(DomainError):
            domain.min_stoichiometry(1.375, -1.0)


class TestNetzeroRequirement:
    def test_sum_rule(self):
        assert domain.netzero_sequestration_requirement(0.5, 1.375) == 1.875

    def test_zero(self):
        assert domain.netzero_sequestration_requirement(0.0, 0.0) == 0.0

    def test_default_capture_calibration(self):
        # uncaptured kiln CO2 per bundle with the default capture rate
        scn = Scenario(stoichiometry_x=2.77)
        uncaptured = (1 - scn.capture_rate) * scn.kiln_co2_per_t_clinker / \
            scn.cement_per_clinker * scn.stoichiometry_x
        assert uncaptured == pytest.approx(0.1044, abs=2e-3)
        total = domain.netzero_sequestration_requirement(0.1044, 1.375)
        assert total == pytest.approx(1.4794)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            domain.netzero_sequestration_requirement(-0.1, 0.0)


class TestTypes:
    def test_profile_range_validated(self):
        with pytest.raises(DomainError):
            RenewableSource(id="bad", profile=(0.5, 1.2))

    def test_duplicate_ids_rejected(self):
        unit = ConversionUnit(id="u", outputs={Commodity.CEMENT: 1.0})
        with pytest.raises(DomainError):
            SystemSpec(conversion_units=(unit, unit), storage_units=(),
                       renewables=(), demand_cement=1.0, demand_methanol=0.0)

    def test_storage_efficiency_bounds(self):
        with pytest.raises(DomainError):
            StorageUnit(id="s", commodity=Commodity.ELECTRICITY, charge_eff=1.5)

    @pytest.mark.parametrize("value", [-1.0, math.nextafter(domain.MAX_MAGNITUDE, math.inf),
                                       1e308, math.nan])
    def test_balance_coefficients_bounded(self, value):
        """A unit's coefficients and a store's electricity overheads lie in
        [0, MAX_MAGNITUDE], so that every balance term of a bounded solution
        is finite."""
        big = domain.MAX_MAGNITUDE
        ConversionUnit(id="u", inputs={Commodity.ELECTRICITY: big},
                       outputs={Commodity.CEMENT: big})
        StorageUnit(id="s", commodity=Commodity.HYDROGEN, charge_electricity=big,
                    discharge_electricity=big)
        with pytest.raises(DomainError, match="^u: input coefficient for electricity is "):
            ConversionUnit(id="u", inputs={Commodity.ELECTRICITY: value})
        with pytest.raises(DomainError, match="^u: output coefficient for cement is "):
            ConversionUnit(id="u", outputs={Commodity.CEMENT: value})
        for overhead in ("charge_electricity", "discharge_electricity"):
            with pytest.raises(DomainError, match=r"^s: electricity overheads must be in "
                                                  r"\[0, 1e\+15\], got "):
                StorageUnit(id="s", commodity=Commodity.HYDROGEN, **{overhead: value})

    def test_transport_per_tonne(self):
        assert Scenario(stoichiometry_x=5.0).co2_charge == pytest.approx(8.7 + 5.8)

    @pytest.mark.parametrize("costs", [dict(transport_cost=-1.0), dict(storage_cost=-0.5)])
    def test_scenario_rejects_negative_co2_charge(self, costs):
        with pytest.raises(DomainError, match="transport/storage costs must be >= 0"):
            Scenario(stoichiometry_x=5.0, **costs)

    def test_scenario_rejects_bad_capture(self):
        with pytest.raises(DomainError):
            Scenario(stoichiometry_x=5.0, capture_rate=1.5)

    def test_frozen(self):
        unit = ConversionUnit(id="u")
        with pytest.raises(Exception):
            unit.capex = 1.0


def test_constants_consistent():
    assert domain.CO2_PER_T_MEOH == pytest.approx(44 / 32, rel=1e-3)
    # default calibration reproduces the published minimum ratio
    assert math.isclose(
        domain.min_stoichiometry(), 2.770, abs_tol=0.005)
