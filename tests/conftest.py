import dataclasses

import pytest
from hypothesis import settings

from coplant import reference
from coplant.dispatch import solve_dispatch

# a failing property test prints the @reproduce_failure blob that replays it,
# and draws new examples on every run, also under CI, where Hypothesis's own
# "ci" profile (kept otherwise) would fix them with derandomize=True
settings.register_profile("coplant", settings(), print_blob=True, derandomize=False)
settings.load_profile("coplant")


@pytest.fixture(scope="session")
def netzero48():
    scenario = reference.netzero_scenario(horizon=48)
    spec = reference.reference_system(scenario)
    return spec, scenario, solve_dispatch(spec, scenario)


@pytest.fixture(scope="session")
def noseq48():
    scenario = reference.noseq_scenario(horizon=48)
    # no CO2 buffer tanks: hourly capture must feed synthesis directly
    spec = reference.reference_system(scenario, include_co2_storage=False)
    return spec, scenario, solve_dispatch(spec, scenario)


@pytest.fixture
def toy_scenario():
    return reference.netzero_scenario(horizon=24)


def scaled_demand(spec, factor):
    return dataclasses.replace(
        spec, demand_cement=spec.demand_cement * factor,
        demand_methanol=spec.demand_methanol * factor)
