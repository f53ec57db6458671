"""Planning toolkit for renewable-powered cement-methanol co-production plants.

Sizes and dispatches a co-production plant with an hourly linear program,
post-processes abatement economics, batch-optimizes plant fleets, and matches
captured CO2 to sequestration sinks over a raster cost surface.
"""

from coplant.domain import (
    Commodity,
    ConversionUnit,
    DomainError,
    RenewableSource,
    Scenario,
    StorageUnit,
    SystemSpec,
    min_stoichiometry,
    netzero_sequestration_requirement,
)
from coplant.lp import LinearProgram, LpSolution, solve_lp

__all__ = [
    "Commodity",
    "ConversionUnit",
    "DomainError",
    "LinearProgram",
    "LpSolution",
    "RenewableSource",
    "Scenario",
    "StorageUnit",
    "SystemSpec",
    "min_stoichiometry",
    "netzero_sequestration_requirement",
    "solve_lp",
]

__version__ = "0.1.0"
