"""CO2 source-sink matching: raster ingestion, corridor routing, network selection."""

from coplant.sinknet.network import (
    CementOnlyParams,
    NetworkInfeasible,
    NetworkParams,
    NetworkSolution,
    PipelineClass,
    cement_only_sources,
    equivalent_capture_cost,
    scenario_to_sequestration,
    select_network,
    size_pipeline,
)
from coplant.sinknet.raster import CostSurface, RasterFormatError, load_raster, write_raster
from coplant.sinknet.routing import (
    CandidateEdge,
    SinkNode,
    SourceNode,
    build_candidates,
)

__all__ = [
    "CandidateEdge",
    "CementOnlyParams",
    "CostSurface",
    "NetworkInfeasible",
    "NetworkParams",
    "NetworkSolution",
    "PipelineClass",
    "RasterFormatError",
    "SinkNode",
    "SourceNode",
    "build_candidates",
    "cement_only_sources",
    "equivalent_capture_cost",
    "load_raster",
    "scenario_to_sequestration",
    "select_network",
    "size_pipeline",
    "write_raster",
]
