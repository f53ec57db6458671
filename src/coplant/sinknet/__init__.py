"""CO2 source-sink matching: raster ingestion, corridor routing, network selection."""

from coplant.sinknet.network import (
    NetworkInfeasible,
    NetworkParams,
    NetworkSolution,
    PipelineClass,
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
    "CostSurface",
    "NetworkInfeasible",
    "NetworkParams",
    "NetworkSolution",
    "PipelineClass",
    "RasterFormatError",
    "SinkNode",
    "SourceNode",
    "build_candidates",
    "load_raster",
    "select_network",
    "size_pipeline",
    "write_raster",
]
