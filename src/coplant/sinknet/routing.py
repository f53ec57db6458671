"""Least-cost corridor routing over a raster cost surface.

8-neighbor movement; stepping between adjacent cells costs the mean of the
two cell multipliers times the cell size (times sqrt(2) on diagonals).
Nodata cells are hard barriers; zero-cost cells are ordinary, free steps.
The surface becomes one symmetric sparse graph, and scipy's Dijkstra
searches it once from each sink (the target end of a corridor): in that
search's predecessor tree each cell's predecessor is its next hop toward
the sink, so a corridor is walked from the source with no reversal.  A
path's cost is recomputed as the sum of its step costs in source-to-sink
order.  Among equal-cost paths the one kept is the predecessor tree scipy's
Dijkstra builds from the sink: deterministic for a given scipy, but not
tied to cell indices.

`scipy.sparse` is imported when the first graph is built and
`scipy.sparse.csgraph` on the first search, not with this module, so
commands that route nothing never load them (nor the `scipy.linalg`
csgraph pulls in).  The module function `dijkstra` is looked up at each
search, so tests can patch it to count searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from coplant.sinknet.raster import CostSurface

if TYPE_CHECKING:
    from scipy.sparse import csr_array

SQRT2 = math.sqrt(2.0)

# (slice of the first cell, slice of its neighbour, distance factor) for the
# four undirected step directions: east, south, south-east, south-west
_STEPS = ((np.s_[:, :-1], np.s_[:, 1:], 1.0),
          (np.s_[:-1, :], np.s_[1:, :], 1.0),
          (np.s_[:-1, :-1], np.s_[1:, 1:], SQRT2),
          (np.s_[:-1, 1:], np.s_[1:, :-1], SQRT2))


def _cost_graph(surface: CostSurface) -> csr_array:
    """Directed 8-neighbour step graph of the surface; nodata cells have no
    edges.  Zero-cost steps stay explicit edges (the routing tests pin it)."""
    from scipy.sparse import csr_array
    cells, open_ = surface.cells, ~surface.is_nodata
    index = np.arange(surface.n_cells, dtype=np.int32).reshape(cells.shape)
    tails, heads, weights = [], [], []
    for a, b, diag in _STEPS:
        keep = open_[a] & open_[b]
        u, v = index[a][keep], index[b][keep]
        w = 0.5 * (cells[a][keep] + cells[b][keep]) * surface.cell_size * diag
        tails += [u, v]
        heads += [v, u]
        weights += [w, w]
    return csr_array((np.concatenate(weights),
                      (np.concatenate(tails), np.concatenate(heads))),
                     shape=(surface.n_cells, surface.n_cells))


def dijkstra(*args, **kwargs):
    """scipy's csgraph `dijkstra`, imported on the first call."""
    from scipy.sparse.csgraph import dijkstra
    return dijkstra(*args, **kwargs)


def _walk(pred: np.ndarray, a: int, b: int) -> list[int]:
    """Cells from a to b along the predecessor tree of a search from b, in
    which each cell's predecessor is its next hop toward b; [a] when a == b."""
    path = [a]
    while path[-1] != b:
        path.append(int(pred[path[-1]]))
    return path


def _path_measures(surface: CostSurface, path: list[int]) -> tuple[float, float]:
    """(length in km, cost) of a path, each summed step by step from its
    first cell (cumsum, not pairwise as np.sum would), with the step costs
    `_cost_graph` uses; (0, 0) for a one-cell path."""
    if len(path) < 2:
        return 0.0, 0.0
    cells = np.asarray(path)
    rows, cols = np.divmod(cells, surface.ncols)
    diag = np.where((np.diff(rows) != 0) & (np.diff(cols) != 0), SQRT2, 1.0)
    c = surface.cells.ravel()[cells]
    length = np.cumsum(surface.cell_size * diag)[-1]
    cost = np.cumsum(0.5 * (c[:-1] + c[1:]) * surface.cell_size * diag)[-1]
    return float(length), float(cost)


@dataclass(frozen=True)
class SourceNode:
    id: str
    cell: int
    capturable: float         # t CO2 / yr
    eq_capture_cost: float    # $/t CO2


@dataclass(frozen=True)
class SinkNode:
    id: str
    cell: int
    capacity: float           # t CO2 / yr
    sequestration_cost: float  # $/t CO2


@dataclass(frozen=True)
class CandidateEdge:
    source_id: str
    sink_id: str
    path: tuple[int, ...]
    length_km: float
    terrain_cost: float            # path cost = sum of per-km multipliers x km


@dataclass
class ReachabilityReport:
    unreachable_sources: list[str]
    unreachable_sinks: list[str]

    @property
    def ok(self) -> bool:
        return not self.unreachable_sources and not self.unreachable_sinks


def build_candidates(surface: CostSurface, sources: list[SourceNode],
                     sinks: list[SinkNode]) -> tuple[list[CandidateEdge], ReachabilityReport]:
    """Least-cost corridor for every source-sink pair, source-major.

    One Dijkstra search per sink covers every source: the graph is
    symmetric, so the sink's predecessor tree holds each source's corridor,
    walked from the source.  Sinks are searched one by one, not in one
    batched call, which would hold a distance and predecessor row per sink.
    Pairs separated by nodata barriers are skipped; nodes unreachable from
    every counterpart are listed in the reachability report.
    """
    for node in list(sources) + list(sinks):
        if not surface.traversable(node.cell):
            raise ValueError(f"node {node.id} sits on a nodata cell")
    graph = _cost_graph(surface)
    per_source: list[list[CandidateEdge]] = [[] for _ in sources]
    reached_sources: set[str] = set()
    reached_sinks: set[str] = set()
    for snk in sinks:
        dist, pred = dijkstra(graph, indices=snk.cell, return_predecessors=True)
        for src, row in zip(sources, per_source):
            if math.isinf(dist[src.cell]):
                continue
            path = _walk(pred, src.cell, snk.cell)
            length_km, cost = _path_measures(surface, path)
            row.append(CandidateEdge(
                source_id=src.id, sink_id=snk.id, path=tuple(path),
                length_km=length_km, terrain_cost=cost))
            reached_sources.add(src.id)
            reached_sinks.add(snk.id)
    report = ReachabilityReport(
        unreachable_sources=[s.id for s in sources if s.id not in reached_sources],
        unreachable_sinks=[s.id for s in sinks if s.id not in reached_sinks])
    return [edge for row in per_source for edge in row], report
