"""Least-cost corridor routing over a raster cost surface.

8-neighbor movement; stepping between adjacent cells costs the mean of the
two cell multipliers times the cell size (times sqrt(2) on diagonals).
Nodata cells are hard barriers; zero-cost cells are ordinary, free steps.
The surface becomes one sparse graph and scipy's Dijkstra searches it from
the source, so a path's cost is the sum of its step costs in path order.
Among equal-cost paths the one kept is the predecessor tree scipy's
Dijkstra builds from the source: deterministic for a given scipy, but not
tied to cell indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from coplant.sinknet.raster import CostSurface

SQRT2 = math.sqrt(2.0)

# (slice of the first cell, slice of its neighbour, distance factor) for the
# four undirected step directions: east, south, south-east, south-west
_STEPS = ((np.s_[:, :-1], np.s_[:, 1:], 1.0),
          (np.s_[:-1, :], np.s_[1:, :], 1.0),
          (np.s_[:-1, :-1], np.s_[1:, 1:], SQRT2),
          (np.s_[:-1, 1:], np.s_[1:, :-1], SQRT2))


class UnreachableError(ValueError):
    def __init__(self, a: int, b: int):
        super().__init__(f"no traversable path between cells {a} and {b}")
        self.cells = (a, b)


def _cost_graph(surface: CostSurface) -> csr_array:
    """Directed 8-neighbour step graph of the surface; nodata cells have no
    edges.  Zero-cost steps stay explicit edges (the routing tests pin it)."""
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


def _walk(pred: np.ndarray, a: int, b: int) -> list[int]:
    """Cells from a to b along the predecessor tree of a search from a;
    empty when a == b."""
    if a == b:
        return []
    path = [b]
    while path[-1] != a:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return path


def least_cost_path(surface: CostSurface, a: int, b: int) -> tuple[list[int], float]:
    """Dijkstra shortest path; returns (cells from a to b inclusive, cost).

    a == b returns an empty path with zero cost.
    """
    for cell in (a, b):
        if not 0 <= cell < surface.n_cells:
            raise ValueError(f"cell {cell} outside the surface")
        if not surface.traversable(cell):
            raise ValueError(f"cell {cell} is nodata")
    dist, pred = dijkstra(_cost_graph(surface), indices=a,
                          return_predecessors=True)
    if math.isinf(dist[b]):
        raise UnreachableError(a, b)
    return _walk(pred, a, b), float(dist[b])


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
    cost_per_tonne: float | None = None  # overrides pipeline sizing when set


@dataclass
class ReachabilityReport:
    unreachable_sources: list[str]
    unreachable_sinks: list[str]

    @property
    def ok(self) -> bool:
        return not self.unreachable_sources and not self.unreachable_sinks


def _path_length_km(surface: CostSurface, path: list[int]) -> float:
    rows, cols = np.divmod(np.asarray(path), surface.ncols)
    diag = (np.diff(rows) != 0) & (np.diff(cols) != 0)
    # summed step by step in path order (cumsum), not pairwise as np.sum would
    return float(np.cumsum(surface.cell_size * np.where(diag, SQRT2, 1.0))[-1])


def build_candidates(surface: CostSurface, sources: list[SourceNode],
                     sinks: list[SinkNode]) -> tuple[list[CandidateEdge], ReachabilityReport]:
    """Least-cost corridor for every source-sink pair.

    Pairs separated by nodata barriers are skipped; nodes unreachable from
    every counterpart are listed in the reachability report.
    """
    for node in list(sources) + list(sinks):
        if not surface.traversable(node.cell):
            raise ValueError(f"node {node.id} sits on a nodata cell")
    graph = _cost_graph(surface)
    edges: list[CandidateEdge] = []
    reached_sources: set[str] = set()
    reached_sinks: set[str] = set()
    for src in sources:
        dist, pred = dijkstra(graph, indices=src.cell, return_predecessors=True)
        for snk in sinks:
            if math.isinf(dist[snk.cell]):
                continue
            path = _walk(pred, src.cell, snk.cell)
            edges.append(CandidateEdge(
                source_id=src.id, sink_id=snk.id, path=tuple(path),
                length_km=_path_length_km(surface, path) if path else 0.0,
                terrain_cost=float(dist[snk.cell])))
            reached_sources.add(src.id)
            reached_sinks.add(snk.id)
    report = ReachabilityReport(
        unreachable_sources=[s.id for s in sources if s.id not in reached_sources],
        unreachable_sinks=[s.id for s in sinks if s.id not in reached_sinks])
    return edges, report
