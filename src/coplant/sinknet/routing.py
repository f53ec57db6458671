"""Least-cost corridor routing over a raster cost surface.

8-neighbor movement; stepping between adjacent cells costs the mean of the
two cell multipliers times the cell size (times sqrt(2) on diagonals).
Nodata cells are hard barriers; zero-cost cells are ordinary, free steps.
The surface becomes one symmetric sparse graph, and scipy's Dijkstra
searches it once from each sink (the target end of a corridor): in that
search's predecessor tree each cell's predecessor is its next hop toward
the sink, so a corridor is walked from the source with no reversal.  All
corridors of one sink are walked in lock step, and a path's length and
cost are recomputed as sums of its step costs in source-to-sink order.
A later sink's search stops where the triangle inequality says no source
can lie (`build_candidates`); it keeps every corridor the unlimited search
finds, to the bit.  Among equal-cost paths the one kept is the predecessor
tree scipy's Dijkstra builds from the sink: deterministic for a given
scipy, but not tied to cell indices.

`scipy.sparse` is imported when the first graph is built and
`scipy.sparse.csgraph` on the first search, not with this module, so
commands that route nothing never load them (nor the `scipy.linalg`
csgraph pulls in).  The module function `dijkstra` is looked up at each
search, so tests can patch it to count searches and read their limits.
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
        with np.errstate(over="ignore"):    # an infinite step is no edge to Dijkstra
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


def _components(graph: csr_array, step: float, n_cells: int) -> np.ndarray | None:
    """Connected-component label of each cell when a corridor's cost may
    overflow a float, as the costliest step times the cell count does; else
    None.  scipy's Dijkstra leaves a cell whose distance overflows unreached,
    so only the labels tell it from a cell behind a barrier."""
    if math.isfinite(step * n_cells):
        return None
    from scipy.sparse.csgraph import connected_components
    return connected_components(graph, directed=False)[1]


def _sum_steps(steps: np.ndarray) -> np.ndarray:
    """Row sums of a (corridor, step) array, added step by step from the
    source as np.cumsum does (np.sum adds pairwise); 0 with no steps."""
    return np.cumsum(steps, axis=1)[:, -1] if steps.shape[1] else np.zeros(len(steps))


def _corridors(surface: CostSurface, pred: np.ndarray, sink: int, cells: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cells, cell count, length in km, cost) of the corridor from each of
    `cells` to `sink`, along the predecessor tree of a search from the sink.

    All corridors are walked in lock step, `cur = pred[cur]`, into one
    (corridor, step) array in which a corridor that has arrived repeats the
    sink; a source on the sink's cell is a one-cell corridor.  The step
    costs are those of `_cost_graph`, and zero once a corridor has arrived,
    so each sum equals that of the corridor's own steps to the bit."""
    pred[sink] = sink
    steps = [cells]
    while np.any(steps[-1] != sink):
        steps.append(pred[steps[-1]])
    path = np.stack(steps, axis=1)
    moving = path[:, :-1] != path[:, 1:]
    rows, cols = np.divmod(path, surface.ncols)
    diag = np.where((rows[:, :-1] != rows[:, 1:]) & (cols[:, :-1] != cols[:, 1:]), SQRT2, 1.0)
    c = surface.cells.ravel()[path]
    with np.errstate(over="ignore"):    # the caller rejects a cost that overflows
        length = _sum_steps(np.where(moving, surface.cell_size * diag, 0.0))
        cost = _sum_steps(np.where(
            moving, 0.5 * (c[:, :-1] + c[:, 1:]) * surface.cell_size * diag, 0.0))
    return path, 1 + moving.sum(axis=1), length, cost


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


def _overflow(src: SourceNode, snk: SinkNode) -> ValueError:
    return ValueError(f"corridor {src.id} -> {snk.id}: its terrain cost is not a finite float")


def build_candidates(surface: CostSurface, sources: list[SourceNode],
                     sinks: list[SinkNode]) -> tuple[list[CandidateEdge], ReachabilityReport]:
    """Least-cost corridor for every source-sink pair, source-major.

    One Dijkstra search per sink covers every source: the graph is
    symmetric, so the sink's predecessor tree holds each source's corridor,
    walked from the source, all of the sink's corridors in lock step
    (`_corridors`).  Sinks are searched one by one in input order, not in
    one batched call, which would hold a distance and predecessor row per
    sink.

    The first search has no limit, nor has that of a sink no earlier
    unlimited search reached.  Any other sink k, reached by the unlimited
    search from k1, has every source within T = R + d(k1, k) by the
    triangle inequality, with R the distance of the farthest source k1
    reached; over several such k1 the least T is taken.  k is searched to
    T plus the costliest step of the graph: up to T such a search makes
    the unlimited one's heap operations in the same order, so every cell
    within T gets the same distance and predecessor, ties included.  If
    float rounding leaves a source k1 reached farther than T, k is searched
    again without a limit.

    Pairs separated by nodata barriers are skipped; nodes unreachable from
    every counterpart are listed in the reachability report.  A corridor
    whose cost is not a finite float raises ValueError naming it.
    """
    for node in list(sources) + list(sinks):
        if not surface.traversable(node.cell):
            raise ValueError(f"node {node.id} sits on a nodata cell")
    graph = _cost_graph(surface)
    step = float(graph.data.max(initial=0.0))
    component = _components(graph, step, surface.n_cells)
    src_cells = np.array([s.cell for s in sources], dtype=np.intp)
    snk_cells = np.array([k.cell for k in sinks], dtype=np.intp)
    per_source: list[list[CandidateEdge]] = [[] for _ in sources]
    reached_sources = np.zeros(len(sources), dtype=bool)
    reached_sinks = np.zeros(len(sinks), dtype=bool)
    # (sources reached, farthest source's distance, distance of each sink)
    # of each unlimited search
    unlimited: list[tuple[np.ndarray, float, np.ndarray]] = []
    for j, snk in enumerate(sinks):
        bounds = [(far + float(at_snk[j]), reach) for reach, far, at_snk in unlimited
                  if math.isfinite(at_snk[j])]
        dist = None
        if bounds:
            bound, reach = min(bounds, key=lambda b: b[0])
            dist, pred = dijkstra(graph, indices=snk.cell, return_predecessors=True,
                                  limit=bound + step)
            if not np.all(dist[src_cells[reach]] <= bound):
                dist = None
        if dist is None:
            dist, pred = dijkstra(graph, indices=snk.cell, return_predecessors=True)
            reach = np.isfinite(dist[src_cells])
            unlimited.append((reach, float(dist[src_cells[reach]].max(initial=0.0)),
                              dist[snk_cells]))
            if component is not None:
                lost = (component[src_cells] == component[snk.cell]) & ~reach
                if lost.any():
                    raise _overflow(sources[np.argmax(lost)], snk)
        hit = np.flatnonzero(np.isfinite(dist[src_cells]))
        if not hit.size:
            continue
        paths, counts, lengths, costs = _corridors(surface, pred, snk.cell, src_cells[hit])
        for i, path, count, length_km, cost in zip(hit, paths, counts, lengths, costs):
            if not math.isfinite(cost):
                raise _overflow(sources[i], snk)
            per_source[i].append(CandidateEdge(
                source_id=sources[i].id, sink_id=snk.id, path=tuple(path[:count].tolist()),
                length_km=float(length_km), terrain_cost=float(cost)))
        reached_sources[hit] = reached_sinks[j] = True
    report = ReachabilityReport(
        unreachable_sources=[s.id for s, hit in zip(sources, reached_sources) if not hit],
        unreachable_sinks=[k.id for k, hit in zip(sinks, reached_sinks) if not hit])
    return [edge for row in per_source for edge in row], report
