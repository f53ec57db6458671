"""Least-cost corridor routing over a raster cost surface.

8-neighbor movement; stepping between adjacent cells costs the mean of the
two cell multipliers times the cell size (times sqrt(2) on diagonals).
Nodata cells are hard barriers; zero-cost cells are ordinary, free steps.
The surface becomes one symmetric sparse graph of eight slots per cell, a
slot with no step being a zero-weight loop that no search relaxes and that
could lower no distance if one did (`_cost_graph`), and scipy's Dijkstra
searches it once from each sink (the target end of a corridor): in that
search's predecessor tree each cell's predecessor is its next hop toward
the sink, so a corridor is walked from the source with no reversal.  All
corridors of one sink are walked in lock step, and a path's length and
cost are recomputed as sums of its step costs in source-to-sink order.
A search stops a step past an estimate of its farthest source's distance,
checked after the search (`build_candidates`); it keeps every corridor the
unlimited search finds, to the bit.  Among equal-cost paths the one kept
is the predecessor tree scipy's Dijkstra builds from the sink:
deterministic for a given scipy, but not tied to cell indices.

No sum here overflows a float, so every search reaches each cell of its
sink's component.  Open cells and the cell size are at most B =
`raster.MAX_MAGNITUDE`: a step costs at most sqrt(2) B^2 and a corridor, of
fewer than 2^63 steps, about 1.3e49, below MAX_CORRIDOR_COST = B^4 with room
for rounding.  The reach estimate is finite too: the mean of the n open
cells is at least the costliest over n, so `detour` <= sqrt(2) n^2.

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

from coplant.domain import DomainError
from coplant.sinknet.raster import MAX_MAGNITUDE, CostSurface

if TYPE_CHECKING:
    from scipy.sparse import csr_array

SQRT2 = math.sqrt(2.0)
REACH_FACTOR = 1.25     # margin of a sink's reach estimate (`build_candidates`)

#: The largest terrain cost of a `CandidateEdge`; see the module docstring.
MAX_CORRIDOR_COST = MAX_MAGNITUDE ** 4

# (first cells, their neighbours, distance factor, the step's slot among the
# first cell's eight neighbours, its slot among the neighbour's) for the steps
# east, south, south-east and south-west; slots 0-7 are NW, N, NE, W, E, SW, S, SE.
_STEPS = ((np.s_[:, :-1], np.s_[:, 1:], 1.0, 4, 3),
          (np.s_[:-1, :], np.s_[1:, :], 1.0, 6, 1),
          (np.s_[:-1, :-1], np.s_[1:, 1:], SQRT2, 7, 0),
          (np.s_[:-1, 1:], np.s_[1:, :-1], SQRT2, 5, 2))


def _cost_graph(surface: CostSurface) -> csr_array:
    """Directed 8-neighbour step graph of the surface: a CSR with exactly
    eight slots per cell, NW to SE, its weight and head arrays raveled into
    it.  A slot with no step (off the raster, or either cell nodata) is a
    zero-weight loop on its own cell.  scipy's Dijkstra marks a cell scanned
    before it relaxes the cell's edges, so it never relaxes a loop, and
    `val + 0` would not lower `val` anyway: every search makes the heap
    operations of the graph without the loops, ties included.  Zero-cost
    steps stay explicit edges (the routing tests pin it).  Nodata cells
    enter the step sums as 0, so no nodata value, however large, overflows."""
    from scipy.sparse import csr_array
    open_, n = ~surface.is_nodata, surface.n_cells
    cells = np.where(open_, surface.cells, 0.0)
    index = np.int32 if 8 * n < 2**31 else np.int64     # scipy takes int32 where it fits
    cell = np.arange(n, dtype=index).reshape(cells.shape)
    heads = np.repeat(cell[..., None], 8, axis=2)
    weight = np.zeros((*cells.shape, 8))
    for a, b, diag, out, back in _STEPS:
        keep = open_[a] & open_[b]
        weight[(*a, out)] = weight[(*b, back)] = np.where(
            keep, 0.5 * (cells[a] + cells[b]) * surface.cell_size * diag, 0.0)
        heads[(*a, out)] = np.where(keep, cell[b], cell[a])
        heads[(*b, back)] = np.where(keep, cell[a], cell[b])
    indptr = np.arange(0, 8 * n + 1, 8, dtype=index)
    return csr_array((weight.ravel(), heads.ravel(), indptr), shape=(n, n))


def dijkstra(*args, **kwargs):
    """scipy's csgraph `dijkstra`, imported on the first call."""
    from scipy.sparse.csgraph import dijkstra
    return dijkstra(*args, **kwargs)


def _corridors(surface: CostSurface, pred: np.ndarray, sink: int, cells: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cells, cell count, length in km, cost) of the corridor from each of
    `cells` to `sink`, along the predecessor tree of a search from the sink.

    All corridors are walked in lock step, `cur = pred[cur]`, into one
    (corridor, step) array in which a corridor that has arrived repeats the
    sink; a source on the sink's cell is a one-cell corridor.  The step
    costs are those of `_cost_graph`, zero once a corridor has arrived, and
    are added from the source by np.cumsum (np.sum adds pairwise), so each
    sum equals that of the corridor's own steps to the bit."""
    pred[sink] = sink
    steps = [cells, pred[cells]]
    while np.any(steps[-1] != sink):
        steps.append(pred[steps[-1]])
    path = np.stack(steps, axis=1)
    moving = path[:, :-1] != path[:, 1:]
    rows, cols = np.divmod(path, surface.ncols)
    diag = np.where((rows[:, :-1] != rows[:, 1:]) & (cols[:, :-1] != cols[:, 1:]), SQRT2, 1.0)
    c = surface.cells.ravel()[path]
    length = np.cumsum(np.where(moving, surface.cell_size * diag, 0.0), axis=1)[:, -1]
    cost = np.cumsum(np.where(
        moving, 0.5 * (c[:, :-1] + c[:, 1:]) * surface.cell_size * diag, 0.0), axis=1)[:, -1]
    return path, 1 + moving.sum(axis=1), length, cost


def _check_node(kind: str, amount_name: str, amount: float, cost_name: str, cost: float):
    """Raise DomainError unless a node's amount and cost are finite numbers of
    magnitude at most MAX_MAGNITUDE and its amount is >= 0."""
    for name, value in ((amount_name, amount), (cost_name, cost)):
        if not abs(value) <= MAX_MAGNITUDE:
            raise DomainError(f"{kind} {name} must be a finite number of magnitude at "
                              f"most {MAX_MAGNITUDE:g}, got {value}")
    if amount < 0:
        raise DomainError(f"{kind} {amount_name} must be >= 0, got {amount}")


@dataclass(frozen=True)
class SourceNode:
    id: str
    cell: int
    capturable: float         # t CO2 / yr
    eq_capture_cost: float    # $/t CO2

    def __post_init__(self) -> None:
        _check_node("source", "capturable", self.capturable, "capture_cost", self.eq_capture_cost)


@dataclass(frozen=True)
class SinkNode:
    id: str
    cell: int
    capacity: float           # t CO2 / yr
    sequestration_cost: float  # $/t CO2

    def __post_init__(self) -> None:
        _check_node("sink", "capacity", self.capacity,
                    "sequestration_cost", self.sequestration_cost)


@dataclass(frozen=True)
class CandidateEdge:
    source_id: str
    sink_id: str
    path: tuple[int, ...]
    length_km: float
    terrain_cost: float            # path cost = sum of per-km multipliers x km

    def __post_init__(self) -> None:
        if not 0 <= self.terrain_cost <= MAX_CORRIDOR_COST:
            raise DomainError(
                f"corridor {self.source_id} -> {self.sink_id}: terrain cost must be a "
                f"finite number in [0, {MAX_CORRIDOR_COST:g}], got {self.terrain_cost}")


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
    walked from the source, all of the sink's corridors in lock step
    (`_corridors`).  Sinks are searched one by one in input order, not in
    one batched call, which would hold distances and predecessors per sink.

    Each sink k is searched to λ + `step`, `step` being the costliest edge
    and λ an estimate of the distance of k's farthest source: REACH_FACTOR
    times `detour` times the walk at the open cells' mean multiplier over
    the largest octile distance from k to a source.  Up to λ the search
    makes the unlimited one's heap operations in the same order, so every
    cell within λ keeps its distance and predecessor, ties included.  If a
    source k can reach lies beyond λ, k is searched again without a limit.
    Once an unlimited search has reached k, the sources it reached are those
    k can reach (before, all are), and `detour` becomes at least the ratio
    of its farthest source's distance to that source set's walk.

    Pairs separated by nodata barriers are skipped; nodes unreachable from
    every counterpart are listed in the reachability report.  A node on a
    nodata cell raises DomainError naming it.
    """
    for node in list(sources) + list(sinks):
        if not surface.traversable(node.cell):
            raise DomainError(f"node {node.id} sits on a nodata cell")
    if not (sources and sinks):     # no corridor, and perhaps no open cell to average
        return [], ReachabilityReport([s.id for s in sources], [k.id for k in sinks])
    graph = _cost_graph(surface)
    step = float(graph.data.max(initial=0.0))
    src_cells = np.array([s.cell for s in sources], dtype=np.intp)
    src_at = np.stack(np.divmod(src_cells, surface.ncols), axis=1)     # (row, col)
    per_cell = float(surface.cells[~surface.is_nodata].mean()) * surface.cell_size
    per_source: list[list[CandidateEdge]] = [[] for _ in sources]
    unreachable_sinks: list[str] = []
    can_reach: list[np.ndarray] = [np.ones(len(sources), dtype=bool)] * len(sinks)
    detour = 1.0
    for j, snk in enumerate(sinks):
        apart = np.abs(src_at - surface.rowcol(snk.cell))
        octile = apart.max(axis=1) + (SQRT2 - 1.0) * apart.min(axis=1)
        estimate = REACH_FACTOR * detour * per_cell * float(octile[can_reach[j]].max(initial=0.0))
        dist, pred = dijkstra(graph, indices=snk.cell, return_predecessors=True,
                              limit=estimate + step)
        if np.any(dist[src_cells[can_reach[j]]] > estimate):
            dist, pred = dijkstra(graph, indices=snk.cell, return_predecessors=True)
            reach = np.isfinite(dist[src_cells])
            walk = per_cell * float(octile[reach].max(initial=0.0))
            if walk > 0.0:
                detour = max(detour, float(dist[src_cells[reach]].max()) / walk)
            for k in np.flatnonzero(np.isfinite(dist[[other.cell for other in sinks]])):
                can_reach[k] = reach
        hit = np.flatnonzero(np.isfinite(dist[src_cells]))
        if not hit.size:
            unreachable_sinks.append(snk.id)
        paths, counts, lengths, costs = _corridors(surface, pred, snk.cell, src_cells[hit])
        for i, path, count, length_km, cost in zip(hit, paths, counts, lengths, costs):
            per_source[i].append(CandidateEdge(
                source_id=sources[i].id, sink_id=snk.id, path=tuple(path[:count].tolist()),
                length_km=float(length_km), terrain_cost=float(cost)))
    report = ReachabilityReport(
        [s.id for s, row in zip(sources, per_source) if not row], unreachable_sinks)
    return [edge for row in per_source for edge in row], report
