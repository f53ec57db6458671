import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from coplant.sinknet import network
from coplant.sinknet.network import (
    DEFAULT_PIPELINE_CLASSES,
    EXACT_BLOCK,
    EXACT_CODE_LIMIT,
    EXACT_PASS,
    EXACT_SOURCE_LIMIT,
    NetworkInfeasible,
    NetworkParams,
    NetworkSolution,
    RouteFlow,
    _make_instance,
    _replaces,
    _shortfall,
    _solve_exact,
    _solve_local,
    _tight_codes,
    select_network,
    size_pipeline,
)
from coplant.sinknet.raster import CostSurface, RasterFormatError, load_raster, write_raster
from coplant.sinknet import routing
from coplant.sinknet.routing import (
    CandidateEdge,
    ReachabilityReport,
    SinkNode,
    SourceNode,
    build_candidates,
)

SQRT2 = math.sqrt(2.0)


def make_surface(cells, cell_size=1.0, nodata=-9999.0, origin=(0.0, 0.0)):
    arr = np.asarray(cells, dtype=float)
    return CostSurface(ncols=arr.shape[1], nrows=arr.shape[0],
                       cell_size=cell_size, origin=origin,
                       nodata=nodata, cells=arr)


# ------------------------------------------------------------------- raster

class TestRaster:
    def test_parse_all_ones(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 3\nNROWS 3\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "NODATA_VALUE -9999\n1 1 1\n1 1 1\n1 1 1\n")
        surface = load_raster(path)
        assert surface.ncols == surface.nrows == 3
        assert np.all(surface.cells == 1.0)

    def test_nodata_untraversable(self):
        surface = make_surface([[1, -9999], [1, 1]])
        assert not surface.traversable(surface.index(0, 1))
        assert surface.traversable(surface.index(0, 0))

    def test_truncated_data_counts(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 3\nNROWS 3\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
            "NODATA_VALUE -9999\n1 1 1\n1 1\n")
        with pytest.raises(RasterFormatError) as err:
            load_raster(path)
        msg = str(err.value)
        assert "9" in msg and "5" in msg

    def test_negative_cost_rejected(self):
        with pytest.raises(RasterFormatError):
            make_surface([[1, -2], [1, 1]])

    @pytest.mark.parametrize("bad, nodata, message", [
        (math.nan, -9999.0, "non-finite cost cell nan at row 1, col 0"),
        (math.inf, -9999.0, "non-finite cost cell inf at row 1, col 0"),
        (-math.inf, -9999.0, "non-finite cost cell -inf at row 1, col 0"),
        (1.0, math.nan, "NODATA_VALUE must be a finite number"),
        (math.inf, math.inf, "NODATA_VALUE must be a finite number")])
    def test_non_finite_rejected(self, bad, nodata, message):
        with pytest.raises(RasterFormatError, match=message):
            make_surface([[1, 1], [bad, 1]], nodata=nodata)

    @pytest.mark.parametrize("nodata, cells, message", [
        ("-9999", "1 nan 1\n1 1 1\n1 1 1\n", "non-finite cost cell nan at row 0, col 1"),
        ("-9999", "1 1 1\n1 1 1\n1 1 inf\n", "non-finite cost cell inf at row 2, col 2"),
        ("nan", "1 1 1\n1 nan 1\n1 1 1\n", "NODATA_VALUE must be a finite number")])
    def test_load_non_finite_rejected(self, tmp_path, nodata, cells, message):
        path = tmp_path / "g.asc"
        path.write_text(f"NCOLS 3\nNROWS 3\nCELLSIZE 1\nNODATA_VALUE {nodata}\n{cells}")
        with pytest.raises(RasterFormatError) as err:
            load_raster(path)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("geometry, message", [
        ({"cell_size": math.nan}, "CELLSIZE must be a finite number > 0, got nan"),
        ({"cell_size": math.inf}, "CELLSIZE must be a finite number > 0, got inf"),
        ({"cell_size": -5.0}, "CELLSIZE must be a finite number > 0, got -5.0"),
        ({"cell_size": 0.0}, "CELLSIZE must be a finite number > 0, got 0.0"),
        ({"origin": (math.nan, 0.0)}, "XLLCORNER and YLLCORNER must be finite numbers"),
        ({"origin": (0.0, -math.inf)}, "XLLCORNER and YLLCORNER must be finite numbers")])
    def test_bad_geometry_rejected(self, geometry, message):
        with pytest.raises(RasterFormatError, match=message):
            make_surface([[1, 1], [1, 1]], **geometry)

    @pytest.mark.parametrize("header, message", [
        ("NCOLS 3\nNROWS 3\nCELLSIZE nan\n", "CELLSIZE must be a finite number > 0, got nan"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE -5\n", "CELLSIZE must be a finite number > 0, got -5.0"),
        ("NCOLS 3\nNROWS 3\nXLLCORNER nan\nCELLSIZE 1\n",
         "XLLCORNER and YLLCORNER must be finite numbers, got (nan, 0.0)"),
        ("NCOLS 3.7\nNROWS 3\nCELLSIZE 1\n", "NCOLS must be a positive integer, got 3.7"),
        ("NCOLS 3\nNROWS 0\nCELLSIZE 1\n", "NROWS must be a positive integer, got 0"),
        ("NCOLS nan\nNROWS 3\nCELLSIZE 1\n", "NCOLS must be a positive integer, got nan"),
        ("NCOLS 3\nNROWS inf\nCELLSIZE 1\n", "NROWS must be a positive integer, got inf"),
        ("NCOLS 3\nNROWS 3\n", "missing header key CELLSIZE")])
    def test_load_bad_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "g.asc"
        path.write_text(f"{header}1 1 1\n1 1 1\n1 1 1\n")
        with pytest.raises(RasterFormatError) as err:
            load_raster(path)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n", ": no data section found"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1 1 1\n\n1 x 1\n1 1 1\n",
         ":6: non-numeric cell value 'x'")])
    def test_load_data_section_rejected(self, tmp_path, text, message):
        path = tmp_path / "g.asc"
        path.write_text(text)
        with pytest.raises(RasterFormatError) as err:
            load_raster(path)
        assert str(err.value) == f"{path}{message}"

    def test_repeated_header_key_rejected(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("NCOLS 3\nNROWS 3\nCELLSIZE 1\nCELLSIZE 7\n1 1 1\n1 1 1\n1 1 1\n")
        with pytest.raises(RasterFormatError) as err:
            load_raster(path)
        assert str(err.value) == f"{path}:4: repeated header key CELLSIZE"

    def test_write_read_round_trip(self, tmp_path):
        surface = make_surface([[1, 2.5], [-9999, 4]], cell_size=0.24)
        path = tmp_path / "g.asc"
        write_raster(surface, path)
        back = load_raster(path)
        assert back.cell_size == pytest.approx(0.24)
        assert np.array_equal(back.cells, surface.cells)


# ------------------------------------------------------------------ routing

def neighbor_steps(surface, cell):
    """(neighbour, step cost) for each traversable 8-neighbour of a cell: the
    mean of the two cell multipliers times the cell size, times sqrt(2) on
    diagonals."""
    r, c = surface.rowcol(cell)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == dc == 0:
                continue
            rr, cc = r + dr, c + dc
            if 0 <= rr < surface.nrows and 0 <= cc < surface.ncols:
                v = surface.index(rr, cc)
                if surface.traversable(v):
                    diag = SQRT2 if dr and dc else 1.0
                    yield v, (0.5 * (surface.cells[r, c] + surface.cells[rr, cc])
                              * surface.cell_size * diag)


def exhaustive_path_oracle(surface, a, b):
    """Min-cost simple path by depth-first enumeration with pruning, its
    steps summed along the path from a."""
    best = [math.inf]

    def dfs(cell, cost, seen):
        if cost >= best[0]:
            return
        if cell == b:
            best[0] = cost
            return
        for v, step in neighbor_steps(surface, cell):
            if v not in seen:
                dfs(v, cost + step, seen | {v})

    dfs(a, 0.0, {a})
    return best[0]


def step_graph(surface):
    """Directed step graph built cell by cell from `neighbor_steps`; nodata
    cells have no steps."""
    steps = [(u, v, w) for u in range(surface.n_cells) if surface.traversable(u)
             for v, w in neighbor_steps(surface, u)]
    tails, heads, weights = zip(*steps)
    return csr_array((weights, (tails, heads)),
                     shape=(surface.n_cells, surface.n_cells))


def route(surface, a, b):
    """(cells from a to b, cost) of the corridor `build_candidates` finds
    for a source at cell a and a sink at cell b; None when b is unreachable."""
    edges, _ = build_candidates(surface, [SourceNode("S", a, 1.0, 0.0)],
                                [SinkNode("K", b, 1.0, 0.0)])
    return (list(edges[0].path), edges[0].terrain_cost) if edges else None


class TestRouting:
    def test_two_diagonal_steps(self):
        surface = make_surface(np.ones((3, 3)))
        path, cost = route(surface, surface.index(0, 0), surface.index(2, 2))
        assert cost == pytest.approx(2 * SQRT2)
        assert len(path) == 3

    def test_same_cell(self):
        """The corridor of a source on its sink's cell is that one cell."""
        surface = make_surface(np.ones((3, 3)))
        path, cost = route(surface, 4, 4)
        assert path == [4] and cost == 0.0

    def test_wall_with_gap(self):
        cells = np.ones((5, 5))
        cells[2, :] = -9999.0
        cells[2, 3] = 1.0
        surface = make_surface(cells)
        a, b = surface.index(0, 0), surface.index(4, 0)
        path, cost = route(surface, a, b)
        assert surface.index(2, 3) in path
        assert cost == pytest.approx(exhaustive_path_oracle(surface, a, b))

    def test_unreachable(self):
        cells = np.ones((3, 3))
        cells[:, 1] = -9999.0
        surface = make_surface(cells)
        assert route(surface, surface.index(0, 0), surface.index(0, 2)) is None

    def test_oracle_agreement_randomized_5x5(self):
        """[PRIMARY] Dijkstra equals exhaustive enumeration on 5x5 grids."""
        rng = np.random.default_rng(2024)
        for trial in range(20):
            cells = rng.uniform(0.5, 10.0, size=(5, 5))
            # sprinkle barriers but keep corners open
            mask = rng.random((5, 5)) < 0.15
            mask[0, 0] = mask[4, 4] = False
            cells[mask] = -9999.0
            surface = make_surface(np.round(cells, 3))
            a, b = surface.index(0, 0), surface.index(4, 4)
            oracle = exhaustive_path_oracle(surface, a, b)
            if math.isinf(oracle):
                assert route(surface, a, b) is None
                continue
            path, cost = route(surface, a, b)
            assert cost == pytest.approx(oracle, abs=1e-9), f"trial {trial}"

    def test_triangle_property(self):
        rng = np.random.default_rng(77)
        cells = np.round(rng.uniform(0.5, 5.0, size=(5, 5)), 3)
        surface = make_surface(cells)
        a, b, c = surface.index(0, 0), surface.index(2, 3), surface.index(4, 4)
        _, ac = route(surface, a, c)
        _, ab = route(surface, a, b)
        _, bc = route(surface, b, c)
        assert ac <= ab + bc + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        cells = np.round(rng.uniform(0.5, 5.0, size=(5, 5)), 3)
        surface = make_surface(cells)
        a, b = surface.index(0, 0), surface.index(4, 4)
        assert route(surface, a, b) == route(surface, a, b)

    def test_equal_cost_tie_pinned(self):
        """Two paths from (0,0) to (2,1) cost 1 + sqrt(2); the kept one is the
        predecessor scipy's Dijkstra picks searching from the target (2,1)."""
        surface = make_surface(np.ones((3, 3)))
        path, cost = route(surface, surface.index(0, 0), surface.index(2, 1))
        assert cost == 1.0 + SQRT2
        assert path == [surface.index(0, 0), surface.index(1, 1),
                        surface.index(2, 1)]

    def test_zero_cost_row_traversable(self):
        """A zero-multiplier row is a free corridor, not a barrier."""
        surface = make_surface([[1, 1, 1], [0, 0, 0], [1, 1, 1]])
        path, cost = route(surface, 0, 8)
        assert (path, cost) == ([0, 3, 4, 5, 8], 1.0)
        assert cost == exhaustive_path_oracle(surface, 0, 8)

    def test_all_zero_raster(self):
        surface = make_surface(np.zeros((3, 3)))
        path, cost = route(surface, 0, 8)
        assert (path, cost) == ([0, 4, 8], 0.0)
        assert cost == exhaustive_path_oracle(surface, 0, 8)


def walk(pred, a, b):
    """Cells from a to b along the predecessor tree of a search from b, in
    which each cell's predecessor is its next hop toward b; [a] when a == b.
    One corridor at a time, as `build_candidates` once walked them."""
    path = [a]
    while path[-1] != b:
        path.append(int(pred[path[-1]]))
    return path


def path_measures(surface, path):
    """(length in km, cost) of a path, each summed step by step from its
    first cell with np.cumsum; (0, 0) for a one-cell path."""
    if len(path) < 2:
        return 0.0, 0.0
    cells = np.asarray(path)
    rows, cols = np.divmod(cells, surface.ncols)
    diag = np.where((np.diff(rows) != 0) & (np.diff(cols) != 0), SQRT2, 1.0)
    c = surface.cells.ravel()[cells]
    length = np.cumsum(surface.cell_size * diag)[-1]
    cost = np.cumsum(0.5 * (c[:-1] + c[1:]) * surface.cell_size * diag)[-1]
    return float(length), float(cost)


def candidates_oracle(surface, sources, sinks):
    """What `build_candidates` returns, from an unlimited csgraph search from
    each sink over `step_graph`, each corridor walked and measured alone."""
    graph = step_graph(surface)
    found = {}
    for snk in sinks:
        dist, pred = dijkstra(graph, indices=snk.cell, return_predecessors=True)
        for src in sources:
            if np.isfinite(dist[src.cell]):
                path = walk(pred, src.cell, snk.cell)
                found[src.id, snk.id] = CandidateEdge(src.id, snk.id, tuple(path),
                                                      *path_measures(surface, path))
    edges = [found[s.id, k.id] for s in sources for k in sinks if (s.id, k.id) in found]
    return edges, ReachabilityReport(
        unreachable_sources=[s.id for s in sources
                             if not any((s.id, k.id) in found for k in sinks)],
        unreachable_sinks=[k.id for k in sinks
                           if not any((s.id, k.id) in found for s in sources)])


def recording_limits(monkeypatch):
    """Patch `routing.dijkstra` to record the limit of each search (None
    for an unlimited one) and return the list it fills."""
    limits = []

    def recording(graph, **kwargs):
        limits.append(kwargs.get("limit"))
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(routing, "dijkstra", recording)
    return limits


def walled_instance(seed, n=28):
    """A random surface of `n` x `n` cells: multipliers in [0.5, 5] with one
    cell in five free, a block of free cells, short random walls and a
    full nodata cross that cuts it into four components.  The first sink
    sits in a component with no source; the others, and the sources, are
    random open cells of the other three."""
    rng = np.random.default_rng(seed)
    cells = np.round(rng.uniform(0.5, 5.0, size=(n, n)), 2)
    cells[rng.random((n, n)) < 0.2] = 0.0
    cells[3:9, 16:24] = 0.0
    for _ in range(6):
        r, c = rng.integers(0, n - 6, size=2)
        cells[r, c:c + 6] = -9999.0
    half = n // 2
    cells[half, :] = cells[:, half] = -9999.0
    surface = make_surface(cells, cell_size=float(rng.uniform(0.5, 3.0)))
    open_ = cells != -9999.0
    lonely = np.flatnonzero(open_[:half, :half].ravel())
    r, c = divmod(int(rng.choice(lonely)), half)
    others = open_.copy()
    others[:half + 1, :half + 1] = False
    picks = rng.choice(np.flatnonzero(others.ravel()), size=15, replace=False)
    sources = [SourceNode(id=f"S{i}", cell=int(cell), capturable=10, eq_capture_cost=30)
               for i, cell in enumerate(picks[:11])]
    # one sink on a source's cell gives a one-cell corridor
    sinks = [SinkNode(id="K0", cell=surface.index(r, c), capacity=10, sequestration_cost=5)]
    sinks += [SinkNode(id=f"K{j}", cell=int(cell), capacity=10, sequestration_cost=5)
              for j, cell in enumerate([*picks[11:], picks[0]], start=1)]
    return surface, sources, sinks


def tight_row_instance(seed):
    """One row of 24 random cells: source A at column 0, sinks K1 at 12 and
    K2 at 20, source B at 22.  K1 lies on A's corridor to K2 and K2 on B's
    corridor to K1; A is K1's farthest source, so the triangle bound on
    K2's search, d(A, K1) + d(K1, K2), is exactly A's distance from K2."""
    rng = np.random.default_rng(seed)
    surface = make_surface(np.round(rng.uniform(0.5, 5.0, size=(1, 24)), 3))
    sources = [SourceNode(id="A", cell=0, capturable=10, eq_capture_cost=30),
               SourceNode(id="B", cell=22, capturable=10, eq_capture_cost=30)]
    sinks = [SinkNode(id="K1", cell=12, capacity=10, sequestration_cost=5),
             SinkNode(id="K2", cell=20, capacity=10, sequestration_cost=5)]
    return surface, sources, sinks


class TestCandidates:
    def test_pair_counts(self):
        surface = make_surface(np.ones((4, 4)))
        sources = [SourceNode(id="S1", cell=0, capturable=10, eq_capture_cost=30),
                   SourceNode(id="S2", cell=3, capturable=10, eq_capture_cost=30)]
        sinks = [SinkNode(id="K1", cell=12, capacity=10, sequestration_cost=5),
                 SinkNode(id="K2", cell=15, capacity=10, sequestration_cost=5)]
        edges, report = build_candidates(surface, sources, sinks)
        assert len(edges) == 4
        assert report.ok
        edges1, report1 = build_candidates(surface, sources[:1], sinks[:1])
        assert len(edges1) == 1

    def test_one_search_per_sink(self, monkeypatch):
        calls = []

        def counting(graph, **kwargs):
            calls.append(kwargs["indices"])
            return dijkstra(graph, **kwargs)

        monkeypatch.setattr(routing, "dijkstra", counting)
        surface = make_surface(np.ones((6, 6)))
        sources = [SourceNode(id=f"S{i}", cell=c, capturable=10, eq_capture_cost=30)
                   for i, c in enumerate([0, 5, 14, 30, 35])]
        sinks = [SinkNode(id=f"K{j}", cell=c, capacity=10, sequestration_cost=5)
                 for j, c in enumerate([21, 9])]
        edges, report = build_candidates(surface, sources, sinks)
        assert calls == [21, 9]
        assert report.ok
        assert [(e.source_id, e.sink_id) for e in edges] == [
            (s.id, k.id) for s in sources for k in sinks]

    def test_matches_source_rooted_search(self):
        """[PRIMARY] On random float surfaces with walls, every corridor is
        the one a search from its source finds wherever that shortest path
        is unique, and every terrain cost equals the source search's distance
        exactly (both sum the steps from the source)."""
        rng = np.random.default_rng(1913)
        n, unique, unreachable = 14, 0, 0
        for trial in range(6):
            cells = rng.uniform(0.5, 5.0, size=(n, n))
            cells[rng.random((n, n)) < 0.45] = -9999.0
            open_cells = np.flatnonzero(cells.ravel() != -9999.0)
            picks = rng.choice(open_cells, size=7, replace=False)
            surface = make_surface(cells, cell_size=float(rng.uniform(0.5, 3.0)))
            sources = [SourceNode(id=f"S{i}", cell=int(c), capturable=10,
                                  eq_capture_cost=30) for i, c in enumerate(picks[:5])]
            sinks = [SinkNode(id=f"K{j}", cell=int(c), capacity=10,
                              sequestration_cost=5) for j, c in enumerate(picks[5:])]
            edges, _ = build_candidates(surface, sources, sinks)
            by_pair = {(e.source_id, e.sink_id): e for e in edges}
            graph = step_graph(surface)
            for src in sources:
                from_src, pred = dijkstra(graph, indices=src.cell,
                                          return_predecessors=True)
                for snk in sinks:
                    edge = by_pair.get((src.id, snk.id))
                    if math.isinf(from_src[snk.cell]):
                        assert edge is None
                        unreachable += 1
                        continue
                    path = [snk.cell]
                    while path[-1] != src.cell:
                        path.append(int(pred[path[-1]]))
                    path.reverse()
                    total = from_src[snk.cell]
                    # cells on some shortest path; only this path's when unique
                    from_snk = dijkstra(graph, indices=snk.cell)
                    if np.sum(from_src + from_snk <= total * (1 + 1e-9)) == len(path):
                        unique += 1
                        assert edge.path == tuple(path), f"trial {trial}"
                        assert edge.terrain_cost == total, f"trial {trial}"
                        steps = [SQRT2 if u // n != v // n and u % n != v % n else 1.0
                                 for u, v in zip(path, path[1:])]
                        assert edge.length_km == pytest.approx(
                            surface.cell_size * sum(steps), rel=1e-12), f"trial {trial}"
                    else:
                        assert edge.terrain_cost == pytest.approx(total, rel=1e-12)
        assert unique >= 50 and unreachable > 0

    def test_matches_per_pair_oracle(self, monkeypatch):
        """[PRIMARY] Every corridor, length and terrain cost, and the
        reachability report, equal to the bit those of an unlimited search
        from each sink with each corridor walked alone: on walled random
        surfaces with free cells and four components, the first sink alone
        in a component without sources; and on one-row corridors where the
        triangle bound is tight."""
        limits = recording_limits(monkeypatch)
        instances = [walled_instance(seed) for seed in range(6)]
        instances += [tight_row_instance(seed) for seed in range(8)]
        for surface, sources, sinks in instances:
            assert build_candidates(surface, sources, sinks) == \
                candidates_oracle(surface, sources, sinks)
        assert any(limit is not None for limit in limits)
        assert build_candidates(*instances[0])[1].unreachable_sinks == ["K0"]

    def test_search_limits(self, monkeypatch):
        """The first search has no limit.  A later sink's search is limited
        to the triangle bound, R + d(K1, k) with R the farthest source K1
        reached, plus the costliest step of the graph, and reaches at least
        every source.  Where rounding leaves a source past the bound, the
        sink is searched again without a limit."""
        limits = recording_limits(monkeypatch)
        surface = make_surface(np.round(
            np.random.default_rng(5).uniform(0.5, 5.0, size=(20, 20)), 3))
        rng = np.random.default_rng(6)
        picks = rng.choice(surface.n_cells, size=12, replace=False)
        sources = [SourceNode(id=f"S{i}", cell=int(c), capturable=10, eq_capture_cost=30)
                   for i, c in enumerate(picks[:9])]
        sinks = [SinkNode(id=f"K{j}", cell=int(c), capacity=10, sequestration_cost=5)
                 for j, c in enumerate(picks[9:])]
        build_candidates(surface, sources, sinks)
        graph = step_graph(surface)
        first = dijkstra(graph, indices=sinks[0].cell)
        reach = max(first[s.cell] for s in sources)
        step = graph.data.max()
        assert limits[0] is None and len(limits) == len(sinks)
        for snk, limit in zip(sinks[1:], limits[1:]):
            farthest = max(dijkstra(graph, indices=snk.cell)[s.cell] for s in sources)
            assert farthest <= limit <= reach + first[snk.cell] + step
        again = []
        for seed in range(8):
            limits.clear()
            build_candidates(*tight_row_instance(seed))
            assert limits[0] is None and 0 < limits[1] < math.inf
            assert limits[2:] in ([], [None])
            again.append(limits[2:] == [None])
        assert any(again) and not all(again)

    def test_walled_off_nodes_reported(self):
        cells = np.ones((7, 7))
        cells[0:3, 4] = cells[2, 4:7] = -9999.0      # boxes in the corner (0, 6)
        cells[4, 0:3] = cells[4:7, 2] = -9999.0      # boxes in the corner (6, 0)
        surface = make_surface(cells)
        sources = [SourceNode(id="S_open", cell=surface.index(3, 3), capturable=10,
                              eq_capture_cost=30),
                   SourceNode(id="S_walled", cell=surface.index(0, 6), capturable=10,
                              eq_capture_cost=30)]
        sinks = [SinkNode(id="K_walled", cell=surface.index(6, 0), capacity=10,
                          sequestration_cost=5),
                 SinkNode(id="K_open", cell=surface.index(6, 6), capacity=10,
                          sequestration_cost=5)]
        edges, report = build_candidates(surface, sources, sinks)
        assert [(e.source_id, e.sink_id) for e in edges] == [("S_open", "K_open")]
        assert report.unreachable_sources == ["S_walled"]
        assert report.unreachable_sinks == ["K_walled"]
        assert not report.ok

    def test_unreachable_reported(self):
        cells = np.ones((3, 3))
        cells[:, 1] = -9999.0
        surface = make_surface(cells)
        sources = [SourceNode(id="S", cell=surface.index(0, 0),
                              capturable=10, eq_capture_cost=30)]
        sinks = [SinkNode(id="K", cell=surface.index(0, 2), capacity=10,
                          sequestration_cost=5)]
        edges, report = build_candidates(surface, sources, sinks)
        assert edges == []
        assert report.unreachable_sources == ["S"]
        assert report.unreachable_sinks == ["K"]


# -------------------------------------------------------------- conversions

class TestConversions:
    def test_size_pipeline_table(self):
        cls, count, capex = size_pipeline(0.0)
        assert cls is None and count == 0 and capex == 0.0
        cls, count, _ = size_pipeline(2.5e6)
        assert cls.capacity == pytest.approx(3e6) and count == 1
        cls, count, _ = size_pipeline(60e6)
        assert cls is DEFAULT_PIPELINE_CLASSES[-1] and count == 3
        # class capex per km rises with capacity
        capexes = [c.capex_per_km for c in DEFAULT_PIPELINE_CLASSES]
        assert capexes == sorted(capexes)


# ------------------------------------------------------------------ network

def scalar_evaluate(sources, sinks, edges, target, assignment, params=None):
    """Reference allocation and cost of one assignment (source id -> sink id
    or None), one source at a time: sources with a sink take flow in
    ascending linear rate (capture + sequestration), ties to the lower id,
    each min(capturable, sink room, remaining); then each shipping source
    adds its capture, pipeline and sequestration cost in id order.  None if more than 1e-6 of the target is left."""
    params = params or NetworkParams()
    src = {s.id: s for s in sources}
    snk = {k.id: k for k in sinks}
    edge_of = {(e.source_id, e.sink_id): e for e in edges}

    def linear_rate(s, k):
        return src[s].eq_capture_cost + snk[k].sequestration_cost

    order = sorted((s for s, k in assignment.items() if k is not None),
                   key=lambda s: (linear_rate(s, assignment[s]), s))
    remaining = target
    sink_room = {k: snk[k].capacity for k in snk}
    flows = {}
    for s in order:
        if remaining <= 1e-12:
            break
        k = assignment[s]
        f = min(src[s].capturable, sink_room[k], remaining)
        if f <= 0:
            continue
        flows[s] = f
        sink_room[k] -= f
        remaining -= f
    if remaining > 1e-6:
        return None

    cost_capture = cost_pipeline = cost_seq = 0.0
    routes = []
    sink_in = {}
    for s, f in sorted(flows.items()):
        k = assignment[s]
        edge = edge_of[(s, k)]
        cls, count, capex_km = size_pipeline(f, params.classes)
        pipe_cost = capex_km * edge.terrain_cost * params.annual_factor
        cost_capture += src[s].eq_capture_cost * f
        cost_seq += snk[k].sequestration_cost * f
        cost_pipeline += pipe_cost
        sink_in[k] = sink_in.get(k, 0.0) + f
        routes.append(RouteFlow(
            source_id=s, sink_id=k, path=edge.path, length_km=edge.length_km,
            diameter_class=cls.name, pipe_count=count, flow=f,
            annual_cost=pipe_cost))
    solution = NetworkSolution(
        source_flows=flows, routes=routes, sink_inflows=sink_in, target=target,
        cost_capture=cost_capture, cost_pipeline=cost_pipeline,
        cost_sequestration=cost_seq)
    return solution.total_cost, solution


def source_options(src_id, edges):
    """None, then the sinks the source has a corridor to, by id."""
    return [None] + sorted(e.sink_id for e in edges if e.source_id == src_id)


def brute_force_network(sources, sinks, edges, target, params=None):
    """Enumerate every assignment in the documented solution space."""
    best = None
    for combo in itertools.product(*(source_options(s.id, edges) for s in sources)):
        assignment = {src.id: choice for src, choice in zip(sources, combo)}
        result = scalar_evaluate(sources, sinks, edges, target, assignment, params)
        if result is None:
            continue
        cost, sol = result
        if best is None or cost < best[0] - 1e-12:
            best = (cost, sol)
    return best


def product_order_oracle(sources, sinks, edges, target, params=None):
    """The exact search one scalar evaluation at a time: assignments in
    itertools.product order over each source's options (sources by id), the
    first feasible one kept unless a later one is cheaper by more than 1e-9.
    None when no assignment reaches the target."""
    src_ids = sorted(s.id for s in sources)
    best = None
    for combo in itertools.product(*(source_options(s, edges) for s in src_ids)):
        result = scalar_evaluate(sources, sinks, edges, target, dict(zip(src_ids, combo)),
                                 params)
        if result is not None and (best is None or result[0] < best[0] - 1e-9):
            best = result
    return best


def solve_exact(sources, sinks, edges, target):
    """The enumeration, whatever the source count."""
    return _solve_exact(_make_instance(sources, sinks, edges, target, NetworkParams()))[1]


def every_code_exact(inst):
    """The exact search over every code in product order, EXACT_BLOCK at a
    time, with `_replaces` applied to each feasible code in turn: the
    enumeration that `_tight_codes` cuts down, kept as its reference."""
    radix, stride = inst.radix, inst.stride
    n_codes = math.prod(radix.tolist())
    best, best_code = (math.inf, math.inf), None
    for start in range(0, n_codes, EXACT_BLOCK):
        codes = np.arange(start, min(start + EXACT_BLOCK, n_codes))
        digit = codes // stride[:, None] % radix[:, None]
        remaining, flow = inst.allocate(digit)
        capture, pipeline, seq, _ = inst.cost(digit, flow)
        total = (capture + pipeline) + seq
        for h in np.flatnonzero(_shortfall(remaining) == 0):
            if best_code is None or _replaces((0.0, total[h]), best):
                best, best_code = (0.0, float(total[h])), int(codes[h])
    return None if best_code is None else \
        inst.evaluate(inst.assignment(best_code // stride % radix))[1]


def small_passes(monkeypatch):
    """Searches in passes of at most 64 codes and kernel blocks of 8, so that
    small instances take several of each."""
    monkeypatch.setattr(network, "EXACT_PASS", 64)
    monkeypatch.setattr(network, "EXACT_BLOCK", 8)


def solve_local(sources, sinks, edges, target):
    """The local search, whatever the source count."""
    return _solve_local(_make_instance(sources, sinks, edges, target, NetworkParams()))[1]


def block_instances():
    """The random corridor instances of the block test: (trial, integer,
    sources, sinks, edges, target), target at 20-100% of the most the
    connected sources and the sinks can take.  Every sixth trial asks for
    all of it, the edge where an assignment most often falls short."""
    rng = np.random.default_rng(2718)
    for trial in range(60):
        integer = trial % 3 == 0
        n_src, n_snk = (8, 3) if trial % 12 == 0 else (
            int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        sources, sinks, edges = corridor_instance(rng, n_src, n_snk, integer)
        connected = {e.source_id for e in edges}
        max_target = min(sum(s.capturable for s in sources if s.id in connected),
                         sum(k.capacity for k in sinks))
        target = float(rng.uniform(0.2, 1.0)) * max_target
        if trial % 6 == 3:
            target = max_target
        if target > 0:
            yield trial, integer, sources, sinks, edges, target


def corridor_instance(rng, n_sources, n_sinks, integer=False):
    """Nodes joined by random corridors instead of a raster: about a quarter
    of the pairs have no corridor, and on the larger scale flows pass the
    27 Mt/yr of the largest pipe.  Sources are listed out of id order.  With
    `integer`, amounts are ints and unit costs are ints from three values
    each, so linear rates often tie."""
    scale = float(rng.choice([3e6, 9e7]))

    def amount():
        value = rng.uniform(0.1, 1.0) * scale
        return int(value) if integer else float(value)

    def unit_cost(lo, hi):
        return int(rng.integers(lo, lo + 3)) if integer else float(rng.uniform(lo, hi))

    sources = [SourceNode(id=f"S{i:02d}", cell=i, capturable=amount(),
                          eq_capture_cost=unit_cost(10, 80))
               for i in rng.permutation(n_sources)]
    sinks = [SinkNode(id=f"K{j}", cell=100 + j, capacity=amount(),
                      sequestration_cost=unit_cost(2, 12))
             for j in range(n_sinks)]
    edges = [CandidateEdge(source_id=src.id, sink_id=snk.id, path=(src.cell, snk.cell),
                           length_km=float(rng.uniform(5, 100)),
                           terrain_cost=float(rng.uniform(20, 2000)))
             for src in sources for snk in sinks if rng.random() >= 0.25]
    return sources, sinks, edges


def stress_instance(n_sources, n_sinks):
    """Every source joined to every sink, each sink able to take five times
    the target of 75% of the supply: the instance of the CI stress step,
    seeded with `default_rng(0)`."""
    rng = np.random.default_rng(0)
    capturable = rng.uniform(0.8e6, 3e6, n_sources)
    capture_cost = rng.uniform(30, 70, n_sources)
    target = round(0.75 * capturable.sum(), -3)
    sources = [SourceNode(id=f"S{i:02d}", cell=i, capturable=float(c), eq_capture_cost=float(p))
               for i, (c, p) in enumerate(zip(capturable, capture_cost))]
    sinks = [SinkNode(id=f"K{j}", cell=100 + j, capacity=round(5 * target, -3),
                      sequestration_cost=float(rng.uniform(4, 12))) for j in range(n_sinks)]
    edges = [CandidateEdge(source_id=s.id, sink_id=k.id, path=(s.cell, k.cell), length_km=1.0,
                           terrain_cost=float(rng.uniform(20, 200)))
             for s in sources for k in sinks]
    return sources, sinks, edges, target


def random_instance(rng, n_sources, n_sinks):
    surface = make_surface(np.round(rng.uniform(0.5, 4.0, (6, 6)), 3),
                           cell_size=5.0)
    cells = rng.choice(36, size=n_sources + n_sinks, replace=False)
    sources = [SourceNode(id=f"S{i}", cell=int(cells[i]),
                          capturable=float(rng.uniform(1e5, 2e6)),
                          eq_capture_cost=float(rng.uniform(10, 80)))
               for i in range(n_sources)]
    sinks = [SinkNode(id=f"K{j}", cell=int(cells[n_sources + j]),
                      capacity=float(rng.uniform(5e5, 3e6)),
                      sequestration_cost=float(rng.uniform(2, 12)))
             for j in range(n_sinks)]
    edges, _ = build_candidates(surface, sources, sinks)
    return sources, sinks, edges


class TestSelectNetwork:
    def test_single_route_arithmetic(self):
        """10 t/yr fits one D1 pipe ($0.45M/km) over 2 terrain-weighted km,
        annualized at 8% over 30 years plus 2%/yr O&M."""
        src = SourceNode(id="S", cell=0, capturable=10, eq_capture_cost=30.0)
        snk = SinkNode(id="K", cell=1, capacity=10, sequestration_cost=5.8)
        edge = CandidateEdge(source_id="S", sink_id="K", path=(0, 1),
                             length_km=1.0, terrain_cost=2.0)
        sol = select_network([src], [snk], [edge], target=10.0)
        pipe = 0.45e6 * 2.0 * (0.08 / (1 - 1.08 ** -30) + 0.02)
        assert [(r.diameter_class, r.pipe_count) for r in sol.routes] == [("D1", 1)]
        assert sol.cost_pipeline == pytest.approx(pipe, rel=1e-12)
        assert sol.total_cost == pytest.approx(10 * (30 + 5.8) + pipe, rel=1e-12)
        assert sol.cost_per_tonne == pytest.approx(30 + 5.8 + pipe / 10, rel=1e-12)

    def test_zero_target(self):
        sol = select_network([], [], [], target=0.0)
        assert sol.routes == [] and sol.total_cost == 0.0

    def test_infeasible_names_binding_side(self):
        src = SourceNode(id="S", cell=0, capturable=5.0, eq_capture_cost=30.0)
        snk = SinkNode(id="K", cell=1, capacity=100.0, sequestration_cost=5.0)
        edge = CandidateEdge(source_id="S", sink_id="K", path=(0, 1),
                             length_km=1.0, terrain_cost=1.0)
        with pytest.raises(NetworkInfeasible) as err:
            select_network([src], [snk], [edge], target=10.0)
        assert "source" in str(err.value).lower()
        snk2 = SinkNode(id="K", cell=1, capacity=2.0, sequestration_cost=5.0)
        with pytest.raises(NetworkInfeasible) as err:
            select_network([src], [snk2], [edge], target=4.0)
        assert "sink" in str(err.value).lower()

    def test_exact_matches_brute_force_small(self):
        """[PRIMARY] exact solver equals assignment enumeration (<=3x2)."""
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(30):
            n_src = int(rng.integers(1, 4))
            n_snk = int(rng.integers(1, 3))
            sources, sinks, edges = random_instance(rng, n_src, n_snk)
            max_target = min(sum(s.capturable for s in sources),
                             sum(k.capacity for k in sinks))
            target = float(rng.uniform(0.2, 0.9)) * max_target
            oracle = brute_force_network(sources, sinks, edges, target)
            try:
                sol = solve_exact(sources, sinks, edges, target)
            except NetworkInfeasible:
                # single-sink-per-source space cannot reach this target
                assert oracle is None
                continue
            assert oracle is not None
            assert sol.total_cost == pytest.approx(oracle[0], abs=1e-6)
            checked += 1
        assert checked >= 20

    def test_exact_blocks_match_scalar_loop(self, monkeypatch):
        """[PRIMARY] the block enumeration returns the very NetworkSolution
        of the one-scalar-evaluation-per-assignment loop, or fails where it
        finds none; so it does when passes and blocks are made small enough
        that most instances take several."""
        seen = {"parallel": 0, "mixed_radix": 0, "integer": 0,
                "infeasible": 0, "blocks": 0}
        checked = 0
        for trial, integer, sources, sinks, edges, target in block_instances():
            oracle = product_order_oracle(sources, sinks, edges, target)
            checked += 1
            for small in (False, True):
                with monkeypatch.context() as patch:
                    if small:
                        small_passes(patch)
                    if oracle is None:
                        with pytest.raises(NetworkInfeasible, match="no assignment reaches"):
                            solve_exact(sources, sinks, edges, target)
                        continue
                    sol = solve_exact(sources, sinks, edges, target)
                    assert sol == oracle[1], f"trial {trial}, small passes {small}"
                    if small:
                        inst = _make_instance(sources, sinks, edges, target, NetworkParams())
                        passes = list(_tight_codes(inst))
                        seen["blocks"] += len(passes) > 1 and sum(map(len, passes)) > 8
            if oracle is None:
                seen["infeasible"] += 1
                continue
            radix = [1 + sum(e.source_id == s.id for e in edges) for s in sources]
            seen["parallel"] += any(r.pipe_count > 1 for r in sol.routes)
            seen["mixed_radix"] += len(set(radix)) > 1
            seen["integer"] += integer
        assert checked >= 50
        assert min(seen.values()) > 0, seen

    def test_tight_codes_are_the_feasible_tight_set(self, monkeypatch):
        """[PRIMARY] on every block-test instance, at the default pass size
        and at 64 codes a pass, `_tight_codes` yields only tight codes, in
        ascending order, and among them every code that a brute-force run of
        the kernel over all codes finds reaching the target with no assigned
        source at zero flow, and no other feasible one."""
        sizes = []
        for trial, integer, sources, sinks, edges, target in block_instances():
            inst = _make_instance(sources, sinks, edges, target, NetworkParams())
            radix, stride = inst.radix, inst.stride

            def feasible_tight(codes):
                digit = codes // stride[:, None] % radix[:, None]
                remaining, flow = inst.allocate(digit)
                tight = ((digit == 0) | (flow > 0)).all(axis=0)
                return tight, codes[tight & (_shortfall(remaining) == 0)]

            _, expected = feasible_tight(np.arange(math.prod(radix.tolist())))
            for small in (False, True):
                with monkeypatch.context() as patch:
                    if small:
                        small_passes(patch)
                    passes = list(_tight_codes(inst))
                codes = np.concatenate(passes)
                assert (np.diff(codes) > 0).all(), f"trial {trial}"
                tight, found = feasible_tight(codes)
                assert tight.all(), f"trial {trial}"
                np.testing.assert_array_equal(found, expected, err_msg=f"trial {trial}")
                sizes.append((len(passes), codes.size, expected.size))
        assert max(p for p, _, _ in sizes) > 1
        assert sum(f for _, _, f in sizes) > 1000, sizes

    def test_exact_search_in_several_passes(self):
        """[PRIMARY] 12 sources and 2 sinks, 3^12 = 531,441 codes, searched in
        several passes: the NetworkSolution of the enumeration of every code,
        with a traced peak under 16 MB."""
        rng = np.random.default_rng(12)
        sources = [SourceNode(id=f"S{i:02d}", cell=i, capturable=float(rng.uniform(0.5e6, 3e6)),
                              eq_capture_cost=float(rng.uniform(30, 70))) for i in range(12)]
        supply = sum(s.capturable for s in sources)
        sinks = [SinkNode(id=f"K{j}", cell=100 + j, capacity=float(rng.uniform(0.3, 0.5)) * supply,
                          sequestration_cost=float(rng.uniform(4, 12))) for j in range(2)]
        edges = [CandidateEdge(source_id=s.id, sink_id=k.id, path=(s.cell, k.cell),
                               length_km=1.0, terrain_cost=float(rng.uniform(20, 2000)))
                 for s in sources for k in sinks]
        target = 0.6 * supply
        inst = _make_instance(sources, sinks, edges, target, NetworkParams())
        assert 3 ** 12 > EXACT_PASS and len(list(_tight_codes(inst))) > 1
        tracemalloc.start()
        try:
            sol = select_network(sources, sinks, edges, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol == every_code_exact(inst)
        assert peak < 16e6, peak

    def test_many_assignments_take_local_search(self, monkeypatch):
        """8 sources and 8 sinks are within EXACT_SOURCE_LIMIT, but their
        9^8 (43 M) assignments exceed EXACT_CODE_LIMIT: local search runs."""
        def refuse(inst):
            raise AssertionError("exact search ran")

        sources, sinks, edges, target = stress_instance(8, 8)
        assert len(sources) <= EXACT_SOURCE_LIMIT and 9 ** 8 > EXACT_CODE_LIMIT
        monkeypatch.setattr(network, "_solve_exact", refuse)
        assert select_network(sources, sinks, edges, target) == \
            solve_local(sources, sinks, edges, target)

    def test_exact_search_at_the_code_limit(self, monkeypatch):
        """12 sources and 3 sinks, 4^12 = EXACT_CODE_LIMIT assignments: the
        exact search runs and returns the network it returned when the
        source count alone picked the search."""
        def refuse(inst):
            raise AssertionError("local search ran")

        monkeypatch.setattr(network, "_solve_local", refuse)
        sol = select_network(*stress_instance(12, 3))
        assert 4 ** 12 == EXACT_CODE_LIMIT
        assert (sol.cost_capture, sol.cost_pipeline, sol.cost_sequestration) == (
            765479129.9795486, 43781524.13324179, 134370202.7825315)
        assert [(r.source_id, r.sink_id, r.flow.hex()) for r in sol.routes] == [
            ("S01", "K1", "0x1.5437ac5311a94p+20"), ("S03", "K0", "0x1.9861198a8ca31p+19"),
            ("S05", "K1", "0x1.56c7f228fb855p+21"), ("S06", "K1", "0x1.049235a74bee6p+21"),
            ("S07", "K0", "0x1.2590e3792b649p+21"), ("S08", "K0", "0x1.e74c6fb317dd3p+20"),
            ("S09", "K1", "0x1.5cc63aa89e404p+21"), ("S10", "K1", "0x1.24a6a00dd920fp+21"),
            ("S11", "K1", "0x1.89911669776b1p+19")]

    @pytest.mark.parametrize("integer", [False, True])
    def test_evaluate_matches_scalar(self, integer):
        """[PRIMARY] the kernel's one-assignment `evaluate` gives the scalar
        reference's cost and NetworkSolution, or None where it does, on the
        instances of the block test: every assignment of the small ones and
        256 drawn at random from each of the others."""
        rng = np.random.default_rng(1414)
        feasible = infeasible = 0
        for trial, flag, sources, sinks, edges, target in block_instances():
            if flag != integer:
                continue
            inst = _make_instance(sources, sinks, edges, target, NetworkParams())
            options = [source_options(s.id, edges) for s in sources]
            combos = list(itertools.product(*options)) if math.prod(map(len, options)) <= 256 \
                else [[o[rng.integers(len(o))] for o in options] for _ in range(256)]
            for combo in combos:
                assignment = {s.id: k for s, k in zip(sources, combo)}
                expected = scalar_evaluate(sources, sinks, edges, target, assignment)
                assert inst.evaluate(assignment) == expected, f"trial {trial}: {assignment}"
                feasible += expected is not None
                infeasible += expected is None
        assert feasible > 500 and infeasible > 500, (feasible, infeasible)

    def test_exact_infeasible_assignment_space(self):
        """Total supply and sink room both cover the target, but no source
        fits one sink, so no assignment reaches it."""
        src = SourceNode(id="S", cell=0, capturable=10, eq_capture_cost=30.0)
        sinks = [SinkNode(id=k, cell=c, capacity=6, sequestration_cost=5.0)
                 for k, c in (("K1", 1), ("K2", 2))]
        edges = [CandidateEdge(source_id="S", sink_id=k.id, path=(0, k.cell),
                               length_km=1.0, terrain_cost=1.0) for k in sinks]
        assert product_order_oracle([src], sinks, edges, 10) is None
        with pytest.raises(NetworkInfeasible, match="no assignment reaches the target"):
            solve_exact([src], sinks, edges, 10)
        with pytest.raises(NetworkInfeasible, match="local search .* stopped 4 short"):
            solve_local([src], sinks, edges, 10)

    def test_amounts_near_the_largest_float(self):
        """Sources of 1e308 t/yr and sinks of 1.7e308: the supply and room
        the exact search sums pass the largest float, which it reads as more
        than any target, with no overflow warning."""
        sources = [SourceNode(id=s, cell=i, capturable=1e308, eq_capture_cost=1e-300)
                   for i, s in enumerate("AB")]
        sinks = [SinkNode(id=k, cell=2 + j, capacity=1.7e308, sequestration_cost=1e-300)
                 for j, k in enumerate(("K1", "K2"))]
        edges = [CandidateEdge(source_id=s.id, sink_id=k.id, path=(s.cell, k.cell),
                               length_km=1.0, terrain_cost=1.0 + j)
                 for s in sources for j, k in enumerate(sinks)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = select_network(sources, sinks, edges, 1.5e308)
        assert sum(r.flow for r in sol.routes) == 1.5e308
        assert math.isfinite(sol.total_cost)

    def test_exact_keeps_first_feasible_at_infinite_cost(self):
        """Every feasible assignment costs inf: the first one is kept, as the
        scalar loop keeps it, instead of none."""
        src = SourceNode(id="S", cell=0, capturable=10.0, eq_capture_cost=math.inf)
        sinks = [SinkNode(id=k, cell=c, capacity=10.0, sequestration_cost=5.0)
                 for k, c in (("K1", 1), ("K2", 2))]
        edges = [CandidateEdge(source_id="S", sink_id=k.id, path=(0, k.cell),
                               length_km=1.0, terrain_cost=1.0) for k in sinks]
        sol = solve_exact([src], sinks, edges, 10.0)
        assert sol == product_order_oracle([src], sinks, edges, 10.0)[1]
        assert sol.sink_inflows == {"K1": 10.0}

    @pytest.mark.parametrize("delta, sink", [(0.0, "K1"), (5e-10, "K1"), (2e-9, "K2")])
    def test_mirror_sinks_tie_keeps_first(self, delta, sink):
        """K2 costs `delta` less per tonne than K1 for one tonne: a saving of
        at most 1e-9 keeps K1, the earlier option in product order."""
        src = SourceNode(id="S", cell=0, capturable=1.0, eq_capture_cost=30.0)
        sinks = [SinkNode(id="K1", cell=1, capacity=1.0, sequestration_cost=5.0),
                 SinkNode(id="K2", cell=2, capacity=1.0, sequestration_cost=5.0 - delta)]
        edges = [CandidateEdge(source_id="S", sink_id=k.id, path=(0, k.cell),
                               length_km=1.0, terrain_cost=1.0)
                 for k in sinks]
        sol = solve_exact([src], sinks, edges, 1.0)
        assert [(r.source_id, r.sink_id) for r in sol.routes] == [("S", sink)]
        assert sol == product_order_oracle([src], sinks, edges, 1.0)[1]

    def test_local_search_starts_at_cheapest_sink(self):
        """The greedy start sends each source to its cheapest linear-rate
        sink, ties to the lower id, and no move away from it is cheaper by
        more than 1e-9: K1 on a tie, K2 when it is 5e-10 $/t cheaper."""
        src = SourceNode(id="S", cell=0, capturable=1.0, eq_capture_cost=30.0)
        for delta, sink in ((0.0, "K1"), (5e-10, "K2")):
            sinks = [SinkNode(id="K1", cell=1, capacity=1.0, sequestration_cost=5.0),
                     SinkNode(id="K2", cell=2, capacity=1.0, sequestration_cost=5.0 - delta)]
            edges = [CandidateEdge(source_id="S", sink_id=k.id, path=(0, k.cell),
                                   length_km=1.0, terrain_cost=1.0)
                     for k in sinks]
            sol = solve_local([src], sinks, edges, 1.0)
            assert [(r.source_id, r.sink_id) for r in sol.routes] == [("S", sink)]

    def test_mirror_sources_tie_keeps_first(self):
        """Two identical sources, room for one: product order reaches
        (S1 unused, S2 -> K) before (S1 -> K, S2 unused), so S2 ships."""
        sources = [SourceNode(id=s, cell=c, capturable=10.0, eq_capture_cost=30.0)
                   for s, c in (("S1", 0), ("S2", 1))]
        snk = SinkNode(id="K", cell=2, capacity=10.0, sequestration_cost=5.0)
        edges = [CandidateEdge(source_id=s.id, sink_id="K", path=(s.cell, 2),
                               length_km=1.0, terrain_cost=3.0) for s in sources]
        sol = solve_exact(sources, [snk], edges, 10.0)
        assert sol.source_flows == {"S2": 10.0}

    def test_heuristic_parity_up_to_12_sources(self):
        """[PRIMARY] local search gap 0 vs exact on <=12-source instances."""
        rng = np.random.default_rng(87)
        for n_src in (4, 8, 12):
            sources, sinks, edges = random_instance(rng, n_src, 2)
            # generous sinks so every assignment can carry the target
            total = sum(s.capturable for s in sources)
            sinks = [SinkNode(id=k.id, cell=k.cell, capacity=total,
                              sequestration_cost=k.sequestration_cost)
                     for k in sinks]
            target = 0.6 * total
            exact = solve_exact(sources, sinks, edges, target)
            heur = solve_local(sources, sinks, edges, target)
            assert heur.total_cost == pytest.approx(exact.total_cost, abs=1e-6)

    def test_local_search_leaves_no_cheaper_single_move(self):
        """Above EXACT_SOURCE_LIMIT, no single-source reassignment of the
        reported routes (a source to another sink, to a sink from no route,
        or to no route) is cheaper by more than 1e-9 $/yr, on 30 random
        corridor instances of 13-20 sources with binding sinks."""
        rng = np.random.default_rng(31)
        for trial in range(30):
            n_src = int(rng.integers(EXACT_SOURCE_LIMIT + 1, 21))
            sources, sinks, edges = corridor_instance(rng, n_src, int(rng.integers(2, 5)))
            connected = {e.source_id for e in edges}
            max_target = min(sum(s.capturable for s in sources if s.id in connected),
                             sum(k.capacity for k in sinks))
            target = float(rng.uniform(0.2, 0.9)) * max_target
            sol = select_network(sources, sinks, edges, target)
            routes = {s.id: None for s in sources}
            routes.update({r.source_id: r.sink_id for r in sol.routes})
            cost, _ = scalar_evaluate(sources, sinks, edges, target, routes)
            assert cost == pytest.approx(sol.total_cost, rel=1e-12), f"trial {trial}"
            for s in sources:
                for option in source_options(s.id, edges):
                    moved = scalar_evaluate(sources, sinks, edges, target,
                                            {**routes, s.id: option})
                    assert moved is None or moved[0] >= cost - 1e-9, (
                        f"trial {trial}: {s.id} -> {option} saves {cost - moved[0]:g} $/yr")

    def test_local_search_closes_shortfall(self):
        """13 sources of 1 Mt/yr, two sinks of 7.15 Mt/yr, target 13 Mt/yr.
        The greedy start sends every source to the cheaper sink K1, which
        holds 7.15 Mt/yr; moves to K2 close the gap, then the cost falls."""
        sources = [SourceNode(id=f"S{i:02d}", cell=i, capturable=1e6,
                              eq_capture_cost=30.0 + i) for i in range(13)]
        sinks = [SinkNode(id=k, cell=c, capacity=7.15e6, sequestration_cost=cost)
                 for k, c, cost in (("K1", 20, 5.0), ("K2", 21, 6.0))]
        edges = [CandidateEdge(source_id=s.id, sink_id=k.id, path=(s.cell, k.cell),
                               length_km=10.0, terrain_cost=10.0 + s.cell)
                 for s in sources for k in sinks]
        sol = select_network(sources, sinks, edges, 13e6)
        assert sum(sol.source_flows.values()) == pytest.approx(13e6, rel=1e-12)
        assert all(v <= 7.15e6 for v in sol.sink_inflows.values())
        assert len(sol.routes) == 13
        assert sol == scalar_evaluate(
            sources, sinks, edges, 13e6, {r.source_id: r.sink_id for r in sol.routes})[1]

    def test_flow_conservation(self):
        rng = np.random.default_rng(5)
        sources, sinks, edges = random_instance(rng, 3, 2)
        max_target = min(sum(s.capturable for s in sources),
                         sum(k.capacity for k in sinks))
        target = 0.7 * max_target
        sol = select_network(sources, sinks, edges, target)
        assert sum(sol.source_flows.values()) == pytest.approx(target, abs=1e-6)
        assert sum(sol.sink_inflows.values()) == pytest.approx(target, abs=1e-6)
        for route in sol.routes:
            src = next(s for s in sources if s.id == route.source_id)
            snk = next(k for k in sinks if k.id == route.sink_id)
            assert route.flow <= src.capturable + 1e-9
            assert sol.sink_inflows[snk.id] <= snk.capacity + 1e-9
            cls = next(c for c in DEFAULT_PIPELINE_CLASSES if c.name == route.diameter_class)
            assert route.flow <= cls.capacity * route.pipe_count + 1e-9

    def test_monotone_in_target(self):
        rng = np.random.default_rng(13)
        sources, sinks, edges = random_instance(rng, 3, 2)
        max_target = min(sum(s.capturable for s in sources),
                         sum(k.capacity for k in sinks))
        costs = [select_network(sources, sinks, edges, f * max_target).total_cost
                 for f in (0.25, 0.5, 0.75)]
        assert costs == sorted(costs)


    def test_cost_ordering_differs_from_size(self):
        """Heterogeneous equivalent capture costs: the cheap small source
        meets the target, not the big expensive one."""
        cheap_small = SourceNode(id="small", cell=0, capturable=5.0,
                                 eq_capture_cost=10.0)
        dear_big = SourceNode(id="big", cell=1, capturable=50.0,
                              eq_capture_cost=60.0)
        snk = SinkNode(id="K", cell=2, capacity=100.0, sequestration_cost=5.0)
        edges = [CandidateEdge(source_id=s.id, sink_id="K", path=(s.cell, 2),
                               length_km=1.0, terrain_cost=1.0)
                 for s in (cheap_small, dear_big)]
        sol = select_network([cheap_small, dear_big], [snk], edges, target=5.0)
        assert sol.source_flows == {"small": pytest.approx(5.0)}
