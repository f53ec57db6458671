import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from coplant import cli
from coplant.domain import DomainError
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
    _greedy_start,
    _Instance,
    _make_instance,
    _replaces,
    _shortfall,
    _solve_exact,
    _solve_local,
    _tight_codes,
    select_network,
    size_pipeline,
)
from coplant.sinknet.raster import (
    MAX_MAGNITUDE,
    CostSurface,
    RasterFormatError,
    load_raster,
    write_raster,
)
from coplant.sinknet import routing
from coplant.sinknet.routing import (
    MAX_CORRIDOR_COST,
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

    @pytest.mark.parametrize("bad", [-2.0, math.nextafter(MAX_MAGNITUDE, math.inf), 1e300])
    def test_cell_out_of_range_rejected(self, bad):
        """An open cell below 0 or above the magnitude bound is named by
        row and column; a cell at the bound and a nodata cell are not."""
        make_surface([[1, MAX_MAGNITUDE], [-9999, 0]])
        with pytest.raises(RasterFormatError, match=re.escape(
                f"cost cell {bad!r} at row 1, col 0 is outside [0, 1e+15]")):
            make_surface([[1, MAX_MAGNITUDE], [bad, 0]])

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
        ({"origin": (0.0, -math.inf)}, "XLLCORNER and YLLCORNER must be finite numbers"),
        ({"cell_size": 2e15}, "CELLSIZE must be at most 1e\\+15, got 2000000000000000.0")])
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
         ":6: non-numeric cell value 'x'"),
        ("NCOLS 3\r\nNROWS 3\r\nCELLSIZE 1\r\n\r\n1 1 1\r\n\r\n\r\n1 1 1\r\n1 1 x\r\n",
         ":9: non-numeric cell value 'x'"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1\n2\n\n3\nx\n4\n5\n6\n7\n",
         ":8: non-numeric cell value 'x'"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n\n\nfoo 1 1\n1 1 1\n1 1 1\n",
         ":6: non-numeric cell value 'foo'"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1 1\n\n\n1e 1\n",
         ":7: non-numeric cell value '1e'"),
        # a comment sign is a token like any other, not the end of the line
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1 1 1\n1 # 1\n1 1 1\n",
         ":5: non-numeric cell value '#'"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1 1 1\n1 1 1\n1 1 1 #\n",
         ":6: non-numeric cell value '#'"),
        # float() takes these two, numpy's tokenizer does not
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1 1 1\n1 1_000 1\n1 1 1\n",
         ":5: non-numeric cell value '1_000'"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1 1 1\n1 1 1\n1 1 \u0661\u0662\n",
         ":6: non-numeric cell value '\u0661\u0662'"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n1 1 1\n1,2 1\n1 1 1\n",
         ":5: non-numeric cell value '1,2'"),
        ("NCOLS 3\nNROWS 3\nCELLSIZE 1\n" + " ".join(["1"] * 500 + ["0x1"] + ["1"] * 99),
         ":4: non-numeric cell value '0x1'")])
    def test_load_data_section_rejected(self, tmp_path, text, message):
        path = tmp_path / "g.asc"
        path.write_text(text)
        with pytest.raises(RasterFormatError) as err:
            load_raster(path)
        assert str(err.value) == f"{path}{message}"

    def test_non_numeric_cell_exits_3_naming_its_line(self, tmp_path, capsys):
        """`1_000`, which `float()` reads, is refused as input (exit 3) with
        its file and line, and no traceback."""
        (tmp_path / "cost.asc").write_text("NCOLS 3\nNROWS 2\nCELLSIZE 1\n1 1 1\n1 1_000 1\n")
        (tmp_path / "sources.csv").write_text("id,row,col,capturable,capture_cost\n")
        (tmp_path / "sinks.csv").write_text("id,row,col,capacity,sequestration_cost\n")
        assert cli.main(["netopt", "--surface", str(tmp_path / "cost.asc"),
                         "--sources", str(tmp_path / "sources.csv"),
                         "--sinks", str(tmp_path / "sinks.csv"),
                         "--target", "0", "-o", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'cost.asc'}:5: non-numeric cell value '1_000'" in err
        assert "Traceback" not in err

    def test_write_read_round_trip_random_bits(self, tmp_path):
        """10,000 random bit patterns, all finite values in [0, MAX_MAGNITUDE]
        from subnormals up, load back bit for bit."""
        bits = np.random.default_rng(34).integers(0, 2**63, size=40_000, dtype=np.uint64)
        values = bits.view(np.float64)
        cells = values[values <= MAX_MAGNITUDE][:10_000].reshape(100, 100)
        surface = make_surface(cells, nodata=-1.0)
        path = tmp_path / "g.asc"
        write_raster(surface, path)
        assert load_raster(path).cells.tobytes() == cells.tobytes()

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

    def test_write_read_round_trip_exact(self, tmp_path):
        """Random float cells, cell size, corners and nodata value load back
        bit for bit; `:g` keeps 6 digits, which changed them.  Values that
        `:g` writes exactly, such as cells rounded to 3 decimals, keep its
        form, so such a file's bytes are unchanged."""
        rng = np.random.default_rng(12)
        cells = rng.uniform(0.0, 5.0, size=(7, 9))
        cells[rng.random((7, 9)) < 0.2] = -9876.54321
        cells[0, :3] = [0.0, 1e-7 / 3, 12345678.9]
        surface = make_surface(cells, cell_size=float(rng.uniform(0.1, 3.0)),
                               nodata=-9876.54321, origin=(float(rng.uniform(-1e6, 1e6)), 1 / 3))
        path = tmp_path / "g.asc"
        write_raster(surface, path)
        back = load_raster(path)
        assert back.cells.tobytes() == surface.cells.tobytes()
        assert (back.cell_size, back.origin, back.nodata) == \
            (surface.cell_size, surface.origin, surface.nodata)
        rounded = np.round(rng.uniform(1.0, 3.0, size=(4, 5)), 3)
        rounded[1, 2:4] = -9999.0
        write_raster(make_surface(rounded, cell_size=5.0), path)
        assert path.read_text().splitlines()[2:] == [
            "XLLCORNER 0", "YLLCORNER 0", "CELLSIZE 5", "NODATA_VALUE -9999",
            *(" ".join(f"{v:g}" for v in row) for row in rounded)]

    @pytest.mark.parametrize("data", [
        "1e-3 2.5E+2 +1.5\n0 1E0 +0.25e1\n-9999 4.75 .5\n",
        "1\t2.125\t3\n\t4 5\t6\n7 8 9\n",
        "1 2 3\r\n4 5 6\r\n7 8 9\r\n",
        "\n1 2 3\n\n\n4 5 6\n  \n7 8 9\n\n",
        "1\n2\n3\n4\n5\n6\n7\n8\n9\n",
        "1 2 3 4 5 6 7 8 9",
        "1 2\n3\n4 5\n6\n7 8\n9\n",
        "0.1 0.2 0.30000000000000004\n1.7976931348623157e308 5e-324 2.2250738585072014e-308\n"
        "123456789012345678901234567890 0.1e1 -0.0\n",
        "0.1 0.2 0.30000000000000004\n999999999999999.9 5e-324 2.2250738585072014e-308\n"
        "123456789012345.678901234567890 0.1e1 -0.0\n"])
    def test_parse_matches_float_per_token(self, tmp_path, data):
        """The data section parses to what `float()` gives each token, bit
        for bit: exponents, a leading '+', `-0.0`, tabs, CRLF line ends, blank
        lines, one value per line, all on one or each row over two.  A surface
        with a cell above the magnitude bound is rejected, naming the first
        such cell by the exact value `float()` gives it."""
        path = tmp_path / "g.asc"
        path.write_bytes(f"NCOLS 3\nNROWS 3\nCELLSIZE 1\n{data}".encode())
        oracle = np.array([float(token) for token in data.split()]).reshape(3, 3)
        above = np.argwhere(oracle > MAX_MAGNITUDE)
        if above.size:
            r, c = above[0]
            with pytest.raises(RasterFormatError, match=re.escape(
                    f"cost cell {float(oracle[r, c])!r} at row {r}, col {c} is outside")):
                load_raster(path)
        else:
            assert load_raster(path).cells.tobytes() == oracle.tobytes()


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


def recording_searches(monkeypatch):
    """Patch `routing.dijkstra` to record the (sink cell, limit) of each
    search, the limit None for an unlimited one, and return the list it
    fills."""
    searches = []

    def recording(graph, **kwargs):
        searches.append((kwargs["indices"], kwargs.get("limit")))
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(routing, "dijkstra", recording)
    return searches


def search_kinds(searches, sinks):
    """(kind, first limit) of each sink's searches, in input order, from the
    recorded searches: "accepted" for one limited search, "refused" for a
    limited search run again without a limit, "unlimited" for one search
    without a limit."""
    kinds, at = [], 0
    for snk in sinks:
        cell, limit = searches[at]
        assert cell == snk.cell
        if limit is None:
            kinds.append(("unlimited", None))
        elif searches[at + 1:at + 2] == [(snk.cell, None)]:
            kinds.append(("refused", limit))
            at += 1
        else:
            kinds.append(("accepted", limit))
        at += 1
    assert at == len(searches)
    return kinds


def coo_cost_graph(surface):
    """The step graph as a COO build gives it: each undirected step's cost
    computed from the two cells, stored both ways, converted to CSR."""
    cells, open_ = surface.cells, ~surface.is_nodata
    index = np.arange(surface.n_cells, dtype=np.int32).reshape(cells.shape)
    tails, heads, weights = [], [], []
    for a, b, diag in ((np.s_[:, :-1], np.s_[:, 1:], 1.0), (np.s_[:-1, :], np.s_[1:, :], 1.0),
                       (np.s_[:-1, :-1], np.s_[1:, 1:], SQRT2),
                       (np.s_[:-1, 1:], np.s_[1:, :-1], SQRT2)):
        keep = open_[a] & open_[b]
        u, v = index[a][keep], index[b][keep]
        w = 0.5 * (cells[a][keep] + cells[b][keep]) * surface.cell_size * diag
        tails += [u, v]
        heads += [v, u]
        weights += [w, w]
    return csr_array((np.concatenate(weights), (np.concatenate(tails), np.concatenate(heads))),
                     shape=(surface.n_cells, surface.n_cells))


def graph_surfaces():
    """The rasters of the step-graph tests: the surfaces of
    `walled_instance` seeds 0-5, then one cell, one row, a column cut by a
    nodata cell and a 2 x 2 block of free cells."""
    return [walled_instance(seed)[0] for seed in range(6)] + [make_surface(cells) for cells in (
        [[2.0]], [[1.0, 0.0, 3.0]], [[1.0], [-9999.0], [2.0], [0.5]], np.zeros((2, 2)))]


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
    corridor to K1; A is K1's farthest source, so a bound on K2's search by
    the triangle inequality through K1, d(A, K1) + d(K1, K2), is exactly
    A's distance from K2."""
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

    def test_cost_graph_matches_coo_build(self):
        """The step graph has exactly eight entries per cell; its loops all
        weigh +0.0, and with them dropped its arrays are those a COO build
        gives, index dtypes and weight bits included: on walled rasters with
        free cells, and on one cell, one row and one column."""
        for surface in graph_surfaces():
            graph, coo = routing._cost_graph(surface), coo_cost_graph(surface)
            assert (np.diff(graph.indptr) == 8).all()
            tails = np.repeat(np.arange(surface.n_cells), 8)
            loop = graph.indices == tails
            assert graph.data[loop].tobytes() == np.zeros(loop.sum()).tobytes()
            indptr = np.concatenate(([0], np.cumsum((~loop).reshape(-1, 8).sum(axis=1))))
            dropped = {"indptr": indptr.astype(graph.indptr.dtype),
                       "indices": graph.indices[~loop], "data": graph.data[~loop]}
            for name, built in dropped.items():
                expected = getattr(coo, name)
                assert built.dtype == expected.dtype
                assert built.tobytes() == expected.tobytes()

    def test_searches_match_coo_build(self):
        """[PRIMARY] A search over the step graph, loops and all, gives the
        distances and predecessors, to the bit, of the same search over the
        COO build without loops: from every sink of the walled and one-row
        instances and from every cell of the small rasters, unlimited and
        limited to several fractions of the farthest distance and to the
        exact distance of a reached cell."""
        starts = [(surface, [k.cell for k in sinks]) for surface, _, sinks in
                  [walled_instance(seed) for seed in range(6)]
                  + [tight_row_instance(seed) for seed in range(8)]]
        starts += [(surface, range(surface.n_cells)) for surface in graph_surfaces()[6:]]
        limited = 0
        for surface, cells in starts:
            graph, coo = routing._cost_graph(surface), coo_cost_graph(surface)
            for cell in cells:
                full = dijkstra(coo, indices=cell)
                reached = np.sort(full[np.isfinite(full)])
                for limit in (np.inf, *(f * reached[-1] for f in (0.0, 0.3, 0.7)),
                              reached[len(reached) // 2]):
                    got = dijkstra(graph, indices=cell, return_predecessors=True, limit=limit)
                    want = dijkstra(coo, indices=cell, return_predecessors=True, limit=limit)
                    for a, b in zip(got, want):
                        assert a.tobytes() == b.tobytes(), (cell, limit)
                    cut = np.isinf(want[0]).sum() > np.isinf(full).sum()
                    limited += bool(np.isfinite(limit) and cut)
        assert limited >= 50

    def test_accepted_limits_pass_the_farthest_source(self, monkeypatch):
        """Every limited search whose result stands was limited to at least
        the distance of the sink's farthest reachable source, from an
        unlimited csgraph search, plus the costliest step of the graph."""
        searches = recording_searches(monkeypatch)
        instances = [walled_instance(seed) for seed in range(6)]
        instances += [tight_row_instance(seed) for seed in range(8)]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            surface = make_surface(np.round(rng.uniform(0.5, 5.0, size=(20, 20)), 3))
            picks = rng.choice(surface.n_cells, size=12, replace=False)
            instances.append((
                surface,
                [SourceNode(id=f"S{i}", cell=int(c), capturable=10, eq_capture_cost=30)
                 for i, c in enumerate(picks[:9])],
                [SinkNode(id=f"K{j}", cell=int(c), capacity=10, sequestration_cost=5)
                 for j, c in enumerate(picks[9:])]))
        accepted = 0
        for surface, sources, sinks in instances:
            searches.clear()
            build_candidates(surface, sources, sinks)
            graph = step_graph(surface)
            for snk, (kind, limit) in zip(sinks, search_kinds(searches, sinks)):
                if kind != "accepted":
                    continue
                dist = dijkstra(graph, indices=snk.cell)
                farthest = max((dist[s.cell] for s in sources if np.isfinite(dist[s.cell])),
                               default=0.0)
                assert limit >= farthest + graph.data.max()
                accepted += 1
        assert accepted >= 40

    def test_short_estimate_searched_again(self, monkeypatch):
        """A wall across the raster whose only gap lies far from the straight
        line: K1's estimate falls short of the detour to source A, so its
        limited search is refused and run again without a limit.  That
        search's detour ratio, 2.3, then lengthens K2's estimate, and
        K2's limited search stands; with a ratio of 1 it would be refused
        too.  The corridors are still those of `candidates_oracle`."""
        searches = recording_searches(monkeypatch)
        cells = np.round(np.random.default_rng(3).uniform(0.5, 1.5, size=(30, 30)), 3)
        cells[:29, 15] = -9999.0
        surface = make_surface(cells)
        sources = [SourceNode(id="A", cell=surface.index(1, 4), capturable=10,
                              eq_capture_cost=30),
                   SourceNode(id="B", cell=surface.index(3, 26), capturable=10,
                              eq_capture_cost=30)]
        sinks = [SinkNode(id=f"K{j}", cell=surface.index(r, c), capacity=10,
                          sequestration_cost=5) for j, (r, c) in enumerate([(2, 25), (4, 27)], 1)]
        assert build_candidates(surface, sources, sinks) == \
            candidates_oracle(surface, sources, sinks)
        kinds = search_kinds(searches, sinks)
        assert [kind for kind, _ in kinds] == ["refused", "accepted"]
        dist = dijkstra(step_graph(surface), indices=sinks[1].cell)
        walk = np.mean(cells[cells != -9999.0]) * (23 + (SQRT2 - 1) * 3)
        assert routing.REACH_FACTOR * walk < dist[sources[0].cell] < kinds[1][1]

    def test_one_refused_search_per_component(self, monkeypatch):
        """With sources in several components, the first sink searched in a
        component is refused, since a source elsewhere is out of its reach,
        and searched again without a limit.  A later sink that search reached
        checks only the sources it reached, so its limited search stands."""
        searches = recording_searches(monkeypatch)
        for seed in range(6):
            surface, sources, sinks = walled_instance(seed)
            searches.clear()
            assert build_candidates(surface, sources, sinks) == \
                candidates_oracle(surface, sources, sinks)
            component = connected_components(step_graph(surface), directed=False)[1]
            searched = set()
            kinds = [kind for kind, _ in search_kinds(searches, sinks)]
            for snk, kind in zip(sinks, kinds):
                label = component[snk.cell]
                assert kind == ("accepted" if label in searched else "refused"), f"seed {seed}"
                searched.add(label)
            assert 0 < kinds.count("refused") < len(sinks)

    def test_estimate_finite_at_the_bound(self, monkeypatch):
        """Cells and cell size at the magnitude bound, and a mean multiplier
        a fifth of the costliest, as a walled-off block of free cells makes
        it: K1's estimate falls short, so its search is refused and run again
        without a limit, and the detour ratio of 5 it records lets K2's
        limited search stand.  Every limit is finite, no RuntimeWarning
        escapes, and the corridors are those of `candidates_oracle`."""
        searches = recording_searches(monkeypatch)
        cells = np.zeros((6, 12))
        cells[0] = MAX_MAGNITUDE
        cells[1] = -9999.0
        surface = make_surface(cells, cell_size=MAX_MAGNITUDE)
        sources = [SourceNode(id="S", cell=0, capturable=10, eq_capture_cost=30)]
        sinks = [SinkNode(id=f"K{j}", cell=c, capacity=10, sequestration_cost=5)
                 for j, c in enumerate([11, 10], 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = build_candidates(surface, sources, sinks)
        assert found == candidates_oracle(surface, sources, sinks)
        assert [kind for kind, _ in search_kinds(searches, sinks)] == ["refused", "accepted"]
        assert all(math.isfinite(limit) for _, limit in searches if limit is not None)
        assert found[0][0].terrain_cost == pytest.approx(11 * MAX_MAGNITUDE ** 2, rel=1e-15)

    @pytest.mark.parametrize("nodata", [np.finfo(float).max, -np.finfo(float).max])
    def test_largest_nodata_value_raises_no_warning(self, nodata):
        """Adjacent nodata cells whose value would overflow any sum give no
        RuntimeWarning, and the corridors are those of `candidates_oracle`."""
        cells = np.ones((3, 4))
        cells[0, 1:3] = cells[1, 1:3] = nodata
        surface = make_surface(cells, nodata=nodata)
        sources = [SourceNode(id="S", cell=0, capturable=10, eq_capture_cost=30)]
        sinks = [SinkNode(id="K", cell=3, capacity=10, sequestration_cost=5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = build_candidates(surface, sources, sinks)
        assert found == candidates_oracle(surface, sources, sinks)
        assert found[0][0].path == (0, 4, 9, 10, 7, 3)

    @pytest.mark.parametrize("make, message", [
        (lambda v: SourceNode("S", 0, v, 1.0), "source capturable"),
        (lambda v: SourceNode("S", 0, 1.0, -v), "source capture_cost"),
        (lambda v: SinkNode("K", 0, v, 1.0), "sink capacity"),
        (lambda v: SinkNode("K", 0, 1.0, v), "sink sequestration_cost")],
        ids=["capturable", "capture_cost", "capacity", "sequestration_cost"])
    def test_nodes_check_the_bound(self, make, message):
        """A node's amount and |cost| may sit at the magnitude bound; above
        it, or not finite, they are rejected, and so is a negative amount."""
        make(MAX_MAGNITUDE)
        for bad in (math.nextafter(MAX_MAGNITUDE, math.inf), math.inf, math.nan):
            with pytest.raises(DomainError, match=message + " must be a finite number of "
                               "magnitude at most 1e\\+15"):
                make(bad)
        if message in ("source capturable", "sink capacity"):
            with pytest.raises(DomainError, match=message + " must be >= 0, got -1.0"):
                make(-1.0)
        else:
            make(-1.0)

    @pytest.mark.parametrize("cost", [-1.0, math.nextafter(MAX_CORRIDOR_COST, math.inf),
                                      math.nan])
    def test_corridor_checks_the_bound(self, cost):
        CandidateEdge("S", "K", (0, 1), 1.0, MAX_CORRIDOR_COST)
        with pytest.raises(DomainError, match="corridor S -> K: terrain cost must be a "
                           "finite number in \\[0, 1e\\+60\\]"):
            CandidateEdge("S", "K", (0, 1), 1.0, cost)

    def test_nodes_on_nodata_or_off_the_raster_rejected(self):
        """A node on a nodata cell, or a cell off the raster, is an input
        error (DomainError), not a bare ValueError."""
        surface = make_surface([[1, -9999], [1, 1]])
        sinks = [SinkNode(id="K", cell=3, capacity=1, sequestration_cost=1)]
        with pytest.raises(DomainError, match="node S sits on a nodata cell"):
            build_candidates(surface, [SourceNode(id="S", cell=1, capturable=1,
                                                  eq_capture_cost=1)], sinks)
        with pytest.raises(DomainError, match=r"cell \(row 2, col 0\) is outside the 2x2"):
            surface.index(2, 0)

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

def scalar_column(sources, sinks, edges, target, assignment, params=None):
    """Reference allocation and costing of one assignment (source id -> sink
    id or None), one source at a time: sources with a sink take flow in
    ascending linear rate (capture + sequestration), ties to the lower id,
    each min(capturable, sink room, remaining) while more than 1e-12 remains;
    then each shipping source adds its capture, pipeline and sequestration
    cost in id order.  Returns (remaining target, flow and pipe cost per
    shipping source id, (capture, pipeline, sequestration) totals)."""
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

    cost_capture = cost_pipeline = cost_seq = 0.0
    pipes = {}
    for s, f in sorted(flows.items()):
        k = assignment[s]
        _, _, capex_km = size_pipeline(f, params.classes)
        pipes[s] = capex_km * edge_of[(s, k)].terrain_cost * params.annual_factor
        cost_capture += src[s].eq_capture_cost * f
        cost_seq += snk[k].sequestration_cost * f
        cost_pipeline += pipes[s]
    return remaining, flows, pipes, (cost_capture, cost_pipeline, cost_seq)


def scalar_evaluate(sources, sinks, edges, target, assignment, params=None):
    """`scalar_column` as a NetworkSolution; None if more than 1e-6 of the
    target is left."""
    params = params or NetworkParams()
    remaining, flows, pipes, (cost_capture, cost_pipeline, cost_seq) = scalar_column(
        sources, sinks, edges, target, assignment, params)
    if remaining > 1e-6:
        return None
    edge_of = {(e.source_id, e.sink_id): e for e in edges}
    routes = []
    for s, f in sorted(flows.items()):
        edge = edge_of[(s, assignment[s])]
        cls, count, _ = size_pipeline(f, params.classes)
        routes.append(RouteFlow(
            source_id=s, sink_id=edge.sink_id, path=edge.path, length_km=edge.length_km,
            diameter_class=cls.name, pipe_count=count, flow=f, annual_cost=pipes[s]))
    solution = NetworkSolution(
        routes=routes, target=target, cost_capture=cost_capture,
        cost_pipeline=cost_pipeline, cost_sequestration=cost_seq)
    return solution.total_cost, solution


def flow_by(sol, node):
    """Flow per source (`node` "source_id") or sink ("sink_id") over the
    solution's routes."""
    flows = {}
    for r in sol.routes:
        flows[getattr(r, node)] = flows.get(getattr(r, node), 0.0) + r.flow
    return flows


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


def local_search_block(inst, rng, columns=50):
    """At least `columns` assignments shaped like local-search steps: around
    the assignment with no sink, the greedy start and then random
    assignments, each step the assignment itself and then every
    single-source move from it (sources by id, options in order)."""
    rows = np.array([i for i, r in enumerate(inst.radix) for _ in range(r)], dtype=int)
    options = np.array([d for r in inst.radix for d in range(r)], dtype=int)
    steps, current = [], np.zeros(len(inst.radix), dtype=int)
    while sum(step.shape[1] for step in steps) < columns:
        step = np.repeat(current[:, None], options.size + 1, axis=1)
        step[rows, np.arange(1, options.size + 1)] = options
        steps.append(step)
        current = _greedy_start(inst) if len(steps) == 1 else rng.integers(0, inst.radix)
    return np.concatenate(steps, axis=1)


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


def negative_instances():
    """Block-test-shaped instances from `corridor_instance` with negative
    capture costs, target at 30-100% of the most the connected sources and
    the sinks can take."""
    rng = np.random.default_rng(1960)
    for trial in range(20):
        integer = trial % 2 == 1
        sources, sinks, edges = corridor_instance(
            rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)), integer, negative=True)
        connected = {e.source_id for e in edges}
        target = float(rng.uniform(0.3, 1.0)) * min(
            sum(s.capturable for s in sources if s.id in connected),
            sum(k.capacity for k in sinks))
        if target > 0:
            yield f"negative {trial}", integer, sources, sinks, edges, target


def corridor_instance(rng, n_sources, n_sinks, integer=False, negative=False):
    """Nodes joined by random corridors instead of a raster: about a quarter
    of the pairs have no corridor, and on the larger scale flows pass the
    27 Mt/yr of the largest pipe.  Sources are listed out of id order.  With
    `integer`, amounts are ints and unit costs are ints from three values
    each, so linear rates often tie.  With `negative`, capture costs start at
    -60 instead of 10, so most linear rates are negative."""
    scale = float(rng.choice([3e6, 9e7]))

    def amount():
        value = rng.uniform(0.1, 1.0) * scale
        return int(value) if integer else float(value)

    def unit_cost(lo, hi):
        return int(rng.integers(lo, lo + 3)) if integer else float(rng.uniform(lo, hi))

    sources = [SourceNode(id=f"S{i:02d}", cell=i, capturable=amount(),
                          eq_capture_cost=unit_cost(-60, 10) if negative else unit_cost(10, 80))
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

    def test_bounded_tight_codes_keep_the_least_band(self, monkeypatch):
        """[PRIMARY] on every block-test instance and on corridor instances
        with negative capture costs, at the default pass size and at 64 codes
        a pass, `_tight_codes` bounded by the least total of any assignment
        (that of `every_code_exact`), or by none found yet, still yields
        every feasible tight code whose total is within 1e-9 of that least
        total; the bound drops most of the others."""
        kept = total = negative = 0
        for trial, integer, sources, sinks, edges, target in itertools.chain(
                block_instances(), negative_instances()):
            inst = _make_instance(sources, sinks, edges, target, NetworkParams())
            best = every_code_exact(inst)
            if best is None:
                continue
            negative += best.total_cost < 0
            codes = np.arange(math.prod(inst.radix.tolist()))
            digit = codes // inst.stride[:, None] % inst.radix[:, None]
            remaining, flow = inst.allocate(digit)
            capture, pipeline, seq, _ = inst.cost(digit, flow)
            tight = ((digit == 0) | (flow > 0)).all(axis=0) & (_shortfall(remaining) == 0)
            band = codes[tight & ((capture + pipeline) + seq <= best.total_cost + 1e-9)]
            assert band.size, f"trial {trial}"
            for small, bound in itertools.product((False, True), (best.total_cost, math.inf)):
                with monkeypatch.context() as patch:
                    if small:
                        small_passes(patch)
                    found = np.concatenate(list(_tight_codes(inst, bound)))
                assert np.isin(band, found).all(), f"trial {trial}, small passes {small}"
                kept += found.size
                total += tight.sum()
        assert negative >= 10 and kept < total / 4, (negative, kept, total)

    def test_exact_matches_oracle_with_negative_costs(self):
        """[PRIMARY] where capture costs, and so linear rates and totals, are
        negative, the exact search returns the product-order oracle's network,
        or finds none where it does."""
        for trial, integer, sources, sinks, edges, target in negative_instances():
            oracle = product_order_oracle(sources, sinks, edges, target)
            if oracle is None:
                with pytest.raises(NetworkInfeasible, match="no assignment reaches"):
                    solve_exact(sources, sinks, edges, target)
            else:
                assert solve_exact(sources, sinks, edges, target) == oracle[1], f"trial {trial}"

    def test_kernel_matches_scalar_columns(self):
        """[PRIMARY] `allocate` and `cost` give each column of a block shaped
        like local search the remaining target, flows, pipe costs and totals
        of `scalar_column`, to the bit: on the block-test instances, those
        with negative capture costs and one without sources.  A column in
        which no source ships totals +0.0, and one whose sources leave
        0.1 + 0.2 - 0.1 - 0.2, under 1e-12, of the target stops there."""
        rng = np.random.default_rng(4)
        sinks = [SinkNode(id="K0", cell=0, capacity=10, sequestration_cost=5)]
        sources = [SourceNode(id=f"S{i}", cell=i + 1, capturable=amount, eq_capture_cost=10 * i)
                   for i, amount in enumerate((0.1, 0.2, 1.0))]
        edges = [CandidateEdge(source_id=src.id, sink_id="K0", path=(src.cell, 0),
                               length_km=1.0, terrain_cost=2.0) for src in sources]
        instances = [*block_instances(), *negative_instances(),
                     ("no source", False, [], sinks, [], 5.0),
                     ("remainder", False, sources, sinks, edges, 0.1 + 0.2)]
        idle = 0
        for trial, integer, sources, sinks, edges, target in instances:
            inst = _Instance(sources, sinks, edges, target, NetworkParams())
            digit = local_search_block(inst, rng)
            remaining, flow = inst.allocate(digit)
            *totals, pipe = inst.cost(digit, flow)
            for h in range(digit.shape[1]):
                left, flows, pipes, expected = scalar_column(
                    sources, sinks, edges, target, inst.assignment(digit[:, h]))
                ids = [src.id for src in inst.sources]
                for got, want in ((remaining[h], left),
                                  (flow[:, h], [flows.get(i, 0.0) for i in ids]),
                                  (pipe[:, h], [pipes.get(i, 0.0) for i in ids]),
                                  ([t[h] for t in totals], expected)):
                    assert np.asarray(got).tobytes() == np.array(want, dtype=float).tobytes(), \
                        f"trial {trial}, column {h}"
                if not flows:
                    assert not np.signbit([t[h] for t in totals]).any()
                    idle += 1
        assert idle >= len(instances)

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

    def test_exact_search_at_the_code_limit_runs_few_codes(self, monkeypatch):
        """Of the 4.78 M tight assignments of the 12 x 3 stress instance, the
        cost bound lets under 1% through the kernel."""
        columns = []
        allocate = network._Instance.allocate

        def recording(inst, digit):
            columns.append(digit.shape[1])
            return allocate(inst, digit)

        monkeypatch.setattr(network._Instance, "allocate", recording)
        select_network(*stress_instance(12, 3))
        assert 0 < sum(columns) < 0.01 * 4.78e6, columns

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

    def test_amounts_at_the_bound(self):
        """Amounts and |costs| at the magnitude bound and corridors at
        MAX_CORRIDOR_COST: both searches give the scalar oracle's network
        at a finite cost, with no overflow warning."""
        sources = [SourceNode(id=s, cell=i, capturable=MAX_MAGNITUDE,
                              eq_capture_cost=sign * MAX_MAGNITUDE)
                   for i, (s, sign) in enumerate((("A", -1.0), ("B", 1.0)))]
        sinks = [SinkNode(id=k, cell=2 + j, capacity=MAX_MAGNITUDE,
                          sequestration_cost=MAX_MAGNITUDE) for j, k in enumerate(("K1", "K2"))]
        edges = [CandidateEdge(source_id=s.id, sink_id=k.id, path=(s.cell, k.cell),
                               length_km=1.0, terrain_cost=MAX_CORRIDOR_COST / (1 + j))
                 for s in sources for j, k in enumerate(sinks)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = solve_exact(sources, sinks, edges, 1.5 * MAX_MAGNITUDE)
            local = solve_local(sources, sinks, edges, 1.5 * MAX_MAGNITUDE)
        assert exact == product_order_oracle(sources, sinks, edges, 1.5 * MAX_MAGNITUDE)[1]
        assert local.total_cost == exact.total_cost
        assert sum(r.flow for r in exact.routes) == 1.5 * MAX_MAGNITUDE
        assert math.isfinite(exact.total_cost)

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

    def test_chain_of_near_ties_keeps_first_of_the_band(self):
        """K2 costs 6e-10 less than K1 and K3 6e-10 less than K2: the least
        total is K3's, and K2 is the first option within 1e-9 of it.  A chain
        of replacements, each by more than 1e-9, would keep K1 over K2 and
        then take K3."""
        src = SourceNode(id="S", cell=0, capturable=1.0, eq_capture_cost=30.0)
        sinks = [SinkNode(id=f"K{n}", cell=n, capacity=1.0, sequestration_cost=5.0 - delta)
                 for n, delta in ((1, 0.0), (2, 6e-10), (3, 1.2e-9))]
        edges = [CandidateEdge(source_id="S", sink_id=k.id, path=(0, k.cell),
                               length_km=1.0, terrain_cost=1.0)
                 for k in sinks]
        sol = solve_exact([src], sinks, edges, 1.0)
        assert [(r.source_id, r.sink_id) for r in sol.routes] == [("S", "K2")]
        chain = product_order_oracle([src], sinks, edges, 1.0)[1]
        assert [(r.source_id, r.sink_id) for r in chain.routes] == [("S", "K3")]

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
        assert flow_by(sol, "source_id") == {"S2": 10.0}

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
        assert sum(r.flow for r in sol.routes) == pytest.approx(13e6, rel=1e-12)
        assert all(v <= 7.15e6 for v in flow_by(sol, "sink_id").values())
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
        inflows = flow_by(sol, "sink_id")
        assert sum(flow_by(sol, "source_id").values()) == pytest.approx(target, abs=1e-6)
        assert sum(inflows.values()) == pytest.approx(target, abs=1e-6)
        for route in sol.routes:
            src = next(s for s in sources if s.id == route.source_id)
            snk = next(k for k in sinks if k.id == route.sink_id)
            assert route.flow <= src.capturable + 1e-9
            assert inflows[snk.id] <= snk.capacity + 1e-9
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
        assert flow_by(sol, "source_id") == {"small": pytest.approx(5.0)}
