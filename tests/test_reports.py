import base64
import csv
import dataclasses
import json
import math
import re
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest

from coplant import costing, reports
from coplant.dispatch import commodity_balance, solve_dispatch
from coplant.domain import Commodity, ConversionUnit, Scenario, SystemSpec
from coplant.reports import (
    ReportError,
    heatmap_svg,
    load_solution,
    save_solution,
    write_cost_breakdown_csv,
    write_hourly_balances_csv,
)
from coplant.sinknet.network import NetworkSolution, RouteFlow
from coplant.sinknet.raster import CostSurface
from coplant.sinknet.routing import SinkNode, SourceNode

SVG = "{http://www.w3.org/2000/svg}"


class TestHeatmap:
    def test_constant_series_all_full(self):
        svg = heatmap_svg([3.0] * 48, "t")
        assert svg.count('fill="rgb(0,0,255)"') == 48

    def test_all_zero_series_no_fault(self):
        svg = heatmap_svg([0.0] * 24, "t")
        assert svg.count('fill="rgb(255,255,255)"') == 24

    def test_single_peak_single_saturated_cell(self):
        series = np.zeros(120)
        series[100] = 5.0
        svg = heatmap_svg(series, "t")
        assert svg.count('fill="rgb(0,0,255)"') == 1

    def test_length_must_divide_24(self):
        with pytest.raises(ReportError):
            heatmap_svg([1.0] * 25, "t")
        with pytest.raises(ReportError):
            heatmap_svg([], "t")

    def test_normalization_idempotent(self):
        series = np.abs(np.sin(np.arange(48.0))) + 0.1
        normalized = series / series.max()
        assert heatmap_svg(normalized, "t") == \
            heatmap_svg(normalized / normalized.max(), "t")


def test_balance_csv_rows_sum_to_zero(tmp_path, netzero48):
    spec, _, sol = netzero48
    path = tmp_path / "balances.csv"
    write_hourly_balances_csv(path, spec, sol)
    lines = path.read_text().splitlines()
    assert lines[0] == "commodity,hour,term,value"
    sums: dict[tuple[str, str], float] = {}
    scale: dict[tuple[str, str], float] = {}
    for line in lines[1:]:
        commodity, hour, _term, value = line.split(",")
        key = (commodity, hour)
        sums[key] = sums.get(key, 0.0) + float(value)
        scale[key] = max(scale.get(key, 1.0), abs(float(value)))
    for key, total in sums.items():
        assert abs(total) <= 1e-6 * scale[key], key


def test_cost_breakdown_csv(tmp_path, netzero48):
    spec, scenario, sol = netzero48
    bd = costing.cost_breakdown(sol, spec, scenario)
    path = tmp_path / "bd.csv"
    write_cost_breakdown_csv(path, bd)
    lines = path.read_text().splitlines()
    assert lines[0] == "category,annual_cost,share"
    assert lines[-1].startswith("total,")


def test_csv_and_svg_deterministic(tmp_path, netzero48):
    spec, scenario, sol = netzero48
    bd = costing.cost_breakdown(sol, spec, scenario)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cost_breakdown_csv(a, bd)
    write_cost_breakdown_csv(b, bd)
    assert a.read_bytes() == b.read_bytes()
    assert reports.waterfall_svg(bd) == reports.waterfall_svg(bd)


def biomass_plant():
    """24 h plant with no renewable, O2 or sequestration: it lacks every
    optional series."""
    kiln = ConversionUnit(id="kiln", inputs={Commodity.BIOMASS: 1.0},
                          outputs={Commodity.CEMENT: 1.0}, capex=100.0)
    spec = SystemSpec(conversion_units=(kiln,), storage_units=(), renewables=(),
                      demand_cement=1.0, demand_methanol=0.0)
    scenario = Scenario(stoichiometry_x=2.77, horizon_hours=24)
    return spec, scenario, solve_dispatch(spec, scenario)


def test_solution_json_round_trip(tmp_path, netzero48):
    """Every field of a solution reads back bit for bit, also where the
    system lacks the optional series."""
    for spec, scenario, sol in (netzero48, biomass_plant()):
        path = tmp_path / "sol.json"
        save_solution(path, sol)
        back = load_solution(path)
        for f in dataclasses.fields(sol):
            saved, read = getattr(sol, f.name), getattr(back, f.name)
            if isinstance(saved, dict):
                assert saved.keys() == read.keys(), f.name
                saved, read = list(saved.values()), [read[k] for k in saved]
            assert np.asarray(read).dtype == np.asarray(saved).dtype, f.name
            assert np.asarray(read).tobytes() == np.asarray(saved).tobytes(), f.name
        # ledgers recomputed from the round trip match
        for commodity in Commodity:
            t1 = commodity_balance(spec, sol, commodity)
            t2 = commodity_balance(spec, back, commodity)
            assert set(t1) == set(t2)


def test_malformed_solution_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"horizon": 24}')
    with pytest.raises(ReportError):
        load_solution(path)


@pytest.mark.parametrize("field, value", [("capacities", []), ("horizon", math.inf)],
                         ids=["ledger-not-a-map", "infinite-horizon"])
def test_malformed_solution_field_names_the_file(tmp_path, netzero48, field, value):
    data = reports.solution_to_dict(netzero48[2])
    data[field] = value
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ReportError, match=f"^{re.escape(str(path))}: malformed solution file: "):
        load_solution(path)


def test_curves_svg_requires_points():
    with pytest.raises(ReportError):
        reports.curves_svg({}, "t")
    svg = reports.curves_svg({"a": [(0, 1), (1, 2)]}, "t")
    assert "polyline" in svg


def decode_surface_png(href: str) -> np.ndarray:
    """Grey values of the network map's data URI, checked chunk by chunk."""
    prefix = "data:image/png;base64,"
    assert href.startswith(prefix)
    png = base64.b64decode(href[len(prefix):], validate=True)
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos:pos + 4])
        tag, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + data), tag
        chunks.append((tag, data))
        pos += 12 + length
    assert pos == len(png)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, colour, compression, filter_, interlace = \
        struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, colour, compression, filter_, interlace) == (8, 0, 0, 0, 0)
    raw = zlib.decompress(b"".join(d for t, d in chunks if t == b"IDAT"))
    scanlines = np.frombuffer(raw, dtype=np.uint8).reshape(height, width + 1)
    assert (scanlines[:, 0] == 0).all()     # filter type 0 on every row
    return scanlines[:, 1:]


def _cell_greys(cells):
    """Grey value of every raster cell drawn by network_svg, row by row."""
    cells = np.asarray(cells, dtype=float)
    nrows, ncols = cells.shape
    surface = CostSurface(ncols=ncols, nrows=nrows, cell_size=1.0,
                          origin=(0.0, 0.0), nodata=-9999.0, cells=cells)
    empty = NetworkSolution(routes=[], target=0.0, cost_capture=0.0, cost_pipeline=0.0,
                            cost_sequestration=0.0)
    root = ET.fromstring(reports.network_svg(empty, surface))
    (image,) = root.iter(SVG + "image")
    # these rasters get 24 user units per cell, with a 20-unit margin
    assert {k: image.get(k) for k in ("x", "y", "width", "height", "style")} == {
        "x": "20", "y": "20", "width": str(24 * ncols), "height": str(24 * nrows),
        "style": "image-rendering:pixelated"}
    assert root.find(SVG + "rect") is None
    grey = decode_surface_png(image.get("href"))
    assert grey.shape == (nrows, ncols)
    return grey.ravel().tolist()


def test_network_svg_cell_fills():
    """Grey level 235 - 155 * cost / peak, rounded half to even; nodata is 40.
    The expected fills were produced by the per-cell loop this replaced."""
    greys = _cell_greys([[1, 3, -9999, 5], [310, -9999, 0, 77.7],
                         [12.25, 150, 200, 2]])
    # peak 310 puts costs 1, 3 and 5 exactly on .5: 234.5, 233.5, 232.5
    assert greys == [234, 234, 40, 232, 80, 40, 235, 196, 229, 160, 135, 234]


def test_network_svg_flat_and_empty_rasters():
    # all-zero raster: peak 0, every cell at the lightest shade
    assert _cell_greys(np.zeros((2, 3))) == [235] * 6
    # all-nodata raster: the peak falls back to 1.0 and every cell is dark
    assert _cell_greys(np.full((2, 2), -9999.0)) == [40] * 4


def _route(source_id, sink_id, path):
    return RouteFlow(source_id=source_id, sink_id=sink_id, path=path, length_km=2.0,
                     diameter_class="d8", pipe_count=1, flow=1.5, annual_cost=7.0)


def test_network_svg_escapes_node_ids():
    surface = CostSurface(ncols=3, nrows=3, cell_size=1.0, origin=(0.0, 0.0),
                          nodata=-9999.0, cells=np.ones((3, 3)))
    sol = NetworkSolution(routes=[_route("A&B <1>", "K>1", (0, 4, 8))], target=1.5,
                          cost_capture=0.0, cost_pipeline=0.0, cost_sequestration=0.0)
    svg = reports.network_svg(sol, surface,
                              sources=[SourceNode("A&B <1>", 0, 1.5, 40.0)],
                              sinks=[SinkNode("K>1", 8, 2.0, 5.0)])
    root = ET.fromstring(svg)
    assert [t.text for t in root.iter(SVG + "text")] == ["A&B <1>", "K>1"]


def test_network_csvs_quote_fields_that_need_it(tmp_path):
    surface = CostSurface(ncols=3, nrows=3, cell_size=1.0, origin=(0.0, 0.0),
                          nodata=-9999.0, cells=np.ones((3, 3)))
    ids = ['S,1', 'say "hi"', "plain", "a\nb", "c\rd"]
    sol = NetworkSolution(routes=[_route(i, "K,1", (0, 4)) for i in ids], target=4.5,
                          cost_capture=0.0, cost_pipeline=0.0, cost_sequestration=0.0)
    table = tmp_path / "network.csv"
    reports.write_network_csv(table, sol)
    with table.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "sink", "flow_t_per_yr", "length_km",
                       "diameter_class", "pipe_count", "annual_cost"]
    assert rows[1:] == [[i, "K,1", "1.5", "2", "d8", "1", "7"] for i in sorted(ids)]
    # only fields holding a comma, quote or line break are quoted
    assert table.read_bytes().split(b"\n", 1)[1] == (
        b'"S,1","K,1",1.5,2,d8,1,7\n"a\nb","K,1",1.5,2,d8,1,7\n'
        b'"c\rd","K,1",1.5,2,d8,1,7\nplain,"K,1",1.5,2,d8,1,7\n'
        b'"say ""hi""","K,1",1.5,2,d8,1,7\n')

    paths = tmp_path / "network_paths.csv"
    reports.write_network_paths_csv(paths, sol, surface)
    with paths.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(r) == 7 for r in rows)
    assert [r[:3] for r in rows[1:]] == [[i, "K,1", seq] for i in sorted(ids)
                                         for seq in ("0", "1")]
