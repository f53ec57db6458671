import re

import numpy as np
import pytest

from coplant import costing, reports
from coplant.domain import Commodity
from coplant.dispatch import commodity_balance
from coplant.reports import (
    ReportError,
    heatmap_svg,
    load_solution,
    save_solution,
    write_cost_breakdown_csv,
    write_hourly_balances_csv,
)
from coplant.sinknet.network import NetworkSolution
from coplant.sinknet.raster import CostSurface


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
    spec, scenario, sol = netzero48
    path = tmp_path / "balances.csv"
    write_hourly_balances_csv(path, spec, scenario, sol)
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


def test_solution_json_round_trip(tmp_path, netzero48):
    spec, scenario, sol = netzero48
    path = tmp_path / "sol.json"
    save_solution(path, sol)
    back = load_solution(path)
    assert back.objective == sol.objective
    assert back.horizon == sol.horizon
    for uid in sol.activity:
        assert np.array_equal(back.activity[uid], sol.activity[uid])
    # ledgers recomputed from the round trip match
    for commodity in Commodity:
        t1 = commodity_balance(spec, scenario, sol, commodity)
        t2 = commodity_balance(spec, scenario, back, commodity)
        assert set(t1) == set(t2)


def test_malformed_solution_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"horizon": 24}')
    with pytest.raises(ReportError):
        load_solution(path)


def test_curves_svg_requires_points():
    with pytest.raises(ReportError):
        reports.curves_svg({}, "t")
    svg = reports.curves_svg({"a": [(0, 1), (1, 2)]}, "t")
    assert "polyline" in svg


def _cell_rects(cells):
    """(x, y, grey) of every raster cell drawn by network_svg."""
    cells = np.asarray(cells, dtype=float)
    surface = CostSurface(ncols=cells.shape[1], nrows=cells.shape[0],
                          cell_size=1.0, origin=(0.0, 0.0), nodata=-9999.0,
                          cells=cells)
    empty = NetworkSolution(source_flows={}, routes=[], sink_inflows={}, target=0.0,
                            cost_capture=0.0, cost_pipeline=0.0,
                            cost_sequestration=0.0)
    rects = re.findall(r'<rect x="(\d+)" y="(\d+)" width="24" height="24" '
                       r'fill="rgb\((\d+),(\d+),(\d+)\)" stroke="none"/>',
                       reports.network_svg(empty, surface))
    assert all(r == g == b for _, _, r, g, b in rects)
    return [(int(x), int(y), int(r)) for x, y, r, _, _ in rects]


def test_network_svg_cell_fills():
    """Grey level 235 - 155 * cost / peak, rounded half to even; nodata is 40.
    The expected fills were produced by the per-cell loop this replaced."""
    rects = _cell_rects([[1, 3, -9999, 5], [310, -9999, 0, 77.7],
                         [12.25, 150, 200, 2]])
    # peak 310 puts costs 1, 3 and 5 exactly on .5: 234.5, 233.5, 232.5
    assert [g for _, _, g in rects] == [234, 234, 40, 232, 80, 40, 235, 196,
                                        229, 160, 135, 234]
    assert [(x, y) for x, y, _ in rects] == [
        (20 + 24 * c, 20 + 24 * r) for r in range(3) for c in range(4)]


def test_network_svg_flat_and_empty_rasters():
    # all-zero raster: peak 0, every cell at the lightest shade
    assert [g for _, _, g in _cell_rects(np.zeros((2, 3)))] == [235] * 6
    # all-nodata raster: the peak falls back to 1.0 and every cell is dark
    assert [g for _, _, g in _cell_rects(np.full((2, 2), -9999.0))] == [40] * 4
