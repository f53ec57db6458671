"""Deterministic report artifacts: CSV tables, hand-rolled SVG charts, and a
JSON round-trip for dispatch solutions.

All writers format floats through one function and never consult locale,
wall-clock time or dict iteration order of unsorted inputs, so a given
solution always produces byte-identical files.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from pathlib import Path

import numpy as np

from coplant.configio import read_text
from coplant.costing import CostBreakdown, MoleculeCost, SweepRow
from coplant.dispatch import (ASSET_LEDGERS, ASSET_SERIES, SYSTEM_SERIES,
                              DispatchSolution, commodity_balance)
from coplant.domain import MAX_MAGNITUDE, Commodity, CoplantError, SystemSpec
from coplant.fleet import FleetResult
from coplant.sinknet.network import NetworkSolution
from coplant.sinknet.raster import CostSurface


class ReportError(CoplantError, ValueError):
    pass


def _fmt(value: float) -> str:
    """Ten significant digits; a zero of either sign is `0`."""
    return f"{value + 0.0:.10g}"


def _field(value) -> str:
    """A CSV field, quoted per RFC 4180 if it holds a comma, quote or line
    break."""
    s = _fmt(value) if isinstance(value, float) else str(value)
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _write_rows(path: str | Path, header: list[str], rows: list[list]) -> None:
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_field, row)) + "\n")


# ---------------------------------------------------------------- CSV tables

def write_cost_breakdown_csv(path: str | Path, breakdown: CostBreakdown) -> None:
    rows = [[cat, float(cost), float(breakdown.share(cat))]
            for cat, cost in breakdown.categories.items()]
    rows.append(["total", float(breakdown.total), 1.0])
    _write_rows(path, ["category", "annual_cost", "share"], rows)


def write_electricity_allocation_csv(path: str | Path, breakdown: CostBreakdown) -> None:
    rows = [[consumer, float(cost)]
            for consumer, cost in sorted(breakdown.electricity_allocation.items())]
    _write_rows(path, ["consumer", "annual_electricity_cost"], rows)


def write_molecule_costs_csv(path: str | Path, molecules: list[MoleculeCost]) -> None:
    rows = []
    for mol in molecules:
        for component, cost in mol.components.items():
            rows.append([mol.molecule, float(mol.levelized),
                         float(mol.annual_tonnes), component, float(cost)])
    _write_rows(path, ["molecule", "levelized_cost", "annual_tonnes",
                       "component", "component_cost"], rows)


def write_hourly_balances_csv(path: str | Path, spec: SystemSpec,
                              solution: DispatchSolution) -> None:
    """Long-format signed ledger; terms for one commodity-hour sum to zero."""
    rows = []
    for commodity in Commodity:
        terms = commodity_balance(spec, solution, commodity)
        for label in sorted(terms):
            series = terms[label]
            for hour in range(solution.horizon):
                rows.append([commodity.value, hour, label, float(series[hour])])
    _write_rows(path, ["commodity", "hour", "term", "value"], rows)


def write_storage_cycles_csv(path: str | Path, cycles: dict[str, float]) -> None:
    _write_rows(path, ["storage", "annual_cycles"],
                [[sid, float(cycles[sid])] for sid in sorted(cycles)])


def write_sweep_csv(path: str | Path, rows: list[SweepRow]) -> None:
    table = [[float(r.x), str(r.feasible).lower(), float(r.abatement),
              float(r.share_methanol), float(r.share_sequestration),
              float(r.share_atmosphere)] for r in rows]
    _write_rows(path, ["stoichiometry_x", "feasible", "abatement_cost",
                       "share_methanol", "share_sequestration", "share_atmosphere"],
                table)


def write_fleet_results_csv(path: str | Path, result: FleetResult) -> None:
    rows = []
    for pr in result.per_plant:
        rows.append([pr.plant.id, float(pr.plant.latitude), float(pr.plant.longitude),
                     float(pr.cement_capacity), float(pr.abatement),
                     float(pr.flex_inflex_ratio), pr.error or ""])
    _write_rows(path, ["id", "lat", "lon", "cement_capacity", "abatement_cost",
                       "flex_inflex_ratio", "error"], rows)


def write_cost_capacity_curve_csv(path: str | Path,
                                  curve: list[tuple[float, float]]) -> None:
    _write_rows(path, ["cumulative_capacity", "abatement_cost"],
                [[float(c), float(a)] for c, a in curve])


def write_sensitivity_csv(path: str | Path, result: FleetResult) -> None:
    curves = {"baseline": result.curve, **dict(sorted(result.sensitivity.items()))}
    rows = [[label, float(c), float(a)] for label, curve in curves.items() for c, a in curve]
    _write_rows(path, ["curve", "cumulative_capacity", "abatement_cost"], rows)


def write_network_csv(path: str | Path, sol: NetworkSolution) -> None:
    rows = []
    for route in sorted(sol.routes, key=lambda r: (r.source_id, r.sink_id)):
        rows.append([route.source_id, route.sink_id, float(route.flow),
                     float(route.length_km), route.diameter_class,
                     route.pipe_count, float(route.annual_cost)])
    _write_rows(path, ["source", "sink", "flow_t_per_yr", "length_km",
                       "diameter_class", "pipe_count", "annual_cost"], rows)


def write_network_paths_csv(path: str | Path, sol: NetworkSolution,
                            surface: CostSurface) -> None:
    """GeoCSV of route cell traces with cell-centre coordinates."""
    rows = []
    for route in sorted(sol.routes, key=lambda r: (r.source_id, r.sink_id)):
        for seq, cell in enumerate(route.path):
            row, col = surface.rowcol(cell)
            x = surface.origin[0] + (col + 0.5) * surface.cell_size
            # ASCII grid row 0 is the top edge of the raster
            y = surface.origin[1] + (surface.nrows - row - 0.5) * surface.cell_size
            rows.append([route.source_id, route.sink_id, seq, row, col,
                         float(x), float(y)])
    _write_rows(path, ["source", "sink", "seq", "row", "col", "x", "y"], rows)


# ---------------------------------------------------------------- SVG charts

def _svg(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "start") -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}">{s}</text>')


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data)))


def _grey_png(grey: np.ndarray) -> bytes:
    """8-bit greyscale PNG with one pixel per element of a 2-D array of
    0-255 values; every row has filter byte 0 (none)."""
    nrows, ncols = grey.shape
    scanlines = np.zeros((nrows, ncols + 1), dtype=np.uint8)
    scanlines[:, 1:] = grey
    # width, height, bit depth 8, colour type 0 (grey), default compression,
    # filter method and no interlace
    header = struct.pack(">IIBBBBB", ncols, nrows, 8, 0, 0, 0, 0)
    # level 1: on a 200x200 cost surface, a third of level 6's time for 4%
    # more bytes
    return (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 1))
            + _png_chunk(b"IEND", b""))


def heatmap_svg(values, title: str, cell: int = 10) -> str:
    """Day-by-hour operational heatmap; 24 columns, one row per day.

    Shade is the value normalised by the series maximum (all-zero series
    renders all-white rather than dividing by zero).
    """
    series = np.asarray(values, dtype=float)
    if series.ndim != 1 or series.size == 0 or series.size % 24 != 0:
        raise ReportError(f"heatmap needs a non-empty multiple of 24 hours, "
                          f"got length {series.size}")
    days = series.size // 24
    peak = float(series.max())
    margin, header = 40, 24
    body = [_text(margin, 16, title, size=13)]
    for hour in (0, 6, 12, 18, 23):
        body.append(_text(margin + hour * cell + cell / 2, header + days * cell + 14,
                          str(hour), size=9, anchor="middle"))
    for day in range(days):
        body.append(_text(margin - 6, header + day * cell + cell - 2, str(day),
                          size=9, anchor="end"))
        for hour in range(24):
            v = series[day * 24 + hour] / peak if peak > 0 else 0.0
            shade = int(round(255 * (1.0 - v)))
            body.append(f'<rect x="{margin + hour * cell}" y="{header + day * cell}" '
                        f'width="{cell}" height="{cell}" '
                        f'fill="rgb({shade},{shade},255)" stroke="none"/>')
    return _svg(margin + 24 * cell + 20, header + days * cell + 24, body)


def waterfall_svg(breakdown: CostBreakdown, title: str = "annual cost by category") -> str:
    cats = [(c, v) for c, v in breakdown.categories.items() if v > 0]
    width, height = 560, 60 + 28 * len(cats) + 28
    peak = max((v for _, v in cats), default=1.0)
    body = [_text(16, 20, title, size=13)]
    running = 0.0
    for i, (cat, v) in enumerate(cats):
        y = 40 + 28 * i
        bar = 360 * v / peak
        body.append(f'<rect x="150" y="{y}" width="{_fmt(bar)}" height="20" '
                    f'fill="rgb(90,120,200)"/>')
        body.append(_text(144, y + 15, cat, anchor="end"))
        body.append(_text(156 + bar, y + 15, _fmt(v)))
        running += v
    body.append(_text(144, 40 + 28 * len(cats) + 15, "total", anchor="end"))
    body.append(_text(150, 40 + 28 * len(cats) + 15, _fmt(breakdown.total)))
    return _svg(width, height, body)


def curves_svg(curves: dict[str, list[tuple[float, float]]], title: str,
               x_label: str = "", y_label: str = "") -> str:
    width, height, margin = 560, 360, 50
    points = [p for curve in curves.values() for p in curve]
    if not points:
        raise ReportError("no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ["rgb(40,80,180)", "rgb(190,70,40)", "rgb(40,140,70)",
               "rgb(150,60,160)", "rgb(120,120,40)", "rgb(60,150,160)",
               "rgb(90,90,90)"]
    body = [_text(margin, 20, title, size=13),
            f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
            f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
            _text(width / 2, height - 8, x_label, anchor="middle"),
            _text(12, margin - 8, y_label)]
    for axis_x in (x_lo, x_hi):
        body.append(_text(sx(axis_x), height - margin + 16, _fmt(axis_x),
                          size=9, anchor="middle"))
    for axis_y in (y_lo, y_hi):
        body.append(_text(margin - 6, sy(axis_y) + 4, _fmt(axis_y), size=9,
                          anchor="end"))
    for i, name in enumerate(sorted(curves)):
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in curves[name])
        color = palette[i % len(palette)]
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>')
        body.append(_text(width - margin + 4, margin + 14 * i + 10,
                          name, size=9))
    return _svg(width + 120, height, body)


def network_svg(sol: NetworkSolution, surface: CostSurface,
                sources=None, sinks=None) -> str:
    """Cost surface as one embedded greyscale PNG, with routes, sources and
    sinks drawn on top as vector elements.  A route is a polyline through
    its cells' centres; a one-cell route, whose source sits on its sink's
    cell, is a ring around that cell.

    The PNG has one pixel per raster cell and is scaled to `cell` user units
    per pixel with pixelated rendering. A cell's grey level is
    235 - 155 * cost / peak, with peak the largest cost off nodata (1.0 if
    every cell is nodata); nodata cells are 40 and a zero peak gives 235.
    """
    cell = max(4, min(24, 600 // max(surface.ncols, surface.nrows)))
    margin = 20
    open_ = ~surface.is_nodata
    peak = surface.cells[open_].max() if open_.any() else 1.0
    grey = np.full(surface.cells.shape, 40)
    # np.rint rounds half to even, as round() does
    grey[open_] = np.rint(235 - 155 * surface.cells[open_] / peak) if peak else 235
    png = base64.b64encode(_grey_png(grey)).decode("ascii")
    body = [f'<image x="{margin}" y="{margin}" width="{surface.ncols * cell}" '
            f'height="{surface.nrows * cell}" style="image-rendering:pixelated" '
            f'href="data:image/png;base64,{png}"/>']

    def centre(index):
        r, c = surface.rowcol(index)
        return margin + (c + 0.5) * cell, margin + (r + 0.5) * cell

    for route in sorted(sol.routes, key=lambda r: (r.source_id, r.sink_id)):
        if len(route.path) == 1:    # a source on its sink's cell: ring the cell
            x, y = centre(route.path[0])
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="7" fill="none" '
                        f'stroke="rgb(200,60,30)" stroke-width="2"/>')
            continue
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(centre, route.path))
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="rgb(200,60,30)" stroke-width="2"/>')
    for node in sorted(sources or [], key=lambda n: n.id):
        x, y = centre(node.cell)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" '
                    f'fill="rgb(40,90,190)"/>')
        body.append(_text(x + 6, y - 4, node.id, size=9))
    for node in sorted(sinks or [], key=lambda n: n.id):
        x, y = centre(node.cell)
        body.append(f'<rect x="{_fmt(x - 4)}" y="{_fmt(y - 4)}" width="8" '
                    f'height="8" fill="rgb(40,140,70)"/>')
        body.append(_text(x + 6, y + 12, node.id, size=9))
    return _svg(2 * margin + surface.ncols * cell, 2 * margin + surface.nrows * cell,
                body)


# ------------------------------------------------------ solution persistence

def solution_to_dict(sol: DispatchSolution) -> dict:
    data = {"horizon": sol.horizon, "objective": float(sol.objective)}
    for name in ASSET_LEDGERS:
        data[name] = {k: np.asarray(v, dtype=float).tolist()
                      for k, v in getattr(sol, name).items()}
    for name in SYSTEM_SERIES:
        data[name] = np.asarray(getattr(sol, name), dtype=float).tolist()
    return data


def solution_from_dict(data: dict) -> DispatchSolution:
    """The solution `solution_to_dict` wrote.  A missing or malformed field,
    or a nan, an infinity or a magnitude above MAX_MAGNITUDE, raises
    ReportError naming the field and asset."""
    def bounded(value, name: str):
        bad = np.asarray(value)[~(np.abs(value) <= MAX_MAGNITUDE)]
        if bad.size:
            raise ValueError(f"{name} is {bad[0]}, " + (
                f"above {MAX_MAGNITUDE:g} in magnitude" if np.isfinite(bad[0])
                else "not a finite number"))
        return value

    def series(values) -> np.ndarray:
        return np.asarray(values, dtype=float)

    try:
        ledgers = {}
        for name in ASSET_LEDGERS:   # capacities are numbers, the rest series
            read = series if name in ASSET_SERIES else float
            ledgers[name] = {k: bounded(read(v), f"{name} {k!r}") for k, v in data[name].items()}
        for name in SYSTEM_SERIES:
            ledgers[name] = bounded(series(data[name]), name)
        return DispatchSolution(horizon=int(data["horizon"]),
                                objective=bounded(float(data["objective"]), "objective"),
                                **ledgers)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ReportError(f"malformed solution file: {exc}") from None


def save_solution(path: str | Path, sol: DispatchSolution) -> None:
    with Path(path).open("w") as fh:
        json.dump(solution_to_dict(sol), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_solution(path: str | Path) -> DispatchSolution:
    try:
        data = json.loads(read_text(path, ReportError))
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}: not JSON: {exc}") from None
    try:
        return solution_from_dict(data)
    except ReportError as exc:
        raise ReportError(f"{path}: {exc}") from None
