"""ESRI ASCII grid ingestion for pipeline construction cost surfaces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


class RasterFormatError(ValueError):
    pass


@dataclass
class CostSurface:
    """Row-major raster of per-km cost multipliers; nodata cells are barriers.

    Every cell is finite: either a non-negative multiplier or the (finite)
    nodata value.  The cell size is finite and positive, the origin finite."""

    ncols: int
    nrows: int
    cell_size: float            # km
    origin: tuple[float, float]  # (xllcorner, yllcorner)
    nodata: float
    cells: np.ndarray           # shape (nrows, ncols), nodata kept as-is

    def __post_init__(self) -> None:
        self.cells = np.asarray(self.cells, dtype=float)
        if self.cells.shape != (self.nrows, self.ncols):
            raise RasterFormatError(
                f"cell array shape {self.cells.shape} does not match header "
                f"({self.nrows} rows x {self.ncols} cols)")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise RasterFormatError(
                f"CELLSIZE must be a finite number > 0, got {self.cell_size}")
        if not all(map(math.isfinite, self.origin)):
            raise RasterFormatError(
                f"XLLCORNER and YLLCORNER must be finite numbers, got {self.origin}")
        if not np.isfinite(self.nodata):
            raise RasterFormatError(
                f"NODATA_VALUE must be a finite number, got {self.nodata}")
        non_finite = np.argwhere(~np.isfinite(self.cells))
        if non_finite.size:
            r, c = non_finite[0]
            raise RasterFormatError(
                f"non-finite cost cell {self.cells[r, c]} at row {r}, col {c}; "
                "mark barriers with NODATA_VALUE")
        if np.any(self.cells[~self.is_nodata] < 0):
            raise RasterFormatError("negative cost cells are not allowed")

    @property
    def is_nodata(self) -> np.ndarray:
        return self.cells == self.nodata

    @property
    def n_cells(self) -> int:
        return self.nrows * self.ncols

    def index(self, row: int, col: int) -> int:
        if not (0 <= row < self.nrows and 0 <= col < self.ncols):
            raise ValueError(f"cell (row {row}, col {col}) is outside the "
                             f"{self.nrows}x{self.ncols} raster")
        return row * self.ncols + col

    def rowcol(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.ncols)

    def traversable(self, cell: int) -> bool:
        r, c = self.rowcol(cell)
        return self.cells[r, c] != self.nodata


def load_raster(path: str | Path) -> CostSurface:
    """Parse an ESRI ASCII grid; errors carry the offending line number."""
    path = Path(path)
    header: dict[str, float] = {}
    values: list[float] = []
    with path.open() as fh:
        lines = fh.readlines()
    data_start = None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        key = parts[0].lower()
        if key in _HEADER_KEYS:
            if len(parts) != 2:
                raise RasterFormatError(f"{path}:{lineno}: malformed header line")
            if key in header:
                raise RasterFormatError(f"{path}:{lineno}: repeated header key {parts[0]}")
            try:
                header[key] = float(parts[1])
            except ValueError:
                raise RasterFormatError(
                    f"{path}:{lineno}: non-numeric header value {parts[1]!r}") from None
        else:
            data_start = lineno
            break
    for req in ("ncols", "nrows", "cellsize"):
        if req not in header:
            raise RasterFormatError(f"{path}: missing header key {req.upper()}")
    for key in ("ncols", "nrows"):
        if not (header[key].is_integer() and header[key] > 0):
            raise RasterFormatError(
                f"{path}: {key.upper()} must be a positive integer, got {header[key]:g}")
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    nodata = header.get("nodata_value", -9999.0)
    if data_start is None:
        raise RasterFormatError(f"{path}: no data section found")
    for lineno, line in enumerate(lines[data_start - 1:], start=data_start):
        for token in line.split():
            try:
                values.append(float(token))
            except ValueError:
                raise RasterFormatError(
                    f"{path}:{lineno}: non-numeric cell value {token!r}") from None
    expected = nrows * ncols
    if len(values) != expected:
        raise RasterFormatError(
            f"{path}: data section has {len(values)} cells, expected {expected}")
    cells = np.array(values).reshape(nrows, ncols)
    try:
        return CostSurface(
            ncols=ncols, nrows=nrows, cell_size=header["cellsize"],
            origin=(header.get("xllcorner", 0.0), header.get("yllcorner", 0.0)),
            nodata=nodata, cells=cells)
    except RasterFormatError as exc:
        raise RasterFormatError(f"{path}: {exc}") from None


def write_raster(surface: CostSurface, path: str | Path) -> None:
    """Emit the surface back to ESRI ASCII (used by fixture generators)."""
    with Path(path).open("w") as fh:
        fh.write(f"NCOLS {surface.ncols}\n")
        fh.write(f"NROWS {surface.nrows}\n")
        fh.write(f"XLLCORNER {surface.origin[0]:g}\n")
        fh.write(f"YLLCORNER {surface.origin[1]:g}\n")
        fh.write(f"CELLSIZE {surface.cell_size:g}\n")
        fh.write(f"NODATA_VALUE {surface.nodata:g}\n")
        for r in range(surface.nrows):
            fh.write(" ".join(f"{v:g}" for v in surface.cells[r]) + "\n")
