"""ESRI ASCII grid ingestion for pipeline construction cost surfaces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coplant.configio import read_text
from coplant.domain import MAX_MAGNITUDE, CoplantError, DomainError

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


class RasterFormatError(CoplantError, ValueError):
    pass


@dataclass
class CostSurface:
    """Row-major raster of per-km cost multipliers; nodata cells are barriers.

    Every cell is either a multiplier in [0, MAX_MAGNITUDE] or the (finite)
    nodata value.  The cell size is in (0, MAX_MAGNITUDE], the origin finite."""

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
        if self.cell_size > MAX_MAGNITUDE:
            raise RasterFormatError(
                f"CELLSIZE must be at most {MAX_MAGNITUDE:g}, got {self.cell_size}")
        if not all(map(math.isfinite, self.origin)):
            raise RasterFormatError(
                f"XLLCORNER and YLLCORNER must be finite numbers, got {self.origin}")
        if not np.isfinite(self.nodata):
            raise RasterFormatError(
                f"NODATA_VALUE must be a finite number, got {self.nodata}")
        bad = np.argwhere(~(self.is_nodata | ((self.cells >= 0) & (self.cells <= MAX_MAGNITUDE))))
        if bad.size:
            r, c = bad[0]
            kind = "cost cell" if np.isfinite(self.cells[r, c]) else "non-finite cost cell"
            raise RasterFormatError(f"{kind} {self.cells[r, c]} at row {r}, col {c} is outside "
                                    f"[0, {MAX_MAGNITUDE:g}]; mark barriers with NODATA_VALUE")

    @property
    def is_nodata(self) -> np.ndarray:
        return self.cells == self.nodata

    @property
    def n_cells(self) -> int:
        return self.nrows * self.ncols

    def index(self, row: int, col: int) -> int:
        if not (0 <= row < self.nrows and 0 <= col < self.ncols):
            raise DomainError(f"cell (row {row}, col {col}) is outside the "
                              f"{self.nrows}x{self.ncols} raster")
        return row * self.ncols + col

    def rowcol(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.ncols)

    def traversable(self, cell: int) -> bool:
        r, c = self.rowcol(cell)
        return self.cells[r, c] != self.nodata


def _cells(text: str) -> np.ndarray:
    """The whitespace-separated cell values of `text`, one line, in order, by
    numpy's C tokenizer: a decimal or exponent float, `nan` or `inf`, and
    nothing else (no `_` digit separator, no comment).  ValueError on any
    other token."""
    return np.loadtxt([text], ndmin=1, comments=None)


def _first_bad(tokens: list[str]) -> str:
    """The first of `tokens`, which `_cells` refuses together, that it
    refuses alone, found by halving so a long line costs two parses of it."""
    while len(tokens) > 1:
        half = len(tokens) // 2
        try:
            _cells(" ".join(tokens[:half]))
        except ValueError:
            tokens = tokens[:half]
        else:
            tokens = tokens[half:]
    return tokens[0]


def load_raster(path: str | Path) -> CostSurface:
    """Parse an ESRI ASCII grid; errors carry the offending line number."""
    path = Path(path)
    header: dict[str, float] = {}
    lines = read_text(path, RasterFormatError).split("\n")
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
    data = lines[data_start - 1:]
    try:
        values = _cells(" ".join(data))
    except ValueError:
        # the slow way, once, with the same parser, to name the line and the token
        for lineno, line in enumerate(data, start=data_start):
            if not line.strip():  # no cells, on which numpy warns
                continue
            try:
                _cells(line)
            except ValueError:
                raise RasterFormatError(f"{path}:{lineno}: non-numeric cell value "
                                        f"{_first_bad(line.split())!r}") from None
        raise  # not reached: the join merges no tokens, so some line fails alone
    expected = nrows * ncols
    if len(values) != expected:
        raise RasterFormatError(
            f"{path}: data section has {len(values)} cells, expected {expected}")
    cells = values.reshape(nrows, ncols)
    try:
        return CostSurface(
            ncols=ncols, nrows=nrows, cell_size=header["cellsize"],
            origin=(header.get("xllcorner", 0.0), header.get("yllcorner", 0.0)),
            nodata=nodata, cells=cells)
    except RasterFormatError as exc:
        raise RasterFormatError(f"{path}: {exc}") from None


def _exact(value: float) -> str:
    """`value` in `:g` form where that parses back to it, else its shortest
    exact form (repr), so a written surface loads back bit for bit."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


def write_raster(surface: CostSurface, path: str | Path) -> None:
    """Emit the surface back to ESRI ASCII (used by fixture generators)."""
    with Path(path).open("w") as fh:
        fh.write(f"NCOLS {surface.ncols}\n")
        fh.write(f"NROWS {surface.nrows}\n")
        fh.write(f"XLLCORNER {_exact(surface.origin[0])}\n")
        fh.write(f"YLLCORNER {_exact(surface.origin[1])}\n")
        fh.write(f"CELLSIZE {_exact(surface.cell_size)}\n")
        fh.write(f"NODATA_VALUE {_exact(surface.nodata)}\n")
        for r in range(surface.nrows):
            fh.write(" ".join(map(_exact, surface.cells[r].tolist())) + "\n")
