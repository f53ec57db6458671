"""Fixed-column MPS interchange format for LinearProgram objects.

Field layout (1-based columns, names at most 8 characters):

    field 1: cols  2-3   (indicator: row type, bound type)
    field 2: cols  5-12  (name)
    field 3: cols 15-22  (name)
    field 4: cols 25-36  (value)
    field 5: cols 40-47  (name)
    field 6: cols 50-61  (value)

Sections are emitted in the order NAME, ROWS, COLUMNS, RHS, BOUNDS, ENDATA.
The objective is the single N row, named OBJ.  Variable lower bounds are
always written explicitly when nonzero, so UP entries never imply a free
lower bound on re-import.
"""

from __future__ import annotations

import math

import numpy as np

from coplant.lp import EQ, GE, LE, LinearProgram

MAX_NAME = 8
_ROW_TYPE = {LE: "L", GE: "G", EQ: "E"}
_TYPE_ROW = {"L": LE, "G": GE, "E": EQ}


class MpsFormatError(ValueError):
    """Text does not conform to the fixed-column MPS layout."""


def _format_value(value: float) -> str:
    for digits in (11, 10, 9, 8, 7, 6, 5):
        s = f"{value:.{digits}G}"
        if len(s) <= 12:
            return s
    return f"{value:.4E}"  # pragma: no cover - last resort


def _format_values(values) -> list[str]:
    """`_format_value` of each entry, computed once per distinct value.

    Values are told apart by bit pattern, so -0.0 keeps its own text."""
    values = np.ascontiguousarray(values, dtype=float)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([_format_value(v) for v in distinct.view(float).tolist()], dtype=object)
    return texts[inverse].tolist()


def export_lp(problem: LinearProgram, name: str = "COPLANT") -> str:
    """Serialize a validated problem to fixed-column MPS text.

    Columns and rows without names are written with generated ones
    (C0000000, R0000000, ...).  Given names longer than the 8-character
    field raise an error listing every offender, as do duplicate names.
    """
    problem.validate()
    var_names = problem.col_names or [f"C{j:07d}" for j in range(problem.n_variables)]
    row_names = problem.row_names or [f"R{i:07d}" for i in range(problem.n_constraints)]
    offenders = [n for n in var_names + row_names if len(n) > MAX_NAME]
    if offenders:
        raise MpsFormatError(
            "names exceed the %d-character MPS field: %s"
            % (MAX_NAME, ", ".join(sorted(set(offenders)))))
    if len(set(var_names)) != len(var_names) or len(set(row_names)) != len(row_names):
        raise MpsFormatError("duplicate names")
    padded_vars = np.array([f"{n:<8}" for n in var_names], dtype=object)
    padded_rows = np.array([f"{n:<8}" for n in row_names] + ["OBJ     "], dtype=object)

    out = [f"NAME          {name}", "ROWS", " N  OBJ"]
    out += [f" {_ROW_TYPE[sense]}  {rn}".rstrip()
            for rn, sense in zip(row_names, problem.sense.tolist())]

    # each column's entries: its cost on OBJ if nonzero, then its matrix
    # coefficients by row; a column with neither gets a 0 on OBJ so that the
    # parser still sees it
    by_col = problem.matrix().tocsc()
    n, obj_row = problem.n_variables, problem.n_constraints
    counts = np.diff(by_col.indptr)
    has_obj = (problem.cost != 0.0) | (counts == 0)
    cols = np.concatenate([np.flatnonzero(has_obj), np.repeat(np.arange(n), counts)])
    rows = np.concatenate([np.full(int(has_obj.sum()), obj_row), by_col.indices])
    values = np.concatenate([np.where(problem.cost != 0.0, problem.cost, 0.0)[has_obj],
                             by_col.data])
    order = np.argsort(cols, kind="stable")
    out.append("COLUMNS")
    out += [f"    {vn}  {rn}  {v}" for vn, rn, v in
            zip(padded_vars[cols[order]], padded_rows[rows[order]],
                _format_values(values[order]))]

    nonzero = np.flatnonzero(problem.rhs != 0.0)
    out.append("RHS")
    out += [f"    RHS       {rn}  {v}" for rn, v in
            zip(padded_rows[nonzero], _format_values(problem.rhs[nonzero]))]

    # up to two entries per column, in column order: FX, FR, MI or LO, then UP
    lo, up = problem.lower, problem.upper
    fixed = lo == up
    free = ~fixed & np.isneginf(lo) & np.isposinf(up)
    first = np.select([fixed, free, np.isneginf(lo), lo != 0.0], ["FX", "FR", "MI", "LO"], "")
    second = np.where(~fixed & ~free & ~np.isposinf(up), "UP", "")
    kinds = np.concatenate([first, second])
    keep = np.flatnonzero(kinds != "")
    keep = keep[np.argsort(keep % n, kind="stable")]
    texts = _format_values(np.concatenate([lo, up])[keep])
    out.append("BOUNDS")
    out += [f" {kind} BND       {vn}  {v if kind not in ('FR', 'MI') else ''}".rstrip()
            for kind, vn, v in zip(kinds[keep].tolist(), padded_vars[keep % n], texts)]

    out.append("ENDATA")
    return "\n".join(out) + "\n"


def import_lp(text: str) -> LinearProgram:
    """Parse fixed-column MPS text back into a LinearProgram.

    RANGES entries are not supported and raise MpsFormatError.
    """
    section = None
    obj_row: str | None = None
    row_sense: dict[str, str] = {}
    var_index: dict[str, int] = {}
    row_coeffs: dict[str, list[tuple[int, float]]] = {}
    obj_coeffs: dict[int, float] = {}
    rhs: dict[str, float] = {}
    bounds: dict[int, list[float]] = {}

    def _var(name: str) -> int:
        if name not in var_index:
            var_index[name] = len(var_index)
        return var_index[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            word = raw.split()[0]
            if word not in ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
                raise MpsFormatError(f"line {lineno}: unknown section {word!r}")
            section = word
            if word == "ENDATA":
                break
            continue
        fields = raw.split()
        if section == "ROWS":
            if len(fields) != 2:
                raise MpsFormatError(f"line {lineno}: malformed ROWS entry")
            rtype, rname = fields
            if rtype == "N":
                if obj_row is None:
                    obj_row = rname
                continue
            if rtype not in _TYPE_ROW:
                raise MpsFormatError(f"line {lineno}: unknown row type {rtype!r}")
            row_sense[rname] = _TYPE_ROW[rtype]
            row_coeffs[rname] = []
        elif section == "COLUMNS":
            if len(fields) not in (3, 5):
                raise MpsFormatError(f"line {lineno}: malformed COLUMNS entry")
            j = _var(fields[0])
            for rname, sval in zip(fields[1::2], fields[2::2]):
                value = float(sval)
                if rname == obj_row:
                    obj_coeffs[j] = obj_coeffs.get(j, 0.0) + value
                elif rname in row_coeffs:
                    row_coeffs[rname].append((j, value))
                else:
                    raise MpsFormatError(f"line {lineno}: unknown row {rname!r}")
        elif section == "RHS":
            if len(fields) not in (3, 5):
                raise MpsFormatError(f"line {lineno}: malformed RHS entry")
            for rname, sval in zip(fields[1::2], fields[2::2]):
                if rname == obj_row:
                    continue
                if rname not in row_sense:
                    raise MpsFormatError(f"line {lineno}: unknown row {rname!r}")
                rhs[rname] = float(sval)
        elif section == "BOUNDS":
            btype = fields[0]
            if btype in ("FR", "MI", "PL"):
                if len(fields) != 3:
                    raise MpsFormatError(f"line {lineno}: malformed BOUNDS entry")
                j = _var(fields[2])
                b = bounds.setdefault(j, [0.0, math.inf])
                if btype == "FR":
                    b[0], b[1] = -math.inf, math.inf
                elif btype == "MI":
                    b[0] = -math.inf
            elif btype in ("UP", "LO", "FX"):
                if len(fields) != 4:
                    raise MpsFormatError(f"line {lineno}: malformed BOUNDS entry")
                j = _var(fields[2])
                value = float(fields[3])
                b = bounds.setdefault(j, [0.0, math.inf])
                if btype == "UP":
                    b[1] = value
                elif btype == "LO":
                    b[0] = value
                else:
                    b[0] = b[1] = value
            else:
                raise MpsFormatError(f"line {lineno}: unknown bound type {btype!r}")
        elif section == "RANGES":
            raise MpsFormatError(f"line {lineno}: RANGES entries are not supported")
        elif section == "NAME":
            continue
        else:
            raise MpsFormatError(f"line {lineno}: data outside any section")

    if not var_index:
        raise MpsFormatError("no variables found")

    n = len(var_index)
    lower, upper = zip(*(bounds.get(j, (0.0, math.inf)) for j in range(n)))
    lp = LinearProgram()
    lp.add_columns(n, lower=lower, upper=upper, cost=[obj_coeffs.get(j, 0.0) for j in range(n)],
                   names=list(var_index))
    row_names = list(row_sense)
    if row_names:
        lp.add_rows([row_sense[r] for r in row_names], [rhs.get(r, 0.0) for r in row_names],
                    [(i, [j for j, _ in row_coeffs[r]], [a for _, a in row_coeffs[r]])
                     for i, r in enumerate(row_names)],
                    names=row_names)
    lp.validate()
    return lp
