"""Fixed-column MPS export of LinearProgram objects.

Field layout (1-based columns, names at most 8 characters):

    field 1: cols  2-3   (indicator: row type, bound type)
    field 2: cols  5-12  (name)
    field 3: cols 15-22  (name)
    field 4: cols 25-36  (value)
    field 5: cols 40-47  (name)
    field 6: cols 50-61  (value)

Sections are emitted in the order NAME, ROWS, COLUMNS, RHS, BOUNDS, ENDATA.
The objective is the single N row, named OBJ.  Columns and rows get the
generated names C0000000, R0000000, ... in index order, so an LP has at most
10^7 of each.  Variable lower bounds are always written explicitly when
nonzero, so UP entries never imply a free lower bound in a reader.
"""

from __future__ import annotations

import numpy as np

from coplant.lp import EQ, GE, LE, LinearProgram

MAX_NAME = 8
_ROW_TYPE = {LE: "L", GE: "G", EQ: "E"}


class MpsFormatError(ValueError):
    """The LP does not fit the fixed-column MPS layout."""


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


def export_lp(problem: LinearProgram) -> str:
    """Serialize a validated problem to fixed-column MPS text.

    Raises MpsFormatError when a generated name would not fit the
    8-character field, that is for more than 10^7 columns or rows.
    """
    problem.validate()
    limit = 10 ** (MAX_NAME - 1)
    if max(problem.n_variables, problem.n_constraints) > limit:
        raise MpsFormatError(
            f"{problem.n_variables} columns and {problem.n_constraints} rows: the "
            f"{MAX_NAME}-character MPS name field holds at most {limit} of each")
    col_label = np.array([f"C{j:07d}" for j in range(problem.n_variables)], dtype=object)
    # the objective row OBJ, padded to the field, follows the constraint rows
    row_label = np.array([f"R{i:07d}" for i in range(problem.n_constraints)]
                         + ["OBJ     "], dtype=object)

    out = ["NAME          COPLANT", "ROWS", " N  OBJ"]
    out += [f" {_ROW_TYPE[sense]}  {rn}" for rn, sense in zip(row_label, problem.sense.tolist())]

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
            zip(col_label[cols[order]], row_label[rows[order]],
                _format_values(values[order]))]

    nonzero = np.flatnonzero(problem.rhs != 0.0)
    out.append("RHS")
    out += [f"    RHS       {rn}  {v}" for rn, v in
            zip(row_label[nonzero], _format_values(problem.rhs[nonzero]))]

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
            for kind, vn, v in zip(kinds[keep].tolist(), col_label[keep % n], texts)]

    out.append("ENDATA")
    return "\n".join(out) + "\n"
