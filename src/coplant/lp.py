"""Sparse linear-program container and solver front-end.

The `LinearProgram` object is the single numerical currency of the package:
the dispatch builder, the MPS exporter and the solver all speak it.
Solving is delegated to scipy's HiGHS backend behind a stable interface;
the test suite checks it against an independent vertex-enumeration oracle.

Warm starts: an optimal solve returns HiGHS's final basis as the text of a
HiGHS basis file (`LpSolution.basis`), and `solve_lp(problem, basis)` starts
the simplex from such a text.  It is meant for a family of LPs of one shape
that differ in a few coefficients, such as a capex perturbation that moves
one cost entry.  A cost change leaves the old optimal basis primal feasible
but not dual feasible, so a warm start runs primal simplex (HiGHS's
`simplex_strategy` 4), which resumes from that basis; the default dual
simplex would first have to win dual feasibility back.  `fleet` also starts
one flexibility mode's LP from the other's basis, a change of matrix
coefficients that may leave the basis primal infeasible.  Measured both
ways on the reference plant and the benchmark's sites, it still took
0-691 iterations against 1,400-1,732 cold at 48 h, and 1,679-3,253
against 4,793-6,429 at 168 h.  A family that moves
right-hand sides instead, such as `costing.sweep_stoichiometry`, keeps dual
feasibility, yet dual simplex measured slower on it: warm-starting each of
8 ratios of the 168 h reference plant from the previous ratio's basis, it
took fewer iterations than primal (111-233 against 422-680) but more time
(0.32-0.40 s per solve against 0.20-0.30 s).  No such family is
warm-started today.  Cold solves keep HiGHS's default strategy.  The
objective is the same as a cold solve's, but where the optimum is not
unique the warm start may stop at a different optimal vertex, so `x` can
differ.  The basis travels through scipy's `linprog` as
HiGHS's own `read_basis_file` and `write_basis_file` options, in a
temporary directory.  This was verified on scipy 1.17.1 with HiGHS 1.12;
on a HiGHS that writes no basis file, `basis` stays None and every solve
is cold.

`scipy.sparse` is imported by the first `matrix()` call and
`scipy.optimize` on the first solve, not with this module, so commands
that solve no LP (`netopt`, `report`) never load them from here.  The
module function `linprog` is the one place HiGHS is called, looked up at
each solve: tests and the benchmark's tracer patch it to watch or stub HiGHS.
"""

from __future__ import annotations

import math
import re
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from coplant.domain import CoplantError

if TYPE_CHECKING:
    from scipy import sparse

#: Primal and dual feasibility tolerance handed to HiGHS.
FEASIBILITY_TOL = 1e-7

#: HiGHS calls a matrix coefficient of HIGHS_MAX_COEFFICIENT or more a model
#: error, and reads a cost, bound or right-hand side of HIGHS_INFINITY or more
#: as infinite (its `large_matrix_value`, `infinite_cost` and `infinite_bound`).
HIGHS_MAX_COEFFICIENT, HIGHS_INFINITY = 1e15, 1e20

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)


class LpValidationError(CoplantError, ValueError):
    """The problem description itself is malformed (NaN, reversed bounds, ...)."""


class LpStatusError(CoplantError, RuntimeError):
    """An operation required an optimal solution but did not get one."""

    exit_code = 4

    def __init__(self, status: str):
        super().__init__(f"LP solution status is '{status}', expected 'optimal'")
        self.status = status


class LpSolverError(CoplantError, RuntimeError):
    """HiGHS stopped without proving optimality, infeasibility or unboundedness
    (iteration limit, numerical trouble, ...)."""

    exit_code = 6


class LinearProgram:
    """Minimization LP held as arrays.

    Columns are `lower`, `upper` and `cost`; rows are `sense` and `rhs`.
    The coefficients are kept as COO blocks, one per `add_rows` call, and
    `matrix()` assembles them into one CSR matrix.  Columns and rows are
    known by index only.
    """

    def __init__(self) -> None:
        self.lower = np.zeros(0)
        self.upper = np.zeros(0)
        self.cost = np.zeros(0)
        self.sense = np.zeros(0, dtype="<U2")
        self.rhs = np.zeros(0)
        # (row, column, value) triplets, one block per add_rows call after this empty one
        self._blocks = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]

    @property
    def n_variables(self) -> int:
        return self.lower.size

    @property
    def n_constraints(self) -> int:
        return self.rhs.size

    def add_columns(self, count: int, lower=0.0, upper=math.inf, cost=0.0) -> int:
        """Append `count` columns and return the index of the first.

        `lower`, `upper` and `cost` are each one value for every new column
        or one value per column.
        """
        first = self.n_variables
        lower, upper, cost = (np.broadcast_to(np.asarray(a, dtype=float), (count,))
                              for a in (lower, upper, cost))
        self.lower = np.concatenate([self.lower, lower])
        self.upper = np.concatenate([self.upper, upper])
        self.cost = np.concatenate([self.cost, cost])
        return first

    def add_rows(self, sense, rhs, terms) -> int:
        """Append one row per entry of `rhs` and return the index of the first.

        `sense` is one sense for every new row or one per row.  Each term
        `(rows, cols, vals)` puts coefficient `vals[k]` at row `rows[k]` of the
        block (counted from 0) and column `cols[k]`; scalars are broadcast.
        With no terms, the rows have no coefficients.
        """
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        sense = np.broadcast_to(sense, rhs.shape)
        no_term = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
        rows, cols, vals = (np.concatenate(part) for part in zip(
            *(map(np.ravel, np.broadcast_arrays(*term)) for term in (no_term, *terms))))
        if rows.size and (rows.min() < 0 or rows.max() >= rhs.size):
            raise LpValidationError(f"a term addresses a row outside the block of {rhs.size}")
        first = self.n_constraints
        self._blocks.append((rows.astype(np.intp) + first, cols.astype(np.intp),
                             vals.astype(float)))
        self.sense = np.concatenate([self.sense, sense])
        self.rhs = np.concatenate([self.rhs, rhs])
        return first

    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row indices, column indices and values of every coefficient, in order."""
        return tuple(np.concatenate(part) for part in zip(*self._blocks))

    def matrix(self) -> sparse.csr_matrix:
        """The constraint matrix; coefficients given twice for one cell are summed."""
        from scipy import sparse
        rows, cols, vals = self._coo()
        return sparse.csr_matrix((vals, (rows, cols)),
                                 shape=(self.n_constraints, self.n_variables))

    def validate(self) -> None:
        if not self.n_variables:
            raise LpValidationError("problem has no variables")
        rows, cols, vals = self._coo()

        def rows_with(mask: np.ndarray) -> np.ndarray:
            out = np.zeros(self.n_constraints, dtype=bool)
            out[rows[mask]] = True
            return out

        for bad, kind, what in (
                (np.isnan(self.lower) | np.isnan(self.upper) | ~np.isfinite(self.cost),
                 "variable", "has a non-finite field"),
                (self.lower > self.upper, "variable", "has reversed bounds"),
                (~np.isin(self.sense, _SENSES), "constraint", "has an unknown sense"),
                (~np.isfinite(self.rhs), "constraint", "has a non-finite rhs"),
                (rows_with((cols < 0) | (cols >= self.n_variables)), "constraint",
                 "references a variable index out of range"),
                (rows_with(~np.isfinite(vals)), "constraint", "has a non-finite coefficient")):
            if bad.any():
                raise LpValidationError(f"{kind} {int(np.argmax(bad))} {what}")


@dataclass
class LpSolution:
    status: str                     # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float = math.nan
    iterations: int = 0             # HiGHS simplex or IPM iterations
    solver_status: int | None = None  # scipy linprog status code
    solver_message: str = ""        # HiGHS model status as linprog reports it
    basis: str | None = None        # HiGHS basis-file text, when optimal

    def require_optimal(self) -> None:
        if self.status != "optimal":
            raise LpStatusError(self.status)


def linprog(*args, **kwargs):
    """scipy's `linprog`, imported on the first call."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def _check_basis_shape(basis: str, problem: LinearProgram) -> None:
    """Raise LpValidationError unless the basis text is for the problem's shape."""
    sizes = [re.search(rf"^# {what} (\d+)$", basis, re.MULTILINE)
             for what in ("Columns", "Rows")]
    if None in sizes:
        raise LpValidationError("basis has no '# Columns' and '# Rows' header")
    columns, rows = (int(m.group(1)) for m in sizes)
    if (columns, rows) != (problem.n_variables, problem.n_constraints):
        raise LpValidationError(
            f"basis is for {columns} columns and {rows} rows, but the problem has "
            f"{problem.n_variables} columns and {problem.n_constraints} rows")


def _check_highs_range(problem: LinearProgram, matrix: sparse.csr_matrix) -> None:
    """Raise LpValidationError naming the first row or column that holds a
    magnitude HiGHS would misread (HIGHS_MAX_COEFFICIENT, HIGHS_INFINITY)."""
    big = np.flatnonzero(np.abs(matrix.data) >= HIGHS_MAX_COEFFICIENT)
    if big.size:
        row = int(np.searchsorted(matrix.indptr, big[0], side="right")) - 1
        raise LpValidationError(
            f"constraint {row} has coefficient {matrix.data[big[0]]:g} on variable "
            f"{matrix.indices[big[0]]}; HiGHS takes magnitudes below {HIGHS_MAX_COEFFICIENT:g}")
    for values, what in ((problem.cost, "variable {} has cost"),
                         (problem.lower, "variable {} has lower bound"),
                         (problem.upper, "variable {} has upper bound"),
                         (problem.rhs, "constraint {} has rhs")):
        bad = np.flatnonzero(np.isfinite(values) & (np.abs(values) >= HIGHS_INFINITY))
        if bad.size:
            raise LpValidationError(f"{what.format(bad[0])} {values[bad[0]]:g}; HiGHS reads "
                                    f"a magnitude of {HIGHS_INFINITY:g} or more as infinite")


def solve_lp(problem: LinearProgram, basis: str | None = None) -> LpSolution:
    """Minimize the problem; deterministic for a fixed input and basis.

    Returns a solution with status 'optimal', 'infeasible' or 'unbounded'.
    `basis` is a starting basis from an earlier `LpSolution.basis` of an LP
    of the same shape; from it HiGHS runs primal simplex, which suits LPs
    that differ from the basis's LP in cost coefficients.  Raises
    LpValidationError for malformed problems, magnitudes HiGHS misreads and
    a basis of another shape, and LpSolverError for any other solver outcome.
    """
    problem.validate()
    if basis is not None:
        _check_basis_shape(basis, problem)
    matrix = problem.matrix()
    _check_highs_range(problem, matrix)
    # GE rows are negated into LE rows; EQ rows keep sign 1
    sign = np.where(problem.sense == GE, -1.0, 1.0)
    matrix.data *= np.repeat(sign, np.diff(matrix.indptr))
    rhs = sign * problem.rhs
    eq = problem.sense == EQ
    ub = ~eq
    kwargs = {}
    if ub.any():
        kwargs["A_ub"], kwargs["b_ub"] = matrix[ub], rhs[ub]
    if eq.any():
        kwargs["A_eq"], kwargs["b_eq"] = matrix[eq], rhs[eq]

    with tempfile.TemporaryDirectory() as tmp:
        final = Path(tmp, "final.bas")
        options = {"primal_feasibility_tolerance": FEASIBILITY_TOL,
                   "dual_feasibility_tolerance": FEASIBILITY_TOL,
                   "write_basis_file": str(final)}
        if basis is not None:
            start = Path(tmp, "start.bas")
            start.write_text(basis)
            options["read_basis_file"] = str(start)
            options["simplex_strategy"] = 4  # primal; see the module docstring
        from scipy.optimize import OptimizeWarning
        with warnings.catch_warnings():
            # linprog does not know these HiGHS options and passes them on
            warnings.filterwarnings("ignore", "Unrecognized options detected",
                                    OptimizeWarning)
            res = linprog(problem.cost, bounds=np.column_stack([problem.lower, problem.upper]),
                          method="highs", options=options, **kwargs)
        final_basis = final.read_text() if res.status == 0 and final.exists() else None

    if res.status not in (0, 2, 3):
        raise LpSolverError(f"LP solver failed (status {res.status}): {res.message}")
    stats = dict(iterations=int(res.nit), solver_status=int(res.status),
                 solver_message=res.message)
    if res.status == 2:
        return LpSolution(status="infeasible", **stats)
    if res.status == 3:
        return LpSolution(status="unbounded", **stats)
    return LpSolution(status="optimal", x=np.asarray(res.x), objective=float(res.fun),
                      basis=final_basis, **stats)
