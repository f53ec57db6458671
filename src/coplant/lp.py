"""Sparse linear-program container and solver front-end.

The `LinearProgram` object is the single numerical currency of the package:
the dispatch builder, the network selector and the MPS exporter all speak it.
Solving is delegated to scipy's HiGHS backend behind a stable interface;
the test suite checks it against an independent vertex-enumeration oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: Centralized numerical tolerances.
FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)


class LpValidationError(ValueError):
    """The problem description itself is malformed (NaN, reversed bounds, ...)."""


class LpStatusError(RuntimeError):
    """An operation required an optimal solution but did not get one."""

    def __init__(self, status: str):
        super().__init__(f"LP solution status is '{status}', expected 'optimal'")
        self.status = status


class LpSolverError(RuntimeError):
    """HiGHS stopped without proving optimality, infeasibility or unboundedness
    (iteration limit, numerical trouble, ...)."""


@dataclass
class Variable:
    name: str
    lower: float = 0.0
    upper: float = math.inf
    objective: float = 0.0


@dataclass
class Constraint:
    name: str
    coeffs: list[tuple[int, float]]  # (variable index, coefficient)
    sense: str
    rhs: float


@dataclass
class LinearProgram:
    """Minimization LP with bounded variables and sparse rows."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def add_variable(self, name: str, lower: float = 0.0, upper: float = math.inf,
                     objective: float = 0.0) -> int:
        self.variables.append(Variable(name, lower, upper, objective))
        return len(self.variables) - 1

    def add_constraint(self, name: str, coeffs: list[tuple[int, float]], sense: str,
                       rhs: float) -> int:
        self.constraints.append(Constraint(name, list(coeffs), sense, rhs))
        return len(self.constraints) - 1

    def validate(self) -> None:
        if not self.variables:
            raise LpValidationError("problem has no variables")
        for i, v in enumerate(self.variables):
            if math.isnan(v.lower) or math.isnan(v.upper) or not math.isfinite(v.objective):
                raise LpValidationError(f"variable {v.name!r} (index {i}) has a non-finite field")
            if v.lower > v.upper:
                raise LpValidationError(
                    f"variable {v.name!r} has reversed bounds: {v.lower} > {v.upper}")
        n = len(self.variables)
        for c in self.constraints:
            if c.sense not in _SENSES:
                raise LpValidationError(f"constraint {c.name!r} has unknown sense {c.sense!r}")
            if not math.isfinite(c.rhs):
                raise LpValidationError(f"constraint {c.name!r} has non-finite rhs")
            for j, a in c.coeffs:
                if not 0 <= j < n:
                    raise LpValidationError(f"constraint {c.name!r} references variable index {j}")
                if not math.isfinite(a):
                    raise LpValidationError(f"constraint {c.name!r} has non-finite coefficient")


@dataclass
class LpSolution:
    status: str                     # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float = math.nan
    duals: np.ndarray | None = None  # one per constraint, when optimal

    def require_optimal(self) -> None:
        if self.status != "optimal":
            raise LpStatusError(self.status)


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Minimize the problem; deterministic for a fixed input.

    Returns a solution with status 'optimal', 'infeasible' or 'unbounded'.
    Raises LpValidationError for malformed problems and LpSolverError for any
    other solver outcome.
    """
    problem.validate()
    n = problem.n_variables
    c = np.array([v.objective for v in problem.variables])
    bounds = [(v.lower, None if math.isinf(v.upper) else v.upper)
              for v in problem.variables]

    ub_rows, ub_rhs, ub_map = [], [], []      # (row data, rhs, (index, sign))
    eq_rows, eq_rhs, eq_map = [], [], []
    for i, con in enumerate(problem.constraints):
        sign = -1.0 if con.sense == GE else 1.0
        data = [(j, sign * a) for j, a in con.coeffs]
        if con.sense == EQ:
            eq_rows.append(data)
            eq_rhs.append(con.rhs)
            eq_map.append(i)
        else:
            ub_rows.append(data)
            ub_rhs.append(sign * con.rhs)
            ub_map.append((i, sign))

    def _matrix(rows: list) -> sparse.csr_matrix:
        ii, jj, vv = [], [], []
        for r, data in enumerate(rows):
            for j, a in data:
                ii.append(r)
                jj.append(j)
                vv.append(a)
        return sparse.csr_matrix((vv, (ii, jj)), shape=(len(rows), n))

    kwargs = {}
    if ub_rows:
        kwargs["A_ub"] = _matrix(ub_rows)
        kwargs["b_ub"] = np.array(ub_rhs)
    if eq_rows:
        kwargs["A_eq"] = _matrix(eq_rows)
        kwargs["b_eq"] = np.array(eq_rhs)

    res = linprog(c, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": FEASIBILITY_TOL,
                           "dual_feasibility_tolerance": FEASIBILITY_TOL},
                  **kwargs)

    if res.status == 2:
        return LpSolution(status="infeasible")
    if res.status == 3:
        return LpSolution(status="unbounded")
    if res.status != 0:
        raise LpSolverError(f"LP solver failed (status {res.status}): {res.message}")

    duals = np.zeros(problem.n_constraints)
    if ub_rows:
        for (i, sign), m in zip(ub_map, res.ineqlin.marginals):
            duals[i] = sign * m
    if eq_rows:
        for i, m in zip(eq_map, res.eqlin.marginals):
            duals[i] = m
    return LpSolution(status="optimal", x=np.asarray(res.x), objective=float(res.fun),
                      duals=duals)
