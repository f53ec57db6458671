"""LP solver tests, anchored by an exhaustive vertex-enumeration oracle."""

import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coplant.lp import (
    EQ,
    GE,
    LE,

    LinearProgram,
    LpStatusError,
    LpValidationError,

    solve_lp,
)

def vertex_enumeration_oracle(lp: LinearProgram, tol: float = 1e-8):
    """Best objective over all basic feasible points of the polytope.

    Collects every finite bound and every constraint as a hyperplane and
    intersects all n-subsets of them at once: the subsets' rows form one
    (S, n, n) stack, which takes a single batched ``det`` (subsets with
    |det| < 1e-10 are dropped as singular) and a single batched ``solve``.
    One vectorised mask then keeps the points within ``tol`` of the bounds
    and the LE, GE and EQ rows.  Returns the least objective over those
    points, or None when there is none.

    Exponential, so only for tiny instances: the random LPs here have at
    most 20 planes in 6 variables, a worst-case stack of C(20, 6) = 38,760
    subsets x 6x6 floats, about 11 MB.
    """
    n = lp.n_variables
    lower, upper = lp.lower, lp.upper
    rows = lp.matrix().toarray()
    rhs, sense = lp.rhs, lp.sense

    # each variable's lower then upper bound plane, then the constraint rows
    bound_rhs = np.column_stack([lower, upper]).ravel()
    finite = np.isfinite(bound_rhs)
    plane_coeffs = np.vstack([np.repeat(np.eye(n), 2, axis=0)[finite], rows])
    plane_rhs = np.concatenate([bound_rhs[finite], rhs])

    subsets = np.array(list(itertools.combinations(range(len(plane_rhs)), n)),
                       dtype=np.intp).reshape(-1, n)
    A = plane_coeffs[subsets]
    b = plane_rhs[subsets]
    regular = np.abs(np.linalg.det(A)) >= 1e-10
    x = np.linalg.solve(A[regular], b[regular][..., None])[..., 0]

    lhs = x @ rows.T
    violated = (
        (x < lower - tol).any(axis=1) | (x > upper + tol).any(axis=1)
        | ((sense == LE) & (lhs > rhs + tol)).any(axis=1)
        | ((sense == GE) & (lhs < rhs - tol)).any(axis=1)
        | ((sense == EQ) & (np.abs(lhs - rhs) > tol)).any(axis=1))
    values = x[~violated] @ lp.cost
    return float(values.min()) if values.size else None

def random_lp(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    lp = LinearProgram()
    upper, cost = [], []
    for _ in range(n):
        upper.append(float(rng.uniform(0.5, 10.0)))
        cost.append(float(rng.uniform(-5, 5)))
    lp.add_columns(n, lower=0.0, upper=upper, cost=cost)
    for j in range(m):
        k = int(rng.integers(1, n + 1))
        idxs = rng.choice(n, size=k, replace=False)
        coeffs = [float(rng.uniform(-3, 3)) for _ in idxs]
        sense = [LE, GE][int(rng.integers(0, 2))]
        lp.add_rows(sense, [float(rng.uniform(-5, 10))], [(0, idxs, coeffs)])
    return lp

def test_trivial_box_maximum():
    lp = LinearProgram()
    lp.add_columns(1, lower=0.0, upper=5.0, cost=-1.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(5.0)
    assert sol.objective == pytest.approx(-5.0)

def test_two_by_two_vertex():
    lp = LinearProgram()
    lp.add_columns(2, cost=1.0)
    lp.add_rows(GE, [4.0, 6.0], [([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 1.0])])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.6, abs=1e-8)
    assert sol.x[1] == pytest.approx(1.2, abs=1e-8)
    assert sol.objective == pytest.approx(2.8, abs=1e-8)
    # no upper bounds: the oracle must skip the infinite bound planes
    assert vertex_enumeration_oracle(lp) == pytest.approx(2.8, abs=1e-8)

def test_equality_rows():
    """min -x + y s.t. 2x == 4, 3y == 3, x + y <= 5, x, y in [0, 10].

    The objective pulls x up and y down, so each EQ row binds from the
    other side: read as LE rows the optimum is -2, as GE rows -3, and
    without them -5.
    """
    lp = LinearProgram()
    lp.add_columns(2, lower=0.0, upper=10.0, cost=[-1.0, 1.0])
    lp.add_rows(EQ, [4.0, 3.0], [([0, 1], [0, 1], [2.0, 3.0])])
    lp.add_rows(LE, [5.0], [(0, [0, 1], 1.0)])
    assert vertex_enumeration_oracle(lp) == pytest.approx(-1.0, abs=1e-8)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-8)

def test_infeasible_status():
    lp = LinearProgram()
    lp.add_columns(1, cost=1.0)
    lp.add_rows([GE, LE], [1.0, 0.0], [([0, 1], 0, 1.0)])
    assert vertex_enumeration_oracle(lp) is None
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    with pytest.raises(LpStatusError):
        sol.require_optimal()

def test_unbounded_status():
    lp = LinearProgram()
    lp.add_columns(1, cost=-1.0)
    assert solve_lp(lp).status == "unbounded"

def test_solver_stats_reported(toy_scenario):
    """The reference plant over 24 h takes simplex iterations, and the
    solution carries them with the linprog status and message."""
    from coplant import reference
    from coplant.dispatch import build_lp
    sol = solve_lp(build_lp(reference.reference_system(toy_scenario), toy_scenario))
    assert sol.status == "optimal"
    assert sol.iterations > 0
    assert sol.solver_status == 0
    assert "Optimal" in sol.solver_message
    lp = LinearProgram()
    lp.add_columns(1, cost=-1.0)
    unbounded = solve_lp(lp)
    assert unbounded.solver_status == 3 and "nbounded" in unbounded.solver_message

def test_validation_errors():
    lp = LinearProgram()
    with pytest.raises(LpValidationError):
        solve_lp(lp)  # empty problem
    lp.add_columns(1, lower=2.0, upper=1.0, cost=0.0)
    with pytest.raises(LpValidationError, match="variable 0 has reversed bounds"):
        solve_lp(lp)
    lp2 = LinearProgram()
    lp2.add_columns(1, cost=float("nan"))
    with pytest.raises(LpValidationError):
        solve_lp(lp2)

def test_term_outside_block_rejected():
    lp = LinearProgram()
    lp.add_columns(1)
    with pytest.raises(LpValidationError):
        lp.add_rows(LE, [1.0], [(1, 0, 1.0)])  # row 1 of a one-row block
    assert lp.n_variables == 1 and lp.n_constraints == 0

def test_rows_without_terms():
    """A row block with no terms has no coefficients: 0 = 0 holds, 0 = 1 does not."""
    lp = LinearProgram()
    lp.add_columns(1, cost=1.0)
    lp.add_rows(EQ, [0.0], [])
    assert solve_lp(lp).status == "optimal"
    lp.add_rows(EQ, [1.0], [])
    assert lp.matrix().nnz == 0
    assert solve_lp(lp).status == "infeasible"


def magnitude_lp(a=1.0, cost=1.0, lower=0.0, upper=math.inf, rhs=1.0) -> LinearProgram:
    """min cost*x0 + x1 subject to a*x0 + x1 >= rhs, lower <= x0 <= upper, x1 >= 0."""
    lp = LinearProgram()
    lp.add_columns(2, lower=[lower, 0.0], upper=[upper, math.inf], cost=[cost, 1.0])
    lp.add_rows(GE, [rhs], [(0, [0, 1], [a, 1.0])])
    return lp


@pytest.mark.parametrize("fields, message", [
    ({"a": 1e15}, "constraint 0 has coefficient 1e+15 on variable 0; HiGHS takes "
                  "magnitudes below 1e+15"),
    ({"a": -2e300}, "constraint 0 has coefficient -2e+300 on variable 0"),
    ({"cost": -1e20}, "variable 0 has cost -1e+20; HiGHS reads a magnitude of 1e+20 or "
                      "more as infinite"),
    ({"upper": 1e20}, "variable 0 has upper bound 1e+20"),
    ({"lower": -3e20}, "variable 0 has lower bound -3e+20"),
    ({"rhs": 1e20}, "constraint 0 has rhs 1e+20")],
    ids=["coefficient", "tiny-efficiency", "cost", "upper", "lower", "rhs"])
def test_magnitudes_highs_misreads_rejected(fields, message):
    """A coefficient HiGHS calls a model error (the LP read as infeasible
    before), or a cost or finite bound it reads as infinite (an upper bound
    of 1e20 read as unbounded), is named before HiGHS runs.  `validate`,
    which MPS export shares, still accepts the LP."""
    lp = magnitude_lp(**fields)
    lp.validate()
    with pytest.raises(LpValidationError, match=re.escape(message)):
        solve_lp(lp)


@pytest.mark.parametrize("fields", [
    {"a": 9.99e14}, {"cost": 9.9e19}, {"upper": 1e19}, {"lower": -math.inf}],
    ids=["coefficient", "cost", "upper", "infinite-lower"])
def test_magnitudes_below_the_highs_limits_solve(fields):
    """Just below each limit, and at an infinite bound, HiGHS solves."""
    sol = solve_lp(magnitude_lp(**fields))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1 / 9.99e14 if "a" in fields else 1.0)


def test_oracle_agreement_200_random_lps():
    """[PRIMARY] solver matches vertex enumeration on >=200 random LPs."""
    rng = np.random.default_rng(20240817)
    start = time.monotonic()
    checked = 0
    for _ in range(200):
        lp = random_lp(rng)
        sol = solve_lp(lp)
        oracle = vertex_enumeration_oracle(lp)
        if oracle is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(
                oracle, rel=1e-6, abs=1e-6), f"lp #{checked}"
        checked += 1
    assert checked == 200
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"200 LPs took {elapsed:.1f}s"

def test_weak_duality_on_random_lps():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lp = random_lp(rng)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            continue
        # dual objective = sum over constraints of dual*rhs plus bound terms;
        # validate via the complementary-slackness-free certificate that
        # duals price the constraints consistently: recompute the objective
        # from a feasible point and check it cannot beat the optimum.
        x = np.array([min(max(0.0, lo), up if math.isfinite(up) else lo)
                      for lo, up in zip(lp.lower, lp.upper)])
        obj = sum(c * xi for c, xi in zip(lp.cost, x))
        feasible = all(
            (lhs <= rhs + 1e-9 if sense == "<=" else lhs >= rhs - 1e-9)
            for lhs, rhs, sense in zip(lp.matrix() @ x, lp.rhs, lp.sense))
        if feasible:
            assert sol.objective <= obj + 1e-6 * max(1.0, abs(obj))

def test_duals_reported_and_priced():
    # tight resource constraint
    lp = LinearProgram()
    lp.add_columns(2, cost=[-3.0, -2.0])
    lp.add_rows(LE, [4.0, 3.0], [([0, 0, 1], [0, 1, 0], 1.0)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-11.0)

def test_scaling_invariance_of_argmin():
    rng = np.random.default_rng(99)
    for _ in range(20):
        lp = random_lp(rng)
        sol = solve_lp(lp)
        if sol.status != "optimal":
            continue
        scaled = LinearProgram()
        scaled.add_columns(lp.n_variables, lower=lp.lower, upper=lp.upper,
                           cost=10.0 * lp.cost)
        coo = lp.matrix().tocoo()
        scaled.add_rows(lp.sense, lp.rhs, [(coo.row, coo.col, coo.data)])
        sol10 = solve_lp(scaled)
        assert sol10.status == "optimal"
        assert sol10.objective == pytest.approx(10 * sol.objective,
                                                rel=1e-6, abs=1e-6)

def test_determinism():
    rng = np.random.default_rng(3)
    lp = random_lp(rng)
    a, b = solve_lp(lp), solve_lp(lp)
    assert a.status == b.status
    if a.status == "optimal":
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective

@settings(max_examples=50, deadline=None)
@given(rhs=st.floats(-10, 10), coef=st.floats(0.1, 5))
def test_single_constraint_property(rhs, coef):
    """min x s.t. coef*x >= rhs, x in [0, 100] -> x = clamp(rhs/coef)."""
    lp = LinearProgram()
    lp.add_columns(1, lower=0.0, upper=100.0, cost=1.0)
    lp.add_rows(GE, [rhs], [(0, 0, coef)])
    sol = solve_lp(lp)
    want = min(max(rhs / coef, 0.0), 100.0)
    if rhs / coef > 100.0:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(want, abs=1e-6)


# ------------------------------------------------------------- warm starts

@pytest.fixture(scope="module")
def netzero48_lp():
    """The 48 h reference plant's LP and its cold optimal solution."""
    from coplant import reference
    from coplant.dispatch import build_lp
    scenario = reference.netzero_scenario(horizon=48)
    spec = reference.reference_system(scenario)
    lp = build_lp(spec, scenario)
    return spec, scenario, solve_lp(lp, keep_basis=True)


@pytest.mark.parametrize("factor", [0.8, 1.2])
@pytest.mark.parametrize("parameter", ["solar_capex", "wind_capex", "electrolyzer_capex"])
def test_warm_start_matches_cold_on_capex_perturbations(netzero48_lp, parameter, factor):
    """A capex perturbation moves one cost entry; started from the baseline
    basis it reaches the cold solve's objective in fewer iterations."""
    from coplant.dispatch import build_lp
    from coplant.fleet import SENSITIVITY_PARAMETERS, _perturbed
    assert parameter in SENSITIVITY_PARAMETERS
    spec, scenario, base = netzero48_lp
    lp = build_lp(_perturbed(spec, parameter, factor), scenario)
    cold = solve_lp(lp)
    warm = solve_lp(lp, base.basis, keep_basis=True)
    assert cold.status == warm.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    if base.basis is not None:
        assert warm.iterations < cold.iterations
        assert warm.basis is not None


def test_warm_start_runs_primal_simplex(monkeypatch):
    """A solve from a basis asks HiGHS for primal simplex (strategy 4), which
    resumes from a basis that a cost change left primal feasible; a cold
    solve keeps HiGHS's default."""
    from coplant import lp as lp_module
    strategies = []
    linprog = lp_module.linprog

    def recording(*args, options, **kwargs):
        strategies.append(options.get("simplex_strategy"))
        return linprog(*args, options=options, **kwargs)

    monkeypatch.setattr(lp_module, "linprog", recording)
    lp = LinearProgram()
    lp.add_columns(2, cost=[1.0, 2.0])
    lp.add_rows(GE, [1.0], [(0, [0, 1], 1.0)])
    base = solve_lp(lp, keep_basis=True)
    if base.basis is None:
        pytest.skip("this HiGHS writes no basis file")
    lp.cost = np.array([3.0, 2.0])
    warm = solve_lp(lp, base.basis)
    cold = solve_lp(lp)
    assert strategies == [None, 4, None]
    assert warm.objective == cold.objective == pytest.approx(2.0)


def test_basis_of_other_shape_rejected(netzero48_lp, toy_scenario):
    from coplant import reference
    from coplant.dispatch import build_lp
    _, _, base = netzero48_lp
    if base.basis is None:
        pytest.skip("this HiGHS writes no basis file")
    lp24 = build_lp(reference.reference_system(toy_scenario), toy_scenario)
    with pytest.raises(LpValidationError) as err:
        solve_lp(lp24, base.basis)
    message = str(err.value)
    for size in (base.x.size, lp24.n_variables, lp24.n_constraints):
        assert str(size) in message
    with pytest.raises(LpValidationError, match="header"):
        solve_lp(lp24, "HiGHS_basis_file v2\nValid\n")


def test_warm_start_keeps_infeasible_and_unbounded_status():
    def one_column(cost, sense, rhs):
        lp = LinearProgram()
        lp.add_columns(1, cost=cost)
        lp.add_rows(sense, rhs, [([0, 1], 0, 1.0)])
        return lp

    base = solve_lp(one_column(1.0, [GE, LE], [1.0, 5.0]), keep_basis=True)
    assert base.status == "optimal"
    infeasible = solve_lp(one_column(1.0, [GE, LE], [6.0, 5.0]), base.basis, keep_basis=True)
    assert infeasible.status == "infeasible" and infeasible.basis is None
    unbounded = solve_lp(one_column(-1.0, [GE, GE], [1.0, 0.0]), base.basis,
                         keep_basis=True)
    assert unbounded.status == "unbounded" and unbounded.basis is None


def test_basis_only_on_request(monkeypatch, tmp_path):
    """HiGHS writes a basis file, and the solve makes a temporary directory,
    only when the solve keeps the basis or starts from one."""
    import tempfile

    from coplant import lp as lp_module
    calls = []
    linprog, temporary = lp_module.linprog, tempfile.TemporaryDirectory

    def recording(*args, options, **kwargs):
        calls.append(("linprog", options))
        return linprog(*args, options=options, **kwargs)

    def directory(*args, **kwargs):
        calls.append(("directory", None))
        return temporary(*args, **kwargs)

    monkeypatch.setattr(lp_module, "linprog", recording)
    monkeypatch.setattr(tempfile, "TemporaryDirectory", directory)
    lp = LinearProgram()
    lp.add_columns(2, cost=[1.0, 2.0])
    lp.add_rows(GE, [1.0], [(0, [0, 1], 1.0)])
    plain = solve_lp(lp)
    assert plain.status == "optimal" and plain.basis is None
    assert [kind for kind, _ in calls] == ["linprog"]
    assert not {"write_basis_file", "read_basis_file"} & calls[0][1].keys()

    calls.clear()
    kept = solve_lp(lp, keep_basis=True)
    assert [kind for kind, _ in calls] == ["directory", "linprog"]
    assert "write_basis_file" in calls[1][1] and "read_basis_file" not in calls[1][1]
    if kept.basis is None:
        pytest.skip("this HiGHS writes no basis file")
    assert kept.basis.startswith("HiGHS_basis_file")

    calls.clear()
    warm = solve_lp(lp, kept.basis)
    assert warm.objective == plain.objective and warm.basis is None
    assert [kind for kind, _ in calls] == ["directory", "linprog"]
    assert "read_basis_file" in calls[1][1] and "write_basis_file" not in calls[1][1]
