import hashlib
import math

import numpy as np
import pytest

from coplant import mps, reference
from coplant.dispatch import build_lp
from coplant.lp import EQ, GE, LE, LinearProgram, LpValidationError, solve_lp
from coplant.mps import MpsFormatError, export_lp

_SENSE = {"L": LE, "G": GE, "E": EQ}


def read_mps(text):
    """The LP, column names and row names of MPS text as `export_lp` writes
    it: one entry per line, the objective row OBJ, and FX, FR, MI, LO and UP
    bounds.  The round-trip oracle; it reads nothing else."""
    section, cols, rows = None, {}, {}
    cost, entries, rhs, bounds = {}, [], {}, {}
    for line in text.splitlines():
        fields = line.split()
        if not line[0].isspace():
            section = fields[0]
        elif section == "ROWS":
            if fields[0] != "N":
                rows[fields[1]] = (len(rows), _SENSE[fields[0]])
        elif section == "COLUMNS":
            col, row, value = fields
            j = cols.setdefault(col, len(cols))
            if row == "OBJ":
                cost[j] = float(value)
            else:
                entries.append((rows[row][0], j, float(value)))
        elif section == "RHS":
            rhs[rows[fields[1]][0]] = float(fields[2])
        elif section == "BOUNDS":
            kind, j = fields[0], cols[fields[2]]
            value = float(fields[3]) if len(fields) == 4 else None
            lo, up = bounds.get(j, (0.0, math.inf))
            lo = {"FX": value, "LO": value, "FR": -math.inf, "MI": -math.inf}.get(kind, lo)
            up = {"FX": value, "UP": value, "FR": math.inf}.get(kind, up)
            bounds[j] = (lo, up)
    lp = LinearProgram()
    lower, upper = zip(*(bounds.get(j, (0.0, math.inf)) for j in range(len(cols))))
    lp.add_columns(len(cols), lower=lower, upper=upper,
                   cost=[cost.get(j, 0.0) for j in range(len(cols))])
    if rows:
        lp.add_rows([sense for _, sense in rows.values()],
                    [rhs.get(i, 0.0) for i in range(len(rows))],
                    [tuple(np.array(entries).reshape(-1, 3).T)])
    return lp, list(cols), list(rows)


def two_var_lp():
    lp = LinearProgram()
    lp.add_columns(2, cost=1.0)
    lp.add_rows(GE, [4.0, 6.0], [([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 1.0])])
    return lp


def test_section_order():
    text = export_lp(two_var_lp())
    positions = [text.index(section)
                 for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")]
    assert positions == sorted(positions)


def test_empty_problem_rejected():
    with pytest.raises(LpValidationError):
        export_lp(LinearProgram())


def test_generated_names_overflow_rejected(monkeypatch):
    """An LP whose generated names would outgrow the name field is refused;
    a 2-character field, patched in, holds 10 columns and rows."""
    monkeypatch.setattr(mps, "MAX_NAME", 2)
    lp = LinearProgram()
    lp.add_columns(10, cost=1.0)
    lp.add_rows(LE, np.ones(10), [(np.arange(10), np.arange(10), 1.0)])
    export_lp(lp)
    lp.add_columns(1, cost=1.0)
    with pytest.raises(MpsFormatError, match="11 columns and 10 rows"):
        export_lp(lp)
    lp.add_rows(LE, [1.0], [(0, 10, 1.0)])
    with pytest.raises(MpsFormatError, match="at most 10 of each"):
        export_lp(lp)


def test_unnamed_lp_gets_generated_names():
    lp = LinearProgram()
    lp.add_columns(1, lower=0, upper=3, cost=-1.0)
    lp.add_rows(LE, [2.5], [(0, 0, 1.0)])
    back, col_names, row_names = read_mps(export_lp(lp))
    assert col_names == ["C0000000"]
    assert row_names == ["R0000000"]
    assert solve_lp(back).objective == pytest.approx(-2.5)


def test_round_trip_simple():
    lp = two_var_lp()
    back = read_mps(export_lp(lp))[0]
    a, b = solve_lp(lp), solve_lp(back)
    assert a.status == b.status == "optimal"
    assert b.objective == pytest.approx(a.objective, abs=1e-9)


def test_round_trip_random_20x30():
    rng = np.random.default_rng(5)

    def draw(lo, hi):
        # the fixed-width value field carries 11 significant digits, so draw
        # numbers on a 1e-6 grid that the field represents exactly
        return round(float(rng.uniform(lo, hi)), 6)

    lp = LinearProgram()
    upper, cost = [], []
    for _ in range(20):
        upper.append(draw(1, 10))
        cost.append(draw(-2, 2))
    lp.add_columns(20, lower=0.0, upper=upper, cost=cost)
    for j in range(30):
        idxs = rng.choice(20, size=3, replace=False)
        sense = [LE, GE][j % 2]
        # keep the origin feasible so the instance is guaranteed optimal
        rhs = draw(0, 6) if sense == LE else draw(-6, 0)
        lp.add_rows(sense, [rhs], [(0, idxs, [draw(-2, 2) for _ in idxs])])
    orig = solve_lp(lp)
    assert orig.status == "optimal"
    back = solve_lp(read_mps(export_lp(lp))[0])
    assert back.status == "optimal"
    assert back.objective == pytest.approx(orig.objective, abs=1e-9)


def test_round_trip_preserves_bound_kinds():
    lp = LinearProgram()
    lp.add_columns(4, lower=[2.0, -np.inf, -5.0, 1.0], upper=[2.0, np.inf, 0.0, 4.0],
                   cost=[1.0, 1.0, 1.0, -1.0])
    lp.add_rows(GE, [-3.0], [(0, 1, 1.0)])
    back = read_mps(export_lp(lp))[0]
    assert np.array_equal(back.lower, lp.lower)
    assert np.array_equal(back.upper, lp.upper)
    assert solve_lp(back).objective == pytest.approx(solve_lp(lp).objective, abs=1e-9)


def test_export_deterministic():
    lp = two_var_lp()
    assert export_lp(lp) == export_lp(lp)


def test_fixed_columns():
    # field positions follow the documented fixed layout
    text = export_lp(two_var_lp())
    for line in text.splitlines():
        if line.startswith(" ") and line.strip() and not line.startswith("  "):
            pass
    columns_lines = [l for l in text.splitlines()
                     if l.startswith("    ") and "OBJ" in l]
    assert columns_lines, "no COLUMNS entries found"
    for line in columns_lines:
        assert line[4:12].strip(), "variable name field (col 5) empty"


# sha256 of the MPS text of the reference plants, recorded when the LP still
# kept one Python object per column and row; the array LP must write the same
# bytes.  The inflexible (False) cases were recorded again when methanol
# synthesis got the flexible mode's row shape, with its lb rows pinning it.
REFERENCE_MPS_SHA256 = {
    ("netzero", True, 24): "c3015a91a2fe626dd2763ed8f6f14c9ad8763cdbef4a4bd18d32742509c7dd95",
    ("netzero", True, 48): "b1b58e062044add3b992062313e62ea28eb60f62287197fc791797db226daf68",
    ("netzero", False, 24): "dcad0d04d03171e312ea3d079a9c19bcb41fb7a3b73f8071b2977bea342cd33e",
    ("netzero", False, 48): "de99011df7c1b1978360d191ceb24d84264241b8955625b57044d59b558be4aa",
    ("noseq", True, 24): "f1a8bbec04c8ef616177de73016f4e4f0873bc16ea6ae9ff074e25211c08530a",
    ("noseq", True, 48): "dd1afe0f7a8c5a45a27c4c5230788019886a6ee34e0cc6fc36f262cd45e4aa5b",
    ("noseq", False, 24): "6118f510e292b5a2fe441249db7cf1c12837f266fc9ae19f3d3987b43746f2b4",
    ("noseq", False, 48): "2021bee91aa6005ffe748412b0f8ebad868185685acaa2bc00d548283eee68ef",
}


@pytest.mark.parametrize("case", sorted(REFERENCE_MPS_SHA256))
def test_reference_plant_mps_pinned(case):
    kind, flexible, horizon = case
    scenario = getattr(reference, f"{kind}_scenario")(horizon=horizon, flexible=flexible)
    text = export_lp(build_lp(reference.reference_system(scenario), scenario))
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_MPS_SHA256[case]
