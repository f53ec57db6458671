"""The error contract of `coplant.cli.main`.

Every error coplant raises for bad input or a failed solve is a
CoplantError that carries its exit code; an OSError exits 5; any other
exception is a bug and propagates with its traceback.  The property test
changes one value of one input file of small instances and requires an
exit code, never an exception."""

import contextlib
import csv
import io
import math
import pickle
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

# every module that defines an error is imported, for `every_subclass`
from coplant import cli, configio, dispatch, fleet, lp, mps, reference, reports  # noqa: F401
from coplant.domain import Commodity, CoplantError
from coplant.sinknet import network, raster  # noqa: F401
from coplant.sinknet.raster import CostSurface, write_raster


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 24 h plant with its profiles, a one-plant fleet, a 4x5 raster with
    two sources and a sink, and the plant's solution.json."""
    root = tmp_path_factory.mktemp("inputs")
    scenario = reference.netzero_scenario(horizon=24)
    spec = reference.reference_system(scenario)
    (root / "scenario.cfg").write_text(configio.serialize_scenario(scenario))
    (root / "system.cfg").write_text(configio.serialize_system(spec, profiles_dir=root))
    (root / "plants.csv").write_text(
        "id,lat,lon,clinker_tpd,solar_ref,wind_ref\nP1,30,110,4000,solar,wind\n")
    write_raster(CostSurface(ncols=5, nrows=4, cell_size=10.0, origin=(0.0, 0.0),
                             nodata=-9999.0, cells=np.arange(1.0, 21.0).reshape(4, 5)),
                 root / "cost.asc")
    (root / "sources.csv").write_text(
        "id,row,col,capturable,capture_cost\nS1,0,0,2.0e6,40\nS2,3,1,1.5e6,35\n")
    (root / "sinks.csv").write_text(
        "id,row,col,capacity,sequestration_cost\nK1,3,4,3.0e6,6\n")
    assert run("solve", root) == 0
    shutil.copy(root / "out" / "solution.json", root)
    return root


def argv(command: str, d: Path) -> list[str]:
    """The command line of `command` on the inputs in `d`, writing to d/out."""
    common = ["--spec", d / "system.cfg", "--scenario", d / "scenario.cfg", "-o", d / "out"]
    return [str(a) for a in {
        "solve": ["solve", *common],
        "report": ["report", *common, "--solution", d / "solution.json"],
        "fleet": ["fleet", *common, "--plants", d / "plants.csv", "--profiles", d],
        "netopt": ["netopt", "--surface", d / "cost.asc", "--sources", d / "sources.csv",
                   "--sinks", d / "sinks.csv", "--target", "2e6", "-o", d / "out"],
    }[command]]


def run(command: str, d: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv(command, d))


def errors(d: Path) -> list[str]:
    """The error column of d/out/fleet_results.csv."""
    text = (d / "out" / "fleet_results.csv").read_text()
    return [row["error"] for row in csv.DictReader(text.splitlines())]


def copy_inputs(inputs: Path, d: Path, edits: dict[str, bytes]) -> None:
    """Copy the input files into `d`, then write each file named in `edits`."""
    for path in inputs.iterdir():
        if path.is_file():
            shutil.copy(path, d)
    for name, data in edits.items():
        (d / name).write_bytes(data)


def test_plain_value_error_propagates(inputs, tmp_path, monkeypatch):
    """A ValueError that is not a CoplantError is a bug, not bad input."""
    def broken(spec, scenario):
        raise ValueError("a bug")

    copy_inputs(inputs, tmp_path, {})
    monkeypatch.setattr(dispatch, "build_lp", broken)
    with pytest.raises(ValueError, match="^a bug$"):
        run("solve", tmp_path)


@pytest.mark.parametrize("command, name", [
    ("solve", "scenario.cfg"), ("solve", "system.cfg"), ("solve", "solar.csv"),
    ("fleet", "plants.csv"), ("netopt", "sources.csv"), ("netopt", "sinks.csv"),
    ("netopt", "cost.asc"), ("report", "solution.json")],
    ids=["scenario", "system", "profile", "plants", "sources", "sinks", "raster", "solution"])
def test_non_utf8_input_names_the_file(inputs, tmp_path, capsys, command, name):
    data = (inputs / name).read_bytes()
    cut = data.index(b"\n") + 1
    copy_inputs(inputs, tmp_path, {name: data[:cut] + b"\xff" + data[cut:]})
    assert run(command, tmp_path) == 3
    assert f"invalid input: {tmp_path / name}: not UTF-8 text: " in capsys.readouterr().err


def test_solution_not_json_names_the_file(inputs, tmp_path, capsys):
    copy_inputs(inputs, tmp_path, {"solution.json": b"{not json"})
    assert run("report", tmp_path) == 3
    assert (f"invalid input: {tmp_path / 'solution.json'}: not JSON: Expecting property name"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["sources", "plants", "profile"])
def test_csv_field_over_the_limit(inputs, tmp_path, capsys, kind):
    """A field longer than csv.field_size_limit() is an input error naming
    the file and line; in a fleet profile, that plant's error records it."""
    long = "x" * (csv.field_size_limit() + 1)
    if kind == "profile":
        copy_inputs(inputs, tmp_path, {
            "long.csv": f"cf\n0.5\n{long}\n".encode(),
            "plants.csv": TWO_PLANTS.replace(b"P1,30,110,4000,solar", b"P1,30,110,4000,long")})
        assert run("fleet", tmp_path) == 0
        assert errors(tmp_path) == [
            f"ConfigError: {tmp_path / 'long.csv'}:3: field larger than field limit "
            f"({csv.field_size_limit()})", ""]
        return
    name, command = {"sources": ("sources.csv", "netopt"), "plants": ("plants.csv", "fleet")}[kind]
    lines = (inputs / name).read_text().splitlines()
    lines[1] = long + lines[1][lines[1].index(","):]
    copy_inputs(inputs, tmp_path, {name: "\n".join(lines).encode()})
    assert run(command, tmp_path) == 3
    assert (f"invalid input: {tmp_path / name}:2: field larger than field limit"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


TWO_PLANTS = (b"id,lat,lon,clinker_tpd,solar_ref,wind_ref\n"
              b"P1,30,110,4000,solar,wind\nP2,30,111,5000,wind,solar\n")


def stalled(*args, **kwargs):
    from scipy.optimize import OptimizeResult
    return OptimizeResult(status=4, message="numerical difficulties")


def test_fleet_records_every_solver_failure(inputs, tmp_path, monkeypatch, capsys):
    """With HiGHS stalled, each plant records LpSolverError and the fleet,
    with no plant left, exits 6."""
    recorded = []
    failed = fleet._failed

    def recording(plant, exc):
        result = failed(plant, exc)
        recorded.append(result.error)
        return result

    copy_inputs(inputs, tmp_path, {"plants.csv": TWO_PLANTS})
    monkeypatch.setattr(fleet, "_failed", recording)
    monkeypatch.setattr(lp, "linprog", stalled)
    assert run("fleet", tmp_path) == 6
    assert "every plant in the fleet failed" in capsys.readouterr().err
    assert len(recorded) == 2
    assert all(e.startswith("LpSolverError: LP solver failed (status 4)") for e in recorded)


def test_fleet_failure_names_each_plant(inputs, tmp_path, capsys):
    """With no plant left, the exit-6 message gives each plant's own error,
    here a missing profile for P1 and a bad one for P2."""
    plants = TWO_PLANTS.replace(b"P1,30,110,4000,solar", b"P1,30,110,4000,gone") \
        .replace(b"P2,30,111,5000,wind", b"P2,30,111,5000,bad")
    copy_inputs(inputs, tmp_path, {"plants.csv": plants, "bad.csv": b"abc\n"})
    assert run("fleet", tmp_path) == 6
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: every plant in the fleet failed: "
        f"P1: FileNotFoundError: profile 'gone' not found at {tmp_path / 'gone.csv'}; "
        f"P2: ConfigError: profile {tmp_path / 'bad.csv'} has 0 hours, need 24")


def every_subclass(cls):
    """The subclasses of `cls`, theirs, and so on."""
    for sub in cls.__subclasses__():
        yield sub
        yield from every_subclass(sub)


#: Constructor arguments of the errors that take something other than a message.
ERROR_ARGS = {dispatch.StructuralInfeasibility: (Commodity.CEMENT,),
              lp.LpStatusError: ("infeasible",)}


@pytest.mark.parametrize("error", sorted(set(every_subclass(CoplantError)),
                                         key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_error_survives_pickling(error):
    """Every error can cross the fleet's worker pool: a pickle round trip keeps
    its type, message, exit code and attributes."""
    original = error(*ERROR_ARGS.get(error, ("a message",)))
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is error
    assert (str(copy), copy.exit_code, vars(copy)) == \
        (str(original), original.exit_code, vars(original))


def test_one_solver_failure_does_not_sink_the_fleet(inputs, tmp_path, monkeypatch):
    calls = []
    solve = lp.linprog

    def first_stalls(*args, **kwargs):
        calls.append(1)
        return stalled() if len(calls) == 1 else solve(*args, **kwargs)

    copy_inputs(inputs, tmp_path, {"plants.csv": TWO_PLANTS})
    monkeypatch.setattr(lp, "linprog", first_stalls)
    assert run("fleet", tmp_path) == 0
    first, second = errors(tmp_path)
    assert first.startswith("LpSolverError: LP solver failed (status 4)")
    assert second == ""


def test_balance_violation_is_a_solver_failure(inputs, tmp_path, monkeypatch, capsys):
    copy_inputs(inputs, tmp_path, {})
    monkeypatch.setattr(dispatch, "BALANCE_TOL", -1.0)
    assert run("solve", tmp_path) == 6
    assert "error: balance violated for " in capsys.readouterr().err


def test_netopt_without_open_cells(tmp_path):
    """No open cell and no node: an empty network, and no warning on the way."""
    (tmp_path / "cost.asc").write_text(
        "NCOLS 2\nNROWS 1\nCELLSIZE 1\nNODATA_VALUE -9999\n-9999 -9999\n")
    (tmp_path / "sources.csv").write_text("id,row,col,capturable,capture_cost\n")
    (tmp_path / "sinks.csv").write_text("id,row,col,capacity,sequestration_cost\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["netopt", "--surface", str(tmp_path / "cost.asc"),
                         "--sources", str(tmp_path / "sources.csv"),
                         "--sinks", str(tmp_path / "sinks.csv"),
                         "--target", "0", "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "network.csv").read_text().splitlines() == [
        "source,sink,flow_t_per_yr,length_km,diameter_class,pipe_count,annual_cost"]


#: The files each command of the property test reads.
MUTABLE = {"solve": ("scenario.cfg", "system.cfg", "solar.csv", "wind.csv"),
           "fleet": ("scenario.cfg", "system.cfg", "plants.csv", "solar.csv", "wind.csv"),
           "netopt": ("cost.asc", "sources.csv", "sinks.csv")}
#: A number in a config, CSV or raster file.
NUMBER = re.compile(rb"(?<![\w.+-])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
VALUES = (b"0", b"-1", b"1e308", b"nan", b"inf", b"-inf", b"", b"abc", b"1e20", b"x:y",
          b"1,2", b"\xff")
#: A number as the CLI prints it.
PRINTED = re.compile(r"(?<![a-z])[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)(?![a-z])",
                     re.IGNORECASE)


@settings(max_examples=50, deadline=None)
# the cement mill's cement output set to 0: a balance row without terms,
# which LinearProgram.add_rows failed on with a plain ValueError
@example(target=("solve", "system.cfg"), slot=46, value=b"0")
@example(target=("fleet", "solar.csv"), slot=0, value=b"\xff")
# the raster's cell on line 8 made `1,2`: the data section's parse fails, and
# the search for the bad token, by the same parser, names its line
@example(target=("netopt", "cost.asc"), slot=13, value=b"1,2")
@given(target=st.sampled_from([(c, f) for c, files in MUTABLE.items() for f in files]),
       slot=st.integers(0, 10_000), value=st.sampled_from(VALUES))
def test_one_changed_value_exits_with_a_code(inputs, target, slot, value):
    """Changing any one number of any input file ends in an exit code, and
    a run that exits 0 prints only finite numbers.  Exit 6 stays allowed: a
    one-plant fleet whose plant fails exits 6, and a 48 h `transport_cost`
    of 1e15 ends in HiGHS status "Not Set" (no magnitude bound on config
    values yet)."""
    command, name = target
    data = (inputs / name).read_bytes()
    spans = [m.span() for m in NUMBER.finditer(data)]
    start, end = spans[slot % len(spans)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        copy_inputs(inputs, d, {name: data[:start] + value + data[end:]})
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv(command, d))
        printed = out.getvalue().replace(str(d / "out"), "")
    assert code in (0, 2, 3, 4, 5, 6)
    if code == 0:
        assert all(math.isfinite(float(n)) for n in PRINTED.findall(printed)), printed
