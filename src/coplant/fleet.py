"""Batch optimization of a fleet of plant sites.

Loads a plant registry CSV, runs one job per site (`_solve_plant`) with
site-specific renewable profiles, and assembles sorted cost-capacity curves,
with one more curve per one-at-a-time capex perturbation when asked.

Plants CSV schema:   id,lat,lon,clinker_tpd,solar_ref,wind_ref
Profiles:            <profiles_dir>/<ref>.csv, one column of hourly capacity
                     factors with a one-line header.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path

from coplant import dispatch, lp
from coplant.configio import finite_float, read_profile_csv
from coplant.costing import solution_abatement_cost
from coplant.domain import Scenario, SystemSpec

logger = logging.getLogger(__name__)

MIN_CLINKER_TPD = 2_500.0
MAX_CLINKER_TPD = 10_000.0
DEFAULT_UTILIZATION = 0.80

PLANTS_HEADER = ["id", "lat", "lon", "clinker_tpd", "solar_ref", "wind_ref"]

SENSITIVITY_PARAMETERS = ("solar_capex", "wind_capex", "electrolyzer_capex")
DELTA = 0.20
#: The one-at-a-time capex perturbations: curve label -> (parameter, factor).
PERTURBATIONS = {f"{p}:{sign}{DELTA:.0%}": (p, factor)
                 for p in SENSITIVITY_PARAMETERS
                 for sign, factor in (("+", 1.0 + DELTA), ("-", 1.0 - DELTA))}

_PLANT_ERRORS = (OSError, ValueError, lp.LpStatusError)


class PlantsSchemaError(ValueError):
    pass


class FleetFailedError(RuntimeError):
    """Every plant of a non-empty fleet failed to solve."""


@dataclass(frozen=True)
class PlantSite:
    id: str
    latitude: float
    longitude: float
    clinker_capacity: float      # t clinker per day
    solar_profile_ref: str
    wind_profile_ref: str

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise PlantsSchemaError(f"{self.id}: latitude out of range")
        if not -180.0 <= self.longitude <= 180.0:
            raise PlantsSchemaError(f"{self.id}: longitude out of range")

    def cement_demand_tph(self, scenario: Scenario) -> float:
        """Average hourly cement delivery implied by capacity and utilization."""
        clinker_tph = self.clinker_capacity / 24.0
        return clinker_tph * scenario.cement_per_clinker * DEFAULT_UTILIZATION


@dataclass
class PlantResult:
    plant: PlantSite
    abatement: float             # $/t CO2, transport and sequestration excluded
    cement_capacity: float       # t cement per year at the utilization rate
    flex_inflex_ratio: float     # flexible total cost over inflexible
    error: str | None = None
    perturbed: tuple[PlantResult, ...] = ()  # one per perturbation; not reported


@dataclass
class FleetResult:
    per_plant: list[PlantResult]
    curve: list[tuple[float, float]]   # (cumulative cement t/yr, abatement $/t)
    sensitivity: dict[str, list[tuple[float, float]]] | None = None  # label -> curve


def load_plants(csv_path: str | Path) -> list[PlantSite]:
    """Read and validate the registry; out-of-range capacities are dropped.

    A non-finite lat, lon or clinker_tpd, a repeated id and an out-of-range
    coordinate raise PlantsSchemaError naming the file and line, also in a
    row that the capacity range drops.  The line is the file line on which
    the row ends, so a quoted field that spans lines does not shift it."""
    path = Path(csv_path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PlantsSchemaError(f"{path}: file is empty") from None
        if [h.strip() for h in header] != PLANTS_HEADER:
            raise PlantsSchemaError(
                f"{path}: header {header} does not match {PLANTS_HEADER}")
        plants: list[PlantSite] = []
        excluded = 0
        first_line: dict[str, int] = {}
        for row in reader:
            lineno = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(PLANTS_HEADER):
                raise PlantsSchemaError(f"{path}:{lineno}: expected "
                                        f"{len(PLANTS_HEADER)} columns, got {len(row)}")
            values = {}
            for col, cell in zip(PLANTS_HEADER, row):
                cell = cell.strip()
                if col in ("lat", "lon", "clinker_tpd"):
                    try:
                        values[col] = finite_float(cell)
                    except ValueError:
                        raise PlantsSchemaError(
                            f"{path}:{lineno}: column '{col}' is not a finite number: "
                            f"{cell!r}") from None
                else:
                    values[col] = cell
            if values["id"] in first_line:
                raise PlantsSchemaError(
                    f"{path}:{lineno}: repeated plant id {values['id']!r} "
                    f"(first on line {first_line[values['id']]})")
            first_line[values["id"]] = lineno
            try:
                plant = PlantSite(
                    id=values["id"], latitude=values["lat"], longitude=values["lon"],
                    clinker_capacity=values["clinker_tpd"],
                    solar_profile_ref=values["solar_ref"],
                    wind_profile_ref=values["wind_ref"])
            except PlantsSchemaError as exc:
                raise PlantsSchemaError(f"{path}:{lineno}: {exc}") from None
            if MIN_CLINKER_TPD <= plant.clinker_capacity <= MAX_CLINKER_TPD:
                plants.append(plant)
            else:
                excluded += 1
    if excluded:
        logger.info("excluded %d plant(s) outside [%g, %g] t clinker/day",
                    excluded, MIN_CLINKER_TPD, MAX_CLINKER_TPD)
    return plants


def load_profile(profiles_dir: str | Path, ref: str, horizon: int) -> tuple[float, ...]:
    path = Path(profiles_dir) / f"{ref}.csv"
    if not path.exists():
        raise FileNotFoundError(f"profile '{ref}' not found at {path}")
    return read_profile_csv(path, horizon)


def _site_spec(template: SystemSpec, scenario: Scenario, plant: PlantSite,
               solar: tuple[float, ...], wind: tuple[float, ...]) -> SystemSpec:
    renewables = []
    for r in template.renewables:
        profile = solar if r.id == "solar" else wind if r.id == "wind" else r.profile
        renewables.append(dataclasses.replace(r, profile=profile))
    cement = plant.cement_demand_tph(scenario)
    return dataclasses.replace(
        template, renewables=tuple(renewables),
        demand_cement=cement, demand_methanol=cement / scenario.stoichiometry_x)


def _failed(plant: PlantSite, exc: Exception) -> PlantResult:
    logger.warning("plant %s failed: %s", plant.id, exc)
    return PlantResult(plant=plant, abatement=float("nan"), cement_capacity=0.0,
                       flex_inflex_ratio=float("nan"), error=f"{type(exc).__name__}: {exc}")


def _solve_plant(template: SystemSpec, scenario: Scenario, plant: PlantSite,
                 profiles_dir: str | Path,
                 perturbations: tuple[tuple[str, float], ...] = ()) -> PlantResult:
    """One site's whole job: its abatement in the scenario's own mode, its
    flexible/inflexible cost ratio, and in PlantResult.perturbed its
    abatement under each (parameter, factor) of `perturbations`.

    The profiles are read and the own-mode LP is built once and solved cold.
    Every other solve starts from that optimal basis by primal simplex
    (`lp.solve_lp`), which may stop at another optimal vertex than a cold
    solve, with other capacities.  The other mode's LP has the same shape
    and differs in methanol synthesis's min-load coefficients
    (`dispatch.build_lp`); each perturbation re-prices the own-mode LP's
    capacity columns (`dispatch.reprice_capacity`).

    Unreadable or short profiles and invalid or infeasible site models are
    recorded in PlantResult.error as "<ExceptionType>: <message>", for the
    site (which then has no perturbed results) or for one perturbation;
    anything else raises.
    """
    own = scenario.flexibility_mode
    other = "inflexible" if own == "flexible" else "flexible"
    other_scenario = dataclasses.replace(scenario, flexibility_mode=other)
    try:
        solar = load_profile(profiles_dir, plant.solar_profile_ref, scenario.horizon_hours)
        wind = load_profile(profiles_dir, plant.wind_profile_ref, scenario.horizon_hours)
        spec = _site_spec(template, scenario, plant, solar, wind)
        problem = dispatch.build_lp(spec, scenario)
        start = lp.solve_lp(problem)
        sols = {own: dispatch.extract_solution(spec, scenario, start),
                other: dispatch.extract_solution(spec, other_scenario, lp.solve_lp(
                    dispatch.build_lp(spec, other_scenario), start.basis))}
        abate = solution_abatement_cost(sols[own], spec, scenario, include_transport=False)
    except _PLANT_ERRORS as exc:  # must not sink the batch
        return _failed(plant, exc)
    capacity = plant.cement_demand_tph(scenario) * dispatch.HOURS_PER_YEAR
    perturbed = []
    for parameter, factor in perturbations:
        moved = _perturbed(spec, parameter, factor)
        dispatch.reprice_capacity(problem, moved, scenario)
        try:
            sol = dispatch.extract_solution(moved, scenario, lp.solve_lp(problem, start.basis))
            cost = solution_abatement_cost(sol, moved, scenario, include_transport=False)
        except _PLANT_ERRORS as exc:
            perturbed.append(_failed(plant, exc))
            continue
        perturbed.append(PlantResult(plant, cost, capacity, flex_inflex_ratio=float("nan")))
    return PlantResult(
        plant=plant,
        abatement=abate,
        cement_capacity=capacity,
        flex_inflex_ratio=sols["flexible"].objective / sols["inflexible"].objective,
        perturbed=tuple(perturbed),
    )


def _cost_capacity_curve(results: list[PlantResult]) -> list[tuple[float, float]]:
    """Cumulative capacity against abatement, cheapest plant first.

    Ties in abatement break by plant id.  Raises FleetFailedError when there
    are results and none of them succeeded.
    """
    succeeded = [r for r in results if r.error is None]
    if results and not succeeded:
        raise FleetFailedError("every plant in the fleet failed; see per-plant errors")
    curve = []
    cumulative = 0.0
    for r in sorted(succeeded, key=lambda r: (r.abatement, r.plant.id)):
        cumulative += r.cement_capacity
        curve.append((cumulative, r.abatement))
    return curve


def run_fleet(plants: list[PlantSite], template: SystemSpec, scenario: Scenario,
              profiles_dir: str | Path, workers: int = 1,
              sensitivity: bool = False) -> FleetResult:
    """Optimize every site independently and sort the cost-capacity curve.

    Results are keyed/ordered by plant id, so shuffling the input list does
    not change the output.  With `sensitivity`, each site's job also solves
    the PERTURBATIONS and FleetResult.sensitivity holds their curves.  With
    workers > 1, the jobs run in one process pool; the result order is still
    by plant id.
    """
    perturbations = tuple(PERTURBATIONS.values()) if sensitivity else ()
    jobs = [(template, scenario, p, str(profiles_dir), perturbations)
            for p in sorted(plants, key=lambda p: p.id)]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_plant, *zip(*jobs)))
    else:
        results = [_solve_plant(*job) for job in jobs]
    result = FleetResult(per_plant=results, curve=_cost_capacity_curve(results))
    if sensitivity:
        result.sensitivity = sensitivity_sweep(result)
    return result


def _perturbed(spec: SystemSpec, parameter: str, factor: float) -> SystemSpec:
    """`spec` with the capex of the asset that `parameter` names scaled by `factor`."""
    if parameter not in SENSITIVITY_PARAMETERS:
        raise ValueError(
            f"unknown sensitivity parameter {parameter!r}; valid: {SENSITIVITY_PARAMETERS}")
    target = parameter.removesuffix("_capex")

    def scaled(assets):
        return tuple(dataclasses.replace(a, capex=a.capex * factor) if a.id == target else a
                     for a in assets)

    return dataclasses.replace(spec, conversion_units=scaled(spec.conversion_units),
                               renewables=scaled(spec.renewables))


def sensitivity_sweep(result: FleetResult) -> dict[str, list[tuple[float, float]]]:
    """The PERTURBATIONS' curves by label, from a `run_fleet(..., sensitivity=True)` result.

    A perturbed curve leaves out the plants that failed under it; when all
    failed, FleetFailedError is raised."""
    succeeded = [r for r in result.per_plant if r.error is None]
    return {label: _cost_capacity_curve([r.perturbed[i] for r in succeeded])
            for i, label in enumerate(PERTURBATIONS)}
