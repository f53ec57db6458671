"""Batch optimization of a fleet of plant sites.

Loads a plant registry CSV, runs the dispatch optimization per site with
site-specific renewable profiles, and assembles sorted cost-capacity curves
plus one-at-a-time capex sensitivity envelopes.

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

from coplant.configio import finite_float, read_profile_csv
from coplant.costing import solution_abatement_cost
from coplant.dispatch import HOURS_PER_YEAR, runs_pinned, solve_dispatch
from coplant.domain import RenewableSource, Scenario, SystemSpec
from coplant.lp import LpStatusError

logger = logging.getLogger(__name__)

MIN_CLINKER_TPD = 2_500.0
MAX_CLINKER_TPD = 10_000.0
DEFAULT_UTILIZATION = 0.80

PLANTS_HEADER = ["id", "lat", "lon", "clinker_tpd", "solar_ref", "wind_ref"]

SENSITIVITY_PARAMETERS = ("solar_capex", "wind_capex", "electrolyzer_capex")


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
    basis: str | None = None     # HiGHS basis of the scenario-mode solve; not reported


@dataclass
class FleetResult:
    per_plant: list[PlantResult]
    curve: list[tuple[float, float]]   # (cumulative cement t/yr, abatement $/t)

    @property
    def failures(self) -> list[PlantResult]:
        return [r for r in self.per_plant if r.error is not None]


def load_plants(csv_path: str | Path) -> list[PlantSite]:
    """Read and validate the registry; out-of-range capacities are dropped.

    A row whose lat, lon or clinker_tpd is not a finite number raises
    PlantsSchemaError naming the file and line."""
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
        for lineno, row in enumerate(reader, start=2):
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
            if not MIN_CLINKER_TPD <= values["clinker_tpd"] <= MAX_CLINKER_TPD:
                excluded += 1
                continue
            plants.append(PlantSite(
                id=values["id"], latitude=values["lat"], longitude=values["lon"],
                clinker_capacity=values["clinker_tpd"],
                solar_profile_ref=values["solar_ref"],
                wind_profile_ref=values["wind_ref"]))
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


def _solve_plant(template: SystemSpec, scenario: Scenario, plant: PlantSite,
                 profiles_dir: str | Path, both_modes: bool = True,
                 basis: str | None = None) -> PlantResult:
    """Solve one site and price its abatement in the scenario's own mode.

    With both_modes the other flexibility mode is priced too, for the
    flexible/inflexible cost ratio; without it the ratio is nan.  The
    scenario's own mode is solved first.  When it is flexible and its optimum
    already runs every unit that inflexible mode pins at capacity
    (`dispatch.runs_pinned`), that optimum is the inflexible one as well, so
    the ratio is 1.0 and no second LP is solved; otherwise the other mode is
    solved cold.  The scenario-mode solve starts from `basis` when one is
    given, and its own final basis is kept in PlantResult.basis.  Unreadable
    or short profiles and invalid or infeasible site models are recorded in
    PlantResult.error as "<ExceptionType>: <message>"; anything else raises.
    """
    own = scenario.flexibility_mode
    try:
        solar = load_profile(profiles_dir, plant.solar_profile_ref, scenario.horizon_hours)
        wind = load_profile(profiles_dir, plant.wind_profile_ref, scenario.horizon_hours)
        spec = _site_spec(template, scenario, plant, solar, wind)
        sols = {own: solve_dispatch(spec, scenario, basis=basis)}
        if both_modes:
            other = "inflexible" if own == "flexible" else "flexible"
            other_scenario = dataclasses.replace(scenario, flexibility_mode=other)
            if other == "inflexible" and runs_pinned(sols[own], spec, other_scenario):
                sols[other] = sols[own]
            else:
                sols[other] = solve_dispatch(spec, other_scenario)
        abate = solution_abatement_cost(sols[own], spec, scenario, include_transport=False)
    except (OSError, ValueError, LpStatusError) as exc:  # must not sink the batch
        logger.warning("plant %s failed: %s", plant.id, exc)
        return PlantResult(plant=plant, abatement=float("nan"), cement_capacity=0.0,
                           flex_inflex_ratio=float("nan"),
                           error=f"{type(exc).__name__}: {exc}")
    return PlantResult(
        plant=plant,
        abatement=abate,
        cement_capacity=plant.cement_demand_tph(scenario) * HOURS_PER_YEAR,
        flex_inflex_ratio=(sols["flexible"].objective / sols["inflexible"].objective
                           if both_modes else float("nan")),
        basis=sols[own].basis,
    )


def _solve_jobs(jobs: list[tuple], workers: int) -> list[PlantResult]:
    """Run `_solve_plant` on each argument tuple, in order.

    With workers > 1 the jobs share one process pool.
    """
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_solve_plant, *zip(*jobs)))
    return [_solve_plant(*job) for job in jobs]


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
              profiles_dir: str | Path, workers: int = 1) -> FleetResult:
    """Optimize every site independently and sort the cost-capacity curve.

    Results are keyed/ordered by plant id, so shuffling the input list does
    not change the output.  With workers > 1, plants are solved in a process
    pool; the result order is still by plant id.
    """
    ordered = sorted(plants, key=lambda p: p.id)
    results = _solve_jobs([(template, scenario, p, str(profiles_dir)) for p in ordered],
                          workers)
    return FleetResult(per_plant=results, curve=_cost_capacity_curve(results))


def _perturbed_template(template: SystemSpec, parameter: str, factor: float) -> SystemSpec:
    if parameter == "electrolyzer_capex":
        units = tuple(dataclasses.replace(u, capex=u.capex * factor)
                      if u.id == "electrolyzer" else u
                      for u in template.conversion_units)
        return dataclasses.replace(template, conversion_units=units)
    target = parameter.removesuffix("_capex")
    renewables = tuple(dataclasses.replace(r, capex=r.capex * factor)
                       if r.id == target else r for r in template.renewables)
    return dataclasses.replace(template, renewables=renewables)


@dataclass
class SensitivityCurves:
    baseline: list[tuple[float, float]]
    curves: dict[str, list[tuple[float, float]]]   # "solar_capex:+20%" -> curve
    envelope: list[tuple[float, float, float]]     # (capacity, min, max) pointwise


def sensitivity_sweep(result: FleetResult, template: SystemSpec, scenario: Scenario,
                      profiles_dir: str | Path,
                      parameters: tuple[str, ...] = SENSITIVITY_PARAMETERS,
                      delta: float = 0.20, workers: int = 1) -> SensitivityCurves:
    """One-at-a-time +/-delta capex perturbations of a solved fleet, with a
    min-max envelope.

    `result` is the baseline `run_fleet` of the same fleet, template and
    scenario; its curve is the baseline curve.  Each perturbed fleet solves
    only the scenario's own flexibility mode, and only for the plants that
    succeeded at baseline: a capex change moves cost coefficients, not the
    feasible set.  All perturbed solves form one job list, run with
    `workers` processes as in run_fleet.

    Each perturbed solve is warm-started from its plant's baseline basis
    (`PlantResult.basis`, from the scenario-mode solve, which `_solve_plant`
    always runs), since it differs from the baseline LP in one cost entry;
    from that basis HiGHS runs primal simplex (see `lp.solve_lp`).  A plant
    without a basis is solved cold.  With the default parameters and a
    flexible scenario, baseline and sweep together solve 8 LPs per plant, or
    7 where the flexible optimum already runs methanol synthesis flat (see
    `_solve_plant`).  A warm start reaches the same optimal cost but may stop
    at another optimal vertex, with other capacities.  The baseline result
    holds one basis per successful plant, about 27 KB at 48 h and 99 KB at
    168 h.
    """
    for p in parameters:
        if p not in SENSITIVITY_PARAMETERS:
            raise ValueError(
                f"unknown sensitivity parameter {p!r}; valid: {SENSITIVITY_PARAMETERS}")
    succeeded = [r for r in result.per_plant if r.error is None]
    labels, jobs = [], []
    for p in parameters:
        for sign, label in ((1.0 + delta, f"{p}:+{delta:.0%}"),
                            (1.0 - delta, f"{p}:-{delta:.0%}")):
            perturbed = _perturbed_template(template, p, sign)
            labels.append(label)
            jobs += [(perturbed, scenario, r.plant, str(profiles_dir), False, r.basis)
                     for r in succeeded]
    results = _solve_jobs(jobs, workers)
    n = len(succeeded)
    curves = {label: _cost_capacity_curve(results[i * n:(i + 1) * n])
              for i, label in enumerate(labels)}
    baseline = result.curve
    envelope = []
    all_curves = [baseline] + list(curves.values())
    for capacity, _ in baseline:
        costs = [_curve_value(c, capacity) for c in all_curves]
        envelope.append((capacity, min(costs), max(costs)))
    return SensitivityCurves(baseline=baseline, curves=curves, envelope=envelope)


def _curve_value(curve: list[tuple[float, float]], capacity: float) -> float:
    """Step-function view of a sorted cost-capacity curve."""
    for cum, cost in curve:
        if capacity <= cum + 1e-9:
            return cost
    return curve[-1][1]
