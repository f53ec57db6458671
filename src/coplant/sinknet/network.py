"""CO2 source-sink matching over candidate pipeline corridors.

Minimizes equivalent-capture + pipeline + sequestration cost subject to a
sequestration target.  The solution space is node-to-node: each selected
source ships its flow to exactly one sink along its least-cost corridor
(no Steiner junctions).  Within a source-to-sink assignment, flows are
allocated deterministically in ascending per-tonne cost order, so every
assignment has a single well-defined cost; instances with at most 12
sources are solved by exhaustive assignment enumeration, larger ones by
greedy construction plus best-improvement local search.  The enumeration
runs the allocation rule on numpy blocks of assignments, with the same
arithmetic in the same order as the scalar `evaluate`, so it picks the
winner the one-assignment-at-a-time loop would pick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from coplant.dispatch import capital_recovery_factor
from coplant.domain import DomainError
from coplant.sinknet.routing import CandidateEdge, SinkNode, SourceNode

# Published scenario pairing: 7.06 Mt/yr methanol <-> 26.0 Mt/yr sequestered CO2.
SEQUESTRATION_PER_T_MEOH = 26.0 / 7.06

EXACT_SOURCE_LIMIT = 12

#: Assignments the exact search evaluates at once; bounds its working memory.
EXACT_BLOCK = 4096

METHODS = ("auto", "exact", "heuristic")


class NetworkInfeasible(ValueError):
    pass


def scenario_to_sequestration(methanol_target: float) -> float:
    """Sequestration requirement implied by a methanol output target (same mass unit)."""
    if methanol_target < 0:
        raise DomainError("methanol target must be >= 0")
    return methanol_target * SEQUESTRATION_PER_T_MEOH


def equivalent_capture_cost(coproduction_cost: float, incumbent_cost: float,
                            x: float, seq_factor: float) -> float:
    """Per-sequestered-tonne premium of running co-production at a site.

    `coproduction_cost` and `incumbent_cost` are $ per (1 t MeOH + x t cement)
    bundle; `seq_factor` is t CO2 sequestered per t cement.
    """
    if x <= 0 or seq_factor <= 0:
        raise DomainError("x and seq_factor must be > 0")
    return (coproduction_cost - incumbent_cost) / x / seq_factor


@dataclass(frozen=True)
class PipelineClass:
    name: str
    capacity: float        # t CO2 / yr
    capex_per_km: float    # $


#: Default diameter-class table; regional tables can be substituted via config.
DEFAULT_PIPELINE_CLASSES = (
    PipelineClass("D1", 1e6, 0.45e6),
    PipelineClass("D2", 3e6, 0.75e6),
    PipelineClass("D3", 9e6, 1.30e6),
    PipelineClass("D4", 27e6, 2.20e6),
)


@dataclass(frozen=True)
class NetworkParams:
    discount_rate: float = 0.08
    pipeline_lifetime: float = 30.0
    om_frac_per_km: float = 0.02       # fraction of capex per year
    classes: tuple[PipelineClass, ...] = DEFAULT_PIPELINE_CLASSES

    @property
    def annual_factor(self) -> float:
        return capital_recovery_factor(self.discount_rate, self.pipeline_lifetime) \
            + self.om_frac_per_km


def size_pipeline(flow: float, classes: tuple[PipelineClass, ...] = DEFAULT_PIPELINE_CLASSES,
                  ) -> tuple[PipelineClass | None, int, float]:
    """Smallest diameter class covering the flow; parallel pipes beyond the largest.

    Returns (class, pipe count, total capex per km); zero flow means no pipe.
    """
    if flow < 0:
        raise DomainError("flow must be >= 0")
    if flow == 0:
        return None, 0, 0.0
    for cls in classes:
        if flow <= cls.capacity:
            return cls, 1, cls.capex_per_km
    largest = classes[-1]
    count = math.ceil(flow / largest.capacity)
    return largest, count, count * largest.capex_per_km


@dataclass
class RouteFlow:
    source_id: str
    sink_id: str
    path: tuple[int, ...]
    length_km: float
    diameter_class: str | None
    pipe_count: int
    flow: float
    annual_cost: float


@dataclass
class NetworkSolution:
    source_flows: dict[str, float]
    routes: list[RouteFlow]
    sink_inflows: dict[str, float]
    target: float
    cost_capture: float        # $/yr
    cost_pipeline: float
    cost_sequestration: float

    @property
    def total_cost(self) -> float:
        return self.cost_capture + self.cost_pipeline + self.cost_sequestration

    @property
    def cost_per_tonne(self) -> float:
        return self.total_cost / self.target if self.target > 0 else 0.0


@dataclass
class _Instance:
    sources: dict[str, SourceNode]
    sinks: dict[str, SinkNode]
    edges: dict[tuple[str, str], CandidateEdge]
    target: float
    params: NetworkParams

    def route_cost(self, edge: CandidateEdge, flow: float) -> tuple[float, PipelineClass | None, int]:
        if flow <= 0:
            return 0.0, None, 0
        if edge.cost_per_tonne is not None:
            return edge.cost_per_tonne * flow, None, 0
        cls, count, capex_km = size_pipeline(flow, self.params.classes)
        return capex_km * edge.terrain_cost * self.params.annual_factor, cls, count

    def linear_rate(self, src_id: str, snk_id: str) -> float:
        """Per-tonne cost excluding the stepwise pipeline capex."""
        rate = self.sources[src_id].eq_capture_cost + self.sinks[snk_id].sequestration_cost
        edge = self.edges[(src_id, snk_id)]
        if edge.cost_per_tonne is not None:
            rate += edge.cost_per_tonne
        return rate

    def evaluate(self, assignment: dict[str, str | None]) -> tuple[float, NetworkSolution] | None:
        """Deterministic flow allocation and cost for one assignment; None if it
        cannot reach the target."""
        order = sorted(
            (s for s, k in assignment.items() if k is not None),
            key=lambda s: (self.linear_rate(s, assignment[s]), s))
        remaining = self.target
        sink_room = {k: self.sinks[k].capacity for k in self.sinks}
        flows: dict[str, float] = {}
        for s in order:
            if remaining <= 1e-12:
                break
            k = assignment[s]
            f = min(self.sources[s].capturable, sink_room[k], remaining)
            if f <= 0:
                continue
            flows[s] = f
            sink_room[k] -= f
            remaining -= f
        if remaining > 1e-6:
            return None

        cost_capture = cost_pipeline = cost_seq = 0.0
        routes: list[RouteFlow] = []
        sink_in: dict[str, float] = {}
        for s, f in sorted(flows.items()):
            k = assignment[s]
            edge = self.edges[(s, k)]
            pipe_cost, cls, count = self.route_cost(edge, f)
            cost_capture += self.sources[s].eq_capture_cost * f
            cost_seq += self.sinks[k].sequestration_cost * f
            cost_pipeline += pipe_cost
            sink_in[k] = sink_in.get(k, 0.0) + f
            routes.append(RouteFlow(
                source_id=s, sink_id=k, path=edge.path, length_km=edge.length_km,
                diameter_class=cls.name if cls else None, pipe_count=count, flow=f,
                annual_cost=pipe_cost))
        solution = NetworkSolution(
            source_flows=flows, routes=routes, sink_inflows=sink_in,
            target=self.target, cost_capture=cost_capture,
            cost_pipeline=cost_pipeline, cost_sequestration=cost_seq)
        return solution.total_cost, solution


def _make_instance(sources: list[SourceNode], sinks: list[SinkNode],
                   candidates: list[CandidateEdge], target: float,
                   params: NetworkParams) -> _Instance:
    inst = _Instance(
        sources={s.id: s for s in sources},
        sinks={s.id: s for s in sinks},
        edges={(e.source_id, e.sink_id): e for e in candidates},
        target=target, params=params)
    connected_capturable = sum(
        s.capturable for s in sources
        if any(key[0] == s.id for key in inst.edges))
    sink_capacity = sum(s.capacity for s in sinks)
    if target > connected_capturable + 1e-9:
        raise NetworkInfeasible(
            f"target {target:g} exceeds connected capturable supply "
            f"{connected_capturable:g} (binding side: sources)")
    if target > sink_capacity + 1e-9:
        raise NetworkInfeasible(
            f"target {target:g} exceeds total sink capacity {sink_capacity:g} "
            "(binding side: sinks)")
    return inst


def _options(inst: _Instance, src_id: str) -> list[str | None]:
    opts: list[str | None] = [None]
    opts.extend(sorted(k for (s, k) in inst.edges if s == src_id))
    return opts


def _solve_exact(inst: _Instance) -> tuple[float, NetworkSolution]:
    """Cheapest assignment in `itertools.product` order over each source's
    options (sources by id, the first most significant): the first feasible
    one wins unless a later one is cheaper by more than 1e-9.

    Assignments are numbered by that order and evaluated EXACT_BLOCK at a
    time, with the arithmetic of `evaluate` in its order, so the winner is
    the one a loop of `evaluate` calls would keep."""
    src_ids = sorted(inst.sources)
    snk_ids = sorted(inst.sinks)
    options = [_options(inst, s) for s in src_ids]
    radix = np.array([len(o) for o in options])
    stride = np.cumprod(np.concatenate(([1], radix[:0:-1])))[::-1]
    n_codes = math.prod(len(o) for o in options)

    # (source, option) tables; option 0 is "no sink".  `pairs` holds every
    # (source, sink) option in the order evaluate allocates flow: ascending
    # linear rate, ties to the lower source id.
    shape = (len(src_ids), int(radix.max()))
    seq, per_tonne, terrain = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    has_per_tonne = np.zeros(shape, dtype=bool)
    pairs = []
    for i, (s, opts) in enumerate(zip(src_ids, options)):
        for j, k in enumerate(opts[1:], start=1):
            edge = inst.edges[(s, k)]
            pairs.append((inst.linear_rate(s, k), i, j, snk_ids.index(k)))
            seq[i, j] = inst.sinks[k].sequestration_cost
            if edge.cost_per_tonne is not None:
                has_per_tonne[i, j] = True
                per_tonne[i, j] = edge.cost_per_tonne
            terrain[i, j] = edge.terrain_cost
    pairs.sort()
    capture = np.array([inst.sources[s].eq_capture_cost for s in src_ids], dtype=float)
    capturable = np.array([inst.sources[s].capturable for s in src_ids], dtype=float)
    capacity = np.array([inst.sinks[k].capacity for k in snk_ids], dtype=float)
    classes = inst.params.classes
    annual_factor = inst.params.annual_factor

    best_cost, best_code = math.inf, None
    for start in range(0, n_codes, EXACT_BLOCK):
        codes = np.arange(start, min(start + EXACT_BLOCK, n_codes))
        digit = codes // stride[:, None] % radix[:, None]      # (source, code)

        # allocation: a source takes its flow when its chosen option comes up
        remaining = np.full(codes.size, float(inst.target))
        room = np.repeat(capacity[:, None], codes.size, axis=1)  # (sink, code)
        flow = np.zeros(digit.shape)
        for _, i, j, k in pairs:
            f = np.minimum(np.minimum(capturable[i], room[k]), remaining)
            f = np.where((digit[i] == j) & (remaining > 1e-12) & (f > 0), f, 0.0)
            room[k] -= f
            remaining -= f
            flow[i] += f

        # costs of the codes that reach the target, summed source by source
        # in id order as evaluate adds them
        feasible = np.flatnonzero(~(remaining > 1e-6))
        flow, digit = flow[:, feasible], digit[:, feasible]
        cost_capture, cost_pipeline, cost_seq = (np.zeros(feasible.size) for _ in range(3))
        for i, (f, d) in enumerate(zip(flow, digit)):
            shipped = f > 0
            capex_km = np.ceil(f / classes[-1].capacity) * classes[-1].capex_per_km
            for cls in reversed(classes):
                capex_km = np.where(f <= cls.capacity, cls.capex_per_km, capex_km)
            pipe = np.where(has_per_tonne[i, d], per_tonne[i, d] * f,
                            capex_km * terrain[i, d] * annual_factor)
            cost_capture += np.where(shipped, capture[i] * f, 0.0)
            cost_pipeline += np.where(shipped, pipe, 0.0)
            cost_seq += np.where(shipped, seq[i, d] * f, 0.0)
        total = (cost_capture + cost_pipeline) + cost_seq

        # A code that replaces the incumbent undercuts every earlier feasible
        # code, so only those are checked one by one against the 1e-9 rule.
        hits = total < np.fmin.accumulate(np.concatenate(([best_cost], total[:-1])))
        if best_code is None and feasible.size:
            hits[0] = True
        for h in np.flatnonzero(hits):
            if best_code is None or total[h] < best_cost - 1e-9:
                best_cost, best_code = float(total[h]), start + int(feasible[h])
    if best_code is None:
        raise NetworkInfeasible("no assignment reaches the target")
    digits = best_code // stride % radix
    return inst.evaluate({s: opts[d] for s, opts, d in zip(src_ids, options, digits)})


def _solve_heuristic(inst: _Instance) -> tuple[float, NetworkSolution]:
    # greedy: everyone assigned to their cheapest linear-rate sink
    assignment: dict[str, str | None] = {}
    for s in sorted(inst.sources):
        opts = [k for k in _options(inst, s) if k is not None]
        assignment[s] = min(opts, key=lambda k: (inst.linear_rate(s, k), k)) if opts else None
    best = inst.evaluate(assignment)
    if best is None:
        raise NetworkInfeasible("greedy start cannot reach the target")

    improved = True
    while improved:
        improved = False
        for s in sorted(inst.sources):
            current = assignment[s]
            for k in _options(inst, s):
                if k == current:
                    continue
                trial = dict(assignment)
                trial[s] = k
                result = inst.evaluate(trial)
                if result is not None and result[0] < best[0] - 1e-9:
                    best = result
                    assignment = trial
                    improved = True
    return best


def select_network(sources: list[SourceNode], sinks: list[SinkNode],
                   candidates: list[CandidateEdge], target: float,
                   params: NetworkParams | None = None,
                   method: str = "auto") -> NetworkSolution:
    """Choose sources, corridors and flows meeting the sequestration target.

    method: 'auto' (exact up to 12 sources, heuristic beyond), 'exact', or
    'heuristic'; any other method raises DomainError.
    """
    if method not in METHODS:
        raise DomainError(f"unknown network method {method!r}; expected one of {METHODS}")
    if not (math.isfinite(target) and target >= 0):
        raise DomainError(f"target must be a finite number >= 0: got {target}")
    params = params or NetworkParams()
    inst = _make_instance(sources, sinks, candidates, target, params)
    if target == 0:
        return NetworkSolution(source_flows={}, routes=[], sink_inflows={}, target=0.0,
                               cost_capture=0.0, cost_pipeline=0.0, cost_sequestration=0.0)
    if method == "exact" or (method == "auto" and len(sources) <= EXACT_SOURCE_LIMIT):
        return _solve_exact(inst)[1]
    return _solve_heuristic(inst)[1]


@dataclass(frozen=True)
class CementOnlyParams:
    """Flat-cost CCS retrofit parameters for the cement-only comparison runs."""

    capture_cost: float = 75.0            # $/t CO2, standalone cement CCS
    kiln_co2_per_t_clinker: float = 0.721
    capture_rate: float = 0.9294
    utilization: float = 0.80


def cement_only_sources(plants, cells: dict[str, int],
                        params: CementOnlyParams | None = None) -> list[SourceNode]:
    """Sources with capturable CO2 proportional to plant capacity at a flat cost."""
    params = params or CementOnlyParams()
    out = []
    for p in plants:
        capturable = (p.clinker_capacity * 365.0 * params.utilization
                      * params.kiln_co2_per_t_clinker * params.capture_rate)
        out.append(SourceNode(id=p.id, cell=cells[p.id], capturable=capturable,
                              eq_capture_cost=params.capture_cost))
    return out
