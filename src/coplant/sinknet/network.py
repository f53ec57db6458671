"""CO2 source-sink matching over candidate pipeline corridors.

Picks which sink each source ships to so that a sequestration target is
met, and prices the network as equivalent-capture + pipeline +
sequestration cost.  The solution space is node-to-node: each selected
source ships its flow to exactly one sink along its least-cost corridor
(no Steiner junctions).  Within a source-to-sink assignment, flows are
allocated by a fixed rule: in ascending linear (capture + sequestration)
cost order, blind to pipe sizing.  Every assignment thus has a single
well-defined cost, but a flow split the rule does not make can be cheaper:
even the exact search finds the cheapest network under the rule, not the
cost-minimal one in general.  One numpy kernel (`_Instance.allocate` and
`_Instance.cost`) applies that rule to a block of assignments; both searches
and the one-assignment `evaluate` run on it.
The instance's size picks the search.  Up to EXACT_SOURCE_LIMIT (12)
sources and EXACT_CODE_LIMIT (4^12) assignments, the exact search returns
the winner of an enumeration of every assignment but runs only the tight
ones through the kernel: assignments in which every source given a sink
ships flow and the target is still reachable.  Any other assignment ships
what a tight one earlier in the enumeration ships, at the same cost, or
falls short, so it cannot win.  Above either limit, steepest-descent local
search over single-source moves starts from the greedy assignment, first
closes any shortfall against the target, then lowers the cost.  Both keep
an incumbent unless a candidate falls less short of the target, or as short
and cheaper by more than 1e-9 $/yr (`_replaces`)."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from coplant.dispatch import capital_recovery_factor
from coplant.domain import DomainError
from coplant.sinknet.routing import CandidateEdge, SinkNode, SourceNode

#: The exact search runs on at most this many sources, as `_tight_codes`
#: tabulates the supply of every set of them, and at most this many
#: assignments, (sinks per source + 1) multiplied over the sources.
EXACT_SOURCE_LIMIT = 12
EXACT_CODE_LIMIT = 4 ** 12

#: Assignments the exact search evaluates at once; bounds its working memory.
EXACT_BLOCK = 4096

#: Most codes one pass of the exact search spans; bounds its frontier.
EXACT_PASS = 1 << 16

class NetworkInfeasible(ValueError):
    pass


@dataclass(frozen=True)
class PipelineClass:
    name: str
    capacity: float        # t CO2 / yr
    capex_per_km: float    # $


#: The diameter-class table `select_network` sizes pipes from; no config key
#: or CLI option sets another one.
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
    diameter_class: str
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


class _Instance:
    """The instance as (source, option) tables, sources and sinks in id order.

    Option 0 of a source is "no sink"; option j >= 1 is its j-th connected
    sink by id.  A block of assignments is a (source, assignment) matrix of
    option digits, and `allocate` and `cost` are the one implementation of
    the allocation rule and its costing that every search runs on."""

    def __init__(self, sources: list[SourceNode], sinks: list[SinkNode],
                 candidates: list[CandidateEdge], target: float, params: NetworkParams):
        self.sources = sorted(sources, key=lambda s: s.id)
        self.target, self.params = target, params
        self.edges = {(e.source_id, e.sink_id): e for e in candidates}
        self.options: list[list[str | None]] = [
            [None, *sorted(k for (s, k) in self.edges if s == src.id)] for src in self.sources]
        sinks = sorted(sinks, key=lambda k: k.id)
        snk_ids = [k.id for k in sinks]
        seq_cost = {k.id: k.sequestration_cost for k in sinks}

        # `pairs` holds every (source, sink) option in the order flow is
        # allocated: ascending linear rate, ties to the lower source id.
        shape = (len(self.sources), max(map(len, self.options), default=1))
        self.seq, self.terrain = np.zeros(shape), np.zeros(shape)
        self.pairs = []
        for i, (src, opts) in enumerate(zip(self.sources, self.options)):
            for j, k in enumerate(opts[1:], start=1):
                self.pairs.append((src.eq_capture_cost + seq_cost[k], i, j, snk_ids.index(k)))
                self.seq[i, j] = seq_cost[k]
                self.terrain[i, j] = self.edges[(src.id, k)].terrain_cost
        self.pairs.sort()
        # an assignment's code is its digits dotted with `stride`: codes number
        # the assignments in product order, the first source most significant
        self.radix = np.array([len(o) for o in self.options])
        self.stride = np.cumprod(np.concatenate(([1], self.radix[:0:-1])))[::-1]
        self.capture = np.array([s.eq_capture_cost for s in self.sources], dtype=float)
        self.capturable = np.array([s.capturable for s in self.sources], dtype=float)
        self.capacity = np.array([k.capacity for k in sinks], dtype=float)

    def allocate(self, digit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Remaining target per assignment and flow per (source, assignment).

        A source takes its flow when its chosen option comes up in `pairs`:
        min(capturable, sink room, remaining), while more than 1e-12 remains."""
        remaining = np.full(digit.shape[1], float(self.target))
        room = np.repeat(self.capacity[:, None], digit.shape[1], axis=1)  # (sink, assignment)
        flow = np.zeros(digit.shape)
        for _, i, j, k in self.pairs:
            f = np.minimum(np.minimum(self.capturable[i], room[k]), remaining)
            f = np.where((digit[i] == j) & (remaining > 1e-12) & (f > 0), f, 0.0)
            room[k] -= f
            remaining -= f
            flow[i] += f
        return remaining, flow

    def cost(self, digit: np.ndarray, flow: np.ndarray) -> tuple[np.ndarray, ...]:
        """Capture, pipeline and sequestration cost per assignment, summed
        source by source in id order, and pipeline cost per (source, assignment).

        A pipe is the smallest class that carries the flow, or parallel pipes
        of the largest class."""
        classes = self.params.classes
        annual_factor = self.params.annual_factor
        cost_capture, cost_pipeline, cost_seq = (np.zeros(digit.shape[1]) for _ in range(3))
        pipe = np.zeros(flow.shape)
        for i, (f, d) in enumerate(zip(flow, digit)):
            shipped = f > 0
            capex_km = np.ceil(f / classes[-1].capacity) * classes[-1].capex_per_km
            for cls in reversed(classes):
                capex_km = np.where(f <= cls.capacity, cls.capex_per_km, capex_km)
            pipe[i] = np.where(shipped, capex_km * self.terrain[i, d] * annual_factor, 0.0)
            cost_capture += np.where(shipped, self.capture[i] * f, 0.0)
            cost_pipeline += pipe[i]
            cost_seq += np.where(shipped, self.seq[i, d] * f, 0.0)
        return cost_capture, cost_pipeline, cost_seq, pipe

    def evaluate(self, assignment: dict[str, str | None]) -> tuple[float, NetworkSolution] | None:
        """Flow allocation and cost of one assignment (source id -> sink id,
        or None for unused); None if it cannot reach the target."""
        digit = np.array([opts.index(assignment.get(src.id))
                          for src, opts in zip(self.sources, self.options)]).reshape(-1, 1)
        remaining, flow = self.allocate(digit)
        if _shortfall(remaining)[0] > 0:
            return None
        cost_capture, cost_pipeline, cost_seq, pipe = self.cost(digit, flow)
        flows: dict[str, float] = {}
        routes: list[RouteFlow] = []
        sink_in: dict[str, float] = {}
        for i in np.flatnonzero(flow[:, 0] > 0):
            src, f = self.sources[i], float(flow[i, 0])
            k = self.options[i][digit[i, 0]]
            edge = self.edges[(src.id, k)]
            cls, count, _ = size_pipeline(f, self.params.classes)
            flows[src.id] = f
            sink_in[k] = sink_in.get(k, 0.0) + f
            routes.append(RouteFlow(
                source_id=src.id, sink_id=k, path=edge.path, length_km=edge.length_km,
                diameter_class=cls.name, pipe_count=count, flow=f,
                annual_cost=float(pipe[i, 0])))
        solution = NetworkSolution(
            source_flows=flows, routes=routes, sink_inflows=sink_in,
            target=self.target, cost_capture=float(cost_capture[0]),
            cost_pipeline=float(cost_pipeline[0]), cost_sequestration=float(cost_seq[0]))
        return solution.total_cost, solution

    def assignment(self, digits) -> dict[str, str | None]:
        return {src.id: opts[d] for src, opts, d in zip(self.sources, self.options, digits)}


def _make_instance(sources: list[SourceNode], sinks: list[SinkNode],
                   candidates: list[CandidateEdge], target: float,
                   params: NetworkParams) -> _Instance:
    inst = _Instance(sources, sinks, candidates, target, params)
    connected = {s for s, _ in inst.edges}
    connected_capturable = sum(s.capturable for s in sources if s.id in connected)
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


def _check_finite(inst: _Instance, sinks: list[SinkNode]) -> None:
    """Raise DomainError naming the first node or corridor whose cost, at
    the most flow it can carry, takes the sum of all such costs past the
    largest float: every cost the kernel sums is then finite."""
    target, classes = inst.target, inst.params.classes
    capacity = {k.id: k.capacity for k in sinks}
    terms = []      # (what, most flow, its cost in $/yr at that flow)
    for src in inst.sources:
        flow = min(src.capturable, target)
        terms.append((f"source {src.id}", flow, src.eq_capture_cost * flow))
    for snk in sorted(sinks, key=lambda k: k.id):
        flow = min(snk.capacity, target)
        terms.append((f"sink {snk.id}", flow, snk.sequestration_cost * flow))
    for src, opts in zip(inst.sources, inst.options):
        for k in opts[1:]:
            flow = min(src.capturable, capacity[k], target)
            # the kernel prices the smallest class for an option that ships nothing
            capex_km = max(size_pipeline(flow, classes)[2], classes[0].capex_per_km)
            terrain = inst.edges[(src.id, k)].terrain_cost
            terms.append((f"corridor {src.id} -> {k}", flow,
                          capex_km * terrain * inst.params.annual_factor))
    total = 0.0
    for what, flow, cost in terms:
        total += abs(cost)
        if not math.isfinite(total):
            raise DomainError(f"{what}: its cost at up to {flow:g} t/yr takes the "
                              "network's cost bound past the largest float")


def _shortfall(remaining: np.ndarray) -> np.ndarray:
    """Target left unmet by each assignment; 0 within 1e-6."""
    return np.where(remaining > 1e-6, remaining, 0.0)


def _replaces(candidate: tuple[float, float], incumbent: tuple[float, float]) -> bool:
    """The replacement rule of both searches, on (shortfall, cost) keys: a
    candidate replaces the incumbent when it falls less short of the target,
    or as short and cheaper by more than 1e-9."""
    return candidate[0] < incumbent[0] or (
        candidate[0] == incumbent[0] and candidate[1] < incumbent[1] - 1e-9)


def _tight_codes(inst: _Instance) -> Iterator[np.ndarray]:
    """The codes that `_solve_exact` runs through the kernel, in ascending
    arrays, one per pass: every tight code (each source given a sink ships
    flow under `allocate`) that may still reach the target.

    A pass fixes the digits of the most significant sources, so that it spans
    at most EXACT_PASS codes, and expands a frontier of partial assignments
    over `inst.pairs` in allocation order.  At a pair (i, j, k) a row whose
    source i has no sink yet branches into "skip" and "assign"; it is
    assigned only where the kernel would give it flow, with the kernel's own
    operations in the kernel's order, so `remaining` and sink `room` are the
    kernel's to the bit.  A row is dropped once `remaining` exceeds, by more
    than 1e-6 + 1e-9 * target, both the summed room of the sinks and the
    capturable supply of the sources still open (undecided, with a pair to
    come): it cannot reach the target.  Each frontier row is a distinct code
    of the pass, so a pass holds at most EXACT_PASS rows."""
    n, radix = len(inst.options), inst.radix
    n_fixed = 0
    while math.prod(radix[n_fixed:].tolist()) > EXACT_PASS:
        n_fixed += 1
    last = {i: pos for pos, (_, i, _, _) in enumerate(inst.pairs)}
    bit = 1 << np.arange(n)
    # capturable supply of every set of open sources, a set as a bit mask;
    # summed from scratch, so it is as exact as a sum of positives.  A sum of
    # supply or room past the largest float is infinite: more than any target.
    with np.errstate(over="ignore"):
        supply = (np.arange(1 << n)[:, None] & bit > 0) @ inst.capturable
    slack = 1e-6 + 1e-9 * inst.target
    connected = sum(1 << i for i in last)
    for prefix in itertools.product(*map(range, radix[:n_fixed])):
        remaining = np.array([float(inst.target)])
        room = inst.capacity[:, None].copy()                  # (sink, row)
        digit = np.zeros((n, 1), dtype=np.min_scalar_type(radix.max()))
        # a fixed source is open only when the prefix gives it a sink
        mask = np.array([connected & ~sum(1 << i for i, d in enumerate(prefix) if d == 0)])
        for pos, (_, i, j, k) in enumerate(inst.pairs):
            if i < n_fixed and prefix[i] != j:
                continue
            f = np.minimum(np.minimum(inst.capturable[i], room[k]), remaining)
            new = np.flatnonzero((digit[i] == 0) & (remaining > 1e-12) & (f > 0))
            f = f[new]
            new_room, new_digit = room[:, new], digit[:, new]
            new_room[k] -= f
            new_digit[i] = j
            if i < n_fixed:     # the prefix gives source i this sink: it must ship here
                remaining, room, digit, mask = (
                    remaining[new] - f, new_room, new_digit, mask[new] & ~bit[i])
            else:
                remaining = np.concatenate((remaining, remaining[new] - f))
                room = np.concatenate((room, new_room), axis=1)
                digit = np.concatenate((digit, new_digit), axis=1)
                mask = np.concatenate((mask, mask[new] & ~bit[i]))
                if pos == last[i]:
                    mask &= ~bit[i]
            with np.errstate(over="ignore"):
                reach = np.minimum(supply[mask], room.sum(axis=0))
            keep = np.flatnonzero(remaining - reach <= slack)
            if keep.size < remaining.size:
                remaining, room, digit, mask = (
                    remaining[keep], room[:, keep], digit[:, keep], mask[keep])
        yield np.sort(inst.stride @ digit)


def _solve_exact(inst: _Instance) -> tuple[float, NetworkSolution]:
    """Best assignment in `itertools.product` order over each source's
    options (sources by id, the first most significant) under `_replaces`:
    the first one that reaches the target wins unless a later one is cheaper
    by more than 1e-9.  Assignments are numbered by that order.

    Only the codes of `_tight_codes` go through the kernel, EXACT_BLOCK at a
    time, and the winner is that of all codes.  A code that gives some
    source a sink it ships nothing to has the flows, and bit for bit the
    cost, of its tight representative, the same code with those sources set
    to no sink; the representative has the smaller code, so under
    `_replaces` the other can never replace the incumbent, and the first
    feasible code is tight.  The codes left out otherwise cannot reach the
    target."""
    radix, stride = inst.radix, inst.stride
    best, best_code = (math.inf, math.inf), None
    for tight in _tight_codes(inst):
        for start in range(0, tight.size, EXACT_BLOCK):
            codes = tight[start:start + EXACT_BLOCK]
            digit = codes // stride[:, None] % radix[:, None]      # (source, code)
            remaining, flow = inst.allocate(digit)
            feasible = np.flatnonzero(_shortfall(remaining) == 0)
            capture, pipeline, seq, _ = inst.cost(digit[:, feasible], flow[:, feasible])
            total = (capture + pipeline) + seq
            # A code that replaces a feasible incumbent undercuts every earlier
            # feasible code, so only those, and the first feasible code while
            # there is no incumbent, go through `_replaces` one by one.
            hits = total < np.fmin.accumulate(np.concatenate(([best[1]], total[:-1])))
            hits[:1] |= best_code is None
            for h in np.flatnonzero(hits):
                if _replaces((0.0, total[h]), best):
                    best, best_code = (0.0, float(total[h])), int(codes[feasible[h]])
    if best_code is None:
        raise NetworkInfeasible("no assignment reaches the target")
    return inst.evaluate(inst.assignment(best_code // stride % radix))


def _solve_local(inst: _Instance) -> tuple[float, NetworkSolution]:
    """Steepest descent over single-source moves from the greedy start, in
    which every source ships to its cheapest linear-rate sink (ties to the
    lower sink id).  Each step runs the current assignment and all of its
    moves (sources by id, options in order) through the kernel as one block
    and takes the move `_replaces` picks, scanning from the current one; so
    the search first closes any shortfall, then lowers the cost.  When no
    move is picked, sources that ship nothing are unassigned and the search
    goes on: such a source could otherwise take up room that a move frees
    and so block it.  The result is then a local optimum of the routes it
    reports."""
    current = np.zeros(len(inst.sources), dtype=int)
    for _, i, j, _ in inst.pairs:       # each source's first pair is its cheapest
        current[i] = current[i] or j
    rows = np.repeat(np.arange(len(inst.options)), [len(o) for o in inst.options])
    options = np.concatenate([np.arange(len(o)) for o in inst.options])
    while True:
        digit = np.repeat(current[:, None], options.size + 1, axis=1)
        digit[rows, np.arange(1, options.size + 1)] = options
        remaining, flow = inst.allocate(digit)
        capture, pipeline, seq, _ = inst.cost(digit, flow)
        keys = list(zip(_shortfall(remaining), (capture + pipeline) + seq))
        pick = 0
        for h in range(1, len(keys)):
            if _replaces(keys[h], keys[pick]):
                pick = h
        if pick == 0:
            idle = (current > 0) & (flow[:, 0] <= 0)
            if not idle.any():
                break
            current = np.where(idle, 0, current)
            continue
        current = digit[:, pick]
    if keys[0][0] > 0:
        raise NetworkInfeasible(
            f"local search from the greedy start stopped {keys[0][0]:g} short of the "
            "target; no single-source move narrows the gap")
    return inst.evaluate(inst.assignment(current))


def select_network(sources: list[SourceNode], sinks: list[SinkNode],
                   candidates: list[CandidateEdge], target: float) -> NetworkSolution:
    """Choose sources, corridors and flows meeting the sequestration target.

    Up to EXACT_SOURCE_LIMIT sources and EXACT_CODE_LIMIT assignments, the
    winner is that of an enumeration of every assignment, optimal over
    assignments under the allocation rule; only the tight assignments that
    can reach the target are evaluated, as no other one can replace it
    (`_solve_exact`).  Above either limit, local search from the greedy
    start first closes any shortfall, then lowers the cost, and returns a
    local optimum.  Raises NetworkInfeasible when the target exceeds supply
    or sink capacity, when no assignment reaches it, or when local search
    stops short of it, and DomainError when a node or corridor may cost
    more than a float holds (`_check_finite`).
    """
    if not (math.isfinite(target) and target >= 0):
        raise DomainError(f"target must be a finite number >= 0: got {target}")
    inst = _make_instance(sources, sinks, candidates, target, NetworkParams())
    _check_finite(inst, sinks)
    if target == 0:
        return NetworkSolution(source_flows={}, routes=[], sink_inflows={}, target=0.0,
                               cost_capture=0.0, cost_pipeline=0.0, cost_sequestration=0.0)
    exact = (len(sources) <= EXACT_SOURCE_LIMIT
             and math.prod(inst.radix.tolist()) <= EXACT_CODE_LIMIT)
    return (_solve_exact if exact else _solve_local)(inst)[1]

