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
The instance's size picks the search.  Up to EXACT_SOURCE_LIMIT (12) sources
and EXACT_CODE_LIMIT (4^12) assignments, the exact search returns the first
assignment in enumeration order whose total is within 1e-9 $/yr of the least
total of any that reaches the target.  It runs only tight assignments
through the kernel, those in which every source given a sink ships flow and
the target is still reachable; any other assignment ships what a tight one
earlier in the enumeration ships, at the same cost, or falls short.  Of
those it runs only the ones a branch and bound keeps: a partial assignment
is dropped once a lower bound on its cost exceeds the least total found so
far by more than 1e-9.  Above either limit, steepest-descent local search
over single-source moves starts from the greedy assignment, first closes any
shortfall against the target, then lowers the cost; it keeps its incumbent
unless a candidate falls less short of the target, or as short and cheaper
by more than 1e-9 $/yr (`_replaces`).

No cost or sum here overflows a float: amounts and |costs| are at most
B = `raster.MAX_MAGNITUDE` and terrain costs at most `routing.MAX_CORRIDOR_COST`
(B^4), checked where nodes and corridors are made.  A flow then costs at most
B^2 $/yr to capture or sequester and its pipes under 1e73 $/yr, so sums over
fewer than 2^63 sources stay finite."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from coplant.dispatch import capital_recovery_factor
from coplant.domain import CoplantError, DomainError
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

class NetworkInfeasible(CoplantError, ValueError):
    exit_code = 4


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


def _capex_km(flow: np.ndarray, classes: tuple[PipelineClass, ...]) -> np.ndarray:
    """Capex per km of the pipes that carry each flow, as `size_pipeline` sizes them."""
    capex_km = np.ceil(flow / classes[-1].capacity) * classes[-1].capex_per_km
    for cls in reversed(classes):
        capex_km = np.where(flow <= cls.capacity, cls.capex_per_km, capex_km)
    return capex_km


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
    routes: list[RouteFlow]
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
            f *= (digit[i] == j) & (remaining > 1e-12)
            room[k] -= f
            remaining -= f
            flow[i] += f
        return remaining, flow

    def cost(self, digit: np.ndarray, flow: np.ndarray) -> tuple[np.ndarray, ...]:
        """Capture, pipeline and sequestration cost per assignment, and
        pipeline cost per (source, assignment).

        Each total is np.cumsum over sources from a prepended zero row: the
        sources' terms added one by one in id order, starting from +0.0.
        A pipe is the smallest class that carries the flow, or parallel pipes
        of the largest class."""
        rows = np.arange(len(digit))[:, None]
        shipped = flow > 0
        pipe = np.where(shipped, _capex_km(flow, self.params.classes) * self.terrain[rows, digit]
                        * self.params.annual_factor, 0.0)
        capture = np.where(shipped, self.capture[:, None] * flow, 0.0)
        seq = np.where(shipped, self.seq[rows, digit] * flow, 0.0)
        zero = np.zeros((1, digit.shape[1]))
        cost_capture, cost_pipeline, cost_seq = (
            np.cumsum(np.concatenate((zero, term)), axis=0)[-1] for term in (capture, pipe, seq))
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
        routes: list[RouteFlow] = []
        for i in np.flatnonzero(flow[:, 0] > 0):
            src, f = self.sources[i], float(flow[i, 0])
            k = self.options[i][digit[i, 0]]
            edge = self.edges[(src.id, k)]
            cls, count, _ = size_pipeline(f, self.params.classes)
            routes.append(RouteFlow(
                source_id=src.id, sink_id=k, path=edge.path, length_km=edge.length_km,
                diameter_class=cls.name, pipe_count=count, flow=f,
                annual_cost=float(pipe[i, 0])))
        solution = NetworkSolution(
            routes=routes, target=self.target, cost_capture=float(cost_capture[0]),
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


def _shortfall(remaining: np.ndarray) -> np.ndarray:
    """Target left unmet by each assignment; 0 within 1e-6."""
    return np.where(remaining > 1e-6, remaining, 0.0)


def _replaces(candidate: tuple[float, float], incumbent: tuple[float, float]) -> bool:
    """The replacement rule of local search, on (shortfall, cost) keys: a
    candidate replaces the incumbent when it falls less short of the target,
    or as short and cheaper by more than 1e-9."""
    return candidate[0] < incumbent[0] or (
        candidate[0] == incumbent[0] and candidate[1] < incumbent[1] - 1e-9)


def _greedy_start(inst: _Instance) -> np.ndarray:
    """Option digits that give every source its cheapest linear-rate sink, ties
    to the lower sink id: each source's first pair."""
    digits = np.zeros(len(inst.sources), dtype=int)
    for _, i, j, _ in inst.pairs:
        digits[i] = digits[i] or j
    return digits


def _tight_codes(inst: _Instance, bound: float | None = None) -> Iterator[np.ndarray]:
    """The codes that `_solve_exact` runs through the kernel, in ascending
    arrays, one per pass: every tight code (each source given a sink ships
    flow under `allocate`) that may still reach the target and, given
    `bound`, that may do so at a total of at most `bound` + 1e-9.

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
    of the pass, so a pass holds at most EXACT_PASS rows.

    Given `bound`, an upper bound on the least total of any feasible code,
    the passes are a branch and bound.  A row is dropped once a lower bound
    on the total of every feasible code it can still become exceeds the cut,
    at first `bound` + 1e-9 + tol.  After pair pos that lower bound is the
    sum of three parts:
    - `spent`, the capture, sequestration and pipe cost of the flows the row
      has assigned;
    - the linear cost of later flows.  They run at rates of at least r, the
      rate of pair pos + 1, as `pairs` ascend by rate; they sum to at most
      `remaining`, and a feasible code ships at least `remaining` - 1e-6.  So
      they cost at least r * max(remaining - 1e-6, 0) when r >= 0, and
      r * remaining when r < 0;
    - while `remaining` > 1e-6, the pipe of the later pair that must still
      ship: at least the least, over later pairs, of the cheapest class's
      capex per km * terrain * annual factor.
    A row whose `remaining` is at most 1e-12 ships nothing more: with its
    undecided sources unused it is a feasible code whose total is its
    `spent`, so the cut falls to `spent` + 1e-9 + tol, for this pass and
    the later ones, if that is lower.
    tol is 1e-9 of a bound on the summed magnitudes of the terms of any
    total (flows sum to at most the target, and a source's pipe carries at
    most the target).  It covers the round-off of `spent`, of the bound and
    of the kernel's total, also where costs of opposite signs cancel, so no
    code whose total is within 1e-9 of the least is dropped."""
    n, radix = len(inst.options), inst.radix
    n_fixed = 0
    while math.prod(radix[n_fixed:].tolist()) > EXACT_PASS:
        n_fixed += 1
    last = {i: pos for pos, (_, i, _, _) in enumerate(inst.pairs)}
    bit = 1 << np.arange(n)
    # capturable supply of every set of open sources, a set as a bit mask;
    # summed from scratch, so it is as exact as a sum of positives
    supply = (np.arange(1 << n)[:, None] & bit > 0) @ inst.capturable
    slack = 1e-6 + 1e-9 * inst.target
    connected = sum(1 << i for i in last)
    # the parts of the cost bound that come from the pairs after each one:
    # the next pair's rate and the least pipe of any of them; 0 after the last
    classes, annual_factor = inst.params.classes, inst.params.annual_factor
    terrain = np.array([inst.terrain[i, j] for _, i, j, _ in inst.pairs])
    least_pipe = min(c.capex_per_km for c in classes) * terrain * annual_factor
    later_pipe = np.append(np.minimum.accumulate(least_pipe[::-1])[::-1][1:], 0.0)
    later_rate = np.append([rate for rate, _, _, _ in inst.pairs][1:], 0.0)
    dearest_pipe = max(c.capex_per_km for c in classes) * np.ceil(
        np.minimum(inst.capturable, inst.target) / classes[-1].capacity)
    tol = 1e-9 * (inst.target * (np.abs(inst.capture)[:, None] + np.abs(inst.seq)).max()
                  + (dearest_pipe * inst.terrain.max(axis=1) * annual_factor).sum())
    cut = math.inf if bound is None else bound + 1e-9 + tol
    for prefix in itertools.product(*map(range, radix[:n_fixed])):
        remaining, spent = np.array([float(inst.target)]), np.zeros(1)
        room = inst.capacity[:, None].copy()                  # (sink, row)
        digit = np.zeros((n, 1), dtype=np.min_scalar_type(radix.max()))
        # a fixed source is open only when the prefix gives it a sink
        mask = np.array([connected & ~sum(1 << i for i, d in enumerate(prefix) if d == 0)])
        for pos, (rate, i, j, k) in enumerate(inst.pairs):
            if i < n_fixed and prefix[i] != j:
                continue
            f = np.minimum(np.minimum(inst.capturable[i], room[k]), remaining)
            new = np.flatnonzero((digit[i] == 0) & (remaining > 1e-12) & (f > 0))
            f = f[new]
            new_room, new_digit = room[:, new], digit[:, new]
            new_room[k] -= f
            new_digit[i] = j
            new_spent = spent[new] + (
                rate * f + _capex_km(f, classes) * inst.terrain[i, j] * annual_factor)
            if i < n_fixed:     # the prefix gives source i this sink: it must ship here
                remaining, spent, room, digit, mask = (
                    remaining[new] - f, new_spent, new_room, new_digit, mask[new] & ~bit[i])
            else:
                remaining = np.concatenate((remaining, remaining[new] - f))
                spent = np.concatenate((spent, new_spent))
                room = np.concatenate((room, new_room), axis=1)
                digit = np.concatenate((digit, new_digit), axis=1)
                mask = np.concatenate((mask, mask[new] & ~bit[i]))
                if pos == last[i]:
                    mask &= ~bit[i]
            keep = remaining - np.minimum(supply[mask], room.sum(axis=0)) <= slack
            if bound is not None:
                done = remaining <= 1e-12
                if done.any():
                    cut = min(cut, spent[done].min() + 1e-9 + tol)
                r = later_rate[pos]
                keep &= spent + r * (np.maximum(remaining - 1e-6, 0.0) if r >= 0 else remaining) \
                    + np.where(remaining > 1e-6, later_pipe[pos], 0.0) <= cut
            keep = np.flatnonzero(keep)
            if keep.size < remaining.size:
                remaining, spent, room, digit, mask = (
                    remaining[keep], spent[keep], room[:, keep], digit[:, keep], mask[keep])
                if not keep.size:
                    break
        yield np.sort(inst.stride @ digit)


def _solve_exact(inst: _Instance) -> tuple[float, NetworkSolution]:
    """The first assignment in `itertools.product` order over each source's
    options (sources by id, the first most significant) among those whose
    total is within 1e-9 $/yr of the least total of any assignment that
    reaches the target.  Assignments are numbered by that order.

    Only the codes of `_tight_codes` go through the kernel, EXACT_BLOCK at a
    time, bounded by the greedy start's total (`_greedy_start`) if it reaches
    the target.  A code that gives some source a sink it ships nothing to has
    the flows, and bit for bit the cost, of its tight representative, the
    same code with those sources set to no sink; the representative has the
    smaller code, so the winner is tight.  The codes left out otherwise
    cannot reach the target, or cost more than the least total by more than
    1e-9, so no code within 1e-9 of it is left out."""
    radix, stride = inst.radix, inst.stride
    greedy = inst.evaluate(inst.assignment(_greedy_start(inst)))
    least = greedy[0] if greedy else math.inf
    # the feasible codes seen so far whose total is within 1e-9 of `least`
    band, totals = np.zeros(0, dtype=np.int64), np.zeros(0)
    for tight in _tight_codes(inst, least):
        for start in range(0, tight.size, EXACT_BLOCK):
            codes = tight[start:start + EXACT_BLOCK]
            digit = codes // stride[:, None] % radix[:, None]      # (source, code)
            remaining, flow = inst.allocate(digit)
            feasible = np.flatnonzero(_shortfall(remaining) == 0)
            capture, pipeline, seq, _ = inst.cost(digit[:, feasible], flow[:, feasible])
            band = np.concatenate((band, codes[feasible]))
            totals = np.concatenate((totals, (capture + pipeline) + seq))
            least = min(least, totals.min(initial=math.inf))
            keep = totals <= least + 1e-9
            band, totals = band[keep], totals[keep]
    if not band.size:
        raise NetworkInfeasible("no assignment reaches the target")
    return inst.evaluate(inst.assignment(band[0] // stride % radix))


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
    current = _greedy_start(inst)
    rows = np.repeat(np.arange(len(inst.options)), [len(o) for o in inst.options])
    options = np.concatenate([np.arange(len(o)) for o in inst.options])
    while True:
        digit = np.repeat(current[:, None], options.size + 1, axis=1)
        digit[rows, np.arange(1, options.size + 1)] = options
        remaining, flow = inst.allocate(digit)
        capture, pipeline, seq, _ = inst.cost(digit, flow)
        keys = list(zip(_shortfall(remaining).tolist(), ((capture + pipeline) + seq).tolist()))
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
    winner is the first assignment in enumeration order whose total is within
    1e-9 of the least, optimal over assignments under the allocation rule;
    only the tight assignments that can reach the target at such a total are
    evaluated (`_solve_exact`).  Above either limit, local search from the greedy
    start first closes any shortfall, then lowers the cost, and returns a
    local optimum.  Raises NetworkInfeasible when the target exceeds supply
    or sink capacity, when no assignment reaches it, or when local search
    stops short of it.
    """
    if not (math.isfinite(target) and target >= 0):
        raise DomainError(f"target must be a finite number >= 0: got {target}")
    inst = _make_instance(sources, sinks, candidates, target, NetworkParams())
    if target == 0:
        return NetworkSolution(routes=[], target=0.0, cost_capture=0.0, cost_pipeline=0.0,
                               cost_sequestration=0.0)
    exact = (len(sources) <= EXACT_SOURCE_LIMIT
             and math.prod(inst.radix.tolist()) <= EXACT_CODE_LIMIT)
    return (_solve_exact if exact else _solve_local)(inst)[1]

