"""Operand-arrival timing for spatial schedules.

Responsibility 3 of the scheduler (Section IV-C): "match the timing of
operand arrival (for static components)". For every placed-and-routed
region this module computes:

* per-vertex ready/finish times following routed path latencies;
* delay-FIFO assignments that equalize operand skew at static PEs, plus
  the violation amount where the FIFO depth is insufficient (throughput
  loss is proportional to residual imbalance [64]);
* the fabric initiation interval (dedicated vs shared vs unpipelined);
* recurrence-path latencies (reductions and self-recurrence streams);
* execution-model flow violations (static -> dynamic without a sync
  element, dedicated -> shared).

Per-region timing is *delta-maintained*. A static per-region plan
(topological order, prebuilt in-edges, successors) is built once per
scope and shared by clones. The first ``compute_timing`` on a schedule
times each region in full and keeps its per-node ``finish``/``ready``
and violation contributions as live state; from then on the schedule's
mutation observers mark the nodes a change can affect as dirty, and the
next call re-times only those nodes, in topological order, plus the
successors whose finish time actually moved. The cross-region
components (shared-PE contention, link time-multiplexing) are
recomputed every call from the schedule's live counters, which is
cheap. :func:`_time_region` is the from-scratch oracle the delta state
is tested and linted against.
"""

import heapq
from dataclasses import dataclass, field

from repro.adg.components import ProcessingElement
from repro.ir.dfg import NodeKind
from repro.ir.region import as_stream_list
from repro.ir.stream import RecurrenceStream
from repro.isa.opcodes import OPCODES
from repro.scheduler.schedule import Edge, Vertex


@dataclass
class RegionTiming:
    """Timing summary for one region."""

    latency: int = 0               # input fire -> last output arrival
    ii: int = 1                    # initiation interval (cycles/instance)
    recurrence_latency: int = 0    # longest dependence cycle
    skew_violations: int = 0       # delay-FIFO shortfall (cycles)
    flow_violations: int = 0       # illegal execution-model edges
    ready_times: dict = field(default_factory=dict)


@dataclass
class TimingResult:
    """Timing for every region of a schedule."""

    regions: dict = field(default_factory=dict)

    @property
    def total_violations(self):
        return sum(
            t.skew_violations + t.flow_violations
            for t in self.regions.values()
        )

    @property
    def max_ii(self):
        return max((t.ii for t in self.regions.values()), default=1)


def _node_latency(node):
    if node.kind is NodeKind.INSTR:
        return OPCODES[node.op].latency
    return 0


def compute_timing(schedule, routing, assign_delays=True, telemetry=None):
    """Compute :class:`TimingResult` for ``schedule``.

    Unplaced/unrouted regions still produce entries (with their placed
    subset timed) so repair can reason about partial schedules. When
    ``assign_delays`` is set, the computed per-edge delay-FIFO settings
    are written into ``schedule.input_delays``.

    Regions with no dirty nodes are served from the live timing state;
    ``telemetry`` (a :class:`repro.utils.telemetry.Telemetry`) counts
    ``timing_region_recomputes`` (regions with dirty nodes, or timed
    from scratch) vs ``timing_region_cache_hits`` (clean regions), and
    ``timing_nodes_retimed``. With ``assign_delays=False`` a dirty
    region is timed by the oracle and nothing is written.
    """
    result = TimingResult()
    per_pe = schedule._pe_issue_cost
    ii_link = max(
        map(len, schedule._link_value_refs.values()), default=1
    )
    recomputes = hits = retimed = 0
    for region in schedule.regions():
        state = _live_state(schedule, routing, region, assign_delays)
        if state is not None and not state.dirty:
            hits += 1
            base = state.timing()
        else:
            recomputes += 1
            if state is None or not assign_delays:
                base = _time_region(schedule, routing, region, False)
            else:
                retimed += _retime(schedule, routing, region, state)
                base = state.timing()
        # A region's II is bounded by the PEs *it* occupies (a once-per-
        # launch divide in a low-rate region must not throttle the
        # high-rate region it feeds) — but contention on shared PEs it
        # co-occupies with other regions is included via per-PE totals.
        region_ii = max(
            (per_pe.get(hw, 1)
             for hw in schedule._region_pes.get(region.name, ())),
            default=1,
        )
        base.ii = max(base.ii, region_ii, ii_link)
        result.regions[region.name] = base
    if telemetry is not None:
        telemetry.incr("timing_region_recomputes", recomputes)
        telemetry.incr("timing_region_cache_hits", hits)
        telemetry.incr("timing_nodes_retimed", retimed)
    return result


class _TimingPlan:
    """Static, DFG-derived timing structure of one region.

    ``entries`` lists the non-constant nodes in topological order as
    ``(node_id, node, vertex, latency, in_edges)``, where ``in_edges``
    holds ``(edge, producer_id)`` for every non-constant operand (and
    the predicate) in operand order. ``index`` maps a node id to its
    position and ``successors`` a node id to its consumers.
    ``recurrence_base`` is the longest reduction-opcode latency and
    ``recurrence_sources`` lists the output nodes recycled into this
    region by a self-recurrence stream.
    """

    __slots__ = ("entries", "index", "successors", "recurrence_base",
                 "recurrence_sources")

    def __init__(self, region):
        dfg = region.dfg
        self.entries = []
        self.index = {}
        self.successors = {}
        for node_id in dfg.topological_order():
            node = dfg.node(node_id)
            if node.kind is NodeKind.CONST:
                continue
            refs = list(node.operands)
            if node.predicate is not None:
                refs.append(node.predicate)
            in_edges = []
            for index, ref in enumerate(refs):
                if dfg.node(ref.node_id).kind is NodeKind.CONST:
                    continue
                operand_index = index if index < len(node.operands) else -1
                edge = Edge(region.name, ref.node_id, node_id,
                            operand_index, ref.lane)
                in_edges.append((edge, ref.node_id))
                consumers = self.successors.setdefault(ref.node_id, [])
                if node_id not in consumers:
                    consumers.append(node_id)
            self.index[node_id] = len(self.entries)
            self.entries.append((
                node_id, node, Vertex(region.name, node_id),
                _node_latency(node), tuple(in_edges),
            ))
            self.successors.setdefault(node_id, [])
        self.recurrence_base = max(
            (OPCODES[node.op].latency
             for node in dfg.instructions() if node.reduction),
            default=0,
        )
        output_names = {n.name: n.node_id for n in dfg.outputs()}
        self.recurrence_sources = []
        for binding in region.input_streams.values():
            for stream in as_stream_list(binding):
                if isinstance(stream, RecurrenceStream) \
                        and stream.source_port in output_names:
                    self.recurrence_sources.append(
                        output_names[stream.source_port]
                    )


class _RegionState:
    """Live delta-timing state of one region on one schedule.

    ``dirty`` holds the node ids the schedule's observers queued for
    re-timing; ``adg`` is the hardware whose routed path latencies the
    state was timed with (component changes arrive through ``rebind``,
    which drops the state).
    """

    __slots__ = ("plan", "adg", "dirty", "finish", "ready", "skew",
                 "flow", "skew_total", "flow_total", "latency",
                 "recurrence")

    def __init__(self, plan, adg):
        self.plan = plan
        self.adg = adg
        self.dirty = set(plan.index)
        self.finish = {}
        self.ready = {}
        self.skew = {}
        self.flow = {}
        self.skew_total = 0
        self.flow_total = 0
        self.latency = 0
        self.recurrence = 0

    def timing(self):
        return RegionTiming(
            latency=self.latency,
            recurrence_latency=self.recurrence,
            skew_violations=self.skew_total,
            flow_violations=self.flow_total,
            ready_times=dict(self.ready),
        )


def _live_state(schedule, routing, region, assign_delays):
    """The region's live timing state, created (all nodes dirty) when
    missing or timed with another routing graph's hardware. Without
    ``assign_delays`` no state is created: a full timing would have to
    write delays."""
    state = schedule._timing_state.get(region.name)
    if state is not None and state.adg is routing.adg:
        return state
    if not assign_delays:
        return None
    plan = schedule._timing_plans.get(region.name)
    if plan is None:
        plan = _TimingPlan(region)
        schedule._timing_plans[region.name] = plan
    state = _RegionState(plan, routing.adg)
    schedule._timing_state[region.name] = state
    return state


def _retime(schedule, routing, region, state):
    """Re-time the dirty nodes of ``region`` and every successor whose
    inputs moved, in topological order; returns the node count."""
    plan = state.plan
    index = plan.index
    queued = state.dirty
    heap = [index[node_id] for node_id in queued if node_id in index]
    heapq.heapify(heap)
    finish, ready = state.finish, state.ready
    placement, routes = schedule.placement, schedule.routes
    adg = schedule.adg
    count = 0
    while heap:
        node_id, node, vertex, latency, in_edges = plan.entries[
            heapq.heappop(heap)
        ]
        count += 1
        skew = flow = 0
        if node.kind is NodeKind.INPUT:
            # Sync elements release all inputs simultaneously at t=0.
            target = 0
        else:
            arrivals = []
            for edge, producer_id in in_edges:
                route = routes.get(edge)
                hop = routing.path_latency(route) if route is not None else 0
                arrivals.append((edge, finish[producer_id] + hop))
            target = max((time for _, time in arrivals), default=0)
            hw_name = placement.get(vertex)
            if hw_name is not None and node.kind is NodeKind.INSTR:
                hw = adg.node(hw_name)
                if isinstance(hw, ProcessingElement) and not hw.is_dynamic:
                    skew = _assign_delays(schedule, hw, arrivals, target, True)
                flow = _flow_violations(schedule, region, node, hw)
        ready[node_id] = target
        state.skew_total += skew - state.skew.get(node_id, 0)
        state.flow_total += flow - state.flow.get(node_id, 0)
        state.skew[node_id] = skew
        state.flow[node_id] = flow
        done = target + latency
        if finish.get(node_id) != done:
            finish[node_id] = done
            for consumer in plan.successors[node_id]:
                if consumer not in queued:
                    queued.add(consumer)
                    heapq.heappush(heap, index[consumer])
    state.dirty = set()
    state.latency = max(finish.values(), default=0)
    # Fallback transforms may force a serialized dependence (e.g. the
    # naive join's pointer-chasing loop, Section IV-E); self-recurrence
    # loops run output arrival + 2 cycles through the port pair.
    state.recurrence = max(
        region.metadata.get("forced_recurrence", 0),
        plan.recurrence_base,
        *(finish[source] + 2 for source in plan.recurrence_sources),
    )
    return count


def _pe_initiation_intervals(schedule):
    """Per-PE issue cost: dedicated pipelined PEs sustain one op/cycle;
    shared PEs issue one of their k instructions per cycle; unpipelined
    opcodes block for their latency. Returns ``{pe_name: cost}``.

    From-scratch oracle for ``Schedule.pe_issue_cost()`` (which serves
    the same table from live counters); kept for the parity tests.
    """
    per_pe = {}
    for vertex, hw_name in schedule.placement.items():
        node = schedule.node_of(vertex)
        if node.kind is not NodeKind.INSTR:
            continue
        op = OPCODES[node.op]
        cost = op.latency if not op.pipelined else 1
        per_pe[hw_name] = per_pe.get(hw_name, 0) + cost
    return per_pe


def _link_initiation_interval(schedule):
    """A link carrying k software edges time-multiplexes k words per
    instance. From-scratch form of the link term ``compute_timing``
    reads off the live counters; kept for the parity tests."""
    load = schedule.link_load()
    return max(load.values(), default=1)


def _time_region(schedule, routing, region, assign_delays):
    """From-scratch timing of one region: the oracle for the delta
    state (see :func:`_retime`)."""
    timing = RegionTiming()
    dfg = region.dfg
    ready = {}
    finish = {}

    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        vertex = Vertex(region.name, node_id)
        if node.kind is NodeKind.CONST:
            finish[node_id] = 0
            continue
        if node.kind is NodeKind.INPUT:
            # Sync elements release all inputs simultaneously at t=0.
            ready[node_id] = 0
            finish[node_id] = 0
            continue

        arrivals = []
        refs = list(node.operands)
        if node.predicate is not None:
            refs.append(node.predicate)
        for index, ref in enumerate(refs):
            producer = dfg.node(ref.node_id)
            if producer.kind is NodeKind.CONST:
                continue  # constants are resident in the PE configuration
            operand_index = index if index < len(node.operands) else -1
            edge = Edge(region.name, ref.node_id, node_id,
                        operand_index, ref.lane)
            base = finish.get(ref.node_id, 0)
            route = schedule.routes.get(edge)
            hop = routing.path_latency(route) if route is not None else 0
            arrivals.append((edge, base + hop))

        if arrivals:
            target = max(time for _, time in arrivals)
        else:
            target = 0
        ready[node_id] = target
        finish[node_id] = target + _node_latency(node)

        hw_name = schedule.placement.get(vertex)
        if hw_name is not None and node.kind is NodeKind.INSTR:
            hw = schedule.adg.node(hw_name)
            if isinstance(hw, ProcessingElement) and not hw.is_dynamic:
                timing.skew_violations += _assign_delays(
                    schedule, hw, arrivals, target, assign_delays
                )
            timing.flow_violations += _flow_violations(
                schedule, region, node, hw
            )

    timing.ready_times = ready
    timing.latency = max(finish.values(), default=0)
    timing.recurrence_latency = _recurrence_latency(
        schedule, routing, region, finish
    )
    if timing.recurrence_latency:
        timing.ii = max(timing.ii, 1)
    return timing


def _assign_delays(schedule, pe, arrivals, target, assign):
    """Equalize operand skew through the PE's input delay FIFOs; returns
    violation cycles that exceed the FIFO depth."""
    violations = 0
    for edge, time in arrivals:
        skew = target - time
        absorbed = min(skew, pe.delay_fifo_depth)
        if assign:
            schedule.input_delays[edge] = absorbed
        violations += skew - absorbed
    return violations


def _flow_violations(schedule, region, node, hw):
    """Count illegal execution-model edges into this instruction
    (Section III-B): static producer -> dynamic consumer (needs a sync
    element) and dedicated producer -> shared consumer."""
    violations = 0
    refs = list(node.operands)
    if node.predicate is not None:
        refs.append(node.predicate)
    for ref in refs:
        producer = region.dfg.node(ref.node_id)
        if producer.kind is not NodeKind.INSTR:
            continue
        producer_hw_name = schedule.placement.get(
            Vertex(region.name, producer.node_id)
        )
        if producer_hw_name is None:
            continue
        producer_hw = schedule.adg.node(producer_hw_name)
        if not isinstance(producer_hw, ProcessingElement):
            continue
        if not producer_hw.is_dynamic and hw.is_dynamic:
            violations += 1
        if not producer_hw.is_shared and hw.is_shared:
            violations += 1
    return violations


def _recurrence_latency(schedule, routing, region, finish):
    """Longest dependence cycle: reduction opcodes recur internally with
    their own latency; self-recurrence streams (output port recycled into
    an input port) loop through the whole routed datapath."""
    # Fallback transforms may force a serialized dependence (e.g. the
    # naive join's pointer-chasing loop, Section IV-E).
    longest = region.metadata.get("forced_recurrence", 0)
    for node in region.dfg.instructions():
        if node.reduction:
            longest = max(longest, OPCODES[node.op].latency)
    output_names = {n.name: n for n in region.dfg.outputs()}
    for port, binding in region.input_streams.items():
        for stream in as_stream_list(binding):
            if not isinstance(stream, RecurrenceStream):
                continue
            source = output_names.get(stream.source_port)
            if source is None:
                continue  # cross-region forward: pipelined, not a cycle
            # Loop: output arrival + 2 cycles through the port pair.
            loop = finish.get(source.node_id, 0) + 2
            longest = max(longest, loop)
    return longest
