"""Tests for the incremental schedule bookkeeping (PR 2).

The schedule maintains utilization counters (``pe_load``/``port_load``/
``link_values``/``memory_streams``/issue cost/route length) live under
mutation instead of re-deriving them per objective evaluation. These
tests pin the incremental state to the from-scratch ``_recompute_*``
oracles under randomized mutation sequences, pin the delta-timing state
to the from-scratch ``_time_region`` oracle, check the per-region hit/
recompute accounting, and carry the regression tests for the
two move-operator bugs fixed in the same change (`_swap_instructions`
reporting progress after a revert, `_reroute_congested` losing a route
when an endpoint went unplaced).
"""

import pickle

from repro.adg import Adg, topologies
from repro.adg.components import (
    Direction,
    ProcessingElement,
    Switch,
    SyncElement,
)
from repro.ir import ConfigScope, Dfg, LinearStream, OffloadRegion
from repro.ir.stream import StreamDirection
from repro.scheduler import RoutingGraph, Schedule, SpatialScheduler
from repro.scheduler import stochastic as stochastic_mod
from repro.scheduler.objective import evaluate_schedule
from repro.scheduler.repair import strip_invalid
from repro.scheduler.schedule import Edge, Vertex
from repro.scheduler.timing import (
    _link_initiation_interval,
    _pe_initiation_intervals,
    _time_region,
    compute_timing,
)
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.verify import lint_schedule

from tests.test_scheduler import dot_scope


def two_region_scope():
    """Two independent dot-product regions (distinct epochs/timings)."""
    regions = []
    for name, unroll in (("r0", 4), ("r1", 2)):
        donor = dot_scope(n=8, unroll=unroll).regions[0]
        regions.append(OffloadRegion(
            name, donor.dfg,
            input_streams=donor.input_streams,
            output_streams=donor.output_streams,
        ))
    return ConfigScope("s", regions=regions)


def assert_counters_match_oracles(sched):
    assert sched.pe_load() == sched._recompute_pe_load()
    assert sched.port_load() == sched._recompute_port_load()
    assert sched.pe_issue_cost() == sched._recompute_pe_issue_cost()
    assert sched.link_values() == sched._recompute_link_values()
    assert sched.route_length() == sched._recompute_route_length()
    assert sched.region_pes() == sched._recompute_region_pes()
    # memory_streams order within a memory is unspecified.
    live = {m: sorted(keys) for m, keys in sched.memory_streams().items()}
    oracle = {
        m: sorted(keys)
        for m, keys in sched._recompute_memory_streams().items()
    }
    assert live == oracle
    # link_load is derived from link_values; check consistency too.
    assert sched.link_load() == {
        link: len(values)
        for link, values in sched._recompute_link_values().items()
    }
    # The verify linter runs the same drift oracles; it must agree that
    # the live state is clean even on structurally wild schedules (the
    # randomized routes are not connected paths, so only state.* counts).
    report = lint_schedule(sched, allow_partial=True)
    drift = report.select("state.")
    assert not drift, report.describe()


def oracle_timing(sched, routing, assign_delays):
    """``compute_timing`` rebuilt from the from-scratch oracles only."""
    per_pe = _pe_initiation_intervals(sched)
    ii_link = _link_initiation_interval(sched)
    regions = {}
    for region in sched.regions():
        timing = _time_region(sched, routing, region, assign_delays)
        pes = {
            sched.placement.get(Vertex(region.name, node.node_id))
            for node in region.dfg.instructions()
        }
        timing.ii = max(
            timing.ii, ii_link,
            max((per_pe.get(hw, 1) for hw in pes if hw is not None),
                default=1),
        )
        regions[region.name] = timing
    return regions


def assert_timing_matches_oracle(sched, routing, assign_delays=True):
    """Delta timing equals the oracle on a rebuilt schedule, including
    the delay-FIFO table it writes."""
    rebuilt = Schedule(sched.scope, sched.adg)
    rebuilt.placement = dict(sched.placement)
    rebuilt.routes = {
        edge: list(links) for edge, links in sched.routes.items()
    }
    rebuilt.stream_binding = dict(sched.stream_binding)
    rebuilt.input_delays = dict(sched.input_delays)
    live = compute_timing(sched, routing, assign_delays=assign_delays)
    assert live.regions == oracle_timing(rebuilt, routing, assign_delays)
    assert dict(sched.input_delays) == dict(rebuilt.input_delays)


class TestIncrementalCounters:
    def test_randomized_mutations_match_oracles(self):
        self._randomized_mutations(topologies.softbrain())

    def test_randomized_mutations_with_mixed_pes(self):
        # revel mixes static and dynamic PEs, so flow violations (which
        # depend on producer placement) are exercised as well as skew.
        self._randomized_mutations(topologies.revel())

    @staticmethod
    def _randomized_mutations(adg):
        routing = RoutingGraph(adg)
        sched = Schedule(dot_scope(n=8, unroll=4), adg)
        rng = DeterministicRng("parity")
        vertices = sched.vertices()
        edges = sched.edges()
        link_ids = [link.link_id for link in adg.links()]
        memories = [
            m.name for m in (adg.dma(), adg.scratchpad()) if m is not None
        ]
        ports = [("dot", "a"), ("dot", "b"), ("dot", "c")]
        for step in range(400):
            op = rng.randint(0, 9)
            if op <= 2:
                vertex = rng.choice(vertices)
                pool = sched.candidates_for(vertex)
                if pool:
                    sched.place(vertex, rng.choice(pool))
            elif op == 3:
                sched.unplace(rng.choice(vertices))
            elif op == 4:
                # Raw observed-dict mutation (bypasses Schedule methods).
                sched.placement.pop(rng.choice(vertices), None)
            elif op <= 6:
                edge = rng.choice(edges)
                hops = rng.randint(0, 4)
                sched.set_route(edge, rng.sample(link_ids, hops))
            elif op == 7:
                sched.routes.pop(rng.choice(edges), None)
            elif op == 8:
                region, port = rng.choice(ports)
                sched.bind_stream(region, port, rng.choice(memories))
            else:
                sched.stream_binding.pop(rng.choice(ports), None)
            if step % 5 == 0:
                # Every seventh check skips delay assignment.
                assert_timing_matches_oracle(
                    sched, routing, assign_delays=step % 35 != 0
                )
            if step % 50 == 0:
                assert_counters_match_oracles(sched)
            if step == 100:
                # The round trip carries its own copy of the ADG.
                sched = pickle.loads(pickle.dumps(sched))
                adg = sched.adg
                routing = RoutingGraph(adg)
            elif step == 150:
                # Shallower delay FIFOs change every static PE's timing.
                adg = adg.clone()
                for pe in adg.pes():
                    pe.delay_fifo_depth = 1
                routing = RoutingGraph(adg)
                sched.rebind(adg)
            elif step == 200:
                sched = sched.clone()
            elif step == 250:
                strip_invalid(sched, adg)
            elif step == 300:
                sched.clear()
                assert sched.pe_load() == {}
                assert sched.route_length() == 0
            elif step == 340:
                # Wholesale assignment drops the old entries unobserved.
                sched.placement = {}
            elif step == 350:
                sched.routes = {}
            elif step == 375:
                sched.input_delays = {}
            else:
                continue
            assert_timing_matches_oracle(sched, routing)
        assert_timing_matches_oracle(sched, routing)
        assert_counters_match_oracles(sched)

    def test_timing_follows_the_routing_graph_hardware(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope(unroll=4))
        assert_timing_matches_oracle(sched, scheduler.routing)
        # Unflopped switches: every routed path gets shorter.
        other = adg.clone()
        for switch in other.switches():
            switch.flop_output = False
        assert_timing_matches_oracle(sched, RoutingGraph(other))
        assert_timing_matches_oracle(sched, scheduler.routing)

    def test_wholesale_assignment_rebuilds_counters(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal
        rebuilt = Schedule(sched.scope, adg)
        rebuilt.placement = dict(sched.placement)
        rebuilt.routes = {
            edge: list(links) for edge, links in sched.routes.items()
        }
        rebuilt.stream_binding = dict(sched.stream_binding)
        rebuilt.input_delays = dict(sched.input_delays)
        assert_counters_match_oracles(rebuilt)
        assert rebuilt.pe_load() == sched.pe_load()
        assert rebuilt.link_values() == sched.link_values()

    def test_evaluation_parity_incremental_vs_rebuilt(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=80)
        sched, _ = scheduler.schedule(dot_scope(unroll=4))
        rebuilt = Schedule(sched.scope, adg)
        rebuilt.placement = dict(sched.placement)
        rebuilt.routes = {
            edge: list(links) for edge, links in sched.routes.items()
        }
        rebuilt.stream_binding = dict(sched.stream_binding)
        rebuilt.input_delays = dict(sched.input_delays)
        routing = RoutingGraph(adg)
        assert evaluate_schedule(sched, routing) == evaluate_schedule(
            rebuilt, routing
        )

    def test_clone_shares_immutable_views_not_counters(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        twin = sched.clone()
        # DFG-derived views are immutable and shared...
        assert twin.edges() is sched.edges()
        assert twin.vertices() == sched.vertices()
        # ...but mutation state is independent.
        for vertex in list(twin.placement):
            twin.unplace(vertex)
        assert twin.pe_load() == {}
        assert sched.placement
        assert_counters_match_oracles(sched)
        assert_counters_match_oracles(twin)

    def test_pickle_roundtrip_preserves_counters(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        loaded = pickle.loads(pickle.dumps(sched))
        assert dict(loaded.placement) == dict(sched.placement)
        assert dict(loaded.routes) == dict(sched.routes)
        assert loaded.pe_load() == sched.pe_load()
        assert loaded.link_values() == sched.link_values()
        assert_counters_match_oracles(loaded)

    def test_unrouted_edges_is_set_difference(self):
        adg = topologies.softbrain()
        sched = Schedule(dot_scope(unroll=4), adg)
        link_ids = [link.link_id for link in adg.links()]
        edges = sched.edges()
        for edge in edges[::2]:
            sched.set_route(edge, link_ids[:2])
        assert set(sched.unrouted_edges()) == set(edges) - set(sched.routes)


class TestTimingCache:
    def test_regions_cached_until_mutated(self):
        adg = topologies.dse_initial()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng("cache"), max_iters=200,
        )
        sched, cost = scheduler.schedule(two_region_scope())
        assert cost.is_legal
        before = dict(telemetry.counters)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)

        def delta(name):
            return telemetry.counters.get(name, 0) - before.get(name, 0)

        # First call may hit (the search already timed this exact state);
        # the second call must be served fully from cache.
        assert delta("timing_region_cache_hits") >= 2
        recomputes = delta("timing_region_recomputes")
        # Mutating r0 invalidates only r0.
        vertex = next(v for v in sched.placement if v.region == "r0")
        hw = sched.placement[vertex]
        sched.placement.pop(vertex)
        sched.place(vertex, hw)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        assert delta("timing_region_recomputes") == recomputes + 1
        assert delta("timing_region_cache_hits") >= 3

    def test_delay_flag_upgrades_recompute(self):
        adg = topologies.softbrain()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        sched.placement.pop(next(iter(sched.placement)))  # fresh epoch
        compute_timing(sched, scheduler.routing, assign_delays=False,
                       telemetry=telemetry)
        hits = telemetry.counters.get("timing_region_cache_hits", 0)
        # A no-delays entry cannot serve an assign_delays request.
        compute_timing(sched, scheduler.routing, assign_delays=True,
                       telemetry=telemetry)
        assert telemetry.counters["timing_region_recomputes"] >= 2
        # ...but the delays entry serves both kinds afterwards.
        compute_timing(sched, scheduler.routing, assign_delays=False,
                       telemetry=telemetry)
        compute_timing(sched, scheduler.routing, assign_delays=True,
                       telemetry=telemetry)
        assert telemetry.counters["timing_region_cache_hits"] >= hits + 2

    def test_rebind_invalidates_cache(self):
        adg = topologies.softbrain()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        recomputes = telemetry.counters.get("timing_region_recomputes", 0)
        sched.rebind(adg.clone())
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        assert telemetry.counters[
            "timing_region_recomputes"
        ] == recomputes + 1


class TestDeterminism:
    def test_fixed_seed_trajectory_identical(self):
        adg = topologies.dse_initial()
        outcomes = []
        for _ in range(2):
            telemetry = Telemetry()
            scheduler = SpatialScheduler(
                adg, rng=DeterministicRng("traj"), max_iters=120,
                telemetry=telemetry,
            )
            sched, cost = scheduler.schedule(dot_scope(unroll=4))
            outcomes.append((
                cost,
                sorted((str(v), hw) for v, hw in sched.placement.items()),
                sorted(
                    (str(e), tuple(links))
                    for e, links in sched.routes.items()
                ),
                dict(telemetry.counters),
            ))
        assert outcomes[0] == outcomes[1]


class _ForcedCost:
    def __init__(self, scalar):
        self._scalar = scalar

    def scalar(self):
        return self._scalar


class TestMoveOperatorBugfixes:
    def test_swap_revert_reports_no_progress(self, monkeypatch):
        """A reverted swap must return False and leave the schedule
        bit-identical (regression: it returned True after reverting,
        starving the caller's escape perturbation)."""
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng("swap"), max_iters=80,
        )
        sched, cost = scheduler.schedule(dot_scope(unroll=4))
        assert cost.is_legal
        placement_before = dict(sched.placement)
        routes_before = {
            edge: list(links) for edge, links in sched.routes.items()
        }
        calls = {"n": 0}

        def worse_every_time(schedule, routing, timing_result=None,
                             telemetry=None):
            calls["n"] += 1
            return _ForcedCost(float(calls["n"]))

        monkeypatch.setattr(
            stochastic_mod, "evaluate_schedule", worse_every_time
        )
        telemetry = Telemetry()
        scheduler.telemetry = telemetry
        # Some attempts bail early on placement legality without
        # mutating anything; retry until a swap was actually tried.
        returned = None
        for _ in range(20):
            calls["n"] = 0
            returned = scheduler._swap_instructions(sched)
            if calls["n"] >= 2:  # before and after were both evaluated
                break
        assert calls["n"] >= 2
        assert returned is False
        assert dict(sched.placement) == placement_before
        assert {
            edge: list(links) for edge, links in sched.routes.items()
        } == routes_before
        assert telemetry.counters.get("sched_moves_swap_reverted", 0) >= 1
        assert_counters_match_oracles(sched)

    def test_reroute_congested_keeps_route_when_endpoint_unplaced(self):
        """Popping a congested route whose endpoint is unplaced must not
        lose the route (regression: the route was popped, then the move
        bailed out without restoring it)."""
        adg = Adg()
        adg.add(SyncElement(name="in_a", direction=Direction.INPUT))
        adg.add(SyncElement(name="in_b", direction=Direction.INPUT))
        adg.add(Switch(name="sw"))
        adg.add(ProcessingElement(name="pe", op_names={"add"}))
        l1 = adg.connect("in_a", "sw").link_id
        l2 = adg.connect("in_b", "sw").link_id
        l3 = adg.connect("sw", "pe").link_id

        dfg = Dfg("r")
        a = dfg.add_input("a")
        b = dfg.add_input("b")
        x = dfg.add_instr("add", [a, b])
        dfg.add_output("o", x)
        region = OffloadRegion(
            "r", dfg,
            input_streams={
                "a": LinearStream("A", length=4),
                "b": LinearStream("B", length=4),
            },
            output_streams={
                "o": LinearStream("O", direction=StreamDirection.WRITE,
                                  length=4),
            },
        )
        sched = Schedule(ConfigScope("s", regions=[region]), adg)
        sched.place(Vertex("r", x.node_id), "pe")
        e1 = Edge("r", a.node_id, x.node_id, 0)
        e2 = Edge("r", b.node_id, x.node_id, 1)
        # Two distinct values share l3: the link is congested.
        sched.set_route(e1, [l1, l3])
        sched.set_route(e2, [l2, l3])
        assert sched.link_load()[l3] == 2
        # Input vertices were never placed, so both congested routes
        # have an unplaced endpoint.
        scheduler = SpatialScheduler(adg, rng=DeterministicRng("rr"))
        assert scheduler._reroute_congested(sched) is False
        assert sched.routes[e1] == [l1, l3]
        assert sched.routes[e2] == [l2, l3]
        assert_counters_match_oracles(sched)

    def test_reroute_congested_still_reroutes_placed_edges(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng("rr2"), max_iters=40, patience=1,
        )
        sched, _ = scheduler.schedule(dot_scope(unroll=4))
        # Manufacture congestion on a fully placed schedule.
        edges = [
            e for e in sched.edges()
            if e.src in sched.placement and e.dst in sched.placement
        ]
        if len(edges) >= 2:
            shared = list(sched.routes.get(edges[0], [])) or None
            if shared:
                sched.set_route(edges[1], shared)
                routed_before = len(sched.routes)
                if sched.link_load() and max(
                    sched.link_load().values()
                ) > 1:
                    scheduler._reroute_congested(sched)
                    assert len(sched.routes) == routed_before
        assert_counters_match_oracles(sched)


class TestSchedulerTelemetry:
    def test_run_counters_populated(self):
        adg = topologies.softbrain()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng(7), max_iters=60,
            telemetry=telemetry,
        )
        _, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal
        counters = telemetry.counters
        assert counters["sched_runs"] == 1
        assert counters["sched_evaluations"] > 0
        assert counters.get("timing_region_recomputes", 0) > 0
        for phase in ("sched/greedy_place", "sched/route_all",
                      "sched/search"):
            assert phase in telemetry.timings

    def test_disabled_telemetry_is_default_and_silent(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=40)
        assert scheduler.telemetry.enabled is False
        _, cost = scheduler.schedule(dot_scope())
        assert scheduler.telemetry.counters == {}
