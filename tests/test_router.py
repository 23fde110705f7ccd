"""Parity tests for the compiled router.

``RoutingGraph.route`` runs Dijkstra over rank-indexed tables compiled on
first use; ``RoutingGraph._route_oracle`` is the name-keyed reference.
Seeded random queries must return the same path (or the same ``None``)
from both, on every preset fabric and on small random fabrics whose node
names do not follow insertion order, with congestion given as plain sets
and as the schedule's live ``{value: refcount}`` form. ``hops`` is
checked against a from-scratch BFS, and a compile must run without ever
copying the schedule's congestion view.
"""

import random
from collections import deque

import pytest

from repro.adg import Adg, topologies
from repro.adg.components import DelayFifo, ProcessingElement, Switch
from repro.compiler import compile_kernel
from repro.scheduler import RoutingGraph
from repro.scheduler.schedule import Schedule
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

# ``None`` among the occupants checks that a route with no value never
# takes the fanout discount.
VALUES = [None] + [("r", node, lane) for node in range(6) for lane in range(2)]
RANDOM_FABRICS = [f"random-{seed}" for seed in range(6)]


def random_fabric(seed):
    """A small irregular fabric: switches with and without a flopped
    output, delay FIFOs, terminal PEs and parallel links, inserted in an
    order unrelated to name order so rank tie-breaks are exercised."""
    rng = random.Random(seed)
    adg = Adg()
    ids = rng.sample(range(100), 24)
    names = []
    for index, ident in enumerate(ids):
        name = f"n{ident}"
        if index < 14:
            adg.add(Switch(name=name, flop_output=rng.random() < 0.5))
        elif index < 17:
            adg.add(DelayFifo(name=name))
        else:
            adg.add(ProcessingElement(name=name))
        names.append(name)
    for _ in range(70):
        src, dst = rng.sample(names, 2)
        adg.connect(src, dst)
    return adg


def make_fabric(name):
    if name in topologies.PRESETS:
        return topologies.PRESETS[name]()
    return random_fabric(int(name.split("-")[1]))


def random_congestion(rng, routing, names):
    """The same occupancy as ``{link: set}`` and as the schedule's
    ``{link: {value: refcount}}``: random links carrying random values,
    plus whole routes laid down one after another under congestion
    pricing, as the scheduler does (so values run along paths)."""
    as_sets, as_refs = {}, {}

    def occupy(link_id, value):
        as_sets.setdefault(link_id, set()).add(value)
        refs = as_refs.setdefault(link_id, {})
        refs[value] = refs.get(value, 0) + rng.randint(1, 2)

    for link in routing.adg.links():
        if rng.random() < 0.15:
            for value in rng.sample(VALUES, rng.randint(1, 3)):
                occupy(link.link_id, value)
    for _ in range(12):
        src, dst = rng.choice(names), rng.choice(names)
        value = rng.choice(VALUES[1:4])
        for link_id in routing._route_oracle(src, dst, as_sets, value) or ():
            occupy(link_id, value)
    return as_sets, as_refs


@pytest.mark.parametrize(
    "fabric", sorted(topologies.PRESETS) + RANDOM_FABRICS)
def test_route_matches_oracle(fabric):
    adg = make_fabric(fabric)
    routing = RoutingGraph(adg)
    names = adg.node_names()
    rng = random.Random(fabric)
    found = unreachable = reused = 0
    for trial in range(40):
        as_sets, as_refs = random_congestion(rng, routing, names)
        occupied = sorted(as_sets)
        for _ in range(8):
            src, dst = rng.choice(names), rng.choice(names)
            draw = rng.random()
            if draw < 0.3:
                value = None
            elif draw < 0.7 and occupied:
                # A value some link already carries: fanout reuse.
                value = rng.choice(
                    [v for v in as_sets[rng.choice(occupied)] if v]
                    or [("fresh", trial)])
            else:
                value = ("fresh", trial)
            expected = routing._route_oracle(src, dst, as_sets, value)
            assert routing.route(src, dst, as_sets, value) == expected
            assert routing.route(src, dst, as_refs, value) == expected
            assert routing.route(src, dst, value=value) == (
                routing._route_oracle(src, dst, value=value))
            if expected is None:
                unreachable += 1
            else:
                found += 1
                reused += any(
                    value in as_sets.get(link_id, ()) for link_id in expected
                )
    assert found and unreachable
    if fabric == "softbrain":
        assert reused  # the fanout discount was exercised


@pytest.mark.parametrize("preset", sorted(topologies.PRESETS))
def test_route_edge_cases(preset):
    adg = topologies.PRESETS[preset]()
    routing = RoutingGraph(adg)
    name = sorted(adg.node_names())[0]
    assert routing.route(name, name) == [] == routing._route_oracle(
        name, name)
    assert routing.route(name, "no-such-node") is None
    assert routing._route_oracle(name, "no-such-node") is None


def bfs_hops(adg, src):
    """Hop distances from ``src``; only switches and delay FIFOs
    forward traffic."""
    table = {src: 0}
    queue = deque([src])
    while queue:
        name = queue.popleft()
        if name != src and not isinstance(
                adg.node(name), (Switch, DelayFifo)):
            continue
        for link in adg.out_links(name):
            if link.dst not in table:
                table[link.dst] = table[name] + 1
                queue.append(link.dst)
    return table


@pytest.mark.parametrize(
    "fabric", sorted(topologies.PRESETS) + RANDOM_FABRICS)
def test_hops_match_bfs(fabric):
    adg = make_fabric(fabric)
    routing = RoutingGraph(adg)
    names = adg.node_names()
    for src in names:
        table = bfs_hops(adg, src)
        for dst in names:
            assert routing.hops(src, dst) == table.get(dst, float("inf"))


def test_compile_reads_the_live_congestion_view(monkeypatch):
    def copy_forbidden(self):
        raise AssertionError("the scheduler copied link_values()")

    monkeypatch.setattr(Schedule, "link_values", copy_forbidden)
    telemetry = Telemetry()
    compiled = compile_kernel(
        make_kernel("mm", 0.1), topologies.softbrain(),
        rng=DeterministicRng((1, "mm")), max_iters=120,
        telemetry=telemetry,
    )
    assert compiled.ok
    assert telemetry.counters["sched_route_calls"] > 0
