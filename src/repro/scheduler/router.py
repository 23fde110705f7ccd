"""Congestion-aware shortest-path routing over the ADG network.

"Route this instruction's operands and dependences to the network using
Dijkstra's algorithm" (Algorithm 1). :meth:`RoutingGraph.route` finds a
cheapest path whose interior traverses only switches and delay FIFOs,
with link costs inflated by current congestion so the stochastic search
negotiates away overuse (in the spirit of PathFinder [51]).

The network is compiled into dense tables on the first ``route``/``hops``
query, never at construction (the simulator builds a RoutingGraph per
replay just for ``path_latency``). Nodes are numbered by their rank in
``sorted(node_names)``, so ``(cost, rank)`` heap entries break ties
exactly as ``(cost, name)`` would. Congestion is read from the caller's
``{link_id: occupants}`` view — the scheduler passes its live
``Schedule._link_value_refs`` — through ``get``/``in``/``len`` only.
:meth:`RoutingGraph._route_oracle` is the name-keyed reference Dijkstra
the parity tests compare against.
"""

import heapq

from repro.adg.components import DelayFifo, Switch

_INF = float("inf")


def _hop_latency(dst):
    if isinstance(dst, Switch):
        return dst.latency
    if isinstance(dst, DelayFifo):
        return 1
    return 0


class RoutingGraph:
    """Routing view of an ADG.

    Rebuild after any topology edit (the repair pass does this).
    ``route_calls`` counts :meth:`route` queries.
    """

    #: Cost of traversing one link.
    LINK_COST = 1.0
    #: Extra cost per already-routed edge sharing a link. Must exceed the
    #: cost of several detour hops or Dijkstra will happily share links
    #: the objective then counts as overuse (PathFinder prices congestion
    #: high for the same reason).
    CONGESTION_COST = 12.0

    def __init__(self, adg):
        self.adg = adg
        self._links = {link.link_id: link for link in adg.links()}
        # Pipeline latency each link adds to a routed path (flopped
        # switches add a cycle each, delay FIFOs one; the final hop into
        # the consumer is combinational): ``path_latency`` is a table sum.
        self._link_latency = {
            link_id: _hop_latency(adg.node(link.dst))
            for link_id, link in self._links.items()
        }
        self._tables = None  # compiled on the first route/hops query
        self.route_calls = 0

    def link(self, link_id):
        return self._links[link_id]

    def _compile(self):
        """Rank-indexed adjacency: per rank, ``(link_id, neighbor_rank,
        LINK_COST + latency)`` in ADG link order, plus a passable flag
        (may a route pass *through* the node?) and the BFS hop cache."""
        adg = self.adg
        names = sorted(adg.node_names())
        rank = {name: index for index, name in enumerate(names)}
        out = [[] for _ in names]
        for link in self._links.values():
            dst_node = adg.node(link.dst)
            latency = 1
            if isinstance(dst_node, Switch):
                latency = dst_node.latency
            out[rank[link.src]].append(
                (link.link_id, rank[link.dst], self.LINK_COST + latency))
        passable = bytearray(
            isinstance(adg.node(name), (Switch, DelayFifo)) for name in names
        )
        self._tables = (names, rank, out, passable, {})
        return self._tables

    def route(self, src, dst, link_values=None, value=None):
        """Cheapest path from hardware node ``src`` to ``dst``.

        Returns a list of link ids, or None when unreachable. Interior
        nodes must be switches or delay FIFOs; ``src``/``dst`` may be any
        component.

        ``link_values`` maps link ids to the values already routed
        through them (a set, or the schedule's ``{value: refcount}``
        dict); ``value`` is the identity this route will carry. Links
        already carrying the *same* value are nearly free (multicast
        fanout reuses the wire); links carrying other values are
        congestion-priced.
        """
        self.route_calls += 1
        if src == dst:
            return []
        _names, rank, out, passable, _hops = self._tables or self._compile()
        src_rank = rank[src]
        dst_rank = rank.get(dst)
        if dst_rank is None:
            return None
        occupied = (link_values or {}).get
        fanout = value is not None
        congestion = self.CONGESTION_COST
        size = len(out)
        best = [_INF] * size
        best[src_rank] = 0.0
        parent_rank = [-1] * size
        parent_link = [None] * size
        visited = bytearray(size)
        heap = [(0.0, src_rank)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            cost, node = pop(heap)
            if visited[node]:
                continue
            visited[node] = 1
            if node == dst_rank:
                break
            if node != src_rank and not passable[node]:
                continue  # terminal nodes cannot forward traffic
            for link_id, neighbor, base in out[node]:
                occupants = occupied(link_id)
                if not occupants:
                    candidate = cost + base
                elif fanout and value in occupants:
                    # Fanout reuse: the wire already carries this value.
                    candidate = cost + 0.1
                else:
                    candidate = cost + (base + congestion * len(occupants))
                if candidate < best[neighbor]:
                    best[neighbor] = candidate
                    parent_rank[neighbor] = node
                    parent_link[neighbor] = link_id
                    push(heap, (candidate, neighbor))
        if parent_rank[dst_rank] < 0:
            return None
        path = []
        node = dst_rank
        while node != src_rank:
            path.append(parent_link[node])
            node = parent_rank[node]
        path.reverse()
        return path

    def _passable(self, name):
        """May a route pass *through* this node? (oracle only)"""
        node = self.adg.node(name)
        return isinstance(node, (Switch, DelayFifo))

    def _route_oracle(self, src, dst, link_values=None, value=None):
        """Reference Dijkstra for :meth:`route`: name-keyed, walking
        ``adg.links()`` directly, independent of the compiled tables.
        Tests compare the two path for path."""
        if src == dst:
            return []
        adg = self.adg
        adjacency = {name: [] for name in adg.node_names()}
        for link in adg.links():
            dst_node = adg.node(link.dst)
            latency = 1
            if isinstance(dst_node, Switch):
                latency = dst_node.latency
            adjacency[link.src].append((link.link_id, link.dst, latency))
        link_values = link_values or {}
        best = {src: 0.0}
        parent = {}
        heap = [(0.0, src)]
        visited = set()
        while heap:
            cost, name = heapq.heappop(heap)
            if name in visited:
                continue
            visited.add(name)
            if name == dst:
                break
            if name != src and not self._passable(name):
                continue  # terminal nodes cannot forward traffic
            for link_id, neighbor, latency in adjacency[name]:
                occupants = link_values.get(link_id)
                if occupants and value is not None and value in occupants:
                    # Fanout reuse: the wire already carries this value.
                    step = 0.1
                else:
                    step = (
                        self.LINK_COST
                        + latency
                        + self.CONGESTION_COST * len(occupants or ())
                    )
                candidate = cost + step
                if candidate < best.get(neighbor, float("inf")):
                    best[neighbor] = candidate
                    parent[neighbor] = (name, link_id)
                    heapq.heappush(heap, (candidate, neighbor))
        if dst not in parent:
            return None
        path = []
        name = dst
        while name != src:
            previous, link_id = parent[name]
            path.append(link_id)
            name = previous
        path.reverse()
        return path

    def path_latency(self, links):
        """Pipeline latency of a routed path (flopped switches add a cycle
        each; the final hop into the consumer is combinational)."""
        return sum(map(self._link_latency.__getitem__, links))

    def _bfs_hops(self, src):
        """BFS hop table ``{name: hops}`` from ``src`` over the compiled
        adjacency (interior hops through switches and delay FIFOs only)."""
        names, rank, out, passable, _hops = self._tables or self._compile()
        src_rank = rank[src]
        depth = {src_rank: 0}
        frontier = [src_rank]
        while frontier:
            next_frontier = []
            for node in frontier:
                if node != src_rank and not passable[node]:
                    continue
                hops = depth[node] + 1
                for _link_id, neighbor, _base in out[node]:
                    if neighbor not in depth:
                        depth[neighbor] = hops
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return {names[node]: hops for node, hops in depth.items()}

    def hops(self, src, dst):
        """Congestion-free hop distance (a per-source BFS table, filled
        on first use); inf when unreachable. Used to bias placement
        toward nearby tiles."""
        hop_cache = (self._tables or self._compile())[4]
        table = hop_cache.get(src)
        if table is None:
            table = self._bfs_hops(src)
            hop_cache[src] = table
        return table.get(dst, _INF)
