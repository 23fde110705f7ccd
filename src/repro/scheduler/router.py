"""Congestion-aware shortest-path routing over the ADG network.

"Route this instruction's operands and dependences to the network using
Dijkstra's algorithm" (Algorithm 1). :class:`RoutingGraph` precomputes
adjacency once per ADG; :meth:`route` finds a cheapest path whose interior
traverses only switches and delay FIFOs, with link costs inflated by
current congestion so the stochastic search negotiates away overuse
(in the spirit of PathFinder [51]).
"""

import heapq

from repro.adg.components import DelayFifo, Switch


def _hop_latency(dst):
    if isinstance(dst, Switch):
        return dst.latency
    if isinstance(dst, DelayFifo):
        return 1
    return 0


class RoutingGraph:
    """Precomputed routing view of an ADG.

    Rebuild after any topology edit (the repair pass does this).
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
        # The adjacency lists and per-source BFS hop tables only serve
        # routing queries (``route``/``hops``/``reachable``); both are
        # filled on first use so timing-only consumers — the simulator
        # builds a RoutingGraph per replay just for ``path_latency`` —
        # pay the two link tables and nothing else.
        self._adjacency = None  # node name -> [(link_id, dst, latency)]
        self._hop_cache = {}

    def link(self, link_id):
        return self._links[link_id]

    def _neighbors(self):
        if self._adjacency is None:
            adg = self.adg
            adjacency = {name: [] for name in adg.node_names()}
            for link in self._links.values():
                dst_node = adg.node(link.dst)
                latency = 1
                if isinstance(dst_node, Switch):
                    latency = dst_node.latency
                adjacency[link.src].append(
                    (link.link_id, link.dst, latency))
            self._adjacency = adjacency
        return self._adjacency

    def _passable(self, name):
        """May a route pass *through* this node?"""
        node = self.adg.node(name)
        return isinstance(node, (Switch, DelayFifo))

    def route(self, src, dst, link_values=None, value=None, forbidden=None):
        """Cheapest path from hardware node ``src`` to ``dst``.

        Returns a list of link ids, or None when unreachable. Interior
        nodes must be switches or delay FIFOs; ``src``/``dst`` may be any
        component.

        ``link_values`` maps link ids to the set of value identities
        already routed through them; ``value`` is the identity this route
        will carry. Links already carrying the *same* value are nearly
        free (multicast fanout reuses the wire); links carrying other
        values are congestion-priced. ``forbidden`` is a set of node
        names routes must avoid.
        """
        if src == dst:
            return []
        adjacency = self._neighbors()
        link_values = link_values or {}
        forbidden = forbidden or ()
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
                if neighbor in forbidden:
                    continue
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

    def reachable(self, src, dst):
        return self.route(src, dst) is not None

    def _bfs_hops(self, src):
        """BFS hop table from ``src`` (interior hops through switches
        and delay FIFOs only)."""
        adjacency = self._neighbors()
        table = {src: 0}
        frontier = [src]
        while frontier:
            next_frontier = []
            for name in frontier:
                if name != src and not self._passable(name):
                    continue
                for link_id, neighbor, _latency in adjacency[name]:
                    if neighbor not in table:
                        table[neighbor] = table[name] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return table

    def hops(self, src, dst):
        """Congestion-free hop distance (precomputed); inf when
        unreachable. Used to bias placement toward nearby tiles."""
        table = self._hop_cache.get(src)
        if table is None:  # src added after construction: fill on demand
            table = self._bfs_hops(src)
            self._hop_cache[src] = table
        return table.get(dst, float("inf"))
