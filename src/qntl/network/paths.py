"""Path counting and route selection.

The viability metric counts a pair's intact minimum-hop paths whose
intermediate nodes are all uncompromised; it is the quantity whose decay
the untrusted-node experiment tracks.  Distances and counts come from one
breadth-first walk per root of the last topology asked, shared by every
pair rooted there and extended a layer at a time on demand, and one memo
per pair keeps its distance, count and shortest-path DAG.  Routing
minimizes advertised trust weight with fully deterministic tie-breaking, so
a route is a pure function of the topology and inputs.  One Dijkstra
search from a hub bounds every route through it from below, which lets the
diversion experiment skip a search whose answer the bound already fixes.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import AbstractSet, Callable, Mapping, Sequence

from .topology import Topology

__all__ = [
    "count_viable_paths",
    "hop_distance",
    "route",
]

# An endless run of zeros: ``map(ways.get, neighbours, _ZEROS)`` yields
# ways.get(nbr, 0) for each neighbour and stops with the neighbours.
_ZEROS = itertools.repeat(0)


def _check_pair(graph: Topology, source: int, target: int) -> None:
    if source == target or source not in graph.adjacency or target not in graph.adjacency:
        raise ValueError("source and target must be two distinct nodes of the topology")


@functools.lru_cache(maxsize=1)
def _walks(graph: Topology) -> dict[int, tuple[list[dict[int, int]], set[int]]]:
    """The walks of the last topology asked, by root: each root's BFS
    layers built so far and the nodes they hold.  ``Topology`` hashes by
    identity, so the graph stays referenced while its table is cached."""
    return {}


@functools.lru_cache(maxsize=1)
def _pair(
    graph: Topology, source: int, target: int
) -> tuple[int, int, list[set[int]], frozenset[int]]:
    """(hop distance, number of shortest paths, DAG levels, DAG nodes) for
    two distinct nodes, or (-1, 0, [], frozenset()) when disconnected.

    Each BFS layer of the source's walk carries every node's path count
    (Brandes' sigma), summed from the layer before; ``layers[k]`` holds the
    nodes k hops out.  The built layers are scanned from the source out for
    the first that meets the target's neighbours, whose meet sums to the
    target's count; the walk grows a layer only when none does, and an
    empty layer marks an exhausted root.  A root's layers are the same dicts
    however late they are built, so no answer depends on the order of the
    pairs.

    The meet is the last level of the pair's shortest-path DAG, whose
    intermediate nodes ``levels[k]`` holds k + 1 hops from the source.
    Each level before is swept back from the one after it: its nodes'
    neighbours in the walk's layer before, which are exactly their
    predecessors on the DAG.  This memo keeps the last pair, which the
    decay sweep asks once per fraction.
    """
    _check_pair(graph, source, target)
    adjacency = graph.adjacency
    table = _walks(graph)
    if source not in table:
        table[source] = [{source: 1}], {source}
    layers, seen = table[source]
    near = frozenset(adjacency[target])
    for distance, layer in enumerate(layers, 1):
        meet = layer.keys() & near
        if meet:
            levels = [meet] if distance > 1 else []
            for before in reversed(layers[1:distance - 1]):
                level = levels[-1]
                levels.append({pred for node in level for pred in adjacency[node] if pred in before})
            levels.reverse()
            return distance, sum(map(layer.__getitem__, meet)), levels, frozenset().union(*levels)
        if distance == len(layers) and layer:
            # Walk one layer further; the loop runs on into it.
            ahead: dict[int, int] = {}
            for node, node_ways in layer.items():
                for nbr in adjacency[node]:
                    if nbr in ahead:
                        ahead[nbr] += node_ways
                    elif nbr not in seen:
                        ahead[nbr] = node_ways
            seen.update(ahead)
            layers.append(ahead)
    return -1, 0, [], frozenset()


def hop_distance(graph: Topology, source: int, target: int) -> int:
    """Minimum hop count between two distinct nodes, or -1 when
    disconnected; one node twice, or a node the topology lacks, raises.  It
    reads the pair's memo, which one walk per root per topology, extended
    on demand, fills for :func:`count_viable_paths` too."""
    return _pair(graph, int(source), int(target))[0]


def count_viable_paths(
    graph: Topology,
    source: int,
    target: int,
    compromised: AbstractSet[int] = frozenset(),
) -> int:
    """Count the pair's intact minimum-hop paths that avoid every
    compromised intermediate node.

    A disconnected pair counts 0, and so does a pair whose geodesics are all
    blocked, whatever longer detours remain; a compromised endpoint makes
    the question meaningless and raises, as does one node twice.  The count
    is the intact one when no node of the pair's geodesic DAG (kept in the
    pair's memo with its distance and intact count) is compromised,
    otherwise one pass summing each safe node's predecessors.  Counts are
    exact integers, so they stay exact even when astronomically large.
    """
    source = int(source)
    target = int(target)
    blocked = frozenset(compromised)
    if source in blocked or target in blocked:
        raise ValueError("source and target must not themselves be compromised")
    _, ways, levels, nodes = _pair(graph, source, target)
    if not ways or not blocked or nodes.isdisjoint(blocked):
        return ways
    adjacency = graph.adjacency
    ways_to = {source: 1}
    for level in levels:
        ways_to = {
            node: sum(map(ways_to.get, adjacency[node], _ZEROS))
            for node in level
            if node not in blocked
        }
    return sum(ways_to.values())


@functools.lru_cache(maxsize=1)
def _trust_weights(graph: Topology, scale: float) -> dict[int, float]:
    """Honest weight of every node of the last topology asked; callers copy
    before overriding."""
    return {
        node: info.error_rate + info.response_time_ms / scale
        for node, info in graph.nodes.items()
    }


def _dijkstra_trust(
    adjacency: Mapping[int, tuple[int, ...]],
    weights: Mapping[int, float],
    source: int,
    target: int,
) -> list[int] | None:
    """Minimum summed weight over intermediate nodes; ties fall to hop count,
    then to the lexicographically smallest node sequence."""
    start = (0.0, 0, (source,))
    heap = [start]
    settled: set[int] = set()
    while heap:
        weight, hops, path = heapq.heappop(heap)
        node = path[-1]
        if node == target:
            return list(path)
        if node in settled:
            continue
        settled.add(node)
        for nbr in adjacency[node]:
            if nbr in settled:
                continue
            step = 0.0 if nbr == target else weights[nbr]
            heapq.heappush(heap, (weight + step, hops + 1, path + (nbr,)))
    return None


def _check_scale(response_time_scale: float) -> None:
    if not response_time_scale > 0.0:
        raise ValueError("response time scale must be positive")


# How far below the hub bound an honest route's summed weight must lie for
# :func:`_keeps_honest_route` to trust it without a search.  Each side of
# the comparison is a float sum of at most n non-negative weights, so it is
# off its exact value by at most about n * 2.2e-16 relative; 1e-9 covers
# that for any topology under about a million nodes.  An exact tie falls
# short of the strict ``<`` too, so ties are always searched.
_BOUND_MARGIN = 1e-9


def _hub_distances(graph: Topology, hub: int, response_time_scale: float) -> dict[int, float]:
    """Least summed honest weight of the nodes strictly between ``hub`` and
    each node the hub reaches; the hub itself and the nodes it cannot reach
    are absent.  The hub's own weight never counts, so one Dijkstra search
    from it gives the whole table whatever weight it advertises."""
    _check_scale(response_time_scale)
    adjacency = graph.adjacency
    weights = _trust_weights(graph, response_time_scale)
    heap = [(0.0, nbr) for nbr in adjacency[hub]]
    heapq.heapify(heap)
    distances: dict[int, float] = {}
    while heap:
        distance, node = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = distance
        ahead = distance + weights[node]
        for nbr in adjacency[node]:
            if nbr != hub and nbr not in distances:
                heapq.heappush(heap, (ahead, nbr))
    return distances


def _keeps_honest_route(
    graph: Topology, hub: int, response_time_scale: float
) -> Callable[[Sequence[int]], bool]:
    """A test of honest routes that, when it holds, proves :func:`route`
    would return the same route with ``hub`` advertising weight 0.

    Only the hub's weight changes, so every walk from u through the hub to v
    weighs at least ``via[u] + via[v]`` (``via`` from :func:`_hub_distances`,
    +inf for a node the hub cannot reach), honest routes through the hub
    included.  A route under that bound by ``_BOUND_MARGIN`` avoids the hub,
    and no search entry through the hub can settle one of its nodes first:
    continued along the route, it would be a walk through the hub under the
    bound.  The weight is summed in path order, the float sequence that
    :func:`_dijkstra_trust` accumulates.
    """
    via = _hub_distances(graph, hub, response_time_scale)
    weights = _trust_weights(graph, response_time_scale)

    def holds(path: Sequence[int]) -> bool:
        weight = 0.0
        for node in path[1:-1]:
            weight += weights[node]
        bound = via.get(path[0], math.inf) + via.get(path[-1], math.inf)
        return weight < bound * (1.0 - _BOUND_MARGIN)

    return holds


def route(
    graph: Topology,
    source: int,
    target: int,
    response_time_scale: float = 100.0,
    advertised_weights: Mapping[int, float] | None = None,
) -> list[int] | None:
    """Trust-weighted route between two distinct nodes, or None if unreachable.

    The route minimizes the summed weight of its intermediate nodes (weight =
    error rate + response time / ``response_time_scale``), breaking ties by
    hop count and then lexicographically.  ``advertised_weights`` models
    nodes lying about their quality figures: it overrides the weight of the
    listed nodes.  Dijkstra's search finds the minimum only over weights
    that are not negative, so a NaN or non-positive scale, and an advertised
    weight that is negative, NaN or for a node the topology lacks, raise.
    """
    _check_scale(response_time_scale)
    source = int(source)
    target = int(target)
    _check_pair(graph, source, target)
    adjacency = graph.adjacency
    weights = _trust_weights(graph, response_time_scale)
    if advertised_weights:
        lies = {node: float(w) for node, w in advertised_weights.items()}
        for node, w in lies.items():
            if node not in adjacency:
                raise ValueError(f"advertised node {node} is not in the topology")
            if not w >= 0.0:
                raise ValueError(f"advertised weights must be >= 0, got {w} for node {node}")
        weights = {**weights, **lies}
    return _dijkstra_trust(adjacency, weights, source, target)
