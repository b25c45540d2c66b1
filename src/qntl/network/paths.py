"""Path counting and route selection.

The viability metric counts a pair's intact minimum-hop paths whose
intermediate nodes are all uncompromised; it is the quantity whose decay
the untrusted-node experiment tracks.  Distances and counts come from one
breadth-first walk per root of the last topology asked, shared by every
pair rooted there and extended a layer at a time on demand.  Routing
minimizes advertised trust weight with fully deterministic tie-breaking, so
a route is a pure function of the topology and inputs.
"""
from __future__ import annotations

import functools
import heapq
import itertools
from typing import AbstractSet, Mapping

from .topology import Topology

__all__ = [
    "count_viable_paths",
    "hop_distance",
    "route",
]

# An endless run of zeros: ``map(ways.get, neighbours, _ZEROS)`` yields
# ways.get(nbr, 0) for each neighbour and stops with the neighbours.
_ZEROS = itertools.repeat(0)


@functools.lru_cache(maxsize=1)
def _walks(graph: Topology) -> dict[int, tuple[list[dict[int, int]], set[int]]]:
    """The walks of the last topology asked, by root: each root's BFS
    layers built so far and the nodes they hold.  ``Topology`` hashes by
    identity, so the graph stays referenced while its table is cached."""
    return {}


@functools.lru_cache(maxsize=1)
def _intact_walk(
    graph: Topology, source: int, target: int
) -> tuple[int, int, list[dict[int, int]]]:
    """(hop distance, number of shortest paths, the source's layers short of
    the target) for a pair, or (-1, 0, []) when disconnected.

    Each BFS layer of the source's walk carries every node's path count
    (Brandes' sigma), summed from the layer before; ``layers[k]`` holds the
    nodes k hops out.  The built layers are scanned from the source out for
    the first that meets the target's neighbours, whose meet sums to the
    target's count; the walk grows a layer only when none does, and an
    empty layer marks an exhausted root.  A root's layers are the same dicts
    however late they are built, so no answer depends on the order of the
    pairs.  This memo keeps the last pair, which the decay sweep asks once
    per fraction.
    """
    adjacency = graph.adjacency
    table = _walks(graph)
    if source not in table:
        table[source] = [{source: 1}], {source}
    layers, seen = table[source]
    near = frozenset(adjacency[target])
    for distance, layer in enumerate(layers, 1):
        meet = layer.keys() & near
        if meet:
            return distance, sum(map(layer.__getitem__, meet)), layers[:distance]
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
    return -1, 0, []


@functools.lru_cache(maxsize=1)
def _geodesic_dag(
    graph: Topology, source: int, target: int
) -> tuple[list[set[int]], frozenset[int]]:
    """The shortest-path DAG of a connected pair, from the source's walk.

    Returns the intermediate nodes level by level, ``levels[k]`` holding
    those k + 1 hops from the source, and the set of them all.  Each level
    is swept back from the one after it (the target's, first): its nodes'
    neighbours in the walk's layer before.  A node's predecessors on the
    DAG are exactly its neighbours in the level before, so no second BFS
    and no per-node lists are needed.
    """
    adjacency = graph.adjacency
    layers = _intact_walk(graph, source, target)[2]
    levels = []
    level = {target}
    for before in layers[:0:-1]:
        level = {pred for node in level for pred in adjacency[node] if pred in before}
        levels.append(level)
    levels.reverse()
    return levels, frozenset().union(*levels)


def hop_distance(graph: Topology, source: int, target: int) -> int:
    """Minimum hop count between two distinct nodes, or -1 when
    disconnected; one node twice, or a node the topology lacks, raises.  It
    reads one walk per root per topology, extended on demand, which also
    answers :func:`count_viable_paths`."""
    source = int(source)
    target = int(target)
    if source == target or source not in graph.adjacency or target not in graph.adjacency:
        raise ValueError("source and target must be two distinct nodes of the topology")
    return _intact_walk(graph, source, target)[0]


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
    is the intact one when no node of the pair's geodesic DAG (the intact
    walk's layers, swept back once per pair) is compromised, otherwise one
    pass summing each safe node's predecessors.  Counts are exact integers,
    so they stay exact even when astronomically large.
    """
    source = int(source)
    target = int(target)
    blocked = frozenset(compromised)
    if source in blocked or target in blocked:
        raise ValueError("source and target must not themselves be compromised")
    adjacency = graph.adjacency
    if source == target or source not in adjacency or target not in adjacency:
        raise ValueError("source and target must be two distinct nodes of the topology")
    ways = _intact_walk(graph, source, target)[1]
    if not ways or not blocked:
        return ways
    levels, nodes = _geodesic_dag(graph, source, target)
    if nodes.isdisjoint(blocked):
        return ways
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
    if not response_time_scale > 0.0:
        raise ValueError("response time scale must be positive")
    source = int(source)
    target = int(target)
    adjacency = graph.adjacency
    if source == target or source not in adjacency or target not in adjacency:
        raise ValueError("source and target must be two distinct nodes of the topology")
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
