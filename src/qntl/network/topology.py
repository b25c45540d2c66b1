"""Seeded network topology generation.

Six families are supported: three deterministic lattices (grid, hexagonal,
tree) and three random families (Erdos-Renyi, Waxman, Barabasi-Albert), all
built here, so that edge sets depend only on (seed, kind) and this package's
own stream discipline, never on library internals.

Every family has one fixed size, roughly a hundred nodes.  Nodes are
integers 0..n-1.  Edges are tuples (u, v) with u < v in strictly ascending
order, as every generator emits them, and the adjacency map is derived from
them, so two topologies with equal fields behave identically everywhere
downstream.
"""
from __future__ import annotations

import functools
import math
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from ..stats import stream

__all__ = [
    "TopologyKind",
    "LATTICE_KINDS",
    "NodeInfo",
    "Topology",
    "generate_topology",
]


class TopologyKind(str, Enum):
    GRID = "grid"
    ERDOS_RENYI = "erdos-renyi"
    WAXMAN = "waxman"
    HEXAGONAL = "hexagonal"
    TREE = "tree"
    BARABASI_ALBERT = "barabasi-albert"


# The deterministic families: their edges do not depend on the seed.
LATTICE_KINDS = frozenset({TopologyKind.GRID, TopologyKind.HEXAGONAL, TopologyKind.TREE})

# Sizes that give roughly hundred-node networks in every family: rows and
# columns of the grid and the hexagonal lattice, branching and height of the
# tree, as _lattice takes them.
_LATTICE_SIZES = {
    TopologyKind.GRID: (10, 10),
    TopologyKind.HEXAGONAL: (6, 7),
    TopologyKind.TREE: (3, 4),
}
# The random families: node count, Erdos-Renyi link probability, Waxman
# alpha and beta, and Barabasi-Albert links per new node.
_RANDOM_NODES = 100
_ERDOS_RENYI_P = 0.2
_WAXMAN_ALPHA, _WAXMAN_BETA = 0.1, 0.4
_BARABASI_ALBERT_K = 3


@dataclass(frozen=True)
class NodeInfo:
    """The two link-quality figures the trust-weighted router consumes.  A
    node's id is its key in :attr:`Topology.nodes`."""

    error_rate: float = 0.0
    response_time_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.error_rate < 0.0 or self.response_time_ms < 0.0:
            raise ValueError("quality figures must be >= 0")


@dataclass(frozen=True, eq=False)
class Topology:
    """An immutable node/edge set with derived adjacency.  The edges must
    come as the generators emit them: tuples (u, v) with u < v, in strictly
    ascending order."""

    nodes: Mapping[int, NodeInfo]
    edges: tuple[tuple[int, int], ...]
    adjacency: Mapping[int, tuple[int, ...]] = field(init=False)

    def __post_init__(self) -> None:
        nodes = dict(self.nodes)
        edges = tuple(self.edges)
        _ascending(edges)
        # Sorted (u < v) edges reach each node's neighbours in ascending
        # order: the smaller ones as u ascends, then the larger as v does.
        adjacency: dict[int, list[int]] = {node_id: [] for node_id in nodes}
        try:
            for u, v in edges:
                adjacency[u].append(v)
                adjacency[v].append(u)
        except KeyError:
            raise ValueError(f"edge ({u}, {v}) references an unknown node") from None
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adjacency", {k: tuple(v) for k, v in adjacency.items()})

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _ascending(edges: tuple[tuple[int, int], ...]) -> None:
    """Raise ValueError at the first edge that is not a tuple (u, v) with
    u < v above the edge before it.  Every generator emits its edges this
    way, and the form admits no self-loop or duplicate.  One pass."""
    previous = ()  # below every edge
    for edge in edges:
        u, v = edge
        if u >= v or type(edge) is not tuple or edge <= previous:
            raise ValueError(
                f"edge {edge!r} is not a tuple (u, v) with u < v above the edge before it"
            )
        previous = edge


@functools.lru_cache(maxsize=8)
def _lattice(kind: TopologyKind, a: int, b: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Deterministic lattice families, relabeled to 0..n-1 by sorted position,
    built once per (family, size), with the edges (u < v) sorted.

    The tree is numbered in level order.  The hexagonal lattice has node
    columns i = 0..cols of 2*rows + 2 nodes j, less one corner at each end;
    (i, j) links to (i, j + 1), and to (i + 1, j) when i and j share parity.
    """
    if kind is TopologyKind.TREE:
        n = b + 1 if a == 1 else (a ** (b + 1) - 1) // (a - 1)
        return n, tuple(((c - 1) // a, c) for c in range(1, n))
    if kind is TopologyKind.GRID:
        cells = [(i, j) for i in range(a) for j in range(b)]
    elif a and b:  # hexagonal
        corners = {(0, 2 * a + 1), (b, (2 * a + 1) * (b % 2))}
        cells = [(i, j) for i in range(b + 1) for j in range(2 * a + 2) if (i, j) not in corners]
    else:  # a hexagonal lattice with no hexagons has no nodes
        return 0, ()
    labels = {cell: k for k, cell in enumerate(cells)}
    links = [((i, j), (i, j + 1)) for i, j in cells]
    links += [((i, j), (i + 1, j)) for i, j in cells if kind is TopologyKind.GRID or i % 2 == j % 2]
    return len(cells), tuple(sorted((labels[u], labels[v]) for u, v in links if v in labels))


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index pairs u < v of the upper triangle, in row order."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _erdos_renyi_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    iu, iv = _upper_pairs(n)
    keep = rng.random(iu.size) < p
    return list(zip(iu[keep].tolist(), iv[keep].tolist()))


def _waxman_edges(n: int, alpha: float, beta: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    # Nodes scatter uniformly in the unit square; a pair at distance d links
    # with probability alpha * exp(-d / (beta * L)), L the network diameter.
    x, y = rng.random((n, 2)).T
    iu, iv = _upper_pairs(n)
    dists = np.hypot(x[iu] - x[iv], y[iu] - y[iv])
    scale = float(dists.max())
    probs = alpha * np.exp(-dists / (beta * scale))
    keep = rng.random(iu.size) < probs
    return list(zip(iu[keep].tolist(), iv[keep].tolist()))


def _preferential_edges(n: int, k: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Degree-preferential attachment: a (k+1)-clique seed, then each new node
    links to k distinct existing nodes chosen proportionally to degree.
    Returns the edges sorted."""
    if n < k + 2:
        raise ValueError(f"need at least k + 2 = {k + 2} nodes, got {n}")
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    # Each node once per unit of its degree, in node order, so ascending.
    # Slot int(x) of x = u * total belongs to the node that bisect_right
    # finds for x in the cumulative degrees, which are integers: the same
    # uniform picks the same node.  A target's new slot joins its block.
    slots = [node for node in range(k + 1) for _ in range(k)]
    # Uniforms come from a buffer refilled with the fewest draws still to come
    # (one per missing target, here and at every later node), which one draw
    # per attempt would make anyway, so the stream is the same.
    draws: list[float] = []
    position = 0
    for new in range(k + 1, n):
        targets: set[int] = set()
        total = len(slots)
        while len(targets) < k:
            if position == len(draws):
                draws = rng.random(k - len(targets) + k * (n - 1 - new)).tolist()
                position = 0
            targets.add(slots[int(draws[position] * total)])
            position += 1
        for t in sorted(targets):
            edges.append((t, new))
            insort(slots, t)
        slots += [new] * k
    return sorted(edges)


def generate_topology(
    kind: TopologyKind | str,
    seed: int,
    *,
    error_rate_range: tuple[float, float] | None = None,
    response_time_range: tuple[float, float] | None = None,
) -> Topology:
    """Build a topology of the given family from its own labeled stream.

    The optional quality ranges draw per-node uniform error rates and
    response times (in node-id order, after the edge set), which the
    trust-weighted router uses; each range needs 0 <= lo <= hi < inf, and
    omitted ranges leave the figures at zero.
    """
    kind = TopologyKind(kind)
    rng = stream(seed, f"topology:{kind.value}")

    n = _RANDOM_NODES
    if kind in LATTICE_KINDS:
        n, edges = _lattice(kind, *_LATTICE_SIZES[kind])
    elif kind is TopologyKind.ERDOS_RENYI:
        edges = _erdos_renyi_edges(n, _ERDOS_RENYI_P, rng)
    elif kind is TopologyKind.WAXMAN:
        edges = _waxman_edges(n, _WAXMAN_ALPHA, _WAXMAN_BETA, rng)
    else:
        edges = _preferential_edges(n, _BARABASI_ALBERT_K, rng)

    figures = []
    for name, bounds in (("error rate", error_rate_range), ("response time", response_time_range)):
        if bounds is None:
            figures.append([0.0] * n)
            continue
        lo, hi = float(bounds[0]), float(bounds[1])
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError(f"{name} range must satisfy 0 <= lo <= hi < inf, got ({lo}, {hi})")
        figures.append(rng.uniform(lo, hi, size=n).tolist())

    records = [NodeInfo()] * n  # frozen, so one default record serves every node
    if error_rate_range is not None or response_time_range is not None:
        records = list(map(NodeInfo, *figures))
    return Topology(nodes=dict(enumerate(records)), edges=edges)
