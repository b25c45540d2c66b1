"""Network-level experiments: path decay under node compromise, and route
diversion by a node that lies about its quality figures.

The decay experiment measures how the number of viable minimum-hop paths
between random endpoint pairs falls as a growing fraction of nodes becomes
untrusted.  Compromise sets are nested (prefixes of one per-trial
permutation), and a viable path is one of the pair's intact geodesics, so
each sampled pair's count is non-increasing in the fraction by construction.
The sweep relies on that: once a pair's count reaches zero, its later
fractions record zero without counting again.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..defaults import AGGREGATE_DISTANCE
from .paths import _keeps_honest_route, count_viable_paths, hop_distance, route
from .topology import LATTICE_KINDS, Topology, TopologyKind, generate_topology

__all__ = [
    "DecayRow",
    "DecayTable",
    "untrusted_node_experiment",
    "DiversionPair",
    "DiversionResult",
    "diversion_experiment",
]


@dataclass(frozen=True)
class DecayRow:
    """Mean viable-path count for one (family, fraction) cell.

    ``distance`` is the intact hop distance bin, or -1 for the aggregate over
    all sampled pairs.
    """

    kind: str
    fraction: float
    distance: int
    mean_count: float
    std_count: float
    samples: int


@dataclass(frozen=True, eq=False)
class DecayTable:
    rows: tuple[DecayRow, ...]

    def aggregate(self, kind: str, fraction: float) -> DecayRow:
        for row in self.rows:
            if row.kind == kind and row.fraction == fraction and row.distance == AGGREGATE_DISTANCE:
                return row
        raise KeyError(f"no aggregate row for ({kind!r}, {fraction!r})")


def untrusted_node_experiment(
    kinds: Sequence[TopologyKind | str],
    fractions: Sequence[float],
    trials: int,
    pairs_per_trial: int,
    rng: np.random.Generator,
) -> DecayTable:
    """Measure viable-path decay as nodes become untrusted.

    Per trial: draw a fresh seed and generate the family's topology from it,
    at the family's fixed size (random families thus resample their graph
    each trial; a lattice, the same for every seed, is built in the first
    trial and reused), draw one random permutation of its nodes 0..n-1 and
    ``pairs_per_trial`` endpoint pairs, then for every fraction f compromise
    the first floor(f * n) permutation entries.  A pair whose endpoint is
    compromised contributes zero; otherwise it contributes the number of its
    intact minimum-hop paths that avoid the compromised set.  Pairs
    disconnected even intact contribute zero throughout and appear only in
    the aggregate rows.

    ``fractions`` must be strictly ascending within [0, 1].
    """
    if not kinds:
        raise ValueError("need at least one topology family")
    if not fractions:
        raise ValueError("need at least one fraction")
    fracs = [float(f) for f in fractions]
    if any(not 0.0 <= f <= 1.0 for f in fracs):
        raise ValueError("fractions must lie in [0, 1]")
    if any(b <= a for a, b in zip(fracs, fracs[1:])):
        raise ValueError("fractions must be strictly ascending")
    if trials <= 0 or pairs_per_trial <= 0:
        raise ValueError("trials and pairs per trial must be positive")

    rows: list[DecayRow] = []
    for kind in (TopologyKind(k) for k in kinds):
        # One row of per-fraction counts per sampled pair, and the rows of the
        # connected pairs again by intact distance.
        counts: list[list[int]] = []
        by_distance: dict[int, list[list[int]]] = {}
        topology = None
        for _ in range(trials):
            # A lattice's edges do not depend on the seed, so it is built
            # once; every trial still draws its seed, keeping the stream.
            topo_seed = int(rng.integers(0, 2**63))
            if topology is None or kind not in LATTICE_KINDS:
                topology = generate_topology(kind, topo_seed)
            n = topology.n_nodes
            shuffled = rng.permutation(n).tolist()
            rank = dict(zip(shuffled, range(n)))
            cuts = [math.floor(f * n) for f in fracs]
            compromised_sets = [frozenset(shuffled[:cut]) for cut in cuts]
            pair_index = rng.integers(0, n, size=(pairs_per_trial, 2)).tolist()
            for u, v in pair_index:
                if u == v:
                    v = (v + 1) % n
                intact_distance = hop_distance(topology, u, v)
                pair_counts = [0] * len(fracs)
                if intact_distance >= 0:
                    # Fractions from the first that compromises an endpoint
                    # on, and after the first zero count, stay zero (see the
                    # module docstring).
                    for k in range(bisect_right(cuts, min(rank[u], rank[v]))):
                        pair_counts[k] = count_viable_paths(topology, u, v, compromised_sets[k])
                        if not pair_counts[k]:
                            break
                    by_distance.setdefault(intact_distance, []).append(pair_counts)
                counts.append(pair_counts)
        for f, (mean, std) in zip(fracs, _moments(counts)):
            rows.append(DecayRow(kind.value, f, AGGREGATE_DISTANCE, mean, std, len(counts)))
        distances = sorted(by_distance)
        moments = [_moments(by_distance[distance]) for distance in distances]
        for k, f in enumerate(fracs):
            for distance, stats in zip(distances, moments):
                mean, std = stats[k]
                rows.append(DecayRow(kind.value, f, distance, mean, std, len(by_distance[distance])))
    return DecayTable(rows=tuple(rows))


def _moments(counts: list[list[int]]) -> list[tuple[float, float]]:
    """Mean and standard deviation of each fraction's counts, given one row
    of per-fraction counts per pair.

    Each fraction's counts form one contiguous int64 row, reduced along its
    axis in the order, buffer chunks and precision of ``np.mean``/``np.std``
    on that row's list, so the figures equal those calls' to the bit.
    """
    table = np.array(counts, dtype=np.int64).T.copy()
    return list(zip(table.mean(axis=1).tolist(), table.std(axis=1).tolist()))


# ---------------------------------------------------------------------------
# Route diversion by false advertisement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiversionPair:
    """Honest and diverted routes for one endpoint pair."""

    source: int
    target: int
    honest_path: tuple[int, ...]
    diverted_path: tuple[int, ...]
    honest_via_hijacker: bool
    diverted_via_hijacker: bool

    @property
    def stretch_ratio(self) -> float:
        """Diverted hop count over honest hop count; 1.0 means no detour."""
        return (len(self.diverted_path) - 1) / (len(self.honest_path) - 1)


@dataclass(frozen=True, eq=False)
class DiversionResult:
    """How much traffic a falsified zero-cost advertisement attracts.

    ``baseline_fraction`` is how often routes pass through the hijacker
    when everyone advertises honestly; ``diverted_fraction`` when the
    hijacker advertises zero cost.  The gap is the attack's yield,
    bought at ``mean_hop_stretch`` (a hop-count ratio vs the honest routes,
    1.0 meaning no inflation) averaged over all routed pairs.
    """

    pairs: tuple[DiversionPair, ...]
    baseline_fraction: float
    diverted_fraction: float
    mean_hop_stretch: float


def diversion_experiment(
    topology: Topology,
    hijacker: int,
    n_pairs: int,
    rng: np.random.Generator,
    response_time_scale: float = 100.0,
) -> DiversionResult:
    """Route random pairs with honest and falsified weight advertisements.

    The hijacker is excluded from the endpoint draw, since an endpoint sees
    its own traffic anyway.  Diversion only has teeth when other nodes carry
    nonzero quality figures; generate the topology with quality ranges or
    the two routings coincide.

    The falsified search runs only when the honest route does not undercut
    a lower bound on every route through the hijacker, which one search from
    the hijacker gives; below it, the falsified search would return the
    honest route (see ``paths._keeps_honest_route``).
    """
    if hijacker not in topology.nodes:
        raise ValueError(f"hijacker {hijacker!r} is not a node of the topology")
    if n_pairs <= 0:
        raise ValueError("need at least one pair")
    candidates = [node for node in sorted(topology.nodes) if node != hijacker]
    if len(candidates) < 2:
        raise ValueError("topology too small for endpoint pairs")
    lie = {hijacker: 0.0}
    keeps_honest = _keeps_honest_route(topology, hijacker, response_time_scale)
    pairs: list[DiversionPair] = []
    for _ in range(n_pairs):
        i, j = rng.choice(len(candidates), size=2, replace=False)
        u, v = candidates[int(i)], candidates[int(j)]
        honest = route(topology, u, v, response_time_scale)
        if honest is None:
            continue
        # The lie changes no connectivity, so this search finds a route too.
        diverted = honest if keeps_honest(honest) else route(
            topology, u, v, response_time_scale, advertised_weights=lie
        )
        pairs.append(
            DiversionPair(
                source=u,
                target=v,
                honest_path=tuple(honest),
                diverted_path=tuple(diverted),
                honest_via_hijacker=hijacker in honest[1:-1],
                diverted_via_hijacker=hijacker in diverted[1:-1],
            )
        )
    if not pairs:
        raise ValueError("no routable pairs were sampled")
    n = len(pairs)
    baseline = sum(p.honest_via_hijacker for p in pairs) / n
    diverted_frac = sum(p.diverted_via_hijacker for p in pairs) / n
    mean_stretch = float(np.mean([p.stretch_ratio for p in pairs]))
    return DiversionResult(
        pairs=tuple(pairs),
        baseline_fraction=baseline,
        diverted_fraction=diverted_frac,
        mean_hop_stretch=mean_stretch,
    )
