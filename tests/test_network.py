"""Tests for topology generation, path counting, routing, and the network
experiments."""
import hashlib
import itertools
import math
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as t_dist

from qntl.network import (
    DecayRow,
    NodeInfo,
    Topology,
    TopologyKind,
    count_viable_paths,
    diversion_experiment,
    generate_topology,
    hop_distance,
    route,
    untrusted_node_experiment,
)
from qntl.network import experiments
from qntl.network.experiments import _moments
from qntl.network.topology import _erdos_renyi_edges, _lattice, _preferential_edges
from qntl.stats import stream

from oracles import count_by_blocked_walk


def tiny_path_topology():
    """0 - 1 - 2 chain used by the cut-vertex cases."""
    nodes = {i: NodeInfo() for i in range(3)}
    return Topology(nodes=nodes, edges=((0, 1), (1, 2)))


def erdos_renyi(n, p, seed):
    """An Erdos-Renyi topology of another size, drawn from the stream that
    generate_topology gives the family."""
    edges = _erdos_renyi_edges(n, p, stream(seed, "topology:erdos-renyi"))
    return Topology(nodes={i: NodeInfo() for i in range(n)}, edges=tuple(edges))


# ---------------------------------------------------------------- generation

def test_grid_dimensions():
    topo = generate_topology("grid", 0)
    assert topo.n_nodes == 100
    # a rows x cols lattice has rows*(cols-1) + (rows-1)*cols edges
    assert len(topo.edges) == 10 * 9 + 9 * 10


def test_tree_dimensions():
    topo = generate_topology("tree", 0)
    # height-4 branching-3 balanced tree: (3^5 - 1) / 2 nodes
    assert topo.n_nodes == (3**5 - 1) // 2
    assert len(topo.edges) == topo.n_nodes - 1


def test_erdos_renyi_edge_count():
    n_pairs = math.comb(100, 2)
    mean = n_pairs * 0.2
    sigma = math.sqrt(n_pairs * 0.2 * 0.8)
    for seed in range(5):
        topo = generate_topology("erdos-renyi", seed)
        assert abs(len(topo.edges) - mean) < 3 * sigma


def test_barabasi_albert_edge_count():
    # seed clique of k+1 nodes, then k fresh links per added node
    topo = generate_topology("barabasi-albert", 3)
    k, n = 3, 100
    assert topo.n_nodes == n
    assert len(topo.edges) == math.comb(k + 1, 2) + k * (n - k - 1)


def test_generation_is_deterministic():
    for kind in TopologyKind:
        a = generate_topology(kind, 1234)
        b = generate_topology(kind, 1234)
        assert a.edges == b.edges
    a = generate_topology("waxman", 1)
    b = generate_topology("waxman", 2)
    assert a.edges != b.edges


def export_text(topology, kind, seed):
    """The pinned text layout: a ``nodes N kind K seed S`` header, one
    ``edge u v`` line per edge in sorted order, then one ``node`` line per
    node in id order, floats written with repr."""
    lines = [f"nodes {topology.n_nodes} kind {kind} seed {seed}"]
    lines += [f"edge {u} {v}" for u, v in topology.edges]
    lines += [
        f"node {node_id} trusted 1 err {info.error_rate!r} rt {info.response_time_ms!r}"
        for node_id, info in sorted(topology.nodes.items())
    ]
    return "\n".join(lines) + "\n"


def exports_digest(kind):
    """sha256 over the concatenated exports of seeds 0-49 at default params."""
    digest = hashlib.sha256()
    for seed in range(50):
        digest.update(export_text(generate_topology(kind, seed), kind, seed).encode())
    return digest.hexdigest()


def test_barabasi_albert_exports_are_pinned():
    # A change to the attachment draws or their order moves it.
    assert exports_digest("barabasi-albert") == (
        "f0dd94dc979ddb6255663edf304c9da96f58b2fa04d092fc24852f8c7805aefd"
    )


def test_erdos_renyi_exports_are_pinned():
    # A change to the pair order or the edge draw moves it.
    assert exports_digest("erdos-renyi") == (
        "44591d57bfd91aa67ae98c49fe853449a8413beed5e02acfc302165a03d33d31"
    )


def test_waxman_exports_are_pinned():
    # A change to the positions, the distance kernel or the edge draw moves it.
    assert exports_digest("waxman") == (
        "12cc7e70ff4337738ac7c1cbbb25b44cdb82e6f447324e5d40bb0679c53d7097"
    )


def reference_preferential_edges(n, k, rng):
    """Preferential attachment as it ran on a numpy degree cumsum and a
    scalar searchsorted per draw."""
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    degrees = np.zeros(n, dtype=np.int64)
    degrees[: k + 1] = k
    for new in range(k + 1, n):
        targets = set()
        cumulative = np.cumsum(degrees[:new])
        while len(targets) < k:
            pick = int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))
            targets.add(pick)
        for t in sorted(targets):
            edges.append((t, new))
            degrees[t] += 1
        degrees[new] = k
    return edges


@given(st.integers(1, 8).flatmap(
    lambda k: st.tuples(st.integers(k + 2, 120), st.just(k), st.integers(0, 2**32))
))
@settings(max_examples=200, deadline=None)
def test_preferential_edges_match_numpy_reference(case):
    # Same edges from the same draws: equal edge sets, returned sorted, and
    # equal generator state afterwards.
    n, k, seed = case
    rng_ref, rng_new = stream(seed, "preferential"), stream(seed, "preferential")
    assert _preferential_edges(n, k, rng_new) == sorted(reference_preferential_edges(n, k, rng_ref))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_generation_rejects_size_params():
    # Each family has one fixed size; other sizes are for the edge builders.
    for kind in TopologyKind:
        with pytest.raises(TypeError):
            generate_topology(kind, 0, {"n": 40})
    with pytest.raises(ValueError, match="k \\+ 2"):
        _preferential_edges(4, 3, stream(0, "preferential"))


# Oracle: the networkx lattice generators, nodes relabeled 0..n-1 in sorted
# order, over every size pair in range (rows and cols, or branching and
# height for the tree).
NX_LATTICES = {
    TopologyKind.GRID: (range(13), nx.grid_2d_graph),
    TopologyKind.HEXAGONAL: (range(13), nx.hexagonal_lattice_graph),
    TopologyKind.TREE: (range(6), nx.balanced_tree),
}


@pytest.mark.parametrize("kind", list(NX_LATTICES))
def test_lattices_match_networkx(kind):
    sizes, generator = NX_LATTICES[kind]
    for a in sizes:
        for b in sizes:
            graph = generator(a, b)
            labels = {node: i for i, node in enumerate(sorted(graph.nodes()))}
            expected = sorted(tuple(sorted((labels[u], labels[v]))) for u, v in graph.edges())
            n, edges = _lattice(kind, a, b)
            assert n == len(labels), (a, b)
            assert list(edges) == expected, (a, b)
            Topology(nodes={i: NodeInfo() for i in range(n)}, edges=edges)


def test_generation_quality_ranges():
    topo = generate_topology(
        "grid", 7, error_rate_range=(0.01, 0.05), response_time_range=(10.0, 50.0)
    )
    rates = [info.error_rate for info in topo.nodes.values()]
    times = [info.response_time_ms for info in topo.nodes.values()]
    assert all(0.01 <= r <= 0.05 for r in rates)
    assert all(10.0 <= t <= 50.0 for t in times)
    assert len(set(rates)) > 1
    rates_only = generate_topology("grid", 7, error_rate_range=(0.01, 0.05))
    assert [info.error_rate for info in rates_only.nodes.values()] == rates
    assert all(info.response_time_ms == 0.0 for info in rates_only.nodes.values())
    # numpy cannot draw from an infinite range: the check must name the
    # range before the draw does.
    for key in ("error_rate_range", "response_time_range"):
        for bounds in ((0.5, 0.1), (-1.0, 1.0), (0.0, math.inf), (math.inf, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError, match=key.replace("_", " ")):
                generate_topology("grid", 7, **{key: bounds})


def test_topology_validation():
    # Edges come only as the generators emit them: tuples (u, v) with u < v
    # in strictly ascending order.  The first edge out of that form is named,
    # wherever it stands.
    nodes = {i: NodeInfo() for i in range(4)}
    for edges, bad in (
        (((0, 1), (1, 1)), r"\(1, 1\)"),  # self-loop
        (((1, 1), (1, 2)), r"\(1, 1\)"),
        (((0, 1), (2, 1)), r"\(2, 1\)"),  # reversed
        (((1, 0), (1, 2)), r"\(1, 0\)"),
        (((0, 1), (0, 1)), r"\(0, 1\)"),  # duplicate
        (((0, 1), (1, 2), (0, 3)), r"\(0, 3\)"),  # unsorted
        (([0, 1], [1, 2]), r"\[0, 1\]"),  # lists
        (((0, 1), [1, 2]), r"\[1, 2\]"),
    ):
        with pytest.raises(ValueError, match=f"edge {bad} is not a tuple"):
            Topology(nodes=nodes, edges=edges)
    with pytest.raises(ValueError, match=r"edge \(0, 7\) references an unknown node"):
        Topology(nodes=nodes, edges=((0, 1), (0, 7)))
    with pytest.raises(TypeError):  # a topology holds only nodes and edges
        Topology(kind=TopologyKind.GRID, nodes=nodes, edges=())


def test_topology_adjacency_is_sorted():
    # The adjacency tuples come out sorted with no per-node sort: they are
    # filled from the sorted edge list.
    nodes = {i: NodeInfo() for i in range(6)}
    edges = ((0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (3, 4), (3, 5))
    topo = Topology(nodes=nodes, edges=list(edges))
    assert topo.edges == edges
    for node_id, nbrs in topo.adjacency.items():
        assert nbrs == tuple(sorted(nbrs))
        assert set(nbrs) == {u + v - node_id for u, v in edges if node_id in (u, v)}
    assert topo.adjacency[0] == (1, 2, 4, 5)


def test_generated_topologies_share_no_node_map():
    # Every node of a generated topology without quality ranges holds one
    # shared frozen record: a copy that replaces a node's record must leave
    # the original and every later topology alone.
    first = generate_topology("grid", 0)
    second = generate_topology("grid", 1)
    assert first.nodes is not second.nodes
    nodes = dict(first.nodes)
    nodes[3] = replace(nodes[3], error_rate=0.5)
    edited = Topology(nodes=nodes, edges=first.edges)
    assert edited.nodes[3].error_rate == 0.5 and edited.nodes[4].error_rate == 0.0
    with pytest.raises(AttributeError):
        first.nodes[0].error_rate = 0.5
    later = generate_topology("grid", 2)
    for topo in (first, second, later):
        assert all(info == NodeInfo() for info in topo.nodes.values())


# ---------------------------------------------------------------- path counts

def test_grid_corner_path_count():
    topo = generate_topology("grid", 0)
    # 18 moves, 9 of them in each direction
    assert count_viable_paths(topo, 0, 99) == math.comb(18, 9)


def test_adjacent_endpoints_survive_removals():
    topo = generate_topology("grid", 0)
    rng = stream(5, "adjacent")
    u, v = 44, 45
    assert v in topo.adjacency[u]
    others = [n for n in topo.nodes if n not in (u, v)]
    for _ in range(20):
        removed = set(rng.choice(others, size=50, replace=False).tolist())
        assert count_viable_paths(topo, u, v, removed) >= 1


def test_cut_disconnects_count():
    topo = generate_topology("grid", 0)
    # column 5 of the 10x10 grid separates 0 from 99
    cut = {row * 10 + 5 for row in range(10)}
    assert count_viable_paths(topo, 0, 99, cut) == 0


def test_numpy_integer_compromised_nodes_count_like_python_ints():
    # The compromised set is used as given, so numpy integer nodes must hash
    # and compare like the topology's Python int node ids.
    topo = generate_topology("grid", 0)
    rng = stream(8, "numpy-blocked")
    pairs = [(0, 99), (44, 45), (3, 67), (12, 88)]
    for _ in range(20):
        drawn = rng.choice(100, size=30, replace=False)
        for source, target in pairs:
            blocked = [n for n in drawn if n not in (source, target)]
            as_numpy = {np.int64(n) for n in blocked}
            as_int = {int(n) for n in blocked}
            expected = count_viable_paths(topo, source, target, as_int)
            assert count_viable_paths(topo, source, target, as_numpy) == expected


def test_count_excludes_detours():
    # 0 - 1 - 2 is the only geodesic; 0 - 3 - 4 - 2 is one hop longer.
    nodes = {i: NodeInfo() for i in range(5)}
    topo = Topology(nodes=nodes, edges=((0, 1), (0, 3), (1, 2), (2, 4), (3, 4)))
    assert count_viable_paths(topo, 0, 2) == 1
    assert count_viable_paths(topo, 0, 2, {3}) == 1
    assert count_viable_paths(topo, 0, 2, {1}) == 0
    assert count_by_blocked_walk(topo, 0, 2, {1}) == 1


def test_count_corner_cases():
    topo = tiny_path_topology()
    assert count_viable_paths(topo, 0, 2, {1}) == 0
    with pytest.raises(ValueError, match="two distinct nodes"):
        count_viable_paths(topo, 1, 1)
    with pytest.raises(ValueError):
        count_viable_paths(topo, 0, 2, {0})
    with pytest.raises(ValueError):
        count_viable_paths(topo, 0, 9)
    with pytest.raises(TypeError):
        count_viable_paths(topo, 0, 2, hop_bound=2)


def test_count_is_monotone_in_compromise():
    # Growing the compromised set can only strike a pair's geodesics, never
    # mint new ones.
    topo = erdos_renyi(40, 0.15, 3)
    rng = stream(6, "nested")
    node_ids = sorted(topo.nodes)
    for _ in range(100):
        u, v = rng.choice(len(node_ids), size=2, replace=False)
        u, v = node_ids[int(u)], node_ids[int(v)]
        if hop_distance(topo, u, v) < 0:
            continue
        order = [n for n in rng.permutation(node_ids) if n not in (u, v)]
        small = set(order[:5])
        large = set(order[:15])
        constrained = count_viable_paths(topo, u, v, large)
        relaxed = count_viable_paths(topo, u, v, small)
        assert constrained <= relaxed
        assert relaxed <= count_viable_paths(topo, u, v)


@st.composite
def compromised_graphs(draw):
    """A small graph, two distinct endpoints and a compromised set that spares
    them.  The graph is either random (often disconnected) or a full lattice
    of up to 4 x 4, where long geodesics fan out and merge again."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True)))
    else:
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        n = rows * cols
        edges = [(i, i + 1) for i in range(n) if (i + 1) % cols]
        edges = sorted(edges + [(i, i + cols) for i in range(n - cols)])
    source, target = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    others = [x for x in range(n) if x not in (source, target)]
    compromised = draw(st.sets(st.sampled_from(others))) if others else set()
    return n, edges, source, target, compromised


def _networkx_count(topo, source, target, compromised=frozenset()):
    """(hop distance, shortest-path count) with ``compromised`` removed, or (-1, 0)."""
    graph = nx.Graph(e for e in topo.edges if compromised.isdisjoint(e))
    graph.add_nodes_from(x for x in topo.nodes if x not in compromised)
    if not nx.has_path(graph, source, target):
        return -1, 0
    distance = nx.shortest_path_length(graph, source, target)
    return distance, sum(1 for _ in nx.all_shortest_paths(graph, source, target))


@given(compromised_graphs())
@settings(max_examples=300, deadline=None)
def test_counts_and_distances_match_networkx(case):
    # Oracle: networkx on the subgraph with the compromised nodes removed,
    # whose shortest paths are viable when they are as short as intact ones.
    n, edges, source, target, compromised = case
    nodes = {i: NodeInfo() for i in range(n)}
    topo = Topology(nodes=nodes, edges=tuple(edges))
    safe_edges = tuple(e for e in edges if compromised.isdisjoint(e))
    survivors = Topology(nodes=nodes, edges=safe_edges)
    distance, paths = _networkx_count(topo, source, target, compromised)
    assert hop_distance(survivors, source, target) == distance
    if distance != _networkx_count(topo, source, target)[0]:
        paths = 0
    count = count_viable_paths(topo, source, target, compromised)
    assert type(count) is int
    assert count == paths


def test_hop_distance():
    topo = tiny_path_topology()
    assert hop_distance(topo, 0, 1) == 1
    assert hop_distance(topo, 0, 2) == 2
    lonely = Topology(nodes={i: NodeInfo() for i in range(3)}, edges=((0, 1),))
    assert hop_distance(lonely, 0, 2) == -1


def test_unknown_nodes_raise_like_count_and_route():
    topo = generate_topology("grid", 0)
    message = "source and target must be two distinct nodes of the topology"
    for source, target in ((0, 999), (999, 0), (999, 999), (5, 5)):
        for call in (hop_distance, count_viable_paths, route):
            with pytest.raises(ValueError, match=message):
                call(topo, source, target)


def test_intact_memo_keys_on_the_topology():
    # Same node ids, different edges: a walk remembered for one topology
    # must not answer for the other.
    grid = generate_topology("grid", 0)
    other = erdos_renyi(100, 0.05, 4)
    for a, b in ((grid, other), (other, grid)):
        for source, target in ((0, 99), (12, 87), (5, 6)):
            hop_distance(a, source, target)
            assert count_viable_paths(b, source, target) == _networkx_count(b, source, target)[1]


def test_intact_memo_answers_only_its_own_pair():
    # Each pair is asked twice in a row, then the next pair or the reversed
    # one: a walk remembered for one must not answer for the other.
    topo = erdos_renyi(60, 0.06, 9)
    pairs = ((0, 59), (3, 40), (17, 18))
    for source, target in pairs + tuple((t, s) for s, t in pairs):
        distance, paths = _networkx_count(topo, source, target)
        assert distance > 0
        for _ in range(2):
            assert hop_distance(topo, source, target) == distance
            assert count_viable_paths(topo, source, target) == paths


def test_intact_memo_leaves_blocked_walks_alone():
    topo = generate_topology("grid", 0)
    rng = stream(8, "memo-blocked")
    others = [x for x in topo.nodes if x not in (0, 99)]
    for _ in range(10):
        assert hop_distance(topo, 0, 99) == 18
        removed = frozenset(rng.choice(others, size=20, replace=False).tolist())
        distance, paths = _networkx_count(topo, 0, 99, removed)
        assert count_viable_paths(topo, 0, 99, removed) == (paths if distance == 18 else 0)


@pytest.mark.parametrize(
    "kind",
    ["grid", "erdos-renyi", "waxman", "hexagonal", "tree", "barabasi-albert", "disconnected"],
)
def test_shared_walks_match_networkx(kind):
    # Pairs that share their roots, asked in turn across the roots, each
    # root's targets from the farthest (unreachable ones first) to the
    # nearest: a near target is answered from layers a far one built.  Every
    # pair is asked twice in a row, under nested compromise sets, and every
    # other pair again at the end, after the other roots' pairs.  Halfway
    # through, a pair of another graph on the same node ids replaces the
    # table.
    rng = stream(4, f"shared-walks-{kind}")
    topo = erdos_renyi(60, 0.03, 5) if kind == "disconnected" else generate_topology(kind, 5)
    n = topo.n_nodes
    other = erdos_renyi(n, 0.05, 6)
    graph = nx.Graph(topo.edges)
    graph.add_nodes_from(topo.nodes)
    queues = []
    unreachable = 0
    for root in rng.choice(n, size=3, replace=False).tolist():
        hops = nx.single_source_shortest_path_length(graph, root)
        targets = [t for t in rng.choice(n, size=8, replace=False).tolist() if t != root]
        targets.sort(key=lambda t: -hops.get(t, n))
        unreachable += sum(t not in hops for t in targets)
        queues.append([(root, t) for t in targets])
    assert bool(unreachable) == (kind == "disconnected")
    sequence = [pair for turn in itertools.zip_longest(*queues) for pair in turn if pair]
    order = rng.permutation(n).tolist()
    nested = [frozenset(order[: n * k // 10]) for k in (0, 1, 3, 5)]
    for step, (source, target) in enumerate(sequence + sequence[::2]):
        if step == len(sequence) // 2:
            assert hop_distance(other, source, target) == _networkx_count(other, source, target)[0]
        distance = _networkx_count(topo, source, target)[0]
        expected = []
        for compromised in nested:
            blocked = compromised - {source, target}
            d, paths = _networkx_count(topo, source, target, blocked)
            expected.append((blocked, paths if d == distance else 0))
        for _ in range(2):
            assert hop_distance(topo, source, target) == distance
            for blocked, paths in expected:
                assert count_viable_paths(topo, source, target, blocked) == paths


@pytest.mark.parametrize(
    "kind", ["grid", "erdos-renyi", "waxman", "hexagonal", "tree", "barabasi-albert"]
)
def test_counts_match_blocked_walk_oracle(kind):
    # The decay sweep's compromise sets (nested prefixes of one permutation
    # per trial, at the default fractions), against the blocked walk bounded
    # at each pair's intact distance d.  Every family but the tree, whose
    # paths are unique, meets a pair whose geodesics are all blocked while a
    # longer detour remains; such a pair counts 0.
    rng = stream(3, f"dag-oracle-{kind}")
    fractions = [round(0.1 * i, 10) for i in range(9)]
    detours = 0
    for _ in range(4):
        topo = generate_topology(kind, int(rng.integers(0, 2**63)))
        n = topo.n_nodes
        shuffled = rng.permutation(n).tolist()
        nested = [frozenset(shuffled[: math.floor(f * n)]) for f in fractions]
        for source, target in rng.integers(0, n, size=(15, 2)).tolist():
            if source == target:
                continue
            d = hop_distance(topo, source, target)
            for compromised in nested:
                if source in compromised or target in compromised:
                    break
                count = count_viable_paths(topo, source, target, compromised)
                assert count == count_by_blocked_walk(topo, source, target, compromised, d)
                if not count and d > 0 and count_by_blocked_walk(topo, source, target, compromised):
                    detours += 1
    assert detours or kind == "tree"


def test_count_is_zero_when_every_geodesic_is_blocked():
    # 11 and 33 are four hops apart on the 10x10 grid.  Every geodesic
    # leaves 11 through 12 or 21, so with both blocked only detours remain,
    # and the grid is bipartite: the shortest are six hops long.
    topo = generate_topology("grid", 0)
    blocked = frozenset({12, 21})
    assert hop_distance(topo, 11, 33) == 4
    assert count_viable_paths(topo, 11, 33) == 6
    assert count_viable_paths(topo, 11, 33, blocked) == 0
    detours = count_by_blocked_walk(topo, 11, 33, blocked)
    assert detours > 0
    assert count_by_blocked_walk(topo, 11, 33, blocked, hop_bound=6) == detours
    assert count_by_blocked_walk(topo, 11, 33, blocked, hop_bound=5) == 0


# ---------------------------------------------------------------- routing

def test_uniform_weights_match_shortest_hop():
    # With every quality figure zero the route is the lexicographically
    # smallest minimum-hop path, which networkx finds on its own.
    rng = stream(8, "route-equal")
    for kind in TopologyKind:
        topo = generate_topology(kind, 3)
        graph = nx.Graph(topo.edges)
        graph.add_nodes_from(topo.nodes)
        for _ in range(60):
            u, v = (int(x) for x in rng.choice(topo.n_nodes, size=2, replace=False))
            expected = min(nx.all_shortest_paths(graph, u, v)) if nx.has_path(graph, u, v) else None
            assert route(topo, u, v) == expected


def brute_force_route(graph, weights, source, target):
    """The least (intermediate weight summed in path order, hops, path) over
    every simple path, or None when there is none."""
    best = None
    for path in nx.all_simple_paths(graph, source, target):
        cost = 0.0
        for node in path[1:-1]:
            cost += weights[node]
        key = (cost, len(path), path)
        best = key if best is None or key < best else best
    return None if best is None else best[2]


def test_route_matches_brute_force_over_simple_paths():
    # Small random graphs whose node weights take few values, so equal-weight
    # and equal-hop ties are common; one node in three advertises zero cost.
    rng = stream(9, "route-brute")
    for _ in range(300):
        n = int(rng.integers(4, 9))
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        errors = rng.choice([0.0, 0.25, 0.5], size=n).tolist()
        times = rng.choice([0.0, 25.0], size=n).tolist()
        nodes = {i: NodeInfo(errors[i], times[i]) for i in range(n)}
        topo = Topology(nodes=nodes, edges=tuple(edges))
        lie = {i: 0.0 for i in range(n) if rng.random() < 1 / 3}
        weights = {i: lie.get(i, errors[i] + times[i] / 50.0) for i in range(n)}
        graph = nx.Graph(edges)
        graph.add_nodes_from(range(n))
        for u, v in itertools.permutations(range(n), 2):
            expected = brute_force_route(graph, weights, u, v)
            assert route(topo, u, v, 50.0, advertised_weights=lie) == expected, (edges, u, v)


def test_route_avoids_bad_intermediate():
    # square 0-1-3, 0-2-3 with node 1 advertising certain failure
    nodes = {
        0: NodeInfo(),
        1: NodeInfo(error_rate=1.0),
        2: NodeInfo(),
        3: NodeInfo(),
    }
    topo = Topology(nodes=nodes, edges=((0, 1), (0, 2), (1, 3), (2, 3)))
    assert route(topo, 0, 3) == [0, 2, 3]


def test_route_none_when_disconnected():
    lonely = Topology(nodes={i: NodeInfo() for i in range(3)}, edges=((0, 1),))
    assert route(lonely, 0, 2) is None


def test_route_trivia():
    topo = tiny_path_topology()
    with pytest.raises(ValueError, match="two distinct nodes"):
        route(topo, 1, 1)
    with pytest.raises(ValueError):
        route(topo, 0, 9)
    with pytest.raises(ValueError):
        route(topo, 0, 2, 0.0)
    with pytest.raises(ValueError, match="scale must be positive"):
        route(topo, 0, 2, math.nan)


def test_route_refuses_weights_that_break_its_minimum():
    # Each node weighs 0.11.  A weight of -1 at node 3 makes 0-2-3-1-5
    # (-0.78) lighter than 0-1-5 (0.11), which Dijkstra's search, settling
    # 1 before it reaches 3, would miss.
    nodes = {i: NodeInfo(error_rate=0.11) for i in range(6)}
    topo = Topology(nodes=nodes, edges=((0, 1), (0, 2), (1, 3), (1, 5), (2, 3)))
    graph = nx.Graph(topo.edges)
    assert brute_force_route(graph, {**dict.fromkeys(nodes, 0.11), 3: -1.0}, 0, 5) == [
        0, 2, 3, 1, 5,
    ]
    assert route(topo, 0, 5) == [0, 1, 5]
    for lie in ({3: -1.0}, {3: math.nan}, {3: -1e-300}):
        with pytest.raises(ValueError, match="advertised weights must be >= 0"):
            route(topo, 0, 5, advertised_weights=lie)
    with pytest.raises(ValueError, match="advertised node 6 is not in the topology"):
        route(topo, 0, 5, advertised_weights={6: 0.0})
    assert route(topo, 0, 5, advertised_weights={3: 0.0, 4: 0.0}) == [0, 1, 5]


def test_route_is_deterministic():
    topo = generate_topology("erdos-renyi", 4)
    a = route(topo, 0, 99)
    b = route(topo, 0, 99)
    assert a == b


def test_advertised_weights_override_only_listed_nodes():
    nodes = {
        0: NodeInfo(),
        1: NodeInfo(error_rate=0.9),
        2: NodeInfo(error_rate=0.1),
        3: NodeInfo(),
    }
    topo = Topology(nodes=nodes, edges=((0, 1), (0, 2), (1, 3), (2, 3)))
    honest = route(topo, 0, 3)
    assert honest == [0, 2, 3]
    lied = route(topo, 0, 3, advertised_weights={1: 0.0})
    assert lied == [0, 1, 3]
    # A lie answers only the call that carries it.
    assert route(topo, 0, 3) == honest


# ---------------------------------------------------------------- decay

def test_decay_experiment_shape_and_monotonicity():
    fractions = [0.0, 0.2, 0.4, 0.6]
    table = untrusted_node_experiment(
        ["grid", "tree"], fractions, trials=3, pairs_per_trial=8, rng=stream(42, "decay")
    )
    for kind in ("grid", "tree"):
        assert sorted({row.fraction for row in table.rows if row.kind == kind}) == fractions
        means = [table.aggregate(kind, f).mean_count for f in fractions]
        assert means[0] > 0
        # nested compromise sets force non-increasing means, every seed
        assert all(a >= b for a, b in zip(means, means[1:]))
        assert table.aggregate(kind, 0.0).samples == 3 * 8
    with pytest.raises(KeyError):
        table.aggregate("grid", 0.31)


def test_decay_distance_rows_partition_the_aggregate():
    table = untrusted_node_experiment(
        ["grid"], [0.0, 0.3], trials=2, pairs_per_trial=10, rng=stream(7, "decay-dist")
    )
    rows = [
        row for row in table.rows
        if row.kind == "grid" and row.fraction == 0.3 and row.distance != -1
    ]
    assert rows, "expected distance-binned rows"
    assert all(isinstance(r, DecayRow) and r.distance >= 1 for r in rows)
    assert [r.distance for r in rows] == sorted(r.distance for r in rows)
    # grid stays connected, so the distance bins cover every sampled pair
    assert sum(r.samples for r in rows) == table.aggregate("grid", 0.3).samples


def reference_decay_rows(kinds, fractions, trials, pairs_per_trial, rng):
    """The decay experiment as it ran on per-(fraction, distance) sample
    lists, a membership test per fraction and one np.mean/np.std per row."""
    rows = []
    for kind in kinds:
        aggregate = {f: [] for f in fractions}
        by_distance = {}
        for _ in range(trials):
            topology = generate_topology(kind, int(rng.integers(0, 2**63)))
            n = topology.n_nodes
            node_ids = sorted(topology.nodes)
            shuffled = [node_ids[i] for i in rng.permutation(n).tolist()]
            pair_index = rng.integers(0, n, size=(pairs_per_trial, 2)).tolist()
            compromised_sets = [frozenset(shuffled[: math.floor(f * n)]) for f in fractions]
            for raw_u, raw_v in pair_index:
                u, v = node_ids[raw_u], node_ids[raw_v]
                if u == v:
                    v = node_ids[(raw_v + 1) % n]
                intact_distance = hop_distance(topology, u, v)
                count = 0 if intact_distance < 0 else 1
                for f, compromised in zip(fractions, compromised_sets):
                    if u in compromised or v in compromised:
                        count = 0
                    if count:
                        count = count_viable_paths(topology, u, v, compromised)
                    aggregate[f].append(count)
                    if intact_distance >= 0:
                        by_distance.setdefault((f, intact_distance), []).append(count)
        groups = [((f, -1), aggregate[f]) for f in fractions] + sorted(by_distance.items())
        for (f, distance), samples in groups:
            rows.append(DecayRow(kind, f, distance, float(np.mean(samples)),
                                 float(np.std(samples)), len(samples)))
    return rows


def test_decay_rows_match_per_row_reference(monkeypatch):
    # Same rows and the same count_viable_paths calls, in the same order.
    # Random families resample per trial and the reference builds every
    # lattice anew each trial; near-equal fractions give equal compromise
    # sets, and 0.99 compromises nearly every endpoint.
    kinds = ["grid", "erdos-renyi", "waxman", "hexagonal", "tree", "barabasi-albert"]
    fractions = [0.0, 0.004, 0.009, 0.2, 0.5, 0.99]
    calls = {"reference": [], "candidate": []}
    original = count_viable_paths

    def recording(side):
        def count(topology, u, v, compromised):
            calls[side].append((u, v, len(compromised)))
            return original(topology, u, v, compromised)
        return count

    monkeypatch.setattr(experiments, "count_viable_paths", recording("candidate"))
    table = untrusted_node_experiment(kinds, fractions, 2, 15, stream(11, "decay-ref"))
    monkeypatch.setitem(globals(), "count_viable_paths", recording("reference"))
    assert list(table.rows) == reference_decay_rows(
        kinds, fractions, 2, 15, stream(11, "decay-ref")
    )
    assert calls["candidate"] == calls["reference"]


@pytest.mark.parametrize("case", ["beyond-int64", "long-rows", "mixed"])
def test_decay_moments_match_per_row_calls(case):
    # _moments reduces one int64 row per fraction; each must equal np.mean
    # and np.std on that fraction's list to the bit.  Past 8,192 samples
    # NumPy sums a cast row in buffer-sized chunks.  No generated topology
    # has a pair with 2**63 geodesics, and a count beyond int64 fails loudly.
    rng = stream(5, f"moments-{case}")
    if case == "beyond-int64":
        counts = [[2**63 + int(x), int(x)] for x in rng.integers(0, 10**6, size=40)]
        with pytest.raises(OverflowError):
            _moments(counts)
        return
    if case == "long-rows":
        counts = rng.integers(0, 2**62, size=(20_000, 3)).tolist()
    else:
        counts = rng.integers(0, 50, size=(400, 9)).tolist()
    expected = [(float(np.mean(column)), float(np.std(column))) for column in map(list, zip(*counts))]
    assert _moments(counts) == expected


def decay_expectations(kind, fractions, trials, pairs_per_trial, rng):
    """Exact expected decay counts, trial by trial, for the graphs and pairs
    that ``untrusted_node_experiment`` draws from ``rng``: graph seed,
    permutation, pairs.

    Every viable path within the intact hop budget d is an intact geodesic
    with d + 1 nodes, and the compromised set is m = floor(f * n) entries
    of a uniform permutation, independent of the pair.  So a pair with N
    geodesics expects N * C(n - d - 1, m) / C(n, m) paths, 0 when the pair
    is disconnected; a compromised endpoint is one of the ways to lose a
    path.  d comes from networkx's Floyd-Warshall and N from the walk
    counts of its adjacency matrix: a walk of length d between nodes at
    distance d is a geodesic.  Returns a (trials, fractions) array of
    per-trial mean expectations.
    """
    tables = {}  # the lattices draw one graph for every trial
    means = []
    for _ in range(trials):
        topology = generate_topology(kind, int(rng.integers(0, 2**63)))
        n = topology.n_nodes
        rng.permutation(n)
        u, v = rng.integers(0, n, size=(pairs_per_trial, 2)).T
        v = np.where(u == v, (v + 1) % n, v)
        if topology.edges not in tables:
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(topology.edges)
            dist = nx.floyd_warshall_numpy(graph, nodelist=range(n))
            adjacency = nx.to_numpy_array(graph, nodelist=range(n))
            connected = np.isfinite(dist)
            hops = np.where(connected, dist, n).astype(np.int64)  # n: disconnected
            geodesics = np.zeros((n, n))
            walks = np.eye(n)
            for k in range(int(hops[connected].max()) + 1):
                geodesics[hops == k] = walks[hops == k]
                walks = walks @ adjacency
            tables[topology.edges] = hops, geodesics
        hops, geodesics = tables[topology.edges]
        # survive[j, k]: the chance that k + 1 given nodes avoid the compromised set
        survive = np.array([
            [math.comb(n - k - 1, math.floor(f * n)) / math.comb(n, math.floor(f * n))
             for k in range(n)] + [0.0]
            for f in fractions
        ])
        d = hops[u, v]
        means.append((geodesics[u, v] * survive[:, d]).mean(axis=1))
    return np.array(means)


@pytest.mark.parametrize("kind", ["grid", "erdos-renyi"])
def test_decay_means_match_exact_expectation(kind):
    # 50 trials of 400 pairs.  Pairs of one trial share its permutation, so
    # the trials, not the pairs, are the independent units: a t statistic
    # over the 50 per-trial differences, two-sided at a share 0.01 / 10 of
    # the family-wise alpha (two families times fractions 0.1-0.5).  At
    # fraction 0 the count is N itself, so the means agree exactly.
    fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    trials, pairs = 50, 400
    rng = stream(1, f"decay-oracle-{kind}")
    sampled = []
    for _ in range(trials):
        # One trial per call consumes the stream as one call of all trials.
        table = untrusted_node_experiment([kind], fractions, 1, pairs, rng)
        sampled.append([table.aggregate(kind, f).mean_count for f in fractions])
    expected = decay_expectations(kind, fractions, trials, pairs, stream(1, f"decay-oracle-{kind}"))
    diff = np.array(sampled) - expected
    assert np.abs(diff[:, 0]).max() <= 1e-9 * expected[:, 0].max()
    bound = t_dist.ppf(1.0 - 0.01 / 10 / 2, trials - 1)
    for k, f in enumerate(fractions[1:], start=1):
        t = diff[:, k].mean() / (diff[:, k].std(ddof=1) / math.sqrt(trials))
        assert abs(t) < bound, f"{kind} at {f}: t = {t:.2f}, bound {bound:.2f}"


def test_decay_validation():
    rng = stream(0, "decay-err")
    with pytest.raises(ValueError):
        untrusted_node_experiment([], [0.1], 1, 1, rng)
    with pytest.raises(ValueError):
        untrusted_node_experiment(["grid"], [], 1, 1, rng)
    with pytest.raises(ValueError):
        untrusted_node_experiment(["grid"], [0.4, 0.2], 1, 1, rng)
    with pytest.raises(ValueError):
        untrusted_node_experiment(["grid"], [0.1, 1.2], 1, 1, rng)
    with pytest.raises(ValueError):
        untrusted_node_experiment(["grid"], [0.1], 0, 1, rng)


# ---------------------------------------------------------------- diversion

def test_diversion_cut_vertex_intercepts_everything():
    result = diversion_experiment(tiny_path_topology(), 1, 10, stream(1, "div-cut"))
    assert result.baseline_fraction == 1.0
    assert result.diverted_fraction == 1.0


def test_diversion_central_node_attracts_traffic():
    topo = generate_topology(
        "grid", 42, error_rate_range=(0.0, 0.05), response_time_range=(10.0, 50.0)
    )
    result = diversion_experiment(topo, 55, 100, stream(42, "div-central"))
    assert result.diverted_fraction > result.baseline_fraction
    assert len(result.pairs) == 100
    for pair in result.pairs:
        assert 55 not in (pair.source, pair.target)
        assert pair.stretch_ratio == (len(pair.diverted_path) - 1) / (
            len(pair.honest_path) - 1
        )


def test_diversion_validation():
    topo = tiny_path_topology()
    with pytest.raises(ValueError, match="hijacker 99 is not a node"):
        diversion_experiment(topo, 99, 5, stream(0, "div-err"))
    with pytest.raises(ValueError):
        diversion_experiment(topo, 1, 0, stream(0, "div-err"))
    with pytest.raises(TypeError):  # one hijacker, not a set of them
        diversion_experiment(topo, {0, 1}, 5, stream(0, "div-err"))
    pair = Topology(nodes={0: NodeInfo(), 1: NodeInfo()}, edges=((0, 1),))
    with pytest.raises(ValueError, match="too small"):  # one endpoint left
        diversion_experiment(pair, 0, 5, stream(0, "div-err"))
