"""Oracles that only the tests use.

The phase gate gives the Born probabilities the Trojan-horse kernel must
match, and the correlator and CHSH combination are the analytic side of the
entanglement checks (acceptance criterion 5).  Each works on a
:class:`qntl.quantum.PureState` through the package's public calls.  The
scalar Poisson sampler is the one-uniform-at-a-time reference for the
array sampler and for the photon gate.  The blocked layered walk, bounded
at a pair's intact hop distance, is the per-(pair, fraction) reference for
``count_viable_paths``, which counts on each pair's shortest-path DAG;
unbounded, it also counts the longer detours that the count leaves out.
The catalog checksum is the value the catalog pin asserts.
"""
import bisect
import cmath
import hashlib
from importlib import resources
from typing import Iterable, Sequence

from qntl.network import Topology
from qntl.quantum import CHSH_OPTIMAL_ANGLES, PureState, joint_probabilities
from qntl.stats import _guide_table


def poisson_sample(mu, rng):
    """One Poisson(mu) count by bisect on the CDF steps at one
    ``rng.random()``; at mu == 0 it draws nothing and returns 0."""
    steps = _guide_table(mu)[0]  # checks the mean
    if mu == 0.0:
        return 0
    return bisect.bisect_left(steps, rng.random())


def count_by_blocked_walk(topology: Topology, source, target, compromised=frozenset(),
                          hop_bound=None) -> int:
    """Minimum-hop paths from source to target that avoid ``compromised``,
    counted only when they take at most ``hop_bound`` hops.

    One BFS from the source that never enters a compromised node; each
    layer carries every node's path count, summed from the layer before,
    and the walk stops at the first layer that meets the target's
    neighbours.  Endpoints are taken as valid and safe.
    """
    if source == target:
        return 1
    adjacency = topology.adjacency
    near = frozenset(adjacency[target])
    seen = {source, *compromised}
    layer = {source: 1}
    depth = 0
    while layer and (hop_bound is None or depth < hop_bound):
        depth += 1
        meet = layer.keys() & near
        if meet:
            return sum(layer[node] for node in meet)
        ahead = {}
        for node, ways in layer.items():
            for nbr in adjacency[node]:
                if nbr in ahead:
                    ahead[nbr] += ways
                elif nbr not in seen:
                    ahead[nbr] = ways
        seen.update(ahead)
        layer = ahead
    return 0


def apply_phase(state: PureState, qubit_index: int, theta: float) -> PureState:
    """Phase gate: multiplies the qubit's |1> amplitudes by exp(i*theta).

    Rectilinear measurement probabilities are unchanged by construction; only
    superposition (diagonal-basis) statistics feel the phase.
    """
    n = state.num_qubits
    q = int(qubit_index)
    if not 0 <= q < n:
        raise IndexError(f"qubit index {q} out of range for {n} qubit(s)")
    amps = state.amplitudes.reshape([2] * n).copy()
    amps[(slice(None),) * q + (1,)] *= cmath.exp(1j * float(theta))
    return PureState(amps.reshape(-1), n)


def correlation(
    state: PureState,
    angle_a: float,
    angle_b: float,
    trace_out: Iterable[int] | None = None,
) -> float:
    """Expectation of the +/-1 outcome product at the two analyzer angles.

    The first kept qubit is measured at ``angle_a``, the second at
    ``angle_b``.  ``trace_out`` discards ancillary qubits (e.g. an
    eavesdropper's probe) before the correlator is formed.
    """
    (p00, p01), (p10, p11) = joint_probabilities(state, angle_a, angle_b, trace_out)
    return float(p00 - p01 - p10 + p11)


def chsh_value(
    state: PureState,
    angles: Sequence[float] = CHSH_OPTIMAL_ANGLES,
    trace_out: Iterable[int] | None = None,
) -> float:
    """Analytic CHSH combination S for the given analyzer angles.

    ``angles`` is (a, a', b, b'); the combination is
    S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|.  Any state whose two kept
    qubits are unentangled satisfies S <= 2; a phi+ pair at the optimal
    angles reaches 2*sqrt(2).
    """
    if len(angles) != 4:
        raise ValueError("angles must be (a, a_prime, b, b_prime)")
    a, ap, b, bp = (float(x) for x in angles)
    e_ab = correlation(state, a, b, trace_out)
    e_abp = correlation(state, a, bp, trace_out)
    e_apb = correlation(state, ap, b, trace_out)
    e_apbp = correlation(state, ap, bp, trace_out)
    return abs(e_ab - e_abp + e_apb + e_apbp)


def catalog_sha256():
    """sha256 of the packaged threat catalog's bytes."""
    data = resources.files("qntl").joinpath("data/threat_catalog.json").read_bytes()
    return hashlib.sha256(data).hexdigest()
