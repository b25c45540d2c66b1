"""Tests for the connection-flood simulation and its mitigations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qntl.network import Mitigation, MitigationKind, dos_simulate
from qntl.stats import stream

ALL_MITIGATIONS = (
    Mitigation.none(),
    Mitigation.rate_limit(5.0, 10),
    Mitigation.embryonic_cap(8),
    Mitigation.suspicion_scheduler(),
)


def run(mitigation, seed, *, legit=5.0, attack=50.0, duration=30_000.0):
    return dos_simulate(
        duration, legit, attack, 10, mitigation, stream(seed, "dos"), n_attack_sources=1
    )


# ---------------------------------------------------------------- accounting

def test_conservation_holds_everywhere():
    for mitigation in ALL_MITIGATIONS:
        for seed in range(5):
            result = run(mitigation, seed)
            assert result.conservation_ok()
            assert (
                result.legit_served
                + result.legit_dropped
                + result.legit_blocked
                + result.legit_still_queued
                == result.legit_arrivals
            )
            assert result.legit_still_queued == 0
            assert result.attack_still_queued == 0
            assert result.mitigation == mitigation.kind.value


@given(
    mitigation=st.sampled_from(ALL_MITIGATIONS),
    n_legit_sources=st.integers(1, 12),
    n_attack_sources=st.integers(1, 12),
    n_servers=st.integers(1, 20),
    duration=st.floats(100.0, 5_000.0),
    legit=st.floats(0.0, 40.0),
    attack=st.floats(0.0, 100.0),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_queue_invariants_over_source_mixes(
    mitigation, n_legit_sources, n_attack_sources, n_servers, duration, legit, attack, seed
):
    result = dos_simulate(
        duration, legit, attack, n_servers, mitigation, stream(seed, "dos-prop"),
        n_legit_sources=n_legit_sources, n_attack_sources=n_attack_sources,
    )
    assert result.conservation_ok()
    # the post-window drain empties every source's line
    assert result.legit_still_queued == 0
    assert result.attack_still_queued == 0
    # attackers never abandon; they only leave by service or admission refusal
    assert result.attack_dropped == 0
    if mitigation.kind is MitigationKind.SUSPICION_SCHEDULER:
        assert result.legit_blocked == 0


def test_runs_are_deterministic():
    a = run(Mitigation.embryonic_cap(8), 77)
    b = run(Mitigation.embryonic_cap(8), 77)
    assert a == b
    c = run(Mitigation.embryonic_cap(8), 78)
    assert c != a


def test_no_attack_means_full_service():
    for mitigation in ALL_MITIGATIONS:
        for seed in range(5):
            result = run(mitigation, seed, attack=0.0)
            assert result.attack_arrivals == 0
            assert result.legit_arrivals > 0
            assert result.legit_served_fraction == 1.0
            assert result.attack_served_fraction == 0.0
            assert result.mean_legit_wait_ms >= 0.0


def erlang_c(servers, offered_load):
    """Probability that an arrival waits in an M/M/c queue (Erlang C)."""
    c, a = servers, offered_load
    tail = a**c / math.factorial(c) * c / (c - a)
    return tail / (sum(a**k / math.factorial(k) for k in range(c)) + tail)


def test_unattacked_queue_matches_erlang_c_mean_wait():
    # With no attacker and unbounded patience the simulator is an M/M/c
    # queue, whose mean wait is C(c, a) / (c*mu - lambda).
    servers, rate_per_s, service_ms = 10, 15.0, 500.0
    mu_per_s = 1000.0 / service_ms
    expected_ms = 1000.0 * erlang_c(servers, rate_per_s / mu_per_s) / (
        servers * mu_per_s - rate_per_s
    )
    means = []
    for seed in range(8):
        result = dos_simulate(
            1_000_000.0, rate_per_s, 0.0, servers, Mitigation.none(),
            stream(seed, "erlang-c"), mean_service_ms=service_ms, patience_ms=1e12,
        )
        assert result.legit_dropped == result.legit_blocked == result.legit_still_queued == 0
        assert result.legit_served == result.legit_arrivals
        means.append(result.mean_legit_wait_ms)
    stderr = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(np.mean(means) - expected_ms) <= 4.0 * stderr


def test_no_legit_traffic_yields_nan_wait():
    result = run(Mitigation.none(), 0, legit=0.0)
    assert result.legit_arrivals == 0
    assert result.legit_served_fraction == 0.0
    assert math.isnan(result.mean_legit_wait_ms)


# ---------------------------------------------------------------- mitigations

def test_unmitigated_flood_starves_legit_clients():
    result = run(Mitigation.none(), 1)
    # ten servers, each squatted for the 10 s embryonic timeout
    assert result.legit_served_fraction < 0.25
    assert result.attack_served > 10


def test_rate_limit_admission_bound_single_attacker():
    # token bucket: at most burst + rate * window tokens ever exist
    mitigation = Mitigation.rate_limit(0.5, 2)
    bound = 2 + 0.5 * 30.0
    for seed in range(10):
        result = run(mitigation, seed)
        admitted = result.attack_arrivals - result.attack_blocked
        assert admitted == result.attack_served  # attackers never abandon
        assert admitted <= bound
        assert admitted >= 10  # flood keeps the bucket drained, not empty
        assert result.conservation_ok()


def test_embryonic_cap_beats_no_mitigation():
    wins = 0
    for seed in range(20):
        capped = run(Mitigation.embryonic_cap(8), seed)
        bare = run(Mitigation.none(), seed)
        assert capped.legit_arrivals == bare.legit_arrivals  # same arrival draw
        if capped.legit_served_fraction > bare.legit_served_fraction:
            wins += 1
    assert wins >= 17  # sign test: 17/20 under a fair coin is p < 2e-3


def test_embryonic_cap_throttles_the_flood():
    # the cap bounds concurrent half-open holds, so a 50/s single-source
    # flood gets almost entirely refused at the door
    for seed in (3, 9):
        result = run(Mitigation.embryonic_cap(8), seed)
        admitted = result.attack_arrivals - result.attack_blocked
        assert admitted < 0.1 * result.attack_arrivals
        assert result.attack_blocked > 0.9 * result.attack_arrivals
        assert result.legit_blocked == 0  # completed handshakes leave no hold


def test_suspicion_scheduler_beats_no_mitigation():
    wins = 0
    for seed in range(20):
        ranked = run(Mitigation.suspicion_scheduler(), seed)
        bare = run(Mitigation.none(), seed)
        if ranked.legit_served_fraction > bare.legit_served_fraction:
            wins += 1
        assert ranked.legit_blocked == 0  # scheduling only, no admission filter
    assert wins >= 17


def test_suspicion_scheduler_prefers_quiet_sources():
    result = run(Mitigation.suspicion_scheduler(), 9)
    assert result.legit_served_fraction > 0.5
    # attackers are deferred, not refused: the post-window drain still works
    # through every admitted request, they just stop displacing legit ones
    assert result.attack_served == result.attack_arrivals
    assert result.mean_legit_wait_ms < 3_000.0


# ---------------------------------------------------------------- validation

def test_mitigation_factory_validation():
    with pytest.raises(ValueError):
        Mitigation.rate_limit(0.0, 2)
    with pytest.raises(ValueError):
        Mitigation.rate_limit(1.0, 0)
    with pytest.raises(ValueError):
        Mitigation.embryonic_cap(0)
    assert Mitigation.none().kind is MitigationKind.NONE


def test_simulate_validation():
    rng = stream(0, "dos-err")
    with pytest.raises(ValueError):
        dos_simulate(0.0, 5.0, 0.0, 10, Mitigation.none(), rng)
    with pytest.raises(ValueError):
        dos_simulate(1000.0, 5.0, 0.0, 0, Mitigation.none(), rng)
    with pytest.raises(ValueError):
        dos_simulate(1000.0, 5.0, 0.0, 10, Mitigation.none(), rng, n_legit_sources=0)
