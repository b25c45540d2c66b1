"""Tests for the connection-flood simulation and its mitigations."""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import astuple, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ttest_ind

from distcheck import two_sample_p_value
from qntl.network import Mitigation, MitigationKind, dos_simulate
from qntl.network.dos import (
    SUSPICION_WINDOW_MS, DosResult, _arrival_times, _exponential, _TokenBuckets,
)
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


def test_abandonment_matches_mmn_plus_d():
    # With no attacker and deterministic patience tau the simulator is an
    # M/M/n+D queue.  Zeltyn & Mandelbaum (Queueing Systems 51, 2005) give
    # its abandonment probability for M/M/n+G with H(x) = int_0^x of the
    # patience survival function, here min(x, tau):
    #   J = int_0^inf exp(lambda H(x) - n mu x) dx,
    #   P(abandon) = (1 + (lambda - n mu) J) / (eps + lambda J),
    # with eps = sum_{j<n} a^j / j! over a^(n-1) / (n-1)!, a = lambda / mu.
    # The window starts empty, which biases the simulated fraction low, so
    # the gate is at a point where that bias is small next to 4 s.e.
    rate_per_s, service_ms, servers, patience_ms = 20.0, 500.0, 10, 1_000.0
    lam, mu, tau = rate_per_s, 1000.0 / service_ms, patience_ms / 1000.0
    j_integral, _ = quad(lambda x: math.exp(lam * min(x, tau) - servers * mu * x), 0.0, math.inf)
    a = lam / mu
    eps = sum(a**k / math.factorial(k) for k in range(servers)) / (
        a ** (servers - 1) / math.factorial(servers - 1)
    )
    expected = (1.0 + (lam - servers * mu) * j_integral) / (eps + lam * j_integral)
    assert expected == pytest.approx(0.04055, abs=5e-5)
    fractions = []
    for seed in range(32):
        result = dos_simulate(
            1_000_000.0, rate_per_s, 0.0, servers, Mitigation.none(),
            stream(seed, "mmn-plus-d"), mean_service_ms=service_ms, patience_ms=patience_ms,
        )
        assert result.conservation_ok()
        fractions.append(result.legit_dropped / result.legit_arrivals)
    stderr = np.std(fractions, ddof=1) / math.sqrt(len(fractions))
    assert abs(np.mean(fractions) - expected) <= 4.0 * stderr


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
    # The served fraction spreads widely from seed to seed (about 0.3 to
    # 0.9), so the majority claim is made on the mean over seeds.
    fractions = []
    for seed in range(20):
        result = run(Mitigation.suspicion_scheduler(), seed)
        fractions.append(result.legit_served_fraction)
        # attackers are deferred, not refused: the post-window drain still
        # works through every admitted request, they just stop displacing
        # legit ones
        assert result.attack_served == result.attack_arrivals
        assert result.mean_legit_wait_ms < 3_000.0
    assert np.mean(fractions) > 0.5


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


@pytest.mark.parametrize("name, args, kwargs", [
    ("legit_rate_per_s", (1000.0, -3.0, 0.0), {}),
    ("legit_rate_per_s", (1000.0, math.inf, 0.0), {}),
    ("attack_rate_per_s", (1000.0, 5.0, -1.0), {}),
    ("attack_rate_per_s", (1000.0, 5.0, math.nan), {}),
    ("duration_ms", (math.inf, 5.0, 0.0), {}),
    ("mean_service_ms", (1000.0, 5.0, 0.0), {"mean_service_ms": -500.0}),
    ("embryonic_timeout_ms", (1000.0, 5.0, 50.0), {"embryonic_timeout_ms": -5.0}),
    ("patience_ms", (1000.0, 5.0, 0.0), {"patience_ms": -1.0}),
])
def test_simulate_rejects_negative_and_non_finite_inputs(name, args, kwargs):
    with pytest.raises(ValueError, match=name):
        dos_simulate(*args, 10, Mitigation.none(), stream(0, "dos-err"), **kwargs)


def test_simulate_accepts_infinite_holding_times():
    # An infinite patience, service mean or embryonic timeout is a limit,
    # not an error: nobody abandons, or a server is never freed.
    for key in ("mean_service_ms", "embryonic_timeout_ms", "patience_ms"):
        result = dos_simulate(2000.0, 5.0, 5.0, 10, Mitigation.none(), stream(0, "dos-inf"),
                              **{key: math.inf})
        assert result.conservation_ok(), key


# ---------------------------------------------------------------- reference

# The simulator before it drew its arrivals, sources and service times as
# arrays: one scalar exponential and one source draw per arrival, one
# exponential per service start, and per-source lines for every mitigation.
# Kept as the reference for the distribution check below.

@dataclass(frozen=True)
class ConnectionRequest:
    """One arrival: when, from whom, and whether it will ever complete a
    handshake."""

    seq: int
    arrival_ms: float
    source: str
    is_attack: bool


def _poisson_arrivals(
    rate_per_s: float,
    duration_ms: float,
    n_sources: int,
    prefix: str,
    rng: np.random.Generator,
) -> list[tuple[float, str]]:
    """Arrival times within the window plus a uniform source attribution."""
    if rate_per_s <= 0.0:
        return []
    out: list[tuple[float, str]] = []
    t = 0.0
    mean_gap = 1000.0 / rate_per_s
    while True:
        t += float(rng.exponential(mean_gap))
        if t >= duration_ms:
            break
        out.append((t, f"{prefix}-{int(rng.integers(0, n_sources))}"))
    return out


def reference_dos_simulate(
    duration_ms: float,
    legit_rate_per_s: float,
    attack_rate_per_s: float,
    n_servers: int,
    mitigation: Mitigation,
    rng: np.random.Generator,
    *,
    n_legit_sources: int = 10,
    n_attack_sources: int = 1,
    mean_service_ms: float = 500.0,
    embryonic_timeout_ms: float = 10_000.0,
    patience_ms: float = 3_000.0,
) -> DosResult:
    """Run one connection-flood scenario and tally per-class outcomes.

    Arrivals within ``duration_ms`` are Poisson per class, attributed
    uniformly to that class's sources.  After the window closes the queue
    drains: nothing new arrives but servers keep freeing and picking up
    waiting requests.  A legitimate request abandons (dropped) when its
    service has not started within ``patience_ms``; an admitted attack
    request never completes and holds its server for ``embryonic_timeout_ms``.
    """
    if duration_ms <= 0.0 or n_servers < 1:
        raise ValueError("need a positive window and at least one server")
    if n_legit_sources < 1 or n_attack_sources < 1:
        raise ValueError("need at least one source per class")

    legit = _poisson_arrivals(legit_rate_per_s, duration_ms, n_legit_sources, "legit", rng)
    attack = _poisson_arrivals(attack_rate_per_s, duration_ms, n_attack_sources, "attack", rng)
    merged = sorted(
        [(t, False, src) for t, src in legit] + [(t, True, src) for t, src in attack]
    )
    requests = [
        ConnectionRequest(seq=i, arrival_ms=t, source=src, is_attack=is_attack)
        for i, (t, is_attack, src) in enumerate(merged)
    ]

    # Per-source arrival times for the suspicion window counts.
    arrival_times: dict[str, list[float]] = {}
    for req in requests:
        arrival_times.setdefault(req.source, []).append(req.arrival_ms)

    def window_count(source: str, now: float) -> int:
        """Arrivals from ``source`` within the trailing suspicion window."""
        times = arrival_times[source]
        return bisect_right(times, now) - bisect_left(times, now - SUSPICION_WINDOW_MS)

    buckets = (
        _TokenBuckets(mitigation.rate_per_s, mitigation.burst)
        if mitigation.kind is MitigationKind.RATE_LIMIT
        else None
    )
    # Release times of half-open holds, per source, for the embryonic cap.
    holds: dict[str, list[float]] = {}

    def open_holds(source: str, now: float) -> int:
        lst = holds.get(source, [])
        return len(lst) - bisect_right(lst, now)

    served = {False: 0, True: 0}
    dropped = {False: 0, True: 0}
    blocked = {False: 0, True: 0}
    waits: list[float] = []

    free_at = [0.0] * n_servers
    heapq.heapify(free_at)
    # Waiting requests per source, oldest first; a source leaves when its
    # line empties.
    queue: dict[str, deque[ConnectionRequest]] = {}
    scheduled = mitigation.kind is MitigationKind.SUSPICION_SCHEDULER
    next_arrival = 0

    def assign(req: ConnectionRequest, start: float) -> None:
        if req.is_attack:
            release = start + embryonic_timeout_ms
            holds.setdefault(req.source, []).append(release)
            heapq.heappush(free_at, release)
        else:
            waits.append(start - req.arrival_ms)
            heapq.heappush(free_at, start + float(rng.exponential(mean_service_ms)))
        served[req.is_attack] += 1

    def pick(now: float) -> ConnectionRequest | None:
        """Dequeue the request the freed server takes, dropping abandoned
        ones as they surface; None when the queue empties.  Requests are
        numbered in arrival order, so ``seq`` alone ranks the heads by age."""
        while queue:
            if scheduled:
                line = min(
                    queue.values(),
                    key=lambda line: (window_count(line[0].source, now), line[0].seq),
                )
            else:
                line = min(queue.values(), key=lambda line: line[0].seq)
            req = line.popleft()
            if not line:
                del queue[req.source]
            start = max(now, req.arrival_ms)
            if not req.is_attack and start - req.arrival_ms > patience_ms:
                dropped[False] += 1
                continue
            return req
        return None

    while next_arrival < len(requests) or queue:
        next_t = requests[next_arrival].arrival_ms if next_arrival < len(requests) else None
        if queue and (next_t is None or free_at[0] <= next_t):
            now = heapq.heappop(free_at)
            req = pick(now)
            if req is None:
                # Queue emptied by abandonment; the server stays free.
                heapq.heappush(free_at, now)
                continue
            assign(req, max(now, req.arrival_ms))
            continue
        req = requests[next_arrival]
        next_arrival += 1
        now = req.arrival_ms
        if buckets is not None and not buckets.admit(req.source, now):
            blocked[req.is_attack] += 1
            continue
        if (
            mitigation.kind is MitigationKind.EMBRYONIC_CAP
            and open_holds(req.source, now) >= mitigation.max_embryonic_per_source
        ):
            blocked[req.is_attack] += 1
            continue
        queue.setdefault(req.source, deque()).append(req)

    still = {False: 0, True: 0}
    for line in queue.values():
        for req in line:
            still[req.is_attack] += 1

    return DosResult(
        duration_ms=float(duration_ms),
        n_servers=int(n_servers),
        mitigation=mitigation.kind.value,
        legit_arrivals=len(legit),
        attack_arrivals=len(attack),
        legit_served=served[False],
        attack_served=served[True],
        legit_dropped=dropped[False],
        attack_dropped=dropped[True],
        legit_blocked=blocked[False],
        attack_blocked=blocked[True],
        legit_still_queued=still[False],
        attack_still_queued=still[True],
        mean_legit_wait_ms=float(np.mean(waits)) if waits else float("nan"),
    )


# Golden-pin load: legitimate traffic alone exceeds four servers, so every
# mitigation holds a backlog and patience runs out.  At eight servers under
# the embryonic cap most legitimate requests are served, so their number
# tracks the service time: a 10% shift moves its mean by about five standard
# errors there, where the four-server cases serve too few to show it.
DIST_CASES = {
    "none": (Mitigation.none(), 4, {}),
    "rate-limit-4-attack": (Mitigation.rate_limit(0.5, 2), 4, {"n_attack_sources": 4}),
    "embryonic-cap-2": (Mitigation.embryonic_cap(2), 4, {}),
    "suspicion-5-5": (
        Mitigation.suspicion_scheduler(), 4, {"n_legit_sources": 5, "n_attack_sources": 5}
    ),
    "embryonic-cap-2-8-servers": (Mitigation.embryonic_cap(2), 8, {}),
}
DIST_OUTCOMES = ("legit_served", "legit_dropped", "attack_blocked")
MEAN_OUTCOME = "legit_served"


@pytest.mark.parametrize("case", list(DIST_CASES))
def test_outcomes_match_per_arrival_reference(case):
    # Family-wise alpha 0.01 over five cases times four comparisons (three
    # outcome distributions and one mean), so each p > 0.01 / 20.  Each run
    # is one observation: a one-hot at its count, so the pooled histogram is
    # the count's distribution over 100 runs a side, and distcheck merges
    # adjacent counts into bins.  The three counts of one run are
    # correlated, so each is compared on its own.  Welch's t-test on the
    # mean number served catches small shifts that the binned distributions
    # miss.  (attack_blocked is always 0 without admission control, and
    # those comparisons pass trivially.)
    alpha, seeds = 0.01 / 20, range(100)
    mitigation, servers, sources = DIST_CASES[case]

    def outcomes(simulate, side):
        return [
            simulate(5_000.0, 20.0, 50.0, servers, mitigation,
                     stream(seed, f"dos-{case}/{side}"), **sources)
            for seed in seeds
        ]

    reference = outcomes(reference_dos_simulate, "reference")
    candidate = outcomes(dos_simulate, "candidate")
    assert all(r.conservation_ok() for r in reference + candidate)
    for field in DIST_OUTCOMES:
        p = two_sample_p_value(
            np.bincount([getattr(r, field) for r in reference]),
            np.bincount([getattr(r, field) for r in candidate]),
        )
        assert p > alpha, f"{case} {field}: p={p:.3g}"
    p = ttest_ind(
        [getattr(r, MEAN_OUTCOME) for r in reference],
        [getattr(r, MEAN_OUTCOME) for r in candidate],
        equal_var=False,
    ).pvalue
    assert p > alpha, f"{case} mean {MEAN_OUTCOME}: p={p:.3g}"


def suspicion_per_pick(
    duration_ms: float,
    legit_rate_per_s: float,
    attack_rate_per_s: float,
    n_servers: int,
    rng: np.random.Generator,
    *,
    n_legit_sources: int = 10,
    n_attack_sources: int = 1,
    mean_service_ms: float = 500.0,
    embryonic_timeout_ms: float = 10_000.0,
    patience_ms: float = 3_000.0,
) -> DosResult:
    """The suspicion scheduler one pick at a time, on ``dos_simulate``'s own
    draws in its order: legitimate gaps, attack gaps, legitimate sources,
    attack sources, legitimate service times.

    Requests are numbered in arrival order, legitimate first at equal times.
    Each time a server frees, every queued request is ranked by its
    source's arrivals in the trailing ``SUSPICION_WINDOW_MS`` (counted by a
    scan of that source's arrival times), then by its number.
    """
    legit = _arrival_times(legit_rate_per_s, duration_ms, rng).tolist()
    attack = _arrival_times(attack_rate_per_s, duration_ms, rng).tolist()
    sources = (
        rng.integers(0, n_legit_sources, size=len(legit)).tolist()
        + (n_legit_sources + rng.integers(0, n_attack_sources, size=len(attack))).tolist()
    )
    holding = _exponential(mean_service_ms, len(legit), rng).tolist()
    holding += [embryonic_timeout_ms] * len(attack)
    times = legit + attack
    order = sorted(range(len(times)), key=times.__getitem__)
    requests = [(times[k], sources[k], holding[k], k >= len(legit)) for k in order]
    arrivals_of: dict[int, list[float]] = {}
    for t, src, _, _ in requests:
        arrivals_of.setdefault(src, []).append(t)

    served, dropped, waits = [0, 0], [0, 0], []
    free_at = [0.0] * n_servers
    queue: list[int] = []
    i = 0
    while i < len(requests) or queue:
        if queue and (i == len(requests) or free_at[0] <= requests[i][0]):
            now = heapq.heappop(free_at)
            while queue:
                window = {
                    src: sum(now - SUSPICION_WINDOW_MS <= t <= now for t in arrivals_of[src])
                    for src in {requests[j][1] for j in queue}
                }
                j = min(queue, key=lambda j: (window[requests[j][1]], j))
                queue.remove(j)
                t, _, hold, is_attack = requests[j]
                start = max(now, t)
                if not is_attack and start - t > patience_ms:
                    dropped[False] += 1
                    continue
                if not is_attack:
                    waits.append(start - t)
                served[is_attack] += 1
                heapq.heappush(free_at, start + hold)
                break
            else:
                heapq.heappush(free_at, now)
            continue
        queue.append(i)
        i += 1

    return DosResult(
        duration_ms=float(duration_ms),
        n_servers=int(n_servers),
        mitigation=MitigationKind.SUSPICION_SCHEDULER.value,
        legit_arrivals=len(legit),
        attack_arrivals=len(attack),
        legit_served=served[False],
        attack_served=served[True],
        legit_dropped=dropped[False],
        attack_dropped=dropped[True],
        legit_blocked=0,
        attack_blocked=0,
        legit_still_queued=0,
        attack_still_queued=0,
        mean_legit_wait_ms=float(np.mean(waits)) if waits else float("nan"),
    )


def test_suspicion_scheduler_matches_per_pick_reference():
    # Exact: every counter and the mean wait (NaN equal to NaN, when
    # attackers take every server first and no legitimate request is
    # served), over seeds and source mixes, one of them with many sources a
    # class so that equal window counts, and so the tie-break, are common.
    # Four servers hold a backlog.
    mixes = ({}, {"n_legit_sources": 5, "n_attack_sources": 5},
             {"n_legit_sources": 12, "n_attack_sources": 8})
    for index, sources in enumerate(mixes):
        for seed in range(4):
            args = (5_000.0, 20.0, 50.0, 4)
            name = f"dos-per-pick-{index}-{seed}"
            expected = suspicion_per_pick(*args, stream(seed, name), **sources)
            result = dos_simulate(
                *args, Mitigation.suspicion_scheduler(), stream(seed, name), **sources
            )
            np.testing.assert_equal(astuple(result), astuple(expected), f"{sources} {seed}")
