"""Connection-flood simulation against a pool of key-service endpoints.

A fixed pool of servers handles connection requests from well-behaved
sources and from attack sources that never complete their handshake.  An
admitted attack request therefore squats on its server until the embryonic
timeout; legitimate clients give up when service does not start within
their patience.  Mitigations act either at admission (per-source token
bucket, per-source embryonic cap) or at scheduling (suspicion-ranked queue).
The scheduler ranks sources by their arrival count over a trailing window.
Every source shares the mean and spread of those counts at a given instant,
so this is the same order as ranking by the arrival-rate z-score.  Because
it ranks each source on its own, a flood split across many sources slips
under it: ten attack sources at 5/s each against one legitimate source at
20/s leave it serving about as few legitimate requests as no mitigation.

Everything is event-driven over pregenerated Poisson arrivals, so a run is a
pure function of its parameters and seed, and the outcome counters always
satisfy served + dropped + blocked + still queued = arrivals, per class.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MitigationKind",
    "Mitigation",
    "DosResult",
    "dos_simulate",
]

# Trailing window over which the suspicion scheduler counts a source's arrivals.
SUSPICION_WINDOW_MS = 1_000.0


class MitigationKind(str, Enum):
    NONE = "none"
    RATE_LIMIT = "rate-limit"
    EMBRYONIC_CAP = "embryonic-cap"
    SUSPICION_SCHEDULER = "suspicion-scheduler"


@dataclass(frozen=True)
class Mitigation:
    """Mitigation configuration; use the factory methods.

    rate-limit: per-source token bucket, ``rate_per_s`` refill and ``burst``
    capacity, checked at arrival.  embryonic-cap: at most
    ``max_embryonic_per_source`` half-open connections per source, checked at
    arrival.  suspicion-scheduler: no admission filtering; when a server
    frees, the oldest queued request of the source with the fewest arrivals
    in the trailing ``SUSPICION_WINDOW_MS`` is served first.  That is the
    same order as ranking sources by their arrival-rate z-score.  The rank
    is per source, so an attack spread over many sources, each no busier
    than a legitimate one, is not pushed back.
    """

    kind: MitigationKind
    rate_per_s: float = 0.0
    burst: int = 0
    max_embryonic_per_source: int = 0

    @classmethod
    def none(cls) -> "Mitigation":
        return cls(MitigationKind.NONE)

    @classmethod
    def rate_limit(cls, rate_per_s: float, burst: int) -> "Mitigation":
        if rate_per_s <= 0.0 or burst < 1:
            raise ValueError("rate limit needs rate > 0 and burst >= 1")
        return cls(MitigationKind.RATE_LIMIT, rate_per_s=rate_per_s, burst=burst)

    @classmethod
    def embryonic_cap(cls, max_per_source: int) -> "Mitigation":
        if max_per_source < 1:
            raise ValueError("embryonic cap must be >= 1")
        return cls(MitigationKind.EMBRYONIC_CAP, max_embryonic_per_source=max_per_source)

    @classmethod
    def suspicion_scheduler(cls) -> "Mitigation":
        return cls(MitigationKind.SUSPICION_SCHEDULER)


@dataclass(frozen=True)
class DosResult:
    """Outcome counters for one run; per class, served + dropped + blocked +
    still_queued equals arrivals."""

    duration_ms: float
    n_servers: int
    mitigation: str
    legit_arrivals: int
    attack_arrivals: int
    legit_served: int
    attack_served: int
    legit_dropped: int
    attack_dropped: int
    legit_blocked: int
    attack_blocked: int
    legit_still_queued: int
    attack_still_queued: int
    mean_legit_wait_ms: float

    @property
    def legit_served_fraction(self) -> float:
        return self.legit_served / self.legit_arrivals if self.legit_arrivals else 0.0

    @property
    def attack_served_fraction(self) -> float:
        return self.attack_served / self.attack_arrivals if self.attack_arrivals else 0.0

    def conservation_ok(self) -> bool:
        legit = self.legit_served + self.legit_dropped + self.legit_blocked + self.legit_still_queued
        attack = (
            self.attack_served + self.attack_dropped + self.attack_blocked + self.attack_still_queued
        )
        return legit == self.legit_arrivals and attack == self.attack_arrivals


def _exponential(mean: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Exponential draws by inverting uniforms, ``-mean * log1p(-u)``."""
    return -mean * np.log1p(-rng.random(size))


def _arrival_times(rate_per_s: float, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival times within the window, ascending.

    Gaps come in chunks of the expected count plus six standard deviations
    plus 16, so one chunk almost always covers the window; one that falls
    short is followed by another.
    """
    if rate_per_s <= 0.0:
        return np.empty(0)
    mean_gap = 1000.0 / rate_per_s
    expected = duration_ms / mean_gap
    chunk = int(expected + 6.0 * math.sqrt(expected)) + 16
    times = np.zeros(1)
    while times[-1] < duration_ms:
        gaps = _exponential(mean_gap, chunk, rng)
        times = np.concatenate((times, times[-1] + np.cumsum(gaps)))
    return times[1 : np.searchsorted(times, duration_ms)]


class _TokenBuckets:
    def __init__(self, rate_per_s: float, burst: int) -> None:
        self.rate_per_ms = rate_per_s / 1000.0
        self.burst = float(burst)
        self.tokens: dict[int, float] = {}
        self.stamp: dict[int, float] = {}

    def admit(self, source: int, now: float) -> bool:
        tokens = self.tokens.get(source, self.burst)
        last = self.stamp.get(source, now)
        tokens = min(self.burst, tokens + (now - last) * self.rate_per_ms)
        ok = tokens >= 1.0
        if ok:
            tokens -= 1.0
        self.tokens[source] = tokens
        self.stamp[source] = now
        return ok


def dos_simulate(
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

    Every rate and time must be >= 0, and the window and the rates finite.
    """
    if duration_ms <= 0.0 or n_servers < 1:
        raise ValueError("need a positive window and at least one server")
    if n_legit_sources < 1 or n_attack_sources < 1:
        raise ValueError("need at least one source per class")
    for name, value, finite in (
        ("duration_ms", duration_ms, True),
        ("legit_rate_per_s", legit_rate_per_s, True),
        ("attack_rate_per_s", attack_rate_per_s, True),
        ("mean_service_ms", mean_service_ms, False),
        ("embryonic_timeout_ms", embryonic_timeout_ms, False),
        ("patience_ms", patience_ms, False),
    ):
        if not value >= 0.0 or (finite and math.isinf(value)):
            raise ValueError(f"{name} must be >= 0{' and finite' if finite else ''}, got {value}")

    # Draw order: legitimate gaps, attack gaps, legitimate sources, attack
    # sources, legitimate service times.  Attack sources are numbered after
    # the legitimate ones, and a request's index in arrival order is its
    # sequence number.
    legit_times = _arrival_times(legit_rate_per_s, duration_ms, rng)
    attack_times = _arrival_times(attack_rate_per_s, duration_ms, rng)
    n_legit, n_attack = legit_times.size, attack_times.size
    sources = np.concatenate((
        rng.integers(0, n_legit_sources, size=n_legit),
        n_legit_sources + rng.integers(0, n_attack_sources, size=n_attack),
    ))
    # How long a request holds its server once it starts: a service time, or
    # the embryonic timeout of a handshake that never completes.
    holding = np.concatenate((
        _exponential(mean_service_ms, n_legit, rng), np.full(n_attack, embryonic_timeout_ms)
    ))
    times = np.concatenate((legit_times, attack_times))
    order = np.argsort(times, kind="stable")
    arrival = times[order].tolist()
    source = sources[order].tolist()
    hold = holding[order].tolist()
    is_attack = (order >= n_legit).tolist()

    buckets = (
        _TokenBuckets(mitigation.rate_per_s, mitigation.burst)
        if mitigation.kind is MitigationKind.RATE_LIMIT
        else None
    )
    cap = (
        mitigation.max_embryonic_per_source
        if mitigation.kind is MitigationKind.EMBRYONIC_CAP
        else 0
    )
    # Release times of half-open holds, per source, for the embryonic cap.
    holds: dict[int, list[float]] = {}

    def open_holds(src: int, now: float) -> int:
        lst = holds.get(src, [])
        return len(lst) - bisect_right(lst, now)

    # Counters indexed by is_attack: [legitimate, attack].
    served, dropped, blocked = [0, 0], [0, 0], [0, 0]
    waits: list[float] = []
    free_at = [0.0] * n_servers

    if mitigation.kind is MitigationKind.SUSPICION_SCHEDULER:
        # Waiting requests per source, oldest first; a source leaves when
        # its line empties.
        lines: dict[int, deque[int]] = {}
        arrivals_of: dict[int, list[float]] = {}
        for t, src in zip(arrival, source):
            arrivals_of.setdefault(src, []).append(t)

        def take(now: float) -> int:
            # The line whose source has the fewest arrivals in the trailing
            # window, the older head first among equal counts.
            since = now - SUSPICION_WINDOW_MS
            best = best_count = None
            for src, line in lines.items():
                times = arrivals_of[src]
                count = bisect_right(times, now) - bisect_left(times, since)
                if best is None or count < best_count or count == best_count and line[0] < best[0]:
                    best, best_count = line, count
            j = best.popleft()
            if not best:
                del lines[source[j]]
            return j

        def put(j: int) -> None:
            lines.setdefault(source[j], deque()).append(j)

        waiting = lines
    else:
        # The oldest head across per-source lines is the oldest request, so
        # one first-in first-out line serves every other mitigation.
        fifo: deque[int] = deque()
        waiting, put = fifo, fifo.append

        def take(now: float) -> int:
            return fifo.popleft()

    n, i = len(arrival), 0
    while i < n or waiting:
        if waiting and (i == n or free_at[0] <= arrival[i]):
            now = heapq.heappop(free_at)
            # Dequeue the request the freed server takes, dropping abandoned
            # ones as they surface.
            while waiting:
                j = take(now)
                start = max(now, arrival[j])
                if is_attack[j]:
                    holds.setdefault(source[j], []).append(start + hold[j])
                elif start - arrival[j] > patience_ms:
                    dropped[False] += 1
                    continue
                else:
                    waits.append(start - arrival[j])
                served[is_attack[j]] += 1
                heapq.heappush(free_at, start + hold[j])
                break
            else:
                # Queue emptied by abandonment; the server stays free.
                heapq.heappush(free_at, now)
            continue
        j, now = i, arrival[i]
        i += 1
        if (buckets is not None and not buckets.admit(source[j], now)) or (
            cap and open_holds(source[j], now) >= cap
        ):
            blocked[is_attack[j]] += 1
            continue
        put(j)

    # The loop runs until the queue drains, so nothing is left waiting.
    return DosResult(
        duration_ms=float(duration_ms),
        n_servers=int(n_servers),
        mitigation=mitigation.kind.value,
        legit_arrivals=n_legit,
        attack_arrivals=n_attack,
        legit_served=served[False],
        attack_served=served[True],
        legit_dropped=dropped[False],
        attack_dropped=dropped[True],
        legit_blocked=blocked[False],
        attack_blocked=blocked[True],
        legit_still_queued=0,
        attack_still_queued=0,
        mean_legit_wait_ms=float(np.mean(waits)) if waits else float("nan"),
    )
