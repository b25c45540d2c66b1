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
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MitigationKind",
    "Mitigation",
    "ConnectionRequest",
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
class ConnectionRequest:
    """One arrival: when, from whom, and whether it will ever complete a
    handshake."""

    seq: int
    arrival_ms: float
    source: str
    is_attack: bool


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


class _TokenBuckets:
    def __init__(self, rate_per_s: float, burst: int) -> None:
        self.rate_per_ms = rate_per_s / 1000.0
        self.burst = float(burst)
        self.tokens: dict[str, float] = {}
        self.stamp: dict[str, float] = {}

    def admit(self, source: str, now: float) -> bool:
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
