"""Host-speed reference for the benchmark's timings.

The shared host's speed drifts by a third or more over seconds to minutes,
and it drifts alike for every Python process on it.  The benchmark therefore
times a fixed reference computation right before and right after each task
and reports the task's time as a multiple of the reference's time, scaled to
``NOMINAL_S``.  A task that takes 40 reference calls reads as
``40 * NOMINAL_S`` seconds however fast the host happens to be at the time.

The reference belongs neither to qntl nor to any workload's inputs: a
breadth-first search over a fixed random graph held in dicts and sets, which
chases pointers the way networkx and the per-round protocol loops do, and a
sort of a fixed float array, which streams memory the way the photon-batch
array paths do.  It imports nothing from qntl, so it can also run in the
fresh interpreters that sample ``setup_s``, after the timed import.
"""
from __future__ import annotations

import time
from collections import deque

import numpy as np

# Seconds one reference call takes on an unloaded 2-vCPU host; normalised
# times read as seconds on such a host.
NOMINAL_S = 0.008

_NODES = 4000
_EDGES = 12000
_SORTED = 200_000


class Reference:
    """The fixed reference computation, built once per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        adjacency: dict[int, set[int]] = {node: set() for node in range(_NODES)}
        for a, b in rng.integers(0, _NODES, size=(_EDGES, 2)).tolist():
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        self._adjacency = adjacency
        self._array = rng.random(_SORTED)
        self._reached = self._search()

    def _search(self) -> int:
        seen = {0}
        queue = deque([0])
        while queue:
            for neighbour in self._adjacency[queue.popleft()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return len(seen)

    def seconds(self) -> float:
        """Wall-clock seconds of one reference call."""
        start = time.perf_counter()
        reached = self._search()
        np.sort(self._array)
        elapsed = time.perf_counter() - start
        if reached != self._reached:
            raise RuntimeError("reference search reached a different node count")
        return elapsed
