"""Histogram helpers that only the tests use: frequencies, tail rebinning and
a CSV round trip for ``qntl.stats.Histogram``."""
from __future__ import annotations

import numpy as np

from qntl.stats import Histogram


def frequencies(hist: Histogram) -> np.ndarray:
    """Each bin's share of the total; all zero for an empty histogram."""
    if hist.total == 0:
        return np.zeros_like(hist.counts, dtype=float)
    return hist.counts / hist.total


def rebin(hist: Histogram, max_bin: int) -> Histogram:
    """Aggregate the tail into a smaller overflow bin; total is conserved."""
    if not 0 <= max_bin <= hist.max_bin:
        raise ValueError("new max_bin must be within the current range")
    head = hist.counts[:max_bin]
    tail = int(hist.counts[max_bin:].sum())
    counts = np.concatenate([head, [tail]])
    return Histogram(counts=counts, total=hist.total, overflow=True)


def to_csv(hist: Histogram) -> str:
    lines = ["bin,count"]
    lines.extend(f"{b},{c}" for b, c in enumerate(hist.counts))
    return "\n".join(lines) + "\n"


def from_csv(text: str, overflow: bool = True) -> Histogram:
    rows = [line for line in text.strip().splitlines() if line]
    if not rows or rows[0] != "bin,count":
        raise ValueError("histogram CSV must start with a 'bin,count' header")
    counts = []
    for i, line in enumerate(rows[1:]):
        bin_str, count_str = line.split(",")
        if int(bin_str) != i:
            raise ValueError("histogram CSV bins must be contiguous from 0")
        counts.append(int(count_str))
    arr = np.asarray(counts, dtype=np.int64)
    return Histogram(counts=arr, total=int(arr.sum()), overflow=overflow)
