"""Distribution check for rewrites that draw differently from the code they
replace.

A rewrite that consumes the random stream differently moves every row, so a
bit-for-bit comparison with the old code says nothing.  This check runs the
old code (kept in the tests as a reference) and the new code over the same
fixed seeds, each on its own stream, pools the outcome counts each side
reports, and tests that both pooled histograms come from one distribution
with a two-sample chi-square test.  Fixed seeds make the verdict
deterministic; each use states its family-wise alpha and the number of
comparisons it splits that alpha over (Bonferroni).
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import chdtrc

from qntl.stats import stream

# An rng in, outcome counts over categories 0, 1, 2, ... out.
Sampler = Callable[[np.random.Generator], np.ndarray]

# Smallest expected count a pooled cell may have.
MIN_EXPECTED = 5.0


def pooled_counts(sample: Sampler, seeds: Sequence[int], label: str) -> np.ndarray:
    """Sum the counts ``sample`` reports on stream (seed, label) over ``seeds``."""
    total = np.zeros(0, dtype=np.int64)
    for seed in seeds:
        counts = np.asarray(sample(stream(seed, label)), dtype=np.int64)
        if counts.size > total.size:
            total = np.pad(total, (0, counts.size - total.size))
        total[: counts.size] += counts
    return total


def two_sample_p_value(a: np.ndarray, b: np.ndarray) -> float:
    """p-value of the chi-square test that counts ``a`` and ``b`` over the
    same categories come from one distribution.

    Adjacent categories are merged, in order, until every cell of the 2 x m
    table expects at least ``MIN_EXPECTED`` counts; a short remainder joins
    the last merged group.  One group left means nothing to compare: p = 1.
    """
    size = max(a.size, b.size)
    a = np.pad(np.asarray(a, dtype=float), (0, size - a.size))
    b = np.pad(np.asarray(b, dtype=float), (0, size - b.size))
    n_a, n_b = a.sum(), b.sum()
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples need at least one observation")
    # A group of combined count c expects c * n / (n_a + n_b) on each side.
    needed = MIN_EXPECTED * (n_a + n_b) / min(n_a, n_b)
    groups: list[list[float]] = []
    acc = [0.0, 0.0]
    for x, y in zip(a, b):
        acc = [acc[0] + x, acc[1] + y]
        if acc[0] + acc[1] >= needed:
            groups.append(acc)
            acc = [0.0, 0.0]
    if groups:
        groups[-1] = [groups[-1][0] + acc[0], groups[-1][1] + acc[1]]
    if len(groups) < 2:
        return 1.0
    table = np.array(groups).T
    expected = np.outer([n_a, n_b], table.sum(axis=0)) / (n_a + n_b)
    statistic = float(((table - expected) ** 2 / expected).sum())
    return float(chdtrc(table.shape[1] - 1, statistic))


def same_distribution_p(
    reference: Sampler, candidate: Sampler, seeds: Sequence[int], label: str
) -> float:
    """Two-sample p-value of ``reference`` against ``candidate``, each pooled
    over ``seeds`` on its own streams (labels ``label/reference`` and
    ``label/candidate``), so the two sides share no draws."""
    return two_sample_p_value(
        pooled_counts(reference, seeds, f"{label}/reference"),
        pooled_counts(candidate, seeds, f"{label}/candidate"),
    )
