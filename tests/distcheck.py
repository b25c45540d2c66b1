"""Chi-square tests for the suite: goodness of fit against an analytic pmf,
and the distribution check for rewrites that draw differently from the code
they replace.

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

from qntl.stats import Histogram, stream

# An rng in, outcome counts over categories 0, 1, 2, ... out.
Sampler = Callable[[np.random.Generator], np.ndarray]

# Smallest expected count a cell may have, the usual rule of thumb for the
# chi-square approximation.
MIN_EXPECTED = 5.0


def chi_square_gof(hist: Histogram, pmf: Callable[[int], float]) -> float:
    """Chi-square goodness-of-fit p-value of ``hist`` against an analytic pmf.

    Expected counts below ``MIN_EXPECTED`` are merged rightward into the tail
    before the statistic is formed, so sparse tail bins cannot dominate.
    The last bin is treated as the distribution's full upper tail when the
    histogram aggregates overflow.
    """
    if hist.total == 0:
        raise ValueError("cannot test an empty histogram")
    if hist.counts.size < 2:
        raise ValueError("need at least two bins for a goodness-of-fit test")
    m = hist.max_bin
    probs = np.array([float(pmf(k)) for k in range(m)], dtype=float)
    if np.any(probs < -1e-12):
        raise ValueError("pmf returned a negative probability")
    probs = np.clip(probs, 0.0, 1.0)
    if hist.overflow:
        tail = max(0.0, 1.0 - float(probs.sum()))
    else:
        tail = float(pmf(m))
    expected = np.append(probs, tail) * hist.total
    observed = hist.counts.astype(float)

    # Merge the right tail until every retained bin has enough mass.
    exp_list = list(expected)
    obs_list = list(observed)
    while len(exp_list) > 1 and exp_list[-1] < MIN_EXPECTED:
        exp_list[-2] += exp_list[-1]
        obs_list[-2] += obs_list[-1]
        del exp_list[-1], obs_list[-1]
    exp_arr = np.asarray(exp_list)
    obs_arr = np.asarray(obs_list)
    keep = exp_arr > 0.0
    exp_arr = exp_arr[keep]
    obs_arr = obs_arr[keep]
    if exp_arr.size < 2:
        raise ValueError("fewer than two usable bins after tail merging")
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = exp_arr.size - 1
    return float(chdtrc(dof, stat))


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
