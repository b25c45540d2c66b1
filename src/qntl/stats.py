"""Seeded randomness, counting statistics, and distribution-comparison tools.

Every experiment in this package draws its randomness from a stream derived
from a root seed and a text label.  The derivation mixes the label through
SHA-256, so streams for different experiments (or different labels within
one) are independent, and under one numpy version the same pair always
reproduces the same draws.  The promise stops at that
version: ``binomial``, ``multinomial``, ``choice``, ``permutation`` and
``spawn``, which callers also use, fall outside NumPy's
stream-compatibility policy (NEP 19), so another numpy release may change
their draws and the rows built from them.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MAX_SEED",
    "stream",
    "poisson_sample_array",
    "poisson_pmf",
    "Histogram",
    "zscore_compare",
    "chsh_estimate",
]

MAX_SEED = 2**64 - 1

# Largest mean for which the term-by-term CDF inversion below stays within
# float range (exp(-mu) underflows near 745).
_MAX_POISSON_MEAN = 700.0

# Poisson mass that poisson_pmf may leave off its support.
_PMF_TAIL = 1e-16

# Buckets of the array sampler's guide table over [0, 1); a power of two,
# so u * _GUIDE_BUCKETS is exact and truncates to the bucket holding u.
_GUIDE_BUCKETS = 1 << 12


def _label_entropy(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(seed: int, label: str) -> np.random.Generator:
    """Derive the RNG stream for ``(seed, label)``.

    Args:
        seed: root seed, 0 <= seed < 2**64.
        label: experiment or sub-experiment name.

    Returns:
        A ``numpy.random.Generator`` whose draws are a pure function of the
        two inputs.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    # The third entropy word was a trial index, always 0 in every run; it
    # stays so that every stream draws as before.
    seq = np.random.SeedSequence(entropy=(int(seed), _label_entropy(label), 0))
    return np.random.Generator(np.random.PCG64(seq))


def _check_mean(mu: float) -> float:
    mu = float(mu)
    if not math.isfinite(mu) or mu < 0.0:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mu}")
    if mu > _MAX_POISSON_MEAN:
        raise ValueError(f"Poisson mean {mu} too large for exact CDF inversion")
    return mu


@functools.lru_cache(maxsize=64)
def _guide_table(mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(mu) CDF steps and their guide table, built once per mean.

    A uniform u inverts to the number of steps below it.  The steps stop
    where the CDF reaches 1.0 or a term underflows (a zero term would repeat
    the last step), so a uniform above them reads len(steps).  The mean is
    checked when its table is built.
    """
    mu = _check_mean(mu)
    pmf = math.exp(-mu)
    steps = [pmf]
    while steps[-1] < 1.0:
        pmf *= mu / len(steps)  # the term of count len(steps)
        if pmf == 0.0:
            break
        steps.append(steps[-1] + pmf)
    cdf = np.asarray(steps)
    cut = np.searchsorted(cdf, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS, side="left")
    guide = np.where(cut[:-1] == cut[1:], cut[:-1], -1)
    cdf.setflags(write=False)
    guide.setflags(write=False)
    return cdf, guide


def poisson_sample_array(
    mu: float,
    rng: np.random.Generator,
    size: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Poisson(mu) counts of ``size`` draws by CDF inversion.

    Consumes exactly one uniform per draw, in order, and each count is the
    number of Poisson(mu) CDF steps below that uniform, so a scalar
    inversion of the same stream reads the same counts.  Inversion keeps
    each count an exact, platform-independent function of its uniform,
    which vectorized library samplers do not guarantee.  At ``mu == 0`` the
    draws still take ``size`` uniforms.  Calls of sizes a and b in a row
    equal one call of size a + b, counts and stream state alike.

    ``out`` is an optional pair of length-``size`` buffers, float64 for the
    uniforms and intp for the counts; the counts buffer is filled and
    returned.  A caller drawing chunk after chunk passes the same pair (or
    slices of it) each time instead of allocating two arrays per call.

    Each count is #(cdf < u), found by indexed search (a guide table, Chen
    and Asau 1974) in a table built once per mean and cached: the CDF steps,
    and per bucket b of 2**12 equal buckets over [0, 1) #(cdf < b/G) when
    that equals #(cdf < (b+1)/G), else -1.  The lookup is exact because u*G
    is exact for a power-of-two G, and for u in [b/G, (b+1)/G) the count is
    squeezed between those two.  Only draws in a bucket that holds a CDF
    step are binary-searched.
    """
    cdf, guide = _guide_table(mu)
    if size < 0:
        raise ValueError("size must be >= 0")
    if out is None:
        out = np.empty(size), np.empty(size, np.intp)
    u, counts = out
    rng.random(size, out=u)
    # Casting inside the multiply is several times faster than .astype here.
    np.multiply(u, _GUIDE_BUCKETS, out=counts, casting="unsafe")
    # Each bucket index is read before its slot receives the guide entry.
    np.take(guide, counts, out=counts, mode="clip")
    ambiguous = np.flatnonzero(counts < 0)
    counts[ambiguous] = np.searchsorted(cdf, u[ambiguous], side="left")
    return counts


def poisson_pmf(mu: float) -> np.ndarray:
    """Poisson(mu) probabilities of 0, 1, ..., K, cut where the tail is small.

    K is the smallest count with K + 2 > mu whose tail bound
    P(K+1) / (1 - mu/(K+2)) is below 1e-16 (past K+1 each term is at most
    mu/(K+2) times the one before it), so the mass left off, P(X > K), is
    below 1e-16.
    """
    mu = _check_mean(mu)
    pmf = [math.exp(-mu)]
    while True:
        k = len(pmf)  # the count the next term belongs to
        nxt = pmf[-1] * mu / k
        if k + 1 > mu and nxt < _PMF_TAIL * (1.0 - mu / (k + 1)):
            return np.asarray(pmf)
        pmf.append(nxt)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Integer-bin histogram over 0..max_bin with an optional overflow bin.

    When ``overflow`` is true the last bin aggregates every observation
    >= max_bin, so the total is conserved no matter how large the samples.
    """

    counts: np.ndarray
    total: int
    overflow: bool = True

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-d array")
        if np.any(counts < 0):
            raise ValueError("bin counts must be non-negative")
        if int(counts.sum()) != int(self.total):
            raise ValueError("bin counts do not sum to the stated total")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))

    @property
    def max_bin(self) -> int:
        return self.counts.size - 1

    @classmethod
    def from_samples(cls, values: Sequence[int], max_bin: int = 20, overflow: bool = True) -> "Histogram":
        arr = np.asarray(values, dtype=np.int64)
        if max_bin < 0:
            raise ValueError("max_bin must be >= 0")
        if arr.size and arr.min() < 0:
            raise ValueError("samples must be non-negative integers")
        if arr.size and arr.max() > max_bin:
            if not overflow:
                raise ValueError("sample exceeds max_bin and overflow aggregation is off")
            arr = np.minimum(arr, max_bin)
        counts = np.bincount(arr, minlength=max_bin + 1)
        return cls(counts=counts, total=int(arr.size), overflow=overflow)


def zscore_compare(a: Histogram, b: Histogram) -> np.ndarray:
    """Per-bin z-scores of histogram ``a`` against histogram ``b``, as a
    read-only float array.

    Uses the pooled two-proportion statistic
    z = (p_a - p_b) / sqrt(p(1-p)(1/n_a + 1/n_b)); bins that are empty in
    both histograms (or saturated in both) score 0.
    """
    if a.counts.size != b.counts.size or a.overflow != b.overflow:
        raise ValueError("histograms are not bin-aligned")
    if a.total == 0 or b.total == 0:
        raise ValueError("cannot compare an empty histogram")
    ca = a.counts.astype(float)
    cb = b.counts.astype(float)
    na, nb = float(a.total), float(b.total)
    pooled = (ca + cb) / (na + nb)
    var = pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb)
    diff = ca / na - cb / nb
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(var > 0.0, diff / np.sqrt(var), 0.0)
    z.setflags(write=False)
    return z


def chsh_estimate(
    alice_settings: Sequence[int],
    bob_settings: Sequence[int],
    products: Sequence[int],
) -> float:
    """Estimate the CHSH combination from sampled correlation rounds.

    Settings are 0/1 indices into each side's two analyzer angles; products
    are the +/-1 outcome products.  The combination matches the analytic
    convention: |E00 - E01 + E10 + E11|.
    """
    xs = np.asarray(alice_settings, dtype=np.int64)
    ys = np.asarray(bob_settings, dtype=np.int64)
    ps = np.asarray(products, dtype=float)
    if not (xs.shape == ys.shape == ps.shape):
        raise ValueError("setting and product arrays must be the same length")
    if xs.size == 0:
        raise ValueError("no correlation rounds to estimate from")
    if np.any((xs < 0) | (xs > 1)) or np.any((ys < 0) | (ys > 1)):
        raise ValueError("settings must be 0 or 1")
    corr = np.zeros((2, 2))
    for x in (0, 1):
        for y in (0, 1):
            mask = (xs == x) & (ys == y)
            if not mask.any():
                raise ValueError(f"no samples for setting pair ({x}, {y})")
            corr[x, y] = float(ps[mask].mean())
    return float(abs(corr[0, 0] - corr[0, 1] + corr[1, 0] + corr[1, 1]))
