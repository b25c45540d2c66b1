"""Tests for seeded streams, Poisson sampling, histograms, and comparisons."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2 as sp_chi2
from scipy.stats import poisson as sp_poisson

from qntl.stats import (
    Histogram,
    chsh_estimate,
    poisson_pmf,
    poisson_sample_array,
    stream,
    zscore_compare,
)

from distcheck import chi_square_gof
from histtools import frequencies, from_csv, rebin, to_csv
from oracles import poisson_sample


# ---------------------------------------------------------------- stream

def test_stream_is_deterministic():
    a = stream(42, "alpha").random(8)
    b = stream(42, "alpha").random(8)
    assert np.array_equal(a, b)


def test_stream_labels_are_independent():
    a = stream(42, "alpha").random(8)
    b = stream(42, "beta").random(8)
    assert not np.array_equal(a, b)


def test_stream_rejects_bad_seeds():
    with pytest.raises(ValueError):
        stream(-1, "x")
    with pytest.raises(ValueError):
        stream(2**64, "x")
    with pytest.raises(TypeError):
        stream(1.5, "x")
    with pytest.raises(TypeError):
        stream(True, "x")
    with pytest.raises(TypeError):  # a stream is named by its label alone
        stream(0, "x", trial=0)


def test_stream_accepts_boundary_seeds():
    stream(0, "x").random()
    stream(2**64 - 1, "x").random()


# ---------------------------------------------------------------- poisson

def test_poisson_zero_mean_is_always_zero():
    rng = stream(7, "poisson-zero")
    assert all(poisson_sample(0.0, rng) == 0 for _ in range(1000))


def test_poisson_matches_quantile_oracle():
    # CDF inversion means k = min{k : CDF(k) >= u}; scipy's ppf computes
    # exactly that quantile, so the two must agree draw by draw.
    rng = stream(11, "poisson-oracle")
    u = rng.random(5000)
    expected = sp_poisson.ppf(u, 5.0).astype(np.int64)
    rng2 = stream(11, "poisson-oracle")
    got = np.array([poisson_sample(5.0, rng2) for _ in range(5000)])
    assert np.array_equal(got, expected)


def test_poisson_array_matches_scalar_path():
    scalar_rng = stream(3, "poisson-pair")
    vector_rng = stream(3, "poisson-pair")
    scalar = np.array([poisson_sample(2.5, scalar_rng) for _ in range(2000)])
    vector = poisson_sample_array(2.5, vector_rng, 2000)
    assert np.array_equal(scalar, vector)
    # and the streams are left in the same position
    assert scalar_rng.random() == vector_rng.random()


def reference_poisson_array(mu, rng, size):
    """The plain binary-search kernel that the indexed search replaced: one
    uniform per draw, the CDF up to the largest draw, then #(cdf < u)."""
    u = rng.random(size)
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    pmf = math.exp(-mu)
    cdf_steps = [pmf]
    k = 0
    while cdf_steps[-1] < float(u.max()) and pmf > 0.0:
        k += 1
        pmf *= mu / k
        cdf_steps.append(cdf_steps[-1] + pmf)
    return np.searchsorted(np.asarray(cdf_steps), u, side="left").astype(np.int64)


class CraftedUniforms:
    """Stands in for a generator whose ``random()`` and
    ``random(size, out=None)`` return fixed draws, in order."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)
        self.calls = 0
        self.used = 0

    def random(self, size=None, out=None):
        n = 1 if size is None else size
        assert self.used + n <= self.draws.size
        draws = self.draws[self.used:self.used + n].copy()
        self.calls += 1
        self.used += n
        if out is not None:
            out[...] = draws
            return out
        return float(draws[0]) if size is None else draws


def crafted_draws(mu):
    """0, every bucket edge b/4096, each CDF step below 1 and its two float
    neighbours, and the largest double below 1."""
    steps, pmf, cdf, k = [], math.exp(-mu), math.exp(-mu), 0
    while cdf < 1.0 and pmf > 0.0:
        steps.append(cdf)
        k += 1
        pmf *= mu / k
        cdf += pmf
    near = [np.nextafter(c, 0.0) for c in steps] + [np.nextafter(c, 1.0) for c in steps]
    draws = [0.0, *(b / 4096 for b in range(4096)), *steps, *near, 1.0 - 2.0**-53]
    return [u for u in draws if 0.0 <= u < 1.0]


# ln 2 and ln 4 put a CDF step exactly on a bucket edge (0.5 and 0.25).
@pytest.mark.parametrize("mu", [1e-6, 0.01, 0.5, math.log(2), math.log(4), 5.0, 20.0, 700.0])
def test_indexed_search_matches_binary_search_on_crafted_draws(mu):
    draws = crafted_draws(mu)
    got_rng, want_rng = CraftedUniforms(draws), CraftedUniforms(draws)
    got = poisson_sample_array(mu, got_rng, len(draws))
    want = reference_poisson_array(mu, want_rng, len(draws))
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert got_rng.calls == want_rng.calls == 1
    assert got_rng.used == want_rng.used == len(draws)


def reference_poisson_sample(mu, rng):
    """The scalar loop that the cached table replaced: add terms until the
    CDF reaches the uniform or a term underflows."""
    if mu == 0.0:
        return 0
    u = rng.random()
    k = 0
    pmf = math.exp(-mu)
    cdf = pmf
    while u > cdf and pmf > 0.0:
        k += 1
        pmf *= mu / k
        cdf += pmf
    return k


# At mu = 0.1 the float CDF stops at 0.9999999999999998, below the largest
# uniform 1 - 2**-53.  reference_poisson_array keeps the step where the term
# underflows, so it reads 123 there where the scalar loop reads 122; the
# cached table leaves that step out, so both samplers read 122.
@pytest.mark.parametrize("mu", [0.0, 0.1, 0.5, 5.0, 20.0, 700.0])
def test_scalar_and_array_poisson_agree_at_cdf_saturation(mu):
    draws = crafted_draws(mu)
    scalar_rng, want_rng, array_rng = (CraftedUniforms(draws) for _ in range(3))
    scalar = [poisson_sample(mu, scalar_rng) for _ in draws]
    want = [reference_poisson_sample(mu, want_rng) for _ in draws]
    array = poisson_sample_array(mu, array_rng, len(draws)).tolist()
    assert scalar == want == array
    assert scalar_rng.used == want_rng.used == (0 if mu == 0.0 else len(draws))
    assert array_rng.used == len(draws)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(0.0, 700.0),
    a=st.integers(0, 3000),
    b=st.integers(0, 3000),
    seed=st.integers(0, 2**32),
)
def test_poisson_array_draws_split_across_calls(mu, a, b, seed):
    split_rng, whole_rng = stream(seed, "split"), stream(seed, "split")
    split = np.concatenate([
        poisson_sample_array(mu, split_rng, a), poisson_sample_array(mu, split_rng, b),
    ])
    assert np.array_equal(split, poisson_sample_array(mu, whole_rng, a + b))
    assert split_rng.bit_generator.state == whole_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(1e-6, 700.0),
    size=st.integers(0, 5000),
    seed=st.integers(0, 2**32),
)
def test_indexed_search_matches_binary_search(mu, size, seed):
    got_rng, want_rng = stream(seed, "indexed"), stream(seed, "indexed")
    got = poisson_sample_array(mu, got_rng, size)
    want = reference_poisson_array(mu, want_rng, size)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(1e-6, 700.0), size=st.integers(0, 300), seed=st.integers(0, 2**32))
def test_poisson_array_matches_scalar_path_at_any_mean(mu, size, seed):
    scalar_rng, vector_rng = stream(seed, "pair"), stream(seed, "pair")
    scalar = [poisson_sample(mu, scalar_rng) for _ in range(size)]
    assert poisson_sample_array(mu, vector_rng, size).tolist() == scalar
    assert scalar_rng.bit_generator.state == vector_rng.bit_generator.state


@pytest.mark.parametrize("mu", [0.0, 0.5, 5.0, 700.0])
def test_poisson_array_into_buffers_matches_fresh_arrays(mu):
    # Chunks drawn into one reused pair of buffers, the last chunk short and
    # drawn into slices of them, read the counts fresh arrays read and leave
    # the stream in the same state.
    chunk, sizes = 1000, (1000, 1000, 337)
    buffers = np.empty(chunk), np.empty(chunk, np.intp)
    into_rng, fresh_rng = stream(6, "poisson-out"), stream(6, "poisson-out")
    for size in sizes:
        out = buffers[0][:size], buffers[1][:size]
        got = poisson_sample_array(mu, into_rng, size, out=out)
        assert got is out[1]
        assert np.array_equal(got, poisson_sample_array(mu, fresh_rng, size))
        assert into_rng.bit_generator.state == fresh_rng.bit_generator.state
    for short in ((buffers[0][:10], buffers[1]), (buffers[0], buffers[1][:10])):
        with pytest.raises(ValueError):
            poisson_sample_array(mu, into_rng, chunk, out=short)


def test_poisson_array_zero_mean_consumes_stream():
    a = stream(5, "zero-consume")
    b = stream(5, "zero-consume")
    out = poisson_sample_array(0.0, a, 100)
    assert not out.any()
    b.random(100)
    assert a.random() == b.random()


def test_poisson_moments_at_mean_five():
    rng = stream(42, "poisson-moments")
    draws = poisson_sample_array(5.0, rng, 10**6)
    assert abs(draws.mean() - 5.0) < 0.007
    assert abs(draws.var() - 5.0) < 0.05


def test_poisson_pmf_at_five():
    # P(X = 5) for mean 5 is e^-5 * 5^5 / 5!
    exact = math.exp(-5.0) * 5.0**5 / math.factorial(5)
    assert abs(exact - 0.1755) < 5e-4
    rng = stream(42, "poisson-pmf")
    draws = poisson_sample_array(5.0, rng, 10**6)
    empirical = np.mean(draws == 5)
    assert abs(empirical - exact) < 0.002


def test_poisson_pmf_support_leaves_a_tail_below_1e_16():
    for mu in (0.0, 1e-6, 0.1, 0.5, 2.5, 5.0, 20.0, 30.0, 100.0, 700.0):
        pmf = poisson_pmf(mu)
        k = np.arange(pmf.size)
        # The recurrence compounds one rounding per term, up to ~930 terms.
        assert np.allclose(pmf, sp_poisson.pmf(k, mu), rtol=1e-11, atol=0.0)
        assert sp_poisson.sf(pmf.size - 1, mu) < 1e-16
    with pytest.raises(ValueError):
        poisson_pmf(-1.0)


def test_poisson_rejects_bad_means():
    rng = stream(0, "bad-mean")
    with pytest.raises(ValueError):
        poisson_sample(-1.0, rng)
    with pytest.raises(ValueError):
        poisson_sample(float("nan"), rng)
    with pytest.raises(ValueError):
        poisson_sample(1e6, rng)
    with pytest.raises(ValueError):
        poisson_sample_array(2.0, rng, -1)


@given(mu=st.floats(min_value=0.01, max_value=50.0), seed=st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_poisson_array_agrees_with_quantile_oracle(mu, seed):
    rng = stream(seed, "hyp-poisson")
    got = poisson_sample_array(mu, rng, 64)
    u = stream(seed, "hyp-poisson").random(64)
    expected = sp_poisson.ppf(u, mu).astype(np.int64)
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------- histogram

def test_histogram_counts_and_overflow():
    h = Histogram.from_samples([0, 1, 1, 2, 25], max_bin=3)
    assert h.max_bin == 3
    assert h.total == 5
    assert list(h.counts) == [1, 2, 1, 1]  # 25 lands in the overflow bin


def test_histogram_overflow_off_rejects_large_samples():
    with pytest.raises(ValueError):
        Histogram.from_samples([0, 9], max_bin=3, overflow=False)


def test_histogram_frequencies_sum_to_one():
    h = Histogram.from_samples([0, 1, 2, 3, 4, 5], max_bin=4)
    assert math.isclose(frequencies(h).sum(), 1.0)


def test_histogram_empty_frequencies_are_zero():
    h = Histogram.from_samples([], max_bin=4)
    assert not frequencies(h).any()


def test_histogram_rebin_conserves_total():
    h = Histogram.from_samples(list(range(12)), max_bin=10)
    r = rebin(h, 4)
    assert r.total == h.total
    assert r.max_bin == 4
    assert list(r.counts) == [1, 1, 1, 1, 8]


def test_histogram_rejects_inconsistent_total():
    with pytest.raises(ValueError):
        Histogram(counts=np.array([1, 2]), total=5)


def test_histogram_csv_round_trip():
    h = Histogram.from_samples([0, 0, 1, 3, 3, 3], max_bin=5)
    again = from_csv(to_csv(h))
    assert np.array_equal(again.counts, h.counts)
    assert again.total == h.total


def test_histogram_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        from_csv("a,b\n0,1\n")


@given(st.lists(st.integers(0, 40), min_size=1, max_size=200), st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_histogram_total_always_conserved(samples, max_bin):
    h = Histogram.from_samples(samples, max_bin=max_bin)
    assert h.total == len(samples)
    assert int(h.counts.sum()) == len(samples)
    r = rebin(h, max_bin // 2) if max_bin >= 2 else h
    assert r.total == len(samples)


# ---------------------------------------------------------------- z-scores

def test_zscore_identical_histograms_is_zero():
    h = Histogram.from_samples([0, 1, 1, 2, 3, 5, 8], max_bin=10)
    z = zscore_compare(h, h)
    assert np.abs(z).max() == 0.0
    assert not z.flags.writeable


def test_zscore_separates_poisson_means():
    n = 10**5
    a = Histogram.from_samples(poisson_sample_array(5.0, stream(1, "z-a"), n))
    b = Histogram.from_samples(poisson_sample_array(2.5, stream(1, "z-b"), n))
    shifted = Histogram.from_samples(
        np.maximum(poisson_sample_array(5.0, stream(1, "z-c"), n) - 1, 0)
    )
    z_half = np.abs(zscore_compare(b, a)).max()
    z_shift = np.abs(zscore_compare(shifted, a)).max()
    assert z_half > 50.0
    # removing one photon perturbs the shape far less than halving the mean
    assert z_shift < z_half


def test_zscore_rejects_misaligned_bins():
    a = Histogram.from_samples([1, 2], max_bin=4)
    b = Histogram.from_samples([1, 2], max_bin=6)
    with pytest.raises(ValueError):
        zscore_compare(a, b)
    with pytest.raises(ValueError):
        zscore_compare(a, Histogram.from_samples([], max_bin=4))


@given(
    st.lists(st.integers(0, 12), min_size=2, max_size=300),
    st.lists(st.integers(0, 12), min_size=2, max_size=300),
)
@settings(max_examples=100, deadline=None)
def test_zscore_antisymmetry(xs, ys):
    a = Histogram.from_samples(xs, max_bin=12)
    b = Histogram.from_samples(ys, max_bin=12)
    fwd = zscore_compare(a, b)
    rev = zscore_compare(b, a)
    assert np.allclose(fwd, -rev, atol=1e-12)


# ---------------------------------------------------------------- chi-square

def test_chi_square_calibration():
    # Testing samples against their own distribution should rarely reject.
    hits = 0
    for seed in range(100):
        draws = poisson_sample_array(5.0, stream(seed, "gof-calibration"), 4000)
        h = Histogram.from_samples(draws, max_bin=15)
        p = chi_square_gof(h, lambda k: sp_poisson.pmf(k, 5.0))
        if p > 0.01:
            hits += 1
    assert hits >= 98


def test_chi_square_gross_mismatch():
    draws = poisson_sample_array(5.0, stream(9, "gof-mismatch"), 10**5)
    h = Histogram.from_samples(draws, max_bin=15)
    p = chi_square_gof(h, lambda k: sp_poisson.pmf(k, 2.5))
    assert p < 1e-6


@pytest.mark.parametrize(
    "counts", [[10, 10], [30, 10, 20], [5, 9, 13, 7, 16], [100, 0, 50, 25, 25, 0, 50]]
)
def test_chi_square_equals_scipy_chi2_sf(counts):
    # A uniform pmf over the bins with no overflow keeps every bin (each
    # expects >= 5), so the statistic and dof follow by hand.
    counts = np.array(counts)
    h = Histogram(counts=counts, total=int(counts.sum()), overflow=False)
    expected = counts.sum() / counts.size
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p = chi_square_gof(h, lambda k: 1.0 / counts.size)
    assert p == pytest.approx(sp_chi2.sf(stat, counts.size - 1), rel=1e-12, abs=0)


def test_chi_square_rejects_degenerate_input():
    with pytest.raises(ValueError):
        chi_square_gof(Histogram.from_samples([], max_bin=5), lambda k: 0.1)
    one_bin = Histogram(counts=np.array([4]), total=4)
    with pytest.raises(ValueError):
        chi_square_gof(one_bin, lambda k: 1.0)


# ---------------------------------------------------------------- CHSH

def test_chsh_estimate_hand_case():
    # Perfect correlation on every setting pair: |1 - 1 + 1 + 1| = 2.
    xs = [0, 0, 1, 1]
    ys = [0, 1, 0, 1]
    ps = [1, 1, 1, 1]
    assert chsh_estimate(xs, ys, ps) == pytest.approx(2.0)
    # Flip the (0,1) product and the combination reaches 4.
    assert chsh_estimate(xs, ys, [1, -1, 1, 1]) == pytest.approx(4.0)


def test_chsh_estimate_validation():
    with pytest.raises(ValueError):
        chsh_estimate([], [], [])
    with pytest.raises(ValueError):
        chsh_estimate([0, 1], [0], [1, 1])
    with pytest.raises(ValueError):
        chsh_estimate([0, 2], [0, 1], [1, 1])
    with pytest.raises(ValueError):
        chsh_estimate([0, 0], [0, 1], [1, 1])  # no samples for (1, *)
