"""Tests for the attack models and their experiment drivers."""
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as sp_binom
from scipy.stats import poisson as sp_poisson

from qntl.attacks import (
    _CHUNK,
    PnsStrategy,
    PnsVariant,
    TrojanPolicy,
    TrojanVariant,
    _block_failure_probability,
    _series_histogram,
    iid_logical_error_rate,
    interlock_detection_rate,
    interlock_exchange,
    pns_experiment,
    pns_transform_counts,
    probe_infiltrate,
    qec_bitflip_experiment,
    trojan_gain_experiment,
)
from qntl.cli.runners import get_experiment
from qntl.quantum import Basis, basis_state, bell_pair, encoded_qubit, measure_rotated
from qntl.stats import Histogram, poisson_sample_array, stream

from distcheck import chi_square_gof, same_distribution_p
from histtools import frequencies
from oracles import apply_phase


# ---------------------------------------------------------------- splitting

def test_pns_always_minus_one_takes_exactly_one():
    counts = np.array([5, 0])
    fwd = pns_transform_counts(counts, PnsStrategy.always_minus_one())
    assert (counts - fwd).tolist() == [1, 0]
    assert fwd.tolist() == [4, 0]


def test_pns_no_eve_is_transparent():
    counts = np.array([3, 0])
    fwd = pns_transform_counts(counts, PnsStrategy.no_eve())
    assert (counts - fwd).tolist() == [0, 0]
    assert fwd.tolist() == [3, 0]


def test_pns_block_singles_semantics():
    counts, want_fwd = [0, 1, 2, 5], [0, 0, 1, 1]
    fwd = pns_transform_counts(counts, PnsStrategy.block_singles())
    assert fwd.tolist() == want_fwd


def test_pns_random_intercept_thins_poisson():
    strategy = PnsStrategy.random_intercept(0.5)
    result = pns_experiment(10**5, 5.0, [strategy], stream(42, "pns-thin"), max_bin=12)
    assert chi_square_gof(result.histograms["random-0.5"], lambda k: sp_poisson.pmf(k, 2.5)) > 0.01


def test_pns_strategy_validation():
    with pytest.raises(ValueError):
        PnsStrategy.random_intercept(1.5)
    assert PnsStrategy.random_intercept(0.25).label() == "random-0.25"
    assert PnsStrategy.always_minus_one().label() == "always-minus-one"
    # Random intercept skims first; its count map is the identity.
    assert pns_transform_counts([3, 0], PnsStrategy.random_intercept(0.5)).tolist() == [3, 0]
    # Only random intercept skims, so another variant's probability is refused.
    assert PnsStrategy.block_singles().intercept_probability == 0.0
    for variant in (PnsVariant.NO_EVE, PnsVariant.ALWAYS_MINUS_ONE, PnsVariant.BLOCK_SINGLES):
        with pytest.raises(ValueError):
            PnsStrategy(variant, 0.5)


@given(
    counts=st.lists(st.integers(0, 30), min_size=1, max_size=200),
    q=st.floats(0.0, 1.0),
    mu=st.floats(0.0, 30.0),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_pns_photon_conservation(counts, q, mu, seed):
    arr = np.array(counts)
    for strategy in (
        PnsStrategy.no_eve(),
        PnsStrategy.always_minus_one(),
        PnsStrategy.block_singles(),
    ):
        fwd = pns_transform_counts(arr, strategy)
        taken = arr - fwd
        assert taken.min() >= 0 and fwd.min() >= 0
    # Random intercept draws the forwarded counts by Poisson splitting on the
    # stream the honest source would emit from, by inverting the same
    # uniforms: no pulse forwards more photons than it would have carried,
    # and q = 0 forwards every one.
    n = 10_000
    emitted = pns_experiment(n, mu, [PnsStrategy.no_eve()], stream(seed, "pns-conserve"))
    split = pns_experiment(n, mu, [PnsStrategy.random_intercept(q)], stream(seed, "pns-conserve"))
    full = np.cumsum(emitted.histograms["no-eve"].counts)
    kept = np.cumsum(split.histograms[f"random-{q:g}"].counts)
    assert np.all(kept >= full)
    if q == 0.0:
        assert np.array_equal(kept, full)


@pytest.mark.parametrize("mu", [0.0, 0.1, 0.5, 2.5, 5.0, 12.0, 20.0])
def test_poisson_splitting_identity(mu):
    # Thinning a Poisson(mu) count with survival s is exactly Poisson(mu s):
    # sum over n of Poisson(n; mu) Binom(m; n, s) = Poisson(m; mu s).  The
    # sum stops where the Poisson(mu) tail is below 1e-17.
    n = np.arange(int(mu + 20.0 * math.sqrt(mu) + 40.0))
    m = n[:, None]
    weights = sp_poisson.pmf(n, mu)
    assert sp_poisson.sf(n[-1], mu) < 1e-17
    for s in np.linspace(0.0, 1.0, 11):
        mixed = (weights * sp_binom.pmf(m, n, s)).sum(axis=1)
        assert np.allclose(mixed, sp_poisson.pmf(n, mu * s), rtol=0.0, atol=1e-12)


def reference_thinned_counts(mu, q, rng, size):
    """Random intercept as it was drawn before Poisson splitting: every
    emitted photon, then a binomial of the ones skimmed."""
    counts = poisson_sample_array(mu, rng, size)
    return counts - rng.binomial(counts, q)


def test_pns_splitting_matches_binomial_thinning():
    # Family-wise alpha 0.01 over two (mu, q) points, so each p > 0.005;
    # ten seeds of 5 * 10^4 pulses a side.
    alpha, seeds, n = 0.01 / 2, range(10), 50_000
    for mu, q in ((5.0, 0.5), (20.0, 0.3)):
        strategy = PnsStrategy.random_intercept(q)

        def reference(rng):
            return Histogram.from_samples(reference_thinned_counts(mu, q, rng, n), 60).counts

        def candidate(rng):
            return pns_experiment(n, mu, [strategy], rng, max_bin=60).histograms[
                strategy.label()].counts

        p = same_distribution_p(reference, candidate, seeds, f"pns-split-{mu}-{q}")
        assert p > alpha, f"mu={mu} q={q}: p={p:.3g}"


def test_pns_experiment_distributions():
    strategies = [
        PnsStrategy.no_eve(),
        PnsStrategy.random_intercept(0.5),
        PnsStrategy.always_minus_one(),
    ]
    result = pns_experiment(10**5, 5.0, strategies, stream(42, "pns-exp"))
    # receiving zero photons under always-minus-one needs an emitted count
    # of 0 or 1: P(X <= 1) = 6 e^-5
    p0 = frequencies(result.histograms["always-minus-one"])[0]
    assert abs(p0 - 6.0 * math.exp(-5.0)) < 0.004
    # a differently seeded honest run is statistically flat against baseline
    assert result.max_abs_z("no-eve") < 4.0
    # taking half the photons distorts far more than taking one
    assert result.max_abs_z("random-0.5") > result.max_abs_z("always-minus-one")
    assert result.max_abs_z("always-minus-one") > 4.0


def reference_pns_histograms(n_pulses, mu, strategies, rng, max_bin=20):
    """pns as it was drawn before chunking: one whole array of counts per
    series, then one histogram of it."""
    children = rng.spawn(len(strategies) + 1)
    hists = [Histogram.from_samples(poisson_sample_array(mu, children[0], n_pulses), max_bin)]
    for strategy, child in zip(strategies, children[1:]):
        if strategy.variant is PnsVariant.RANDOM_INTERCEPT:
            survival = 1.0 - strategy.intercept_probability
            forwarded = poisson_sample_array(mu * survival, child, n_pulses)
        else:
            forwarded = pns_transform_counts(poisson_sample_array(mu, child, n_pulses), strategy)
        hists.append(Histogram.from_samples(forwarded, max_bin))
    return hists


@pytest.mark.parametrize("n", [10_000, _CHUNK, _CHUNK + 1, 3 * _CHUNK - 1])
def test_pns_chunks_match_one_whole_draw(n):
    strategies = [
        PnsStrategy.no_eve(),
        PnsStrategy.random_intercept(0.25),
        PnsStrategy.always_minus_one(),
        PnsStrategy.block_singles(),
    ]
    want = reference_pns_histograms(n, 5.0, strategies, stream(4, "pns-chunks"))
    result = pns_experiment(n, 5.0, strategies, stream(4, "pns-chunks"))
    got = [result.baseline, *(result.histograms[s.label()] for s in strategies)]
    for g, w in zip(got, want):
        assert np.array_equal(g.counts, w.counts)
        assert g.total == w.total == n
        assert g.overflow and w.overflow
    # Each series leaves its stream where one whole draw would.
    for strategy in strategies:
        chunked, whole = stream(5, "pns-state"), stream(5, "pns-state")
        _series_histogram(2.5, strategy, chunked, n, 20)
        poisson_sample_array(2.5, whole, n)
        assert chunked.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("max_bin", [0, 1, 2, 4, 20])
def test_mapped_histograms_equal_the_per_pulse_transform_at_the_overflow_edge(max_bin):
    # At mean 5 about 17% of pulses carry 5 photons and 38% more than 5, so
    # small max_bin values put many pulses at max_bin and max_bin + 1, which
    # always-minus-one sends to different bins.  Mapping each series' binned
    # histogram must still equal mapping every pulse.
    strategies = [
        PnsStrategy.no_eve(),
        PnsStrategy.random_intercept(0.25),
        PnsStrategy.always_minus_one(),
        PnsStrategy.block_singles(),
    ]
    n = _CHUNK + 7
    want = reference_pns_histograms(n, 5.0, strategies, stream(8, "pns-edge"), max_bin)
    result = pns_experiment(n, 5.0, strategies, stream(8, "pns-edge"), max_bin=max_bin)
    got = [result.baseline, *(result.histograms[s.label()] for s in strategies)]
    for g, w in zip(got, want):
        assert np.array_equal(g.counts, w.counts)


def test_pns_experiment_validation():
    rng = stream(0, "pns-exp-err")
    with pytest.raises(ValueError):
        pns_experiment(100, 5.0, [PnsStrategy.no_eve()], rng)
    with pytest.raises(ValueError):
        pns_experiment(10**4, 5.0, [], rng)
    with pytest.raises(ValueError):
        pns_experiment(10**4, 5.0, [PnsStrategy.no_eve(), PnsStrategy.no_eve()], rng)
    with pytest.raises(ValueError, match="max_bin"):
        pns_experiment(10**4, 5.0, [PnsStrategy.no_eve()], rng, max_bin=-1)
    # Bin 0 alone is valid: every pulse lands in the tail bin.
    result = pns_experiment(10**4, 5.0, [PnsStrategy.no_eve()], rng, max_bin=0)
    assert result.baseline.counts.tolist() == [10**4]


# ---------------------------------------------------------------- trojan horse

# The per-photon reference: every photon's bases, phase and gain, as the
# kernel drew them before it drew category counts per block.  Basis tags: +1
# rectilinear, -1 diagonal.
BASIS_RECT = 1
BASIS_DIAG = -1


def photon_gain_increment(eve_basis, alice_basis, phase_shift):
    """Expected information gain from one probed photon: the probability
    that the prober reads the sender's bit."""
    if eve_basis not in (BASIS_RECT, BASIS_DIAG) or alice_basis not in (BASIS_RECT, BASIS_DIAG):
        raise ValueError("basis tags must be +1 (rectilinear) or -1 (diagonal)")
    if eve_basis != alice_basis:
        return 0.5
    if alice_basis == BASIS_RECT:
        return 1.0
    return math.cos(0.5 * phase_shift) ** 2


@dataclass(frozen=True, eq=False)
class GainLedger:
    """Per-photon gain bookkeeping: every row carries the basis pair and the
    phase shift that produced its gain."""

    per_photon_gain: np.ndarray
    eve_bases: np.ndarray
    alice_bases: np.ndarray
    phase_shifts: np.ndarray

    def __post_init__(self):
        columns = (self.per_photon_gain, self.eve_bases, self.alice_bases, self.phase_shifts)
        shapes = {np.shape(column) for column in columns}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("ledger columns must be 1-d arrays of equal length")

    def cumulative_series(self):
        return np.cumsum(self.per_photon_gain)

    def recompute_gain(self, index):
        return photon_gain_increment(
            int(self.eve_bases[index]),
            int(self.alice_bases[index]),
            float(self.phase_shifts[index]),
        )


def reference_trojan_ledger(n_photons, policy, rng):
    """Draw every photon's sender basis, phase and prober guess, then its gain."""
    diag = rng.integers(0, 4, size=n_photons) >= 2
    if policy.variant is TrojanVariant.RANDOM_SHIFT:
        shifts = np.zeros(n_photons)
        diagonal = np.flatnonzero(diag)
        shifts[diagonal] = rng.random(diagonal.size) * (2.0 * math.pi)
    else:
        shifts = diag * policy.shift
    eve_diag = rng.integers(0, 2, size=n_photons) == 1
    correct = eve_diag == diag
    gains = 0.5 + 0.5 * correct
    probed = np.flatnonzero(correct & diag)
    gains[probed] = np.cos(0.5 * shifts[probed]) ** 2
    return GainLedger(
        per_photon_gain=gains,
        eve_bases=1 - 2 * eve_diag.astype(np.int8),
        alice_bases=1 - 2 * diag.astype(np.int8),
        phase_shifts=shifts,
    )


def per_photon_gains(policy, rng, n):
    """The kernel read after every photon, as per-photon increments."""
    return np.diff(trojan_gain_experiment(np.arange(1, n + 1), policy, rng), prepend=0.0)


def test_gain_increment_case_table():
    # wrong basis guess is worth half a bit regardless of phase
    assert photon_gain_increment(BASIS_RECT, BASIS_DIAG, 0.0) == 0.5
    assert photon_gain_increment(BASIS_DIAG, BASIS_RECT, 1.0) == 0.5
    # correct rectilinear guess reads perfectly; phase is invisible there
    assert photon_gain_increment(BASIS_RECT, BASIS_RECT, 2.0) == 1.0
    # correct diagonal guess: perfect without shift, coin flip with pi/2,
    # always wrong with pi
    assert photon_gain_increment(BASIS_DIAG, BASIS_DIAG, 0.0) == 1.0
    assert photon_gain_increment(BASIS_DIAG, BASIS_DIAG, math.pi / 2) == pytest.approx(0.5)
    assert photon_gain_increment(BASIS_DIAG, BASIS_DIAG, math.pi) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        photon_gain_increment(0, BASIS_RECT, 0.0)


def born_read_probability(bit, theta):
    """Probability of reading ``bit`` back from the phase-shifted diagonal
    state, from the state engine: project onto the diagonal eigenvector."""
    state = apply_phase(encoded_qubit(bit, Basis.DIAGONAL), 0, theta)
    angle = Basis.DIAGONAL.analyzer_angle
    c, s = math.cos(angle), math.sin(angle)
    u0, u1 = (c, s) if bit == 0 else (-s, c)
    return abs(u0 * state.amplitudes[0] + u1 * state.amplitudes[1]) ** 2


THETA_GRID = [2 * math.pi * k / 72 for k in range(72)]


@pytest.mark.parametrize("bit", [0, 1])
def test_gain_increment_is_the_born_probability(bit):
    for theta in THETA_GRID:
        born = born_read_probability(bit, theta)
        assert abs(photon_gain_increment(BASIS_DIAG, BASIS_DIAG, theta) - born) <= 1e-12


def test_trojan_kernel_gains_are_the_born_probability():
    # A twin stream replays the kernel's first draw, the per-photon case:
    # 0 wrong guess, 1 correct rectilinear, 2 correct diagonal.
    n = 400
    for k, theta in enumerate(THETA_GRID):
        gains = per_photon_gains(TrojanPolicy.fixed_shift(theta), stream(k, "trojan-born"), n)
        cases = stream(k, "trojan-born").multinomial(np.ones(n, dtype=np.int64), [0.5, 0.25, 0.25])
        case = cases.argmax(axis=1)
        assert np.count_nonzero(case == 2) > 0
        expected = np.choose(case, [0.5, 1.0, born_read_probability(0, theta)])
        assert np.all(np.abs(gains - expected) <= 1e-12)


def expected_slope(shift):
    """Average gain over the uniform (state, guess) case table."""
    total = 0.0
    for alice in (BASIS_RECT, BASIS_RECT, BASIS_DIAG, BASIS_DIAG):
        for eve in (BASIS_RECT, BASIS_DIAG):
            total += photon_gain_increment(eve, alice, shift if alice == BASIS_DIAG else 0.0)
    return total / 8.0


def test_trojan_gain_slopes():
    assert expected_slope(0.0) == pytest.approx(0.75)
    assert expected_slope(math.pi / 2) == pytest.approx(0.625)
    n = 10**5
    [plain] = trojan_gain_experiment([n], TrojanPolicy.no_shift(), stream(42, "trojan-plain"))
    [fixed] = trojan_gain_experiment(
        [n], TrojanPolicy.fixed_shift(math.pi / 2), stream(42, "trojan-fixed")
    )
    [randomized] = trojan_gain_experiment(
        [n], TrojanPolicy.random_shift(), stream(42, "trojan-random")
    )
    assert abs(plain / n - 0.75) < 0.0075
    assert abs(fixed / n - 0.625) < 0.00625
    assert abs(randomized / n - 0.625) < 0.00625
    # the defenses are indistinguishable from each other ...
    assert abs(fixed - randomized) / n < 0.01
    # ... and both cut the slope by an eighth
    separation = (plain - fixed) / n
    assert abs(separation - 0.125) < 0.005


def test_trojan_increments_come_from_the_case_table():
    gains = per_photon_gains(TrojanPolicy.fixed_shift(math.pi / 2), stream(7, "trojan-inc"), 2000)
    assert gains.size == 2000
    assert set(np.round(gains, 12)) == {0.5, 1.0}


def test_trojan_ledger_recomputes_entry_by_entry():
    ledger = reference_trojan_ledger(500, TrojanPolicy.random_shift(), stream(8, "trojan-led"))
    for i in range(0, 500, 17):
        assert ledger.recompute_gain(i) == pytest.approx(float(ledger.per_photon_gain[i]))


# Block increments of five photons span [0, 5]; bins of width 1/4 centred
# on the multiples of 1/4 keep the no-shift and quarter-turn atoms (sums of
# halves) away from the bin edges.
TROJAN_BLOCK = 5
TROJAN_BINS = np.arange(-0.125, TROJAN_BLOCK + 0.25, 0.25)


def test_trojan_matches_per_photon_reference():
    # Family-wise alpha 0.01 over four policies, so each p > 0.0025; ten
    # seeds of 20,000 photons a side, read every five photons, so the
    # kernel's multi-photon blocks and its phase bookkeeping are both used.
    alpha, seeds, n = 0.01 / 4, range(10), 20_000
    checkpoints = np.arange(TROJAN_BLOCK, n + 1, TROJAN_BLOCK)
    policies = (
        TrojanPolicy.no_shift(),
        TrojanPolicy.fixed_shift(math.pi / 2),
        TrojanPolicy.fixed_shift(1.0),
        TrojanPolicy.random_shift(),
    )
    for policy in policies:

        def reference(rng):
            series = reference_trojan_ledger(n, policy, rng).cumulative_series()
            return np.histogram(np.diff(series[checkpoints - 1], prepend=0.0), TROJAN_BINS)[0]

        def candidate(rng):
            series = trojan_gain_experiment(checkpoints, policy, rng)
            return np.histogram(np.diff(series, prepend=0.0), TROJAN_BINS)[0]

        p = same_distribution_p(reference, candidate, seeds, f"trojan-{policy.label()}")
        assert p > alpha, f"{policy.label()}: p={p:.3g}"


def test_random_shift_gains_are_the_phase_formula_bit_for_bit():
    # The chunked in-place phases read cos(0.5 * (u * 2 pi)) ** 2 summed over
    # one whole draw, and leave the stream where that draw does: at sparse
    # checkpoints within one chunk, at every photon across more than three
    # chunks (so every chunk boundary is read), and with no correct diagonal
    # guess, where no phase is drawn.
    cases = [
        (3, np.array([1, 7, 500, 20_000, 20_001])),
        (3, np.arange(1, 16 * _CHUNK + 1)),
        (1, np.array([1, 2, 3, 4])),
    ]
    phase_counts = []
    for seed, checkpoints in cases:
        rng = stream(seed, "phases")
        got = trojan_gain_experiment(checkpoints, TrojanPolicy.random_shift(), rng)
        want = stream(seed, "phases")
        wrong, rect, diag = want.multinomial(np.diff(checkpoints, prepend=0), [0.5, 0.25, 0.25]).T
        diag_seen = np.cumsum(diag)
        phases = want.random(int(diag_seen[-1])) * (2.0 * math.pi)
        read = np.concatenate(([0.0], np.cumsum(np.cos(0.5 * phases) ** 2)))
        assert np.array_equal(got, np.cumsum(0.5 * wrong + rect) + read[diag_seen])
        assert rng.bit_generator.state == want.bit_generator.state
        phase_counts.append(int(diag_seen[-1]))
    assert phase_counts[1] > 3 * _CHUNK and phase_counts[2] == 0


def test_random_shift_memory_does_not_grow_with_photons():
    # 10**7 photons hold about 2.5 * 10**6 phases, 20 MB as one array; the
    # chunk buffer and the per-checkpoint arrays stay far below 2 MB.
    checkpoints = np.arange(1, 1001) * 10_000
    rng = stream(0, "trojan-memory")
    tracemalloc.start()
    try:
        trojan_gain_experiment(checkpoints, TrojanPolicy.random_shift(), rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"peak {peak} bytes"


def test_trojan_policy_validation():
    with pytest.raises(ValueError):
        TrojanPolicy.fixed_shift(-0.5)
    with pytest.raises(ValueError):
        TrojanPolicy.fixed_shift(2 * math.pi)
    for checkpoints in ([], [0], [5, 5], [5, 3], [[1, 2]]):
        with pytest.raises(ValueError):
            trojan_gain_experiment(checkpoints, TrojanPolicy.no_shift(), stream(0, "x"))
    with pytest.raises(ValueError):
        GainLedger(
            per_photon_gain=np.ones(3),
            eve_bases=np.ones(2, dtype=np.int8),
            alice_bases=np.ones(3, dtype=np.int8),
            phase_shifts=np.zeros(3),
        )
    assert TrojanPolicy.fixed_shift(1.5).label() == "fixed-1.5"
    # Only fixed-shift reads its phase: a no-shift policy at 2.0 would be
    # labelled no-shift but gain 0.573 a photon, not 0.75.
    for variant in (TrojanVariant.NO_SHIFT, TrojanVariant.RANDOM_SHIFT):
        with pytest.raises(ValueError):
            TrojanPolicy(variant, 2.0)


# ---------------------------------------------------------------- probe

def test_probe_builds_ghz_from_entangled_pair():
    out = probe_infiltrate(bell_pair())
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1.0 / math.sqrt(2.0)
    assert np.allclose(out.amplitudes, expected)


def test_probe_gains_nothing_from_product_state():
    out = probe_infiltrate(basis_state("00"))
    assert abs(out.amplitudes[0]) ** 2 == pytest.approx(1.0)


def test_probe_duplicates_receiver_bit():
    for trial in range(200):
        rng = stream(11, f"probe-dup-{trial}")
        state = probe_infiltrate(bell_pair())
        bob = measure_rotated(state, 1, Basis.RECTILINEAR.analyzer_angle, rng)
        eve = measure_rotated(bob.post_state, 2, Basis.RECTILINEAR.analyzer_angle, rng)
        assert eve.bit == bob.bit


def test_probe_rejects_wrong_arity():
    with pytest.raises(ValueError):
        probe_infiltrate(basis_state("000"))


# ---------------------------------------------------------------- interlock

def test_interlock_honest_exchange_is_clean():
    # An exchange whose relayed second half equals the real one looks like an
    # honest exchange and is never flagged; every other one is.  A twin
    # stream replays the kernel's one draw: the clean exchanges number
    # Binomial(trials, 2^(-k/2)), the caught ones the rest, and nothing
    # else is drawn.
    k, trials = 4, 1000
    rng, twin = stream(1, "interlock-h"), stream(1, "interlock-h")
    caught = interlock_exchange(k, trials, rng)
    clean = trials - int(twin.binomial(trials, 1.0 - 2.0 ** (-k / 2)))
    assert 0 < clean < trials
    assert caught == trials - clean
    assert rng.bit_generator.state == twin.bit_generator.state


def test_interlock_detection_rates():
    assert interlock_detection_rate(2) == 0.5
    assert interlock_detection_rate(64) == 1.0 - 2.0**-32
    trials = 10**4
    caught = interlock_exchange(2, trials, stream(0, "interlock-k2"))
    assert abs(caught / trials - 0.5) < 0.02
    assert interlock_exchange(64, trials, stream(0, "interlock-k64")) == trials


def test_interlock_memory_does_not_grow_with_trials():
    # One count is drawn per message length, so 10^5 exchanges of 64-bit
    # messages hold no per-exchange array (which would take 9.6 MB as int8).
    rng = stream(0, "interlock-memory")
    tracemalloc.start()
    try:
        interlock_exchange(64, 10**5, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000, f"peak {peak} bytes"


def test_interlock_validation():
    rng = stream(0, "interlock-err")
    for k in (0, 7):
        with pytest.raises(ValueError, match=f"even integer >= 2, got {k}$"):
            interlock_exchange(k, 10, rng)
    with pytest.raises(ValueError, match="got 0$"):
        interlock_exchange(8, 0, rng)
    with pytest.raises(ValueError, match="got 3$"):
        interlock_detection_rate(3)


def reference_interlock_exchange(message_bits, rng):
    """One relayed exchange as it ran before the batched kernel: both
    parties' messages, then the relay's guess at the sender's second half.
    Returns whether the relay was caught."""
    half = message_bits // 2
    sent = rng.integers(0, 2, size=message_bits, dtype=np.int8)
    rng.integers(0, 2, size=message_bits, dtype=np.int8)  # the peer's message
    guess = rng.integers(0, 2, size=half, dtype=np.int8)
    return guess.tobytes() != sent[half:].tobytes()


def test_interlock_matches_per_call_reference():
    # Family-wise alpha 0.01 over three message lengths, so each p > 0.01/3;
    # ten seeds of 1,000 exchanges a side.
    alpha, seeds, trials = 0.01 / 3, range(10), 1000
    for k in (2, 8, 16):

        def reference(rng):
            caught = sum(reference_interlock_exchange(k, rng) for _ in range(trials))
            return np.array([trials - caught, caught])

        def candidate(rng):
            caught = interlock_exchange(k, trials, rng)
            return np.array([trials - caught, caught])

        p = same_distribution_p(reference, candidate, seeds, f"interlock-k{k}")
        assert p > alpha, f"k={k}: p={p:.3g}"


# ---------------------------------------------------------------- bit-flip code

def test_iid_rate_matches_pattern_enumeration():
    # independent oracle: walk all 8 flip patterns, weight by probability,
    # count the ones that change the majority
    def enumerated(p):
        total = 0.0
        for pattern in range(8):
            flips = [(pattern >> i) & 1 for i in range(3)]
            prob = 1.0
            for f in flips:
                prob *= p if f else (1.0 - p)
            if sum(flips) >= 2:
                total += prob
        return total

    for p in (0.0, 0.05, 0.1, 0.3, 0.5, 1.0):
        assert iid_logical_error_rate(p) == pytest.approx(enumerated(p), abs=1e-12)
        assert _block_failure_probability(p, "iid") == pytest.approx(3 * p**2 - 2 * p**3, abs=1e-12)
        assert _block_failure_probability(p, "burst-2") == p


def reference_qec_errors(n_blocks, p, mode, rng):
    """Encode, corrupt and majority-decode every block: the per-block
    reference for the kernel, which draws the error count directly."""
    logical = rng.integers(0, 2, size=n_blocks, dtype=np.int8)
    words = np.repeat(logical[:, None], 3, axis=1)
    if mode == "iid":
        flips = rng.random((n_blocks, 3)) < p
    else:
        fires = rng.random(n_blocks) < p
        first = rng.integers(0, 2, size=n_blocks)
        flips = np.zeros((n_blocks, 3), dtype=bool)
        rows = np.nonzero(fires)[0]
        flips[rows, first[rows]] = True
        flips[rows, first[rows] + 1] = True
    decoded = ((words ^ flips).sum(axis=1) >= 2).astype(np.int8)
    return int(np.count_nonzero(decoded != logical))


QEC_CELLS = [("iid", 0.05), ("iid", 0.3), ("burst-2", 0.05), ("burst-2", 0.3)]


def test_qec_counts_match_decoding_reference():
    # Family-wise alpha 0.01 over four (mode, p) cells, so each p > 0.0025;
    # ten seeds of 20,000 blocks a side.
    alpha, seeds, n = 0.01 / 4, range(10), 20_000
    for mode, flip in QEC_CELLS:

        def reference(rng):
            errors = reference_qec_errors(n, flip, mode, rng)
            return np.array([n - errors, errors])

        def candidate(rng):
            errors = qec_bitflip_experiment(n, flip, mode, rng)
            return np.array([n - errors, errors])

        p = same_distribution_p(reference, candidate, seeds, f"qec-{mode}-{flip}")
        assert p > alpha, f"{mode} p={flip}: p={p:.3g}"


def test_qec_zero_noise_is_error_free():
    assert qec_bitflip_experiment(5000, 0.0, "iid", stream(0, "qec-clean")) == 0


def test_qec_iid_rate_at_ten_percent():
    errors = qec_bitflip_experiment(10**6, 0.1, "iid", stream(42, "qec-iid"))
    assert abs(errors / 10**6 - 0.028) < 0.001


def test_qec_burst_defeats_majority_vote():
    # a fired burst flips two bits, which always decodes wrongly
    for p in (0.05, 0.2):
        errors = qec_bitflip_experiment(10**5, p, "burst-2", stream(9, f"qec-burst-{p}"))
        sigma = math.sqrt(p * (1.0 - p) / 10**5)
        assert abs(errors / 10**5 - p) < 3 * sigma


def test_qec_reports_both_breakeven_readings():
    # the qec report surfaces both readings and chooses neither as a verdict
    params = {"flip_probs": [0.1], "blocks": 100, "modes": ["iid"]}
    _, _, summary = get_experiment("qec").run(params, 0)
    assert summary["majority_crossover_probability"] == 0.5
    assert summary["correctable_qubit_fraction"] == pytest.approx(1.0 / 3.0)


def test_qec_validation():
    rng = stream(0, "qec-err")
    with pytest.raises(ValueError):
        qec_bitflip_experiment(0, 0.1, "iid", rng)
    with pytest.raises(ValueError):
        qec_bitflip_experiment(10, 1.5, "iid", rng)
    with pytest.raises(ValueError):
        qec_bitflip_experiment(10, 0.1, "triple", rng)
