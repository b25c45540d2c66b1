"""Tests for key exchange, post-processing, relays, and decoy analysis."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest
from scipy.stats import poisson as sp_poisson

from qntl import attacks, qkd
from qntl.attacks import (
    PnsStrategy,
    PnsVariant,
    intercept_resend,
    pns_transform_counts,
    probe_hook,
    probe_infiltrate,
)
from qntl.photonics import Detector, LossChannel, SIGNAL, decoy_label
from qntl.qkd import (
    ALICE_TEST_ANGLES,
    BOB_TEST_ANGLES,
    DEFAULT_HASH_SEED,
    DecoyIntensity,
    decoy_state_analysis,
    estimate_qber,
    privacy_amplify,
    relay_forward_key,
    run_bb84,
    run_e91,
    run_relay_chain,
    sift_keys,
    simulate_decoy_transmissions,
    _bb84_rounds,
    _click_probability,
    _e91_rounds,
)
from qntl.quantum import (
    Basis, PureState, bell_pair, encoded_qubit, measure_qubit, measure_rotated, _split,
)
from qntl.stats import poisson_sample_array, stream

from distcheck import same_distribution_p
from oracles import poisson_sample

bits = st.lists(st.integers(0, 1), min_size=1, max_size=128).map(
    lambda xs: np.array(xs, dtype=np.int8)
)


# ---------------------------------------------------------------- sifting

def test_sift_keeps_matching_bases():
    a_bits = np.array([0, 1, 1, 0])
    b_bits = np.array([0, 1, 0, 1])
    same = np.array([0, 1, 0, 1])
    sa, sb = sift_keys(a_bits, same, b_bits, same)
    assert np.array_equal(sa, a_bits)
    assert np.array_equal(sb, b_bits)
    sa, sb = sift_keys(a_bits, same, b_bits, 1 - same)
    assert sa.size == 0 and sb.size == 0


def test_sift_respects_detection_mask():
    a = np.array([0, 1, 0, 1])
    bases = np.zeros(4)
    detected = np.array([True, False, True, False])
    sa, sb = sift_keys(a, bases, a, bases, detected)
    assert np.array_equal(sa, [0, 0])


def test_sift_binomial_length():
    rng = stream(42, "sift-binomial")
    n = 10**4
    a_bases = rng.integers(0, 2, n)
    b_bases = rng.integers(0, 2, n)
    bits_arr = rng.integers(0, 2, n)
    sa, _ = sift_keys(bits_arr, a_bases, bits_arr, b_bases)
    assert abs(sa.size - 5000) < 150


def test_sift_length_validation():
    with pytest.raises(ValueError):
        sift_keys([0, 1], [0], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        sift_keys([0, 1], [0, 1], [0, 1], [0, 1], detected=[True])


@given(bits, st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_sift_positions_align(key, seed):
    rng = stream(seed, "sift-prop")
    a_bases = rng.integers(0, 2, key.size)
    b_bases = rng.integers(0, 2, key.size)
    sa, sb = sift_keys(key, a_bases, key, b_bases)
    # identical raw bits on both sides always sift identically
    assert np.array_equal(sa, sb)
    assert sa.size == int(np.count_nonzero(a_bases == b_bases))


# ---------------------------------------------------------------- disclosure

def test_qber_trivial_cases():
    rng = stream(0, "qber-trivial")
    same = np.zeros(100, dtype=np.int8)
    qber, idx = estimate_qber(same, same, 0.2, rng)
    assert qber == 0.0
    assert idx.size == 20
    assert np.array_equal(idx, np.sort(idx))
    qber, _ = estimate_qber(same, 1 - same, 0.2, rng)
    assert qber == 1.0


def test_qber_quarter_errors():
    rng = stream(42, "qber-quarter")
    n = 10**4
    a = np.zeros(n, dtype=np.int8)
    b = a.copy()
    flip = rng.choice(n, size=n // 4, replace=False)
    b[flip] = 1
    qber, _ = estimate_qber(a, b, 0.5, stream(42, "qber-sample"))
    assert abs(qber - 0.25) < 0.02


def test_qber_validation():
    rng = stream(0, "qber-err")
    with pytest.raises(ValueError):
        estimate_qber(np.zeros(0), np.zeros(0), 0.5, rng)
    with pytest.raises(ValueError):
        estimate_qber(np.zeros(4), np.zeros(4), 0.0, rng)
    with pytest.raises(ValueError):
        estimate_qber(np.zeros(4), np.zeros(5), 0.5, rng)


# ---------------------------------------------------------------- amplification

def test_amplify_length_arithmetic():
    key = stream(1, "amp-key").integers(0, 2, 1000)
    assert privacy_amplify(key, 0).size == 1000
    assert privacy_amplify(key, 150).size == 850
    assert privacy_amplify(key, 1000).size == 0
    assert privacy_amplify(key, 2000).size == 0


def test_amplify_is_deterministic():
    key = stream(2, "amp-det").integers(0, 2, 64)
    out1 = privacy_amplify(key, 10)
    out2 = privacy_amplify(key, 10)
    assert np.array_equal(out1, out2)


def test_amplify_output_is_binary_and_mixed():
    key = stream(3, "amp-mix").integers(0, 2, 512)
    out = privacy_amplify(key, 64)
    assert set(np.unique(out)) <= {0, 1}
    # a universal hash of a random key should not be constant
    assert 0 < int(out.sum()) < out.size


def test_amplify_validation():
    with pytest.raises(ValueError):
        privacy_amplify(np.array([0, 2, 1]), 0)
    with pytest.raises(ValueError):
        privacy_amplify(np.zeros(4), -1)
    with pytest.raises(ValueError):
        privacy_amplify(np.zeros((2, 2)), 0)


@given(bits, bits, st.integers(0, 16))
@settings(max_examples=100, deadline=None)
def test_amplify_is_linear_over_gf2(a, b, leaked):
    # Toeplitz hashing is matrix multiplication mod 2, so it distributes
    # over XOR of equal-length inputs.
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    ha = privacy_amplify(a, leaked)
    hb = privacy_amplify(b, leaked)
    hxor = privacy_amplify(a ^ b, leaked)
    assert np.array_equal(hxor, ha ^ hb)
    assert ha.size == max(0, n - leaked)


def toeplitz_diagonals(n, m):
    return stream(DEFAULT_HASH_SEED, "toeplitz-hash").integers(0, 2, size=n + m - 1)


def test_amplify_matches_exact_toeplitz_product():
    # Oracle: the explicit m x n matrix T[j, i] = diagonals[n - 1 + j - i]
    # times the key in exact int64 arithmetic, mod 2.
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 1500))
        leaked = int(rng.integers(0, n))
        margin = int(rng.integers(0, n - leaked))
        key = rng.integers(0, 2, size=n)
        m = n - leaked - margin
        diagonals = toeplitz_diagonals(n, m)
        matrix = diagonals[n - 1 + np.arange(m)[:, None] - np.arange(n)[None, :]]
        expected = (matrix @ key) & 1
        out = privacy_amplify(key, leaked + margin)
        assert out.dtype == np.int8
        assert np.array_equal(out, expected), (n, leaked, margin)


@pytest.mark.parametrize("n", [1, 2, 1025, 4099, 65537, 200_000])
def test_amplify_all_ones_key_matches_window_sums(n):
    # An all-ones key makes row j the sum of diagonals[j : j + n], the largest
    # products a key can give, so FFT rounding is at its worst here.
    for leaked in {0, n // 3, n - 1}:
        m = n - leaked
        window = np.concatenate(([0], np.cumsum(toeplitz_diagonals(n, m))))
        expected = (window[n : n + m] - window[:m]) & 1
        assert np.array_equal(privacy_amplify(np.ones(n, dtype=np.int8), leaked), expected)


# ---------------------------------------------------------------- bb84

def test_bb84_honest_channel():
    session = run_bb84(10**5, stream(42, "bb84-honest"))
    assert session.qber_estimate == 0.0
    assert abs(session.sifted_count / 10**5 - 0.5) < 0.01
    assert not session.aborted
    assert not session.eavesdrop_detected
    assert session.leaked_bits == 0
    assert np.array_equal(session.sifted_alice, session.sifted_bob)
    # nothing leaked, so amplification only strips the disclosed sample
    assert session.final_key_bits == session.sifted_count - session.disclosed_count


def test_bb84_intercept_resend_qber():
    session = run_bb84(
        10**5,
        stream(42, "bb84-attack"),
        eavesdropper=intercept_resend(),
        disclosed_fraction=0.5,
    )
    assert abs(session.qber_estimate - 0.25) < 0.01
    assert session.aborted
    assert session.eavesdrop_detected
    assert session.abort_reason == "error rate above abort threshold"
    assert session.final_key_bits == 0


def test_bb84_oracle_intercept_modes():
    # Oracle hooks that pin the interceptor's guess relative to the sender's
    # basis, read off each state id 2 * basis + bit: always right leaves no
    # errors, always wrong errs half the time.
    def intercept(guess_of):
        def hook(states, rng):
            return measure_qubit(states, guess_of(states >> 1), rng)[1]

        return hook

    correct = run_bb84(
        20_000, stream(7, "bb84-oracle-c"), eavesdropper=intercept(lambda bases: bases)
    )
    assert correct.qber_estimate == 0.0
    wrong = run_bb84(
        10**5,
        stream(7, "bb84-oracle-w"),
        eavesdropper=intercept(lambda bases: 1 - bases),
        disclosed_fraction=0.5,
    )
    assert abs(wrong.qber_estimate - 0.5) < 0.01


def test_bb84_opaque_channel_reports_no_sifted_bits():
    session = run_bb84(200, stream(1, "bb84-dark"), channel=LossChannel(0.0))
    assert session.aborted
    assert session.abort_reason == "no sifted bits"
    assert session.sifted_count == 0
    assert math.isnan(session.qber_estimate)


def test_bb84_weak_coherent_sifts_only_detected_rounds():
    session = run_bb84(
        20_000,
        stream(5, "bb84-wc"),
        mean_photons=0.5,
        channel=LossChannel(0.5),
    )
    # detection prob 1 - e^{-0.25} ~ 0.221; sifting halves that
    expected = 0.5 * (1.0 - math.exp(-0.25))
    assert abs(session.sifted_count / 20_000 - expected) < 0.01
    assert session.qber_estimate == 0.0


def test_bb84_validation():
    rng = stream(0, "bb84-err")
    with pytest.raises(ValueError):
        run_bb84(0, rng)
    with pytest.raises(ValueError):
        run_bb84(10, rng, disclosed_fraction=0.0)
    with pytest.raises(ValueError):
        run_bb84(10, rng, disclosed_fraction=1.0)


def test_bb84_attack_never_lowers_qber():
    # paired seeds: honest runs are error-free, attacked runs are not
    for seed in range(100):
        honest = run_bb84(400, stream(seed, "bb84-mono-h"))
        attacked = run_bb84(
            400, stream(seed, "bb84-mono-a"), eavesdropper=intercept_resend()
        )
        assert honest.qber_estimate == 0.0
        assert attacked.qber_estimate >= honest.qber_estimate


@functools.lru_cache(maxsize=None)
def _split_by_value(amplitudes, n_qubits, qubit, angle):
    return _split(PureState(np.frombuffer(amplitudes, dtype=complex), n_qubits), qubit, angle)


def reference_measure(state, qubit, angle, rng):
    """:func:`measure_rotated`, draw for draw, with each Born split worked
    out once per (amplitudes, qubit, angle) value: the per-round references
    below measure a few states many thousands of times."""
    threshold, out0, out1 = _split_by_value(
        state.amplitudes.tobytes(), state.num_qubits, qubit, float(angle)
    )
    return out0 if rng.random() < threshold else out1


def test_reference_measure_matches_measure_rotated():
    states = [encoded_qubit(1, Basis.DIAGONAL), bell_pair(), probe_infiltrate(bell_pair())]
    for state in states:
        for qubit in range(state.num_qubits):
            for angle in (*ALICE_TEST_ANGLES, *BOB_TEST_ANGLES):
                rng, ref_rng = stream(8, "ref-measure"), stream(8, "ref-measure")
                for _ in range(20):
                    out = measure_rotated(state, qubit, angle, rng)
                    ref = reference_measure(state, qubit, angle, ref_rng)
                    assert out.bit == ref.bit
                    assert np.array_equal(out.post_state.amplitudes, ref.post_state.amplitudes)


def reference_intercept_resend(state, sender_basis, rng):
    """The per-state intercept-resend hook as it ran before hooks mapped
    state-id arrays: a scalar basis guess, one measurement, re-preparation."""
    guess = Basis.RECTILINEAR if rng.integers(0, 2) == 0 else Basis.DIAGONAL
    bit = reference_measure(state, 0, guess.analyzer_angle, rng).bit
    return encoded_qubit(bit, guess)


def reference_click_outcome(photons, detector, u):
    """The click of one round at its uniform ``u``, as (clicked, coin).  A
    click at or above the photon cut 1 - (1 - efficiency)^n is a dark count
    alone, and ``coin`` is then the receiver's fair bit: 1 in the upper half
    of the range between the cut and the click probability.  A photon click
    or no click gives coin None."""
    cut = 1.0 - (1.0 - detector.efficiency) ** photons
    click = detector.click_probability(photons)
    if cut <= u < click:
        return True, int(u >= 0.5 * (cut + click))
    return u < click, None


def reference_click(rng, mean_photons, channel, detector):
    """One round of the photon gate on scalar draws in the interleaved
    order: the photon count by bisect on one ``rng.random()`` (weak-coherent
    source with a positive mean only), one ``rng.random()`` per photon in
    the channel, one for the click (:func:`reference_click_outcome`)."""
    photons = 1 if mean_photons is None else poisson_sample(mean_photons, rng)
    if channel is not None:
        photons = sum(rng.random() < channel.transmittance for _ in range(photons))
    return reference_click_outcome(photons, detector, rng.random())


def reference_bb84_rounds(n_rounds, rng, mean_photons, channel, detector, attacked):
    """BB84 rounds as they ran before the settings were drawn as one array:
    per round its bit, both basis indices, the photon, channel and click
    draws (:func:`reference_click`), then, for a photon click, the
    per-state hook (``attacked``: :func:`reference_intercept_resend`) and
    the measurement of one state; a dark-only click takes the coin.
    Returns the arrays of ``_bb84_rounds``."""
    bases = (Basis.RECTILINEAR, Basis.DIAGONAL)
    alice_bits = np.zeros(n_rounds, dtype=np.int8)
    alice_bases = np.zeros(n_rounds, dtype=np.int8)
    bob_bits = np.zeros(n_rounds, dtype=np.int8)
    bob_bases = np.zeros(n_rounds, dtype=np.int8)
    detected = np.zeros(n_rounds, dtype=bool)
    for i in range(n_rounds):
        bit = int(rng.integers(0, 2))
        a_idx = int(rng.integers(0, 2))
        b_idx = int(rng.integers(0, 2))
        click, coin = reference_click(rng, mean_photons, channel, detector)
        alice_bits[i], alice_bases[i], bob_bases[i], detected[i] = bit, a_idx, b_idx, click
        if not click:
            continue
        if coin is not None:
            bob_bits[i] = coin
            continue
        state = encoded_qubit(bit, bases[a_idx])
        if attacked:
            state = reference_intercept_resend(state, bases[a_idx], rng)
        bob_bits[i] = reference_measure(state, 0, bases[b_idx].analyzer_angle, rng).bit
    return alice_bits, alice_bases, bob_bits, bob_bases, detected


def bb84_cell_counts(rounds):
    """Counts over the 8 cells 4 * clicked + 2 * bases match + bits equal."""
    alice_bits, alice_bases, bob_bits, bob_bases, detected = rounds
    cell = 4 * detected + 2 * (alice_bases == bob_bases) + (alice_bits == bob_bits)
    return np.bincount(cell, minlength=8)


# (photon gate, attacked): the reference runs the per-state hook, the
# candidate the array hook of intercept_resend().
BB84_DIST_CASES = {
    "honest": (dict(mean_photons=None, channel=None, detector=Detector()), False),
    "intercept-resend": (dict(mean_photons=None, channel=None, detector=Detector()), True),
    "weak-coherent": (
        dict(mean_photons=0.5, channel=LossChannel(0.5), detector=Detector(0.6, 0.01)),
        False,
    ),
}


@pytest.mark.parametrize("case", list(BB84_DIST_CASES))
def test_bb84_rounds_match_per_round_reference(case):
    # Family-wise alpha 0.01 over the three cases, so each p > 0.01 / 3;
    # twenty seeds of 2,000 rounds a side.
    alpha, seeds, n = 0.01 / 3, range(20), 2000
    gate, attacked = BB84_DIST_CASES[case]

    def reference(rng):
        return bb84_cell_counts(reference_bb84_rounds(n, rng, **gate, attacked=attacked))

    def candidate(rng):
        hook = intercept_resend() if attacked else None
        return bb84_cell_counts(_bb84_rounds(n, rng, **gate, eavesdropper=hook))

    p = same_distribution_p(reference, candidate, seeds, f"bb84-{case}")
    assert p > alpha, f"{case}: p={p:.3g}"


def reference_gate(n_rounds, rng, mean_photons, channel, detector):
    """The photon gate on scalar draws, stage by stage per chunk: a chunk is
    ``_GATE_UNIFORMS // ceil(mean)`` rounds of a weak-coherent source with a
    positive mean, else ``_GATE_UNIFORMS``.  Per chunk every photon count by
    bisect on one ``rng.random()`` (positive mean only), then one
    ``rng.random()`` per emitted photon, then one per click.  Returns each
    round's (clicked, coin) of :func:`reference_click_outcome`."""
    emits = mean_photons is not None and mean_photons > 0
    chunk = qkd._GATE_UNIFORMS // (math.ceil(mean_photons) if emits else 1)
    outcomes = []
    for start in range(0, n_rounds, chunk):
        size = min(chunk, n_rounds - start)
        if emits:
            photons = [poisson_sample(mean_photons, rng) for _ in range(size)]
        else:
            photons = [1 if mean_photons is None else 0] * size
        if channel is not None:
            photons = [sum(rng.random() < channel.transmittance for _ in range(n)) for n in photons]
        outcomes += [reference_click_outcome(n, detector, rng.random()) for n in photons]
    return outcomes


# (rounds, mean_photons, channel, detector) of the exact-draw gate oracle.
GATE_CASES = {
    "single-photon": (3000, None, None, Detector()),
    "weak-coherent": (3000, 0.5, LossChannel(0.5), Detector(0.6, 0.01)),
    "zero-mean": (3000, 0.0, LossChannel(0.5), Detector(0.6, 0.01)),
    # About 20 channel draws a round, in chunks of 819 rounds.
    "mu-20": (3000, 20.0, LossChannel(0.9), Detector()),
    "above-chunk": (qkd._GATE_UNIFORMS + 3001, 0.5, LossChannel(0.1), Detector()),
}


@pytest.mark.parametrize("case", list(GATE_CASES))
def test_photon_gate_matches_scalar_draws(case):
    # The gate's stage arrays hold the doubles that scalar draws give in
    # stage order, and no more: the clicks, the receiver's bits and the
    # final stream state all equal a run that draws the gate one
    # rng.random() at a time.
    n, mean_photons, channel, detector = GATE_CASES[case]
    rng, ref_rng = stream(12, f"gate-{case}"), stream(12, f"gate-{case}")
    got = _bb84_rounds(n, rng, mean_photons, channel, detector, None)
    bits, a_bases, b_bases = ref_rng.integers(0, 2, size=(3, n), dtype=np.int8)
    outcomes = reference_gate(n, ref_rng, mean_photons, channel, detector)
    clicked = np.array([click for click, _ in outcomes])
    photon = np.array([click and coin is None for click, coin in outcomes])
    bob_bits = np.array([coin or 0 for _, coin in outcomes], dtype=np.int8)
    states = 2 * a_bases[photon] + bits[photon]
    bob_bits[photon] = measure_qubit(states, b_bases[photon], ref_rng)[0]
    for g, w in zip(got, (bits, a_bases, bob_bits, b_bases, clicked)):
        assert np.array_equal(g, w)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if case == "single-photon":
        # With no channel and no photon-number draw, the stage order is the
        # interleaved one.
        interleaved = stream(12, f"gate-{case}")
        interleaved.integers(0, 2, size=(3, n), dtype=np.int8)
        assert outcomes == [
            reference_click(interleaved, mean_photons, channel, detector) for _ in range(n)
        ]


class RecordingGenerator:
    """A generator that records the size of every ``random`` call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size, out=None):
        self.sizes.append(size)
        return self.rng.random(size, out=out)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("mean_photons, n_rounds", [
    (None, 3 * qkd._GATE_UNIFORMS), (0.5, 3 * qkd._GATE_UNIFORMS), (20.0, 3000), (700.0, 100),
], ids=["single-photon", "mu-0.5", "mu-20", "mu-700"])
def test_photon_gate_draws_stay_within_the_chunk_bound(mean_photons, n_rounds):
    # A chunk's photon counts sum to at most _GATE_UNIFORMS in expectation,
    # with a standard deviation of at most 128 (the root of that); 1024 is
    # eight of them.  Every run spans several chunks.  The last draw is the
    # receiver's measurement, one uniform per photon click.
    rng = RecordingGenerator(stream(2, "gate-cap"))
    clicked = _bb84_rounds(n_rounds, rng, mean_photons, LossChannel(0.9), Detector(), None)[4]
    *gate, measured = rng.sizes
    assert measured == np.count_nonzero(clicked)
    assert len(gate) >= 2 * (2 if mean_photons is None else 3)
    assert max(gate) <= qkd._GATE_UNIFORMS + 1024


# (source mean or None for single photons, transmittance, efficiency, dark).
DARK_QBER_CASES = {
    "weak-coherent": (0.5, 0.1, 0.6, 0.01),
    "single-photon": (None, 0.5, 0.6, 0.05),
}


@pytest.mark.parametrize("case", list(DARK_QBER_CASES))
def test_dark_only_clicks_give_the_closed_form_qber(case):
    # A dark-only click carries no qubit, so its sifted bit errs with
    # probability 1/2 and every photon click is error-free.  With
    # t = eta * eta_d the chance that one sent photon registers:
    #   weak-coherent:  E = (1/2) Y0 e^(-mu t) / Q,  Q = 1 - (1 - Y0) e^(-mu t)
    #   single-photon:  E = (1/2) Y0 (1 - t) / (1 - (1 - Y0)(1 - t))
    # Sifted rounds are independent, so their errors are binomial at E;
    # family-wise alpha 0.01 over the two cases.
    mu, eta, efficiency, dark = DARK_QBER_CASES[case]
    t = eta * efficiency
    if mu is None:
        expected = 0.5 * dark * (1 - t) / (1 - (1 - dark) * (1 - t))
    else:
        gain = 1 - (1 - dark) * math.exp(-mu * t)
        expected = 0.5 * dark * math.exp(-mu * t) / gain
    errors = sifted = 0
    for seed in range(20):
        rounds = _bb84_rounds(10_000, stream(seed, f"dark-qber-{case}"), mu,
                              LossChannel(eta), Detector(efficiency, dark), None)
        alice, bob = sift_keys(*rounds)
        errors += int(np.count_nonzero(alice != bob))
        sifted += alice.size
    assert binomtest(errors, sifted, expected).pvalue > 0.01 / 2


@pytest.mark.parametrize("attacked", [False, True], ids=["honest", "intercept-resend"])
def test_bb84_measures_in_batches_not_per_round(attacked, monkeypatch):
    # A session measures through one batched call for the receiver, plus one
    # inside the intercept-resend hook, whatever its number of rounds.
    calls = []
    for module in (qkd, attacks):
        def counted(*args, _module=module.__name__, _measure=module.measure_qubit):
            calls.append(_module)
            return _measure(*args)

        monkeypatch.setattr(module, "measure_qubit", counted)
    hook = intercept_resend() if attacked else None
    for rounds in (1, 300):
        calls.clear()
        run_bb84(rounds, stream(rounds, "bb84-batch-calls"), eavesdropper=hook)
        assert calls == ["qntl.attacks"] * attacked + ["qntl.qkd"]


# ---------------------------------------------------------------- e91

def test_e91_honest_pairs():
    session = run_e91(10**4, stream(42, "e91-honest"))
    assert session.qber_estimate == 0.0
    assert session.chsh_estimate > 2.5
    assert session.chsh_rounds > 0
    assert not session.aborted
    assert not session.eavesdrop_detected


def test_e91_probe_is_detected():
    session = run_e91(2000, stream(42, "e91-probe"), pair_hook=probe_hook())
    assert session.chsh_estimate <= 2.1
    assert session.aborted
    assert session.eavesdrop_detected
    assert session.abort_reason == "entanglement verification failed"
    assert session.final_key_bits == 0


def test_e91_missing_test_rounds_fails_closed():
    # seed chosen so no round lands in the tiny test fraction
    session = run_e91(12, stream(3, "e91-nan"), chsh_fraction=1e-9)
    assert session.chsh_rounds == 0
    assert math.isnan(session.chsh_estimate)
    assert session.eavesdrop_detected


def test_e91_validation():
    rng = stream(0, "e91-err")
    with pytest.raises(ValueError):
        run_e91(0, rng)
    with pytest.raises(ValueError):
        run_e91(10, rng, chsh_fraction=0.0)
    with pytest.raises(ValueError):
        run_e91(10, rng, disclosed_fraction=1.0)


def reference_e91_counts(n_rounds, chsh_fraction, probed, rng):
    """E91 rounds as they ran before the joint Born table: a fresh pair per
    round, probed one at a time, then two sequential collapses.  Returns
    counts over the 32 cells 4 * setting + 2 * alice bit + bob bit, with
    setting = 4 * is_test + 2 * alice index + bob index."""
    bases = (Basis.RECTILINEAR, Basis.DIAGONAL)
    counts = np.zeros(32, dtype=np.int64)
    for _ in range(n_rounds):
        is_test = rng.random() < chsh_fraction
        state = probe_infiltrate(bell_pair()) if probed else bell_pair()
        a_idx = int(rng.integers(0, 2))
        b_idx = int(rng.integers(0, 2))
        if is_test:
            first = reference_measure(state, 0, ALICE_TEST_ANGLES[a_idx], rng)
            second = reference_measure(first.post_state, 1, BOB_TEST_ANGLES[b_idx], rng)
        else:
            first = reference_measure(state, 0, bases[a_idx].analyzer_angle, rng)
            second = reference_measure(first.post_state, 1, bases[b_idx].analyzer_angle, rng)
        setting = 4 * is_test + 2 * a_idx + b_idx
        counts[4 * setting + 2 * first.bit + second.bit] += 1
    return counts


def test_e91_rounds_match_per_round_reference():
    # Family-wise alpha 0.01 over honest and probed pairs, so each p > 0.005;
    # twenty seeds of 1,000 rounds a side.
    alpha, seeds, n = 0.01 / 2, range(20), 1000
    for probed in (False, True):
        state = probe_infiltrate(bell_pair()) if probed else bell_pair()

        def reference(rng):
            return reference_e91_counts(n, 0.25, probed, rng)

        def candidate(rng):
            is_test, a_idx, b_idx, a_bits, b_bits = _e91_rounds(state, n, 0.25, rng)
            setting = 4 * is_test + 2 * a_idx + b_idx
            return np.bincount(4 * setting + 2 * a_bits + b_bits, minlength=32)

        p = same_distribution_p(reference, candidate, seeds, f"e91-probed-{probed}")
        assert p > alpha, f"probed={probed}: p={p:.3g}"


# ---------------------------------------------------------------- relays

def test_relay_xor_hand_case():
    key1 = np.array([1, 0, 1, 0], dtype=np.int8)
    key2 = np.array([1, 1, 0, 0], dtype=np.int8)
    cipher = relay_forward_key(key1, key2)
    assert list(cipher) == [0, 1, 1, 0]
    assert np.array_equal(relay_forward_key(cipher, key2), key1)
    assert np.array_equal(relay_forward_key(key1, np.zeros(4, dtype=np.int8)), key1)


def test_relay_xor_validation():
    with pytest.raises(ValueError):
        relay_forward_key([1, 0], [1])
    with pytest.raises(ValueError):
        relay_forward_key([1, 2], [1, 0])
    with pytest.raises(ValueError):
        relay_forward_key([], [])


def test_relay_chain_of_three():
    key = stream(9, "relay-key").integers(0, 2, 64, dtype=np.int8)
    result = run_relay_chain(key, 3, stream(9, "relay-hops"))
    assert result.recovered_ok
    assert np.array_equal(result.delivered, key)
    assert result.n_relays == 3
    assert len(result.cleartexts) == 3
    assert len(result.wire) == 4
    # the trust assumption: every relay saw the end-to-end key in the clear
    for cleartext in result.cleartexts:
        assert np.array_equal(cleartext, key)
    # while nothing on the wire equals it
    for ciphertext in result.wire:
        assert not np.array_equal(ciphertext, key)
    for record in (result.cleartexts, result.wire):
        with pytest.raises(ValueError):
            record[0, 0] ^= 1


def test_relay_chain_validation():
    rng = stream(0, "relay-err")
    with pytest.raises(ValueError):
        run_relay_chain(np.array([1, 0]), 0, rng)
    with pytest.raises(ValueError):
        run_relay_chain(np.zeros(0), 1, rng)


@given(bits, st.integers(1, 5), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_relay_chain_always_recovers(key, n_relays, seed):
    result = run_relay_chain(key, n_relays, stream(seed, "relay-prop"))
    assert result.recovered_ok
    assert len(result.cleartexts) == n_relays
    assert all(np.array_equal(cleartext, key) for cleartext in result.cleartexts)


# ---------------------------------------------------------------- decoy states

CHANNEL = LossChannel(0.3)
IDEAL_DET = Detector()


def decoy_run(attacker, n=10**5, mus=(0.5, 0.1), seed=42):
    intensities = [DecoyIntensity(SIGNAL, mus[0], n)]
    intensities += [
        DecoyIntensity(decoy_label(i), mu, n) for i, mu in enumerate(mus[1:])
    ]
    rng = stream(seed, "decoy-run")
    detected = simulate_decoy_transmissions(intensities, CHANNEL, IDEAL_DET, rng, attacker)
    return decoy_state_analysis(
        intensities, detected, CHANNEL, IDEAL_DET, deviation_threshold=0.05
    )


def test_decoy_honest_channel_passes():
    # No-eve is the honest fiber: its click probability is the model gain.
    for mu in (0.0, 0.1, 0.5, 2.0):
        got = _click_probability(mu, CHANNEL, IDEAL_DET, PnsStrategy.no_eve())
        assert got == pytest.approx(1.0 - math.exp(-0.3 * mu), rel=1e-12)
    analysis = decoy_run(attacker=PnsStrategy.no_eve())
    assert not analysis.eavesdrop_detected
    assert analysis.max_relative_deviation < 0.05
    for item in analysis.assessments:
        assert item.model_gain == pytest.approx(
            1.0 - math.exp(-0.3 * item.mean_photons)
        )


def test_decoy_blocking_attacker_is_flagged():
    analysis = decoy_run(attacker=PnsStrategy.block_singles())
    assert analysis.eavesdrop_detected
    # blocked-singles gain is P(count >= 2), and the deficit is sharper for
    # the weaker intensity because more of its pulses are single photons
    by_label = {a.label: a for a in analysis.assessments}
    for item in analysis.assessments:
        blocked = 1.0 - math.exp(-item.mean_photons) * (1.0 + item.mean_photons)
        assert item.gain == pytest.approx(blocked, abs=0.01)
        assert item.gain < item.model_gain
    assert by_label["decoy-0"].relative_deviation > by_label["signal"].relative_deviation


def test_decoy_thinning_attacker_is_invisible():
    # skimming photons i.i.d. at rate 1 - eta over a lossless bypass
    # reproduces the honest channel statistics exactly, so the gain test
    # cannot see it; only count-dependent splitting is detectable
    analysis = decoy_run(attacker=PnsStrategy.random_intercept(1.0 - CHANNEL.transmittance))
    assert not analysis.eavesdrop_detected
    assert analysis.max_relative_deviation < 0.05


def test_decoy_vacuum_class_gain_is_zero():
    intensities = [
        DecoyIntensity(SIGNAL, 0.5, 2000),
        DecoyIntensity(decoy_label(0), 0.0, 2000),
    ]
    detected = simulate_decoy_transmissions(
        intensities, CHANNEL, IDEAL_DET, stream(3, "decoy-vac"), PnsStrategy.no_eve()
    )
    analysis = decoy_state_analysis(intensities, detected, CHANNEL, IDEAL_DET)
    vacuum = [a for a in analysis.assessments if a.mean_photons == 0.0][0]
    assert vacuum.detected == 0
    assert vacuum.gain == 0.0
    assert analysis.vacuum_yield == 0.0


def test_decoy_single_photon_yield_bound():
    # with unit efficiency and no dark counts the true yield is eta itself;
    # the two-intensity bound sits just below it, and a blocking attack
    # collapses the bound to zero
    honest = decoy_run(attacker=PnsStrategy.no_eve())
    assert honest.single_photon_yield_lower_bound == pytest.approx(0.3, abs=0.05)
    blocked = decoy_run(attacker=PnsStrategy.block_singles())
    assert blocked.single_photon_yield_lower_bound < 0.05


def test_decoy_bound_on_exact_gains():
    # eta = 0.1, eta_d = 0.5, Y0 = 1e-3, signal mu = 0.5.  Gains come from
    # enumerating photon numbers, Q = sum_n Poisson(n; mu) Y_n with
    # Y_n = 1 - (1 - Y0)(1 - eta eta_d)^n, and 10^15 pulses make them exact
    # to 1e-15.  The two-intensity bound stays below the true Y1 = 0.05095,
    # is 0.28% short at nu = 0.01 and 9.2% short at nu = 0.3, and tightens
    # as nu falls.
    channel, detector = LossChannel(0.1), Detector(efficiency=0.5, dark_count_prob=1e-3)
    n = np.arange(60)
    yields = 1.0 - (1.0 - 1e-3) * (1.0 - 0.05) ** n
    assert yields[1] == pytest.approx(0.05095, rel=1e-12)
    sent = 10**15

    def clicks(mu):
        return round(float((sp_poisson.pmf(n, mu) * yields).sum()) * sent)

    gaps = []
    for nu in (0.3, 0.2, 0.1, 0.05, 0.01):
        intensities = [DecoyIntensity("signal", 0.5, sent), DecoyIntensity("decoy-0", nu, sent)]
        analysis = decoy_state_analysis(
            intensities, [clicks(0.5), clicks(nu)], channel, detector
        )
        assert not analysis.eavesdrop_detected
        gaps.append(1.0 - analysis.single_photon_yield_lower_bound / yields[1])
    assert all(gap > 0.0 for gap in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[0] == pytest.approx(0.092, abs=5e-4)
    assert gaps[-1] == pytest.approx(0.0028, abs=5e-5)


def reference_decoy_clicks(intensities, channel, detector, rng, attacker):
    """Click counts with the click probability raised per pulse: the
    reference for the kernel, which looks it up by photon number."""
    clicks = []
    for item in intensities:
        mu, n = item.mean_photons, item.n_pulses
        if attacker.variant is PnsVariant.NO_EVE:
            arriving = poisson_sample_array(mu * channel.transmittance, rng, n)
        elif attacker.variant is PnsVariant.RANDOM_INTERCEPT:
            arriving = poisson_sample_array(mu * (1.0 - attacker.intercept_probability), rng, n)
        else:
            arriving = pns_transform_counts(poisson_sample_array(mu, rng, n), attacker)
        p_click = 1.0 - (1.0 - detector.dark_count_prob) * (
            (1.0 - detector.efficiency) ** arriving
        )
        clicks.append(int(np.count_nonzero(rng.random(n) < p_click)))
    return clicks


DECOY_ATTACKERS = {
    "none": PnsStrategy.no_eve(),
    "block-singles": PnsStrategy.block_singles(),
    "random-0.5": PnsStrategy.random_intercept(0.5),
    "always-minus-one": PnsStrategy.always_minus_one(),
}


def test_decoy_clicks_match_per_pulse_reference():
    # Family-wise alpha 0.01 over four attackers times two means, so each
    # p > 0.00125; ten seeds of 10^5 pulses a side, through a lossy channel
    # and a detector with loss and dark counts.
    alpha, seeds, n = 0.01 / 8, range(10), 100_000
    channel = LossChannel(0.3)
    detector = Detector(efficiency=0.6, dark_count_prob=0.01)
    for name, attacker in DECOY_ATTACKERS.items():
        for mu in (0.5, 2.0):
            intensities = [DecoyIntensity(SIGNAL, mu, n)]

            def reference(rng):
                [clicks] = reference_decoy_clicks(intensities, channel, detector, rng, attacker)
                return np.array([n - clicks, clicks])

            def candidate(rng):
                [clicks] = simulate_decoy_transmissions(
                    intensities, channel, detector, rng, attacker
                )
                return np.array([n - clicks, clicks])

            p = same_distribution_p(reference, candidate, seeds, f"decoy-ref-{name}-{mu}")
            assert p > alpha, f"{name} mu={mu}: p={p:.3g}"


def always_minus_one_gain(mu, efficiency, dark):
    """1 - (1-d) e^-mu [1 + (e^(mu(1-e)) - 1)/(1-e)]: a pulse of k >= 1
    photons arrives with k - 1, and sum_k P(k) (1-e)^(k-1) over k >= 1 is
    (e^(mu(1-e)) - 1) e^-mu / (1-e)."""
    lost = 1.0 - efficiency
    return 1.0 - (1.0 - dark) * math.exp(-mu) * (1.0 + math.expm1(mu * lost) / lost)


def block_singles_gain(mu, efficiency, dark):
    """1 - (1-d) [P(0) + P(1) + (1-e)(1 - P(0) - P(1))]: pulses of at most
    one photon arrive empty, every other pulse arrives with one photon."""
    p01 = math.exp(-mu) * (1.0 + mu)
    return 1.0 - (1.0 - dark) * (p01 + (1.0 - efficiency) * (1.0 - p01))


def test_decoy_pushforward_matches_closed_forms():
    # The package pushes the Poisson pmf through pns_transform_counts; these
    # closed forms are derived without it.
    for mu in (0.0, 1e-3, 0.1, 0.5, 1.0, 2.5, 5.0, 12.0, 20.0, 30.0):
        for efficiency in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0):
            for dark in (0.0, 1e-3, 0.05):
                detector = Detector(efficiency=efficiency, dark_count_prob=dark)
                got = _click_probability(mu, CHANNEL, detector, PnsStrategy.block_singles())
                assert abs(got - block_singles_gain(mu, efficiency, dark)) <= 1e-12
                if efficiency < 1.0:
                    got = _click_probability(mu, CHANNEL, detector, PnsStrategy.always_minus_one())
                    assert abs(got - always_minus_one_gain(mu, efficiency, dark)) <= 1e-12


def reference_binomial_clicks(mu, n, channel, detector, rng):
    """Honest-channel clicks as they were drawn before Poisson splitting:
    every emitted photon, then a binomial of the ones that survive."""
    arriving = rng.binomial(poisson_sample_array(mu, rng, n), channel.transmittance)
    p_click = 1.0 - (1.0 - detector.dark_count_prob) * (1.0 - detector.efficiency) ** arriving
    return int(np.count_nonzero(rng.random(n) < p_click))


def test_decoy_splitting_matches_binomial_thinning():
    # Family-wise alpha 0.01 over two intensity classes, so each p > 0.005;
    # ten seeds of 10^5 pulses a side.
    alpha, seeds, n = 0.01 / 2, range(10), 100_000
    for mu in (0.5, 0.1):

        def reference(rng):
            clicks = reference_binomial_clicks(mu, n, CHANNEL, IDEAL_DET, rng)
            return np.array([n - clicks, clicks])

        def candidate(rng):
            [clicks] = simulate_decoy_transmissions(
                [DecoyIntensity(SIGNAL, mu, n)], CHANNEL, IDEAL_DET, rng, PnsStrategy.no_eve()
            )
            return np.array([n - clicks, clicks])

        p = same_distribution_p(reference, candidate, seeds, f"decoy-split-{mu}")
        assert p > alpha, f"mu={mu}: p={p:.3g}"


def test_decoy_validation():
    rng = stream(0, "decoy-err")
    no_eve = PnsStrategy.no_eve()
    with pytest.raises(ValueError):
        simulate_decoy_transmissions([], CHANNEL, IDEAL_DET, rng, no_eve)
    with pytest.raises(TypeError):  # no-eve is a strategy, not a missing attacker
        simulate_decoy_transmissions([DecoyIntensity(SIGNAL, 0.5, 1000)], CHANNEL, IDEAL_DET, rng)
    same_label = [DecoyIntensity(SIGNAL, 0.5, 1000), DecoyIntensity(SIGNAL, 0.1, 1000)]
    with pytest.raises(ValueError):
        simulate_decoy_transmissions(same_label, CHANNEL, IDEAL_DET, rng, no_eve)
    with pytest.raises(ValueError):
        DecoyIntensity(SIGNAL, -0.5, 1000)
    with pytest.raises(ValueError):
        DecoyIntensity(SIGNAL, 0.5, 0)
    few = [DecoyIntensity(SIGNAL, 0.5, 1000)]
    with pytest.raises(ValueError):
        clicks = simulate_decoy_transmissions(few, CHANNEL, IDEAL_DET, rng, no_eve)
        decoy_state_analysis(few, clicks, CHANNEL, IDEAL_DET)
    thin = [DecoyIntensity(SIGNAL, 0.5, 999), DecoyIntensity(decoy_label(0), 0.1, 1000)]
    with pytest.raises(ValueError):
        clicks = simulate_decoy_transmissions(thin, CHANNEL, IDEAL_DET, rng, no_eve)
        decoy_state_analysis(thin, clicks, CHANNEL, IDEAL_DET)
    pair = [DecoyIntensity(SIGNAL, 0.5, 1000), DecoyIntensity(decoy_label(0), 0.1, 1000)]
    with pytest.raises(ValueError):
        decoy_state_analysis(pair, [100], CHANNEL, IDEAL_DET)
