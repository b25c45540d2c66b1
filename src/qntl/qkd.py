"""Key-distribution protocols and their classical post-processing.

Covers prepare-and-measure exchange (BB84-style), entanglement-based exchange
with a CHSH self-test (E91-style), trusted-relay key forwarding, and the
decoy-intensity consistency test against photon-number-splitting taps.  A
relay chain returns the key as each relay decrypted it and as each hop
carried it, one array row per relay or hop; the decoy test draws one click
count per intensity class and assesses the counts against the
honest-channel model.

Protocols accept attack hooks so the same code path produces both honest and
adversarial runs.  An in-flight hook takes the state ids of every flying
qubit that the receiver registers, ``2 * basis + bit`` as in
:func:`~qntl.quantum.measure_qubit`, and returns the ids of the qubits it
passes on, drawing from the session's generator; a pair hook rewrites the
one state every distributed pair shares.  All randomness flows through an
explicit generator; see :mod:`qntl.stats` for stream construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attacks import PnsStrategy, PnsVariant, pns_transform_counts
from .defaults import (
    CHSH_DETECTION_MARGIN, CHSH_TEST_FRACTION, DEFAULT_ABORT_THRESHOLD, DEFAULT_DISCLOSED_FRACTION,
)
from .photonics import Detector, LossChannel, detect, emit_pulse, transmit
from .quantum import CHSH_OPTIMAL_ANGLES, Basis, PureState, bell_pair
from .quantum import joint_probabilities, measure_qubit
# encoded_qubit has no caller here: bench/tracing.py patches qntl.qkd:encoded_qubit.
from .quantum import encoded_qubit  # noqa: F401
# measure_rotated has no caller here: bench/tracing.py patches qntl.qkd:measure_rotated.
from .quantum import measure_rotated  # noqa: F401
from .stats import chsh_estimate, poisson_pmf, stream
# poisson_sample_array has no caller here: bench/tracing.py patches
# qntl.qkd:poisson_sample_array.
from .stats import poisson_sample_array  # noqa: F401

__all__ = [
    "DEFAULT_HASH_SEED",
    "ALICE_TEST_ANGLES",
    "BOB_TEST_ANGLES",
    "InFlightHook",
    "PairHook",
    "QkdSession",
    "sift_keys",
    "estimate_qber",
    "privacy_amplify",
    "run_bb84",
    "run_e91",
    "RelayChainResult",
    "relay_forward_key",
    "run_relay_chain",
    "DecoyIntensity",
    "DecoyAssessment",
    "DecoyAnalysis",
    "simulate_decoy_transmissions",
    "decoy_state_analysis",
]

# Seed for the Toeplitz hashing stream.  Fixed by convention: both ends must
# derive the identical compression matrix, so it is public protocol state,
# not secret randomness.
DEFAULT_HASH_SEED = 0x9E3779B9

# Entanglement-based exchange: the analyzer settings of the CHSH test rounds.
ALICE_TEST_ANGLES = CHSH_OPTIMAL_ANGLES[:2]
BOB_TEST_ANGLES = CHSH_OPTIMAL_ANGLES[2:]

InFlightHook = Callable[[np.ndarray, np.random.Generator], np.ndarray]
PairHook = Callable[[PureState], PureState]

_KEY_ANGLES = tuple(basis.analyzer_angle for basis in Basis)

# Analyzer angles (Alice, Bob) of the eight E91 settings, indexed by
# 4 * is_test + 2 * alice_index + bob_index.
_E91_SETTINGS = [
    (alice[a], bob[b])
    for alice, bob in ((_KEY_ANGLES, _KEY_ANGLES), (ALICE_TEST_ANGLES, BOB_TEST_ANGLES))
    for a in (0, 1) for b in (0, 1)
]


@dataclass(frozen=True, eq=False)
class QkdSession:
    """Outcome of one key-exchange session.

    ``final_key`` holds the sender-side amplified key (empty when the session
    aborted or amplification consumed everything).  For entanglement-based
    runs ``chsh_estimate`` and ``chsh_rounds`` describe the self-test;
    prepare-and-measure runs leave them at None/0.
    """

    n_rounds: int
    sifted_alice: np.ndarray
    sifted_bob: np.ndarray
    disclosed_count: int
    qber_estimate: float
    leaked_bits: int
    final_key: np.ndarray
    aborted: bool
    abort_reason: str | None
    eavesdrop_detected: bool
    chsh_estimate: float | None = None
    chsh_rounds: int = 0

    def __post_init__(self) -> None:
        for name in ("sifted_alice", "sifted_bob", "final_key"):
            arr = np.array(getattr(self, name), dtype=np.int8)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.sifted_alice.size != self.sifted_bob.size:
            raise ValueError("sifted key halves must have equal length")

    @property
    def sifted_count(self) -> int:
        return int(self.sifted_alice.size)

    @property
    def final_key_bits(self) -> int:
        return int(self.final_key.size)


def sift_keys(
    alice_bits: np.ndarray,
    alice_bases: np.ndarray,
    bob_bits: np.ndarray,
    bob_bases: np.ndarray,
    detected: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the rounds where both sides used the same basis (and, when a
    detection mask is given, where the receiver actually saw the pulse).

    Basis arrays may use any equality-comparable encoding as long as both
    sides use the same one.
    """
    a_bits = np.asarray(alice_bits)
    b_bits = np.asarray(bob_bits)
    a_bases = np.asarray(alice_bases)
    b_bases = np.asarray(bob_bases)
    n = a_bits.size
    if not (b_bits.size == a_bases.size == b_bases.size == n):
        raise ValueError("per-round arrays must have equal length")
    mask = a_bases == b_bases
    if detected is not None:
        det = np.asarray(detected, dtype=bool)
        if det.size != n:
            raise ValueError("detection mask length does not match rounds")
        mask &= det
    return a_bits[mask].astype(np.int8), b_bits[mask].astype(np.int8)


def estimate_qber(
    sifted_alice: np.ndarray,
    sifted_bob: np.ndarray,
    disclosed_fraction: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Disclose a random sample of the sifted key and compare it publicly.

    Returns (error rate over the sample, indices disclosed).  The sample size
    is ceil(fraction * length), so any positive fraction discloses at least
    one bit; disclosed bits must be discarded from the key afterwards.
    """
    a = np.asarray(sifted_alice)
    b = np.asarray(sifted_bob)
    if a.size != b.size:
        raise ValueError("sifted key halves must have equal length")
    n = a.size
    k = math.ceil(float(disclosed_fraction) * n)
    if k <= 0 or n == 0:
        raise ValueError("disclosed sample is empty; cannot estimate the error rate")
    k = min(k, n)
    indices = rng.choice(n, size=k, replace=False)
    qber = float(np.count_nonzero(a[indices] != b[indices]) / k)
    return qber, np.sort(indices)


def privacy_amplify(bits: np.ndarray, leaked_bits: int) -> np.ndarray:
    """Compress a partially leaked key with a random Toeplitz hash.

    The output length is len(bits) - leaked_bits; when that is not positive
    the key is spent and an empty array comes back.  The Toeplitz diagonals
    are drawn from a stream seeded by ``DEFAULT_HASH_SEED``, which is public
    shared state (both ends must build the same matrix), so the same input
    always hashes to the same output.
    """
    x = np.asarray(bits, dtype=np.int64)
    if x.ndim != 1:
        raise ValueError("key bits must be a 1-d array")
    if x.size and not np.all((x == 0) | (x == 1)):
        raise ValueError("key bits must be 0/1")
    leaked = int(leaked_bits)
    if leaked < 0:
        raise ValueError("leaked bits must be >= 0")
    n = x.size
    m = n - leaked
    if m <= 0:
        return np.zeros(0, dtype=np.int8)
    diagonals = stream(DEFAULT_HASH_SEED, "toeplitz-hash").integers(0, 2, size=n + m - 1)
    # Row j of the Toeplitz matrix is diagonals[n-1+j : j-1 : -1], so the
    # product against x is entry n-1+j of the full convolution.  A circular
    # convolution at any length >= n + m - 1 does not wrap onto those entries;
    # a power of two keeps the FFT fast.  Counts stay far below 2**53, making
    # the rounded FFT convolution exact.
    size = 1 << (n + m - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(diagonals, size), size)
    products = np.rint(full[n - 1 : n - 1 + m]).astype(np.int64)
    return (products & 1).astype(np.int8)


def _finalize_keys(
    n_rounds: int,
    sifted_a: np.ndarray,
    sifted_b: np.ndarray,
    disclosed_fraction: float,
    abort_threshold: float,
    rng: np.random.Generator,
    chsh: float | None = None,
    chsh_rounds: int = 0,
    chsh_failed: bool = False,
) -> QkdSession:
    """Shared post-processing tail: disclosure, abort decision, amplification."""
    leaked, final = 0, np.zeros(0, dtype=np.int8)
    if sifted_a.size == 0:
        qber, disclosed = float("nan"), 0
        aborted, reason, detected = True, "no sifted bits", chsh_failed
    else:
        qber, disclosed_idx = estimate_qber(sifted_a, sifted_b, disclosed_fraction, rng)
        disclosed = int(disclosed_idx.size)
        if chsh_failed:
            aborted, reason, detected = True, "entanglement verification failed", True
        elif qber > abort_threshold:
            aborted, reason, detected = True, "error rate above abort threshold", True
        else:
            aborted, reason, detected = False, None, False
            remainder_a = np.delete(sifted_a, disclosed_idx)
            leaked = math.ceil(qber * remainder_a.size)
            final = privacy_amplify(remainder_a, leaked)
    return QkdSession(
        n_rounds=n_rounds,
        sifted_alice=sifted_a,
        sifted_bob=sifted_b,
        disclosed_count=disclosed,
        qber_estimate=qber,
        leaked_bits=leaked,
        final_key=final,
        aborted=aborted,
        abort_reason=reason,
        eavesdrop_detected=detected,
        chsh_estimate=chsh,
        chsh_rounds=chsh_rounds,
    )


# Most uniforms one stage of the photon gate draws, in expectation: a chunk
# holds _GATE_UNIFORMS // ceil(mean) rounds of a weak-coherent source, so
# its photon counts sum to at most _GATE_UNIFORMS on average, and
# _GATE_UNIFORMS rounds of a single-photon or empty source.
_GATE_UNIFORMS = 1 << 14


def _bb84_rounds(
    n_rounds: int, rng: np.random.Generator, mean_photons: float | None,
    channel: LossChannel | None, detector: Detector, eavesdropper: InFlightHook | None,
) -> tuple[np.ndarray, ...]:
    """Per-round arrays in :func:`sift_keys` order: Alice's bits and basis
    indices, Bob's bits (0 where no click) and basis indices, the clicks.
    The photon gate draws each chunk of rounds in three stages: the photon
    counts (:func:`~qntl.photonics.emit_pulse`, one uniform a round from a
    weak-coherent source with a positive mean only), the survivors
    (:func:`~qntl.photonics.transmit`, one uniform per emitted photon in
    round order), and one array of click uniforms, which
    :func:`~qntl.photonics.detect` reads round by round.

    A click whose uniform lies at or above the photon cut
    1 - (1 - efficiency)^n is a dark count alone (e0 = 1/2 in Lo, Ma and
    Chen, PRL 94, 230504, 2005): it carries no qubit, and Bob's bit is a
    fair coin read from that same uniform.  The photon clicks' qubits go
    through the hook and Bob's measurement as state-id arrays."""
    bits, a_bases, b_bases = rng.integers(0, 2, size=(3, n_rounds), dtype=np.int8)
    # The min keeps an infinite mean out of the chunk size, so that
    # emit_pulse rejects it with its ValueError.
    chunk = _GATE_UNIFORMS
    if mean_photons is not None and mean_photons > 0:
        chunk //= math.ceil(min(mean_photons, _GATE_UNIFORMS))
    clicked = np.zeros(n_rounds, dtype=bool)
    photon = np.zeros(n_rounds, dtype=bool)
    bob_bits = np.zeros(n_rounds, dtype=np.int8)
    for start in range(0, n_rounds, chunk):
        rounds = slice(start, min(start + chunk, n_rounds))
        size = rounds.stop - start
        arrived = emit_pulse(mean_photons, rng, size)
        if channel is not None:
            arrived = transmit(arrived, channel, rng)
        u = rng.random(size)
        clicked[rounds] = [detect(n, detector, x) for n, x in zip(arrived.tolist(), u.tolist())]
        cut = 1.0 - (1.0 - detector.efficiency) ** arrived
        photon[rounds] = clicked[rounds] & (u < cut)
        # A dark-only click's coin reads 1 in the upper half of [cut, click).
        bob_bits[rounds] = clicked[rounds] & (2 * u >= cut + detector.click_probability(arrived))
    states = 2 * a_bases[photon] + bits[photon]
    if eavesdropper is not None:
        states = eavesdropper(states, rng)
    bob_bits[photon] = measure_qubit(states, b_bases[photon], rng)[0]
    return bits, a_bases, bob_bits, b_bases, clicked


def run_bb84(
    n_rounds: int,
    rng: np.random.Generator,
    *,
    mean_photons: float | None = None,
    channel: LossChannel | None = None,
    detector: Detector | None = None,
    eavesdropper: InFlightHook | None = None,
    disclosed_fraction: float = DEFAULT_DISCLOSED_FRACTION,
    abort_threshold: float = DEFAULT_ABORT_THRESHOLD,
) -> QkdSession:
    """Prepare-and-measure key exchange over ``n_rounds`` pulses.

    The sender encodes a fresh random bit in a random basis each round; the
    receiver measures in an independently random basis.  ``eavesdropper``
    (if any) maps the state ids of the registered qubits to the ids it
    passes on (see the module docstring).  With an ideal single-photon
    source, no channel, and no eavesdropper the sifted error rate is exactly
    zero.

    Each round's pulse is a photon count: Poisson(``mean_photons``) from a
    weak-coherent source, or exactly one photon from the ideal single-photon
    source when ``mean_photons`` is None.  Losses in ``channel`` and the
    ``detector`` then gate which rounds the receiver registers; the qubit
    itself is tracked, as a state id, for the registered pulses only.
    A click from a dark count alone carries no qubit, and the receiver's bit
    is then a fair coin (see :func:`_bb84_rounds`).  Splitting attacks that
    exploit multi-photon pulses are treated by the decoy-intensity
    machinery, not here.  An invalid ``mean_photons`` raises ``ValueError``
    from the first round's photon count.

    Draw order: every round's bit, sender basis and receiver basis first, as
    one (3, ``n_rounds``) array; then the photon gate, per chunk of rounds,
    as one array each of photon-number uniforms (weak-coherent source with a
    positive mean only, inverted through the Poisson table that pns uses),
    channel uniforms (one per emitted photon) and click uniforms; then the
    eavesdropper's draws over the photon-clicked rounds (intercept-resend:
    one guess array, then one measurement uniform per round); then the
    receiver's array of one measurement uniform per photon-clicked round;
    then the disclosure sample.
    """
    if n_rounds <= 0:
        raise ValueError("need at least one round")
    if not 0.0 < disclosed_fraction < 1.0:
        raise ValueError("disclosed fraction must lie strictly between 0 and 1")
    detector = Detector() if detector is None else detector
    rounds = _bb84_rounds(n_rounds, rng, mean_photons, channel, detector, eavesdropper)
    return _finalize_keys(
        n_rounds, *sift_keys(*rounds), disclosed_fraction, abort_threshold, rng
    )


def _e91_rounds(
    state: PureState, n_rounds: int, chsh_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Test flags, Alice's and Bob's setting indices, and their bits, for
    ``n_rounds`` rounds on ``state`` with qubits beyond the first two traced
    out.  Each round's uniform is looked up in its setting's Born table."""
    ancillas = range(2, state.num_qubits)
    tables = np.array([joint_probabilities(state, a, b, ancillas) for a, b in _E91_SETTINGS])
    # Normalised so that a run of zero cells at the end shares the last
    # bound, 1.0, and no uniform can land in a zero-probability cell.
    cdf = np.cumsum(tables.reshape(8, 4), axis=1)
    cdf /= cdf[:, -1:]
    is_test = rng.random(n_rounds) < chsh_fraction
    a_idx = rng.integers(0, 2, size=n_rounds, dtype=np.int8)
    b_idx = rng.integers(0, 2, size=n_rounds, dtype=np.int8)
    setting = 4 * is_test + 2 * a_idx + b_idx
    cell = np.count_nonzero(rng.random(n_rounds)[:, None] >= cdf[setting], axis=1)
    return is_test, a_idx, b_idx, (cell >> 1).astype(np.int8), (cell & 1).astype(np.int8)


def run_e91(
    n_rounds: int,
    rng: np.random.Generator,
    *,
    pair_hook: PairHook | None = None,
    chsh_fraction: float = CHSH_TEST_FRACTION,
    detection_margin: float = CHSH_DETECTION_MARGIN,
    disclosed_fraction: float = DEFAULT_DISCLOSED_FRACTION,
    abort_threshold: float = DEFAULT_ABORT_THRESHOLD,
) -> QkdSession:
    """Entanglement-based key exchange with an interleaved CHSH self-test.

    Every round shares one pair state: phi+ (qubit 0 to the sender, qubit 1
    to the receiver), rewritten once by ``pair_hook`` when given; qubits the
    hook appends are traced out.  A random ``chsh_fraction`` of rounds is
    measured at the test settings instead of the key bases; the session
    aborts when the resulting CHSH estimate fails to clear
    2 + ``detection_margin``.  An honest pair gives about 2.83; any
    interception that breaks the entanglement drags the estimate to 2 or
    below, so the margin flags it.

    The rounds are drawn as arrays (test flags, both sides' setting indices,
    one uniform each), and each uniform is looked up in the joint Born table
    (:func:`~qntl.quantum.joint_probabilities`) of its round's setting.
    """
    if n_rounds <= 0:
        raise ValueError("need at least one round")
    if not 0.0 < chsh_fraction < 1.0:
        raise ValueError("test fraction must lie strictly between 0 and 1")
    if not 0.0 < disclosed_fraction < 1.0:
        raise ValueError("disclosed fraction must lie strictly between 0 and 1")

    state = bell_pair() if pair_hook is None else pair_hook(bell_pair())
    is_test, a_idx, b_idx, a_bits, b_bits = _e91_rounds(state, n_rounds, chsh_fraction, rng)
    products = (1 - 2 * a_bits[is_test]) * (1 - 2 * b_bits[is_test])
    try:
        s_value = chsh_estimate(a_idx[is_test], b_idx[is_test], products)
    except ValueError:
        s_value = float("nan")
    chsh_failed = not (s_value > 2.0 + detection_margin)  # NaN counts as failed

    key = ~is_test
    sifted_a, sifted_b = sift_keys(a_bits[key], a_idx[key], b_bits[key], b_idx[key])
    return _finalize_keys(
        n_rounds, sifted_a, sifted_b, disclosed_fraction, abort_threshold, rng,
        chsh=s_value, chsh_rounds=int(products.size), chsh_failed=chsh_failed,
    )


# ---------------------------------------------------------------------------
# Trusted-relay key forwarding
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RelayChainResult:
    """Trace of an end-to-end key hopping across trusted relays.

    ``cleartexts`` (n_relays x k) holds the key as each relay decrypts it;
    relays are confidentiality boundaries, so every row equals the original
    key whenever ``recovered_ok`` holds.  ``wire`` ((n_relays + 1) x k)
    holds the one-time-padded key on each hop.  Both are read-only.
    """

    n_relays: int
    delivered: np.ndarray
    recovered_ok: bool
    cleartexts: np.ndarray
    wire: np.ndarray

    def __post_init__(self) -> None:
        for name in ("cleartexts", "wire"):
            getattr(self, name).setflags(write=False)


def _check_bits(arr: np.ndarray, what: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.int8)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d bit array")
    if not np.all((out == 0) | (out == 1)):
        raise ValueError(f"{what} must contain only 0/1")
    return out


def relay_forward_key(cleartext: np.ndarray, hop_key: np.ndarray) -> np.ndarray:
    """One-time-pad the key for the next hop; applied to a ciphertext with
    the same hop key, it strips the pad again."""
    c = _check_bits(cleartext, "cleartext")
    h = _check_bits(hop_key, "hop key")
    if c.size != h.size:
        raise ValueError("hop key length must match the key")
    return c ^ h


def run_relay_chain(
    key: np.ndarray,
    n_relays: int,
    rng: np.random.Generator,
) -> RelayChainResult:
    """Forward an end-to-end key through ``n_relays`` trusted relays.

    Each of the n_relays + 1 hops is protected by its own fresh hop key, and
    each relay must fully decrypt before re-encrypting, so the key is seen in
    cleartext at every relay.  That sighting, not any wire weakness, is the
    attack surface this models: one compromised relay yields the whole key.
    """
    k = _check_bits(key, "key")
    n = int(n_relays)
    if n < 1:
        raise ValueError("need at least one relay")
    hop_keys = [rng.integers(0, 2, size=k.size, dtype=np.int8) for _ in range(n + 1)]
    cleartexts: list[np.ndarray] = []
    wire = [relay_forward_key(k, hop_keys[0])]
    for hop_key, next_key in zip(hop_keys, hop_keys[1:]):
        cleartexts.append(relay_forward_key(wire[-1], hop_key))
        wire.append(relay_forward_key(cleartexts[-1], next_key))
    delivered = relay_forward_key(wire[-1], hop_keys[n])
    return RelayChainResult(
        n_relays=n,
        delivered=delivered,
        recovered_ok=bool(np.array_equal(delivered, k)),
        cleartexts=np.array(cleartexts),
        wire=np.array(wire),
    )


# ---------------------------------------------------------------------------
# Decoy-intensity consistency test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoyIntensity:
    """One publicly announced pulse class: its label, mean, and volume."""

    label: str
    mean_photons: float
    n_pulses: int

    def __post_init__(self) -> None:
        if float(self.mean_photons) < 0.0:
            raise ValueError("mean photon number must be >= 0")
        if int(self.n_pulses) <= 0:
            raise ValueError("pulse count must be positive")


@dataclass(frozen=True)
class DecoyAssessment:
    """One intensity's measured gain against the honest-channel model."""

    label: str
    mean_photons: float
    sent: int
    detected: int
    gain: float
    model_gain: float
    relative_deviation: float


@dataclass(frozen=True)
class DecoyAnalysis:
    """Verdict of the decoy consistency test.

    ``eavesdrop_detected`` fires when any intensity's gain deviates from the
    honest-channel model by more than the threshold.  The single-photon
    yield lower bound collapses toward zero under a blocking splitter even
    though every individual gain might look plausible in isolation.  It is
    an asymptotic estimate computed from the measured gains with no
    finite-size correction, so shot noise can lift it above the true yield.
    """

    assessments: tuple[DecoyAssessment, ...]
    max_relative_deviation: float
    eavesdrop_detected: bool
    vacuum_yield: float
    single_photon_yield_lower_bound: float | None


def simulate_decoy_transmissions(
    intensities: Sequence[DecoyIntensity],
    channel: LossChannel,
    detector: Detector,
    rng: np.random.Generator,
    attacker: PnsStrategy,
) -> list[int]:
    """Send each intensity class and return its receiver click count, in
    order.

    Pulses are independent, so a class of n pulses clicks Binomial(n, Q)
    times, with Q = sum over k of P(k photons arrive) times the detector's
    click probability at k; each class takes one binomial draw, in order.
    With the no-eve strategy each photon survives the loss channel
    independently, so a Poisson(mu) pulse arrives as exactly
    Poisson(mu * transmittance) photons.  Any other splitting
    ``attacker`` taps at the source and forwards her chosen photon numbers
    over a lossless bypass (the strongest version of the attack: she
    replaces the lossy fiber), so the channel transmittance never applies.
    Her skim leaves Poisson(mu * (1 - q)) photons, and the arriving pmf is
    that law pushed through :func:`pns_transform_counts`.  Each Poisson law
    is cut where its tail falls below 1e-16 (:func:`qntl.stats.poisson_pmf`),
    which lowers Q by less than that.
    """
    if not intensities:
        raise ValueError("need at least one intensity class")
    labels = [item.label for item in intensities]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate intensity labels: {labels}")
    clicks = []
    for item in intensities:
        q = _click_probability(item.mean_photons, channel, detector, attacker)
        clicks.append(int(rng.binomial(item.n_pulses, q)))
    return clicks


def _click_probability(
    mu: float, channel: LossChannel, detector: Detector, attacker: PnsStrategy
) -> float:
    """Q, the click probability of one Poisson(mu) pulse: the arriving
    photon-number pmf weighted by the detector's click probability."""
    if attacker.variant is PnsVariant.NO_EVE:
        arriving = poisson_pmf(mu * channel.transmittance)
    else:
        skimmed = poisson_pmf(mu * (1.0 - attacker.intercept_probability))
        forwarded = pns_transform_counts(np.arange(skimmed.size), attacker)
        arriving = np.bincount(forwarded, weights=skimmed)
    q = float(arriving @ detector.click_probability(np.arange(arriving.size)))
    return min(q, 1.0)  # the masses may sum past 1 by a few ulps


def _model_gain(mu: float, channel: LossChannel, detector: Detector) -> float:
    """Honest-channel click probability for a Poisson pulse of mean ``mu``."""
    survive = channel.transmittance * detector.efficiency
    return 1.0 - (1.0 - detector.dark_count_prob) * math.exp(-survive * mu)


def decoy_state_analysis(
    intensities: Sequence[DecoyIntensity],
    detected: Sequence[int],
    channel: LossChannel,
    detector: Detector,
    deviation_threshold: float = 0.1,
) -> DecoyAnalysis:
    """Compare the measured gains, ``detected`` clicks per intensity class,
    with the honest-channel model.

    Requires at least two intensity classes with at least 10^3 pulses each;
    fewer classes cannot separate single-photon from multi-photon behavior
    and smaller samples drown the comparison in shot noise.  Also reports
    the standard two-intensity lower bound on the single-photon yield, using
    the vacuum class for the background estimate when one was sent.  That
    bound is an asymptotic estimate with no finite-size correction, so shot
    noise can lift it above the true yield (6 of 20 seeds did at 10^6 pulses
    per class; see README).
    """
    if len(intensities) < 2:
        raise ValueError("decoy analysis needs at least two intensity classes")
    for item in intensities:
        if item.n_pulses < 1000:
            raise ValueError(
                f"intensity {item.label!r} has only {item.n_pulses} pulses; need at least 1000"
            )
    assessments = []
    for item, clicks in zip(intensities, detected, strict=True):
        mu, sent = float(item.mean_photons), int(item.n_pulses)
        gain = clicks / sent
        model = _model_gain(mu, channel, detector)
        if model > 0.0:
            deviation = abs(gain - model) / model
        else:
            deviation = 0.0 if gain == 0.0 else float("inf")
        assessments.append(
            DecoyAssessment(item.label, mu, sent, clicks, gain, model, deviation)
        )
    # Vacuum classes estimate background only: their model gain is the dark
    # probability, so the relative scale is shot-noise dominated at any
    # practical volume and would false-alarm on an honest channel.
    alarmed = [a for a in assessments if a.mean_photons > 0.0]
    worst = max((item.relative_deviation for item in alarmed), default=0.0)

    vacuum = [a for a in assessments if a.mean_photons == 0.0]
    y0 = vacuum[0].gain if vacuum else float(detector.dark_count_prob)

    y1_bound: float | None = None
    positive = sorted(alarmed, key=lambda a: a.mean_photons)
    if len(positive) >= 2 and positive[-1].mean_photons > positive[0].mean_photons:
        nu, mu = positive[0], positive[-1]
        v, u = nu.mean_photons, mu.mean_photons
        # Two-intensity bound: Y1 >= u/(u v - v^2) *
        #   (Q_v e^v - Q_u e^u v^2/u^2 - (u^2 - v^2)/u^2 * Y0)
        bracket = (
            nu.gain * math.exp(v)
            - mu.gain * math.exp(u) * (v * v) / (u * u)
            - (u * u - v * v) / (u * u) * y0
        )
        y1_bound = max(0.0, u / (u * v - v * v) * bracket)

    return DecoyAnalysis(
        assessments=tuple(assessments),
        max_relative_deviation=worst,
        eavesdrop_detected=worst > deviation_threshold,
        vacuum_yield=y0,
        single_photon_yield_lower_bound=y1_bound,
    )
