"""Attack models: photon-number splitting, Trojan-horse probing, entangling
probes, interlock spoofing, intercept-resend, and code-aware noise.

Intercept-resend is a hook that a protocol calls once on the state ids of
all its flying qubits; the entangling probe is a map that a protocol applies
once to its pair state.  The splitting model draws each series' pulses in
fixed-size chunks, and the interlock model draws one binomial count per
message length.  A splitting strategy skims each photon with its intercept
probability, then maps the skimmed counts to the counts it forwards.  The
Trojan-horse and repetition-code models draw the counts they report, one
draw per block of photons or per cell; the repetition-code experiment
returns its logical-error count alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .quantum import PureState, apply_cnot, basis_state, measure_qubit
# encoded_qubit has no caller here: bench/tracing.py patches qntl.attacks:encoded_qubit.
from .quantum import encoded_qubit  # noqa: F401
from .stats import Histogram, poisson_sample_array, zscore_compare

__all__ = [
    "PnsVariant",
    "PnsStrategy",
    "PnsExperimentResult",
    "pns_transform_counts",
    "pns_experiment",
    "TrojanVariant",
    "TrojanPolicy",
    "trojan_gain_experiment",
    "probe_infiltrate",
    "probe_hook",
    "interlock_exchange",
    "interlock_detection_rate",
    "intercept_resend",
    "qec_bitflip_experiment",
    "iid_logical_error_rate",
]

# ---------------------------------------------------------------------------
# Photon-number splitting
# ---------------------------------------------------------------------------

class PnsVariant(Enum):
    NO_EVE = "no-eve"
    RANDOM_INTERCEPT = "random-intercept"
    ALWAYS_MINUS_ONE = "always-minus-one"
    BLOCK_SINGLES = "block-singles"


@dataclass(frozen=True)
class PnsStrategy:
    """Photon-number splitting behavior at the tap point: skim each photon
    independently with probability ``intercept_probability``, then forward
    :func:`pns_transform_counts` of the photons left.

    Only random intercept skims; every other variant's intercept probability
    is 0.0, and a nonzero one raises.  no-eve forwards pulses untouched;
    always-minus-one takes exactly one photon when there is one to take;
    block-singles suppresses every pulse carrying fewer than two photons and
    forwards exactly one photon of each multi-photon pulse (the signature the
    decoy-state test looks for).
    """

    variant: PnsVariant
    intercept_probability: float = 0.0

    def __post_init__(self) -> None:
        q = float(self.intercept_probability)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"intercept probability must lie in [0, 1], got {q}")
        if q and self.variant is not PnsVariant.RANDOM_INTERCEPT:
            raise ValueError(f"{self.variant.value} skims no photon, got probability {q}")
        object.__setattr__(self, "intercept_probability", q)

    @classmethod
    def no_eve(cls) -> "PnsStrategy":
        return cls(PnsVariant.NO_EVE)

    @classmethod
    def random_intercept(cls, probability: float = 0.5) -> "PnsStrategy":
        return cls(PnsVariant.RANDOM_INTERCEPT, probability)

    @classmethod
    def always_minus_one(cls) -> "PnsStrategy":
        return cls(PnsVariant.ALWAYS_MINUS_ONE)

    @classmethod
    def block_singles(cls) -> "PnsStrategy":
        return cls(PnsVariant.BLOCK_SINGLES)

    def label(self) -> str:
        if self.variant is PnsVariant.RANDOM_INTERCEPT:
            return f"random-{self.intercept_probability:g}"
        return self.variant.value


def pns_transform_counts(counts: np.ndarray, strategy: PnsStrategy) -> np.ndarray:
    """Vectorized count map of ``strategy``: the photon counts it forwards
    from the skimmed ``counts``.  No-eve and random intercept forward every
    photon left after the skim."""
    counts = np.asarray(counts, dtype=np.int64)
    if strategy.variant is PnsVariant.ALWAYS_MINUS_ONE:
        return np.maximum(counts - 1, 0)
    if strategy.variant is PnsVariant.BLOCK_SINGLES:
        return (counts >= 2).astype(np.int64)
    return counts


@dataclass(frozen=True)
class PnsExperimentResult:
    """Received-count distributions per strategy, with per-bin z-scores
    against an independently seeded no-eavesdropper baseline."""

    baseline: Histogram
    histograms: Mapping[str, Histogram]
    zscores: Mapping[str, np.ndarray]

    def max_abs_z(self, label: str) -> float:
        return float(np.abs(self.zscores[label]).max())


# Draws per chunk of a pns series or of the Trojan random-shift phases:
# 2**15 uniforms (256 KiB) stay in cache.
_CHUNK = 1 << 15


def _series_histogram(
    mean: float, strategy: PnsStrategy, rng: np.random.Generator, n_pulses: int, max_bin: int
) -> Histogram:
    """Histogram of the counts that ``strategy`` forwards from ``n_pulses``
    Poisson(mean) pulses, drawn and counted ``_CHUNK`` pulses at a time
    into one pair of buffers.

    Consecutive chunks consume the uniforms of one whole draw, in order, so
    neither the histogram nor the stream's final state depends on the chunk
    size.  Skimming each photon of a Poisson(mean) pulse with probability q
    leaves exactly Poisson(mean * (1 - q)) photons, so the counts are drawn
    at that mean.  The count map then acts on their summed histogram,
    binned one past ``max_bin`` so that the counts the map sends to
    ``max_bin - 1`` stay apart from those it sends to the overflow bin; the
    counts are integers, so this equals mapping every pulse.
    """
    mean = mean * (1.0 - strategy.intercept_probability)
    top = max_bin + 1
    size = min(_CHUNK, n_pulses)
    uniforms, drawn = np.empty(size), np.empty(size, np.intp)
    skimmed = np.zeros(top + 1, dtype=np.int64)
    for start in range(0, n_pulses, _CHUNK):
        k = min(_CHUNK, n_pulses - start)
        emitted = poisson_sample_array(mean, rng, k, out=(uniforms[:k], drawn[:k]))
        skimmed += Histogram.from_samples(emitted, max_bin=top).counts
    forwarded = np.minimum(pns_transform_counts(np.arange(top + 1), strategy), max_bin)
    counts = np.zeros(max_bin + 1, dtype=np.int64)
    np.add.at(counts, forwarded, skimmed)
    return Histogram(counts=counts, total=n_pulses)


def pns_experiment(
    n_pulses: int,
    mean_photons: float,
    strategies: Sequence[PnsStrategy],
    rng: np.random.Generator,
    max_bin: int = 20,
) -> PnsExperimentResult:
    """Distribution experiment: emit Poisson pulses, apply each strategy,
    histogram what the receiver sees.

    Each strategy (and the baseline) runs on its own child stream spawned
    from ``rng``, so a listed no-eve strategy is compared against a
    differently seeded copy of itself, which is the intended null case.
    """
    if n_pulses < 10_000:
        raise ValueError("distribution experiment needs at least 10^4 pulses")
    if max_bin < 0:
        raise ValueError(f"max_bin must be >= 0, got {max_bin}")
    if not strategies:
        raise ValueError("need at least one strategy")
    labels = [s.label() for s in strategies]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate strategy labels: {labels}")
    children = rng.spawn(len(strategies) + 1)
    baseline = _series_histogram(mean_photons, PnsStrategy.no_eve(), children[0], n_pulses, max_bin)
    histograms: dict[str, Histogram] = {}
    zscores: dict[str, np.ndarray] = {}
    for strategy, label, child in zip(strategies, labels, children[1:]):
        hist = _series_histogram(mean_photons, strategy, child, n_pulses, max_bin)
        histograms[label] = hist
        zscores[label] = zscore_compare(hist, baseline)
    return PnsExperimentResult(baseline=baseline, histograms=histograms, zscores=zscores)


# ---------------------------------------------------------------------------
# Trojan-horse probing
# ---------------------------------------------------------------------------

class TrojanVariant(Enum):
    NO_SHIFT = "no-shift"
    FIXED_SHIFT = "fixed-shift"
    RANDOM_SHIFT = "random-shift"


@dataclass(frozen=True)
class TrojanPolicy:
    """Sender-side phase policy applied to diagonally encoded photons.

    Only the fixed-shift policy reads ``shift``; no-shift's is 0.0,
    random-shift draws a phase per photon, and a nonzero shift on either
    raises.
    """

    variant: TrojanVariant
    shift: float = 0.0

    def __post_init__(self) -> None:
        theta = float(self.shift)
        if not 0.0 <= theta < 2.0 * math.pi:
            raise ValueError(f"phase shift must lie in [0, 2*pi), got {theta}")
        if theta and self.variant is not TrojanVariant.FIXED_SHIFT:
            raise ValueError(f"{self.variant.value} takes no fixed phase, got {theta}")
        object.__setattr__(self, "shift", theta)

    @classmethod
    def no_shift(cls) -> "TrojanPolicy":
        return cls(TrojanVariant.NO_SHIFT)

    @classmethod
    def fixed_shift(cls, theta: float) -> "TrojanPolicy":
        return cls(TrojanVariant.FIXED_SHIFT, theta)

    @classmethod
    def random_shift(cls) -> "TrojanPolicy":
        return cls(TrojanVariant.RANDOM_SHIFT)

    def label(self) -> str:
        if self.variant is TrojanVariant.FIXED_SHIFT:
            return f"fixed-{self.shift:g}"
        return self.variant.value


def trojan_gain_experiment(
    checkpoints: Sequence[int] | np.ndarray,
    policy: TrojanPolicy,
    rng: np.random.Generator,
) -> np.ndarray:
    """Cumulative expected gain of an eavesdropper probing photons, read at
    each of the strictly increasing photon counts ``checkpoints``.

    The sender draws each photon's state uniformly from {|0>, |1>, |+>, |->}
    and applies the policy's phase to diagonal states only; the prober
    guesses a basis uniformly.  A photon's gain is the probability that the
    prober reads the sender's bit: 1/2 for a wrong guess (probability 1/2),
    1 for a correct rectilinear guess (1/4), phase shifts being invisible in
    that basis, and the Born probability cos^2(theta/2) for a correct
    diagonal guess (1/4): perfect without a shift, a coin flip at a quarter
    turn, always wrong at a half turn.

    Draws, in order: one multinomial over those three cases per block of
    photons between checkpoints, then, for the random-shift policy only, one
    uniform phase in [0, 2*pi) per correct diagonal guess.  The phases come
    ``_CHUNK`` at a time through one buffer, so memory stays O(chunk +
    checkpoints) at any photon count; consecutive chunks consume the stream
    as one whole draw would, and the running sum carried into each chunk's
    first element makes every read equal the whole-array sequential sum.
    """
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    if checkpoints.ndim != 1 or checkpoints.size == 0:
        raise ValueError("need at least one checkpoint")
    blocks = np.diff(checkpoints, prepend=0)
    if np.any(blocks <= 0):
        raise ValueError("checkpoints must be strictly increasing photon counts >= 1")
    wrong, rect, diag = rng.multinomial(blocks, [0.5, 0.25, 0.25]).T
    diag_seen = np.cumsum(diag)
    if policy.variant is TrojanVariant.RANDOM_SHIFT:
        # Phase i's gain cos^2(pi*u) is worked out in place; u * pi is
        # exactly half of u * (2 * pi), since scaling by 2 is exact.
        # diag_gain[j] is the summed gain of the first diag_seen[j] phases.
        total = int(diag_seen[-1])
        buffer = np.empty(min(_CHUNK, total))
        diag_gain = np.zeros(diag_seen.size)
        carry = 0.0
        for start in range(0, total, _CHUNK):
            gains = buffer[: min(_CHUNK, total - start)]
            rng.random(out=gains)
            np.multiply(gains, math.pi, out=gains)
            np.cos(gains, out=gains)
            np.square(gains, out=gains)
            gains[0] += carry
            np.cumsum(gains, out=gains)
            carry = gains[-1]
            # The checkpoints whose diag_seen lies in (start, start + size].
            lo, hi = np.searchsorted(diag_seen, (start, start + gains.size), side="right")
            diag_gain[lo:hi] = gains[diag_seen[lo:hi] - start - 1]
    else:
        diag_gain = diag_seen * math.cos(0.5 * policy.shift) ** 2  # no-shift's shift is 0.0
    return np.cumsum(0.5 * wrong + rect) + diag_gain


# ---------------------------------------------------------------------------
# Entangling probe
# ---------------------------------------------------------------------------

_PROBE_ZERO = basis_state("0")


def probe_infiltrate(pair: PureState) -> PureState:
    """Attach a probe qubit to an entangled pair.

    The probe starts in |0> and is CNOT-entangled with the receiver's qubit
    (control = qubit 1, target = the new qubit 2), so rectilinear outcomes on
    the receiver and the probe agree with certainty while the pair's
    diagonal-basis correlations are destroyed.
    """
    if pair.num_qubits != 2:
        raise ValueError("infiltration expects a two-qubit pair")
    extended = pair.tensor(_PROBE_ZERO)
    return apply_cnot(extended, control=1, target=2)


def probe_hook() -> Callable[[PureState], PureState]:
    """Pair-source hook: :func:`probe_infiltrate`, which a protocol applies
    once to the state all its pairs share."""
    return probe_infiltrate


# ---------------------------------------------------------------------------
# Interlock protocol
# ---------------------------------------------------------------------------

def interlock_exchange(
    message_bits: int,
    trials: int,
    rng: np.random.Generator,
) -> int:
    """Run ``trials`` interlock exchanges of ``message_bits``-bit messages and
    return how many exposed a relay attacker.

    Each message travels as two halves that are useless alone, and neither
    side releases its second half before receiving the peer's first.  A
    relay attacker must therefore commit to the sender's second half before
    seeing it; she guesses those message_bits/2 bits uniformly and is caught
    whenever the guess differs from the real half, i.e. with probability
    1 - 2^(-message_bits/2) (Rivest and Shamir, "How to expose an
    eavesdropper", CACM 27(4), 1984).  The exchanges are independent, so the
    count is one binomial draw at that rate.
    """
    rate = interlock_detection_rate(message_bits)
    if trials < 1:
        raise ValueError(f"need at least one exchange, got {trials}")
    return int(rng.binomial(trials, rate))


def interlock_detection_rate(message_bits: int) -> float:
    """Analytic probability that a relay attacker is caught."""
    k = int(message_bits)
    if k < 2 or k % 2 != 0:
        raise ValueError(f"message length must be an even integer >= 2, got {k}")
    return 1.0 - 2.0 ** (-(k // 2))


# ---------------------------------------------------------------------------
# Intercept-resend
# ---------------------------------------------------------------------------

def intercept_resend() -> Callable[[np.ndarray, np.random.Generator], np.ndarray]:
    """Build an in-flight hook that measures each flying qubit in a uniformly
    guessed basis and resends the bit it read, encoded in that basis.

    The hook maps state ids to state ids (see
    :func:`~qntl.quantum.measure_qubit`): it draws one array of basis
    guesses, then measures every qubit through one batched call, whose
    post-state ids are the resent states.
    """

    def hook(states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        guesses = rng.integers(0, 2, size=states.size, dtype=np.int8)
        return measure_qubit(states, guesses, rng)[1]

    return hook


# ---------------------------------------------------------------------------
# Bit-flip code under iid and adversarial noise
# ---------------------------------------------------------------------------

def iid_logical_error_rate(p: float) -> float:
    """Analytic majority-vote failure rate under iid flips: 3p^2 - 2p^3."""
    return 3.0 * p * p - 2.0 * p**3


def _block_failure_probability(p: float, mode: str) -> float:
    """Probability that majority decoding of one block fails.

    iid: the weight of the 8 flip patterns whose majority vote flips the
    block.  burst-2: a fired burst flips two adjacent bits, which the vote
    always gets wrong, and no other pattern occurs, so p.
    """
    if mode == "burst-2":
        return p
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=3):
        if sum(pattern) >= 2:
            total += math.prod(p if flipped else 1.0 - p for flipped in pattern)
    return total


def qec_bitflip_experiment(
    n_blocks: int,
    flip_probability: float,
    mode: str,
    rng: np.random.Generator,
) -> int:
    """Count the logical errors of the three-bit repetition code in
    ``n_blocks`` blocks.

    Modes: "iid" flips each physical bit independently with probability p;
    "burst-2" flips one randomly chosen adjacent pair with probability p,
    which defeats the code exactly when it fires (logical rate p).  Blocks
    are independent and whether one decodes wrongly does not depend on its
    logical bit, so the error count is one Binomial(n_blocks, P) draw, with
    P the per-block failure probability.
    """
    if n_blocks <= 0:
        raise ValueError("need at least one block")
    p = float(flip_probability)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    if mode not in ("iid", "burst-2"):
        raise ValueError(f"unknown noise mode {mode!r}")
    return int(rng.binomial(n_blocks, _block_failure_probability(p, mode)))
