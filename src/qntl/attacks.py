"""Attack models: photon-number splitting, Trojan-horse probing, entangling
probes, interlock spoofing, intercept-resend, and code-aware noise.

Intercept-resend is a hook that a protocol calls on one flying qubit at a
time; the entangling probe is a map that a protocol applies once to its pair
state.  The splitting, Trojan-horse, interlock and repetition-code models
draw a whole experiment's variates as arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .quantum import (
    Basis,
    MeasurementOutcome,
    PureState,
    apply_cnot,
    basis_state,
    encoded_qubit,
    measure_qubit,
)
from .stats import Histogram, ZScoreSeries, poisson_sample_array, zscore_compare

__all__ = [
    "BASIS_RECT",
    "BASIS_DIAG",
    "PnsVariant",
    "PnsStrategy",
    "PnsExperimentResult",
    "pns_transform_counts",
    "pns_experiment",
    "TrojanVariant",
    "TrojanPolicy",
    "GainLedger",
    "photon_gain_increment",
    "trojan_gain_experiment",
    "probe_infiltrate",
    "probe_hook",
    "interlock_exchange",
    "interlock_detection_rate",
    "intercept_resend",
    "QecResult",
    "qec_bitflip_experiment",
    "iid_logical_error_rate",
]

# Basis tags used in gain bookkeeping: +1 rectilinear, -1 diagonal.
BASIS_RECT = 1
BASIS_DIAG = -1


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
    """Photon-number splitting behavior at the tap point.

    no-eve forwards pulses untouched; random-intercept skims each photon
    independently with the given probability; always-minus-one takes exactly
    one photon when there is one to take; block-singles suppresses every
    pulse carrying fewer than two photons and forwards exactly one photon of
    each multi-photon pulse (the signature the decoy-state test looks for).
    """

    variant: PnsVariant
    intercept_probability: float = 0.5

    def __post_init__(self) -> None:
        q = float(self.intercept_probability)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"intercept probability must lie in [0, 1], got {q}")
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


def pns_transform_counts(
    counts: np.ndarray,
    strategy: PnsStrategy,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized semantics of the strategies that act on the emitted count.

    Returns (taken, forwarded) arrays with taken + forwarded == counts.
    Random intercept is not such a map: it skims each photon independently,
    so its forwarded counts are drawn directly as Poisson(mu * (1 - q)).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if strategy.variant is PnsVariant.NO_EVE:
        taken = np.zeros_like(counts)
    elif strategy.variant is PnsVariant.ALWAYS_MINUS_ONE:
        taken = np.minimum(counts, 1)
    elif strategy.variant is PnsVariant.BLOCK_SINGLES:
        taken = np.where(counts < 2, counts, counts - 1)
    else:
        raise ValueError("random intercept thins each photon; draw Poisson(mu * (1 - q)) instead")
    return taken, counts - taken


@dataclass(frozen=True)
class PnsExperimentResult:
    """Received-count distributions per strategy, with per-bin z-scores
    against an independently seeded no-eavesdropper baseline."""

    mean_photons: float
    n_pulses: int
    baseline: Histogram
    histograms: Mapping[str, Histogram]
    zscores: Mapping[str, ZScoreSeries]

    def max_abs_z(self, label: str) -> float:
        return self.zscores[label].max_abs


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
    if not strategies:
        raise ValueError("need at least one strategy")
    labels = [s.label() for s in strategies]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate strategy labels: {labels}")
    children = rng.spawn(len(strategies) + 1)
    base_counts = poisson_sample_array(mean_photons, children[0], n_pulses)
    baseline = Histogram.from_samples(base_counts, max_bin=max_bin)
    histograms: dict[str, Histogram] = {}
    zscores: dict[str, ZScoreSeries] = {}
    for strategy, label, child in zip(strategies, labels, children[1:]):
        if strategy.variant is PnsVariant.RANDOM_INTERCEPT:
            # Skimming each photon of a Poisson(mu) pulse with probability q
            # leaves exactly Poisson(mu * (1 - q)) photons.
            survival = 1.0 - strategy.intercept_probability
            forwarded = poisson_sample_array(mean_photons * survival, child, n_pulses)
        else:
            emitted = poisson_sample_array(mean_photons, child, n_pulses)
            _, forwarded = pns_transform_counts(emitted, strategy)
        hist = Histogram.from_samples(forwarded, max_bin=max_bin)
        histograms[label] = hist
        zscores[label] = zscore_compare(hist, baseline)
    return PnsExperimentResult(
        mean_photons=float(mean_photons),
        n_pulses=int(n_pulses),
        baseline=baseline,
        histograms=histograms,
        zscores=zscores,
    )


# ---------------------------------------------------------------------------
# Trojan-horse probing
# ---------------------------------------------------------------------------

class TrojanVariant(Enum):
    NO_SHIFT = "no-shift"
    FIXED_SHIFT = "fixed-shift"
    RANDOM_SHIFT = "random-shift"


@dataclass(frozen=True)
class TrojanPolicy:
    """Sender-side phase policy applied to diagonally encoded photons."""

    variant: TrojanVariant
    shift: float = 0.0

    def __post_init__(self) -> None:
        theta = float(self.shift)
        if not 0.0 <= theta < 2.0 * math.pi:
            raise ValueError(f"phase shift must lie in [0, 2*pi), got {theta}")
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


def photon_gain_increment(eve_basis: int, alice_basis: int, phase_shift: float) -> float:
    """Expected information gain from one probed photon: the probability
    that the prober reads the sender's bit.

    A wrong basis guess is worth 1/2.  A correct rectilinear guess reads the
    photon perfectly (gain 1), phase shifts being invisible in that basis.  A
    correct diagonal guess reads the phase-shifted state with the Born
    probability cos^2(theta/2): perfect without a shift, a coin flip at a
    quarter turn, always wrong at a half turn.
    """
    if eve_basis not in (BASIS_RECT, BASIS_DIAG) or alice_basis not in (BASIS_RECT, BASIS_DIAG):
        raise ValueError("basis tags must be +1 (rectilinear) or -1 (diagonal)")
    if eve_basis != alice_basis:
        return 0.5
    if alice_basis == BASIS_RECT:
        return 1.0
    return math.cos(0.5 * phase_shift) ** 2


@dataclass(frozen=True, eq=False)
class GainLedger:
    """Per-photon gain bookkeeping for a Trojan-horse run.

    Every row carries the basis pair and the phase shift that produced its
    gain, so the ledger can be re-derived entry by entry.
    """

    per_photon_gain: np.ndarray
    eve_bases: np.ndarray
    alice_bases: np.ndarray
    phase_shifts: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.per_photon_gain, dtype=float)
        eb = np.asarray(self.eve_bases, dtype=np.int8)
        ab = np.asarray(self.alice_bases, dtype=np.int8)
        ph = np.asarray(self.phase_shifts, dtype=float)
        if not (g.shape == eb.shape == ab.shape == ph.shape) or g.ndim != 1:
            raise ValueError("ledger columns must be 1-d arrays of equal length")
        for arr in (g, eb, ab, ph):
            arr.setflags(write=False)
        object.__setattr__(self, "per_photon_gain", g)
        object.__setattr__(self, "eve_bases", eb)
        object.__setattr__(self, "alice_bases", ab)
        object.__setattr__(self, "phase_shifts", ph)

    @property
    def n_photons(self) -> int:
        return self.per_photon_gain.size

    @property
    def cumulative_gain(self) -> float:
        return float(self.per_photon_gain.sum())

    def cumulative_series(self) -> np.ndarray:
        return np.cumsum(self.per_photon_gain)

    def recompute_gain(self, index: int) -> float:
        return photon_gain_increment(
            int(self.eve_bases[index]),
            int(self.alice_bases[index]),
            float(self.phase_shifts[index]),
        )


def trojan_gain_experiment(
    n_photons: int,
    policy: TrojanPolicy,
    rng: np.random.Generator,
) -> GainLedger:
    """Accumulate an eavesdropper's expected gain over probed photons.

    The sender draws each photon's state uniformly from {|0>, |1>, |+>, |->}
    and applies the policy's phase to diagonal states only; the prober
    guesses a basis uniformly.  Gains follow :func:`photon_gain_increment`.
    """
    if n_photons <= 0:
        raise ValueError("need at least one photon")
    diag = rng.integers(0, 4, size=n_photons) >= 2
    if policy.variant is TrojanVariant.RANDOM_SHIFT:
        shifts = np.zeros(n_photons)
        diagonal = np.flatnonzero(diag)
        shifts[diagonal] = rng.random(diagonal.size) * (2.0 * math.pi)
    else:
        shifts = diag * policy.shift  # the no-shift policy's shift is 0.0
    eve_diag = rng.integers(0, 2, size=n_photons) == 1

    # A wrong guess gains 1/2 and a correct one 1, except a correct diagonal
    # guess, which feels the phase.
    correct = eve_diag == diag
    gains = 0.5 + 0.5 * correct
    probed = np.flatnonzero(correct & diag)
    gains[probed] = np.cos(0.5 * shifts[probed]) ** 2
    return GainLedger(
        per_photon_gain=gains,
        eve_bases=1 - 2 * eve_diag.view(np.int8),  # BASIS_RECT or BASIS_DIAG
        alice_bases=1 - 2 * diag.view(np.int8),
        phase_shifts=shifts,
    )


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
    eve_present: bool,
    rng: np.random.Generator,
) -> int:
    """Run ``trials`` interlock exchanges of ``message_bits``-bit messages and
    return how many exposed a relay attacker.

    Each message travels as two halves that are useless alone, and neither
    side releases its second half before receiving the peer's first.  A
    relay attacker must therefore commit to the sender's second half before
    seeing it; she guesses those message_bits/2 bits uniformly and is caught
    whenever the guess differs from the real half, i.e. with probability
    1 - 2^(-message_bits/2).  Without her no exchange is flagged.
    """
    k = int(message_bits)
    if k < 2 or k % 2 != 0:
        raise ValueError(f"message length must be an even integer >= 2, got {k}")
    if trials < 1:
        raise ValueError(f"need at least one exchange, got {trials}")
    if not eve_present:
        return 0
    half = k // 2
    sent = rng.integers(0, 2, size=(trials, k), dtype=np.int8)
    guesses = rng.integers(0, 2, size=(trials, half), dtype=np.int8)
    return int(np.count_nonzero((sent[:, half:] != guesses).any(axis=1)))


def interlock_detection_rate(message_bits: int) -> float:
    """Analytic probability that a relay attacker is caught."""
    if message_bits < 2 or message_bits % 2 != 0:
        raise ValueError("message length must be an even integer >= 2")
    return 1.0 - 2.0 ** (-(message_bits // 2))


# ---------------------------------------------------------------------------
# Intercept-resend
# ---------------------------------------------------------------------------

def intercept_resend(
    mode: str = "random",
) -> Callable[[PureState, Basis, np.random.Generator], PureState]:
    """Build an in-flight qubit hook that measures and re-prepares each pulse.

    Modes: "random" guesses a basis uniformly (the physical attack);
    "always-correct" and "always-wrong" are oracle modes for testing that
    pin the guess relative to the sender's true basis.
    """
    if mode not in ("random", "always-correct", "always-wrong"):
        raise ValueError(f"unknown intercept-resend mode {mode!r}")

    def hook(state: PureState, sender_basis: Basis, rng: np.random.Generator) -> PureState:
        if mode == "random":
            guess = Basis.RECTILINEAR if rng.integers(0, 2) == 0 else Basis.DIAGONAL
        elif mode == "always-correct":
            guess = sender_basis
        else:
            guess = Basis.DIAGONAL if sender_basis is Basis.RECTILINEAR else Basis.RECTILINEAR
        outcome: MeasurementOutcome = measure_qubit(state, 0, guess, rng)
        return encoded_qubit(outcome.bit, guess)

    return hook


# ---------------------------------------------------------------------------
# Bit-flip code under iid and adversarial noise
# ---------------------------------------------------------------------------

def iid_logical_error_rate(p: float) -> float:
    """Analytic majority-vote failure rate under iid flips: 3p^2 - 2p^3."""
    return 3.0 * p * p - 2.0 * p**3


@dataclass(frozen=True)
class QecResult:
    """Outcome of a repetition-code run, with both break-even readings
    surfaced (neither is chosen as a verdict here)."""

    mode: str
    flip_probability: float
    n_blocks: int
    logical_errors: int
    logical_error_rate: float
    iid_analytic_rate: float
    majority_crossover_probability: float = 0.5
    correctable_qubit_fraction: float = 1.0 / 3.0


def qec_bitflip_experiment(
    n_blocks: int,
    flip_probability: float,
    mode: str,
    rng: np.random.Generator,
) -> QecResult:
    """Count the logical errors of the three-bit repetition code.

    Modes: "iid" flips each physical bit independently with probability p;
    "burst-2" flips one randomly chosen adjacent pair with probability p,
    which defeats the code exactly when it fires (logical rate p).  Majority
    decoding fails exactly when two or more of a block's three bits flip,
    whatever its logical bit, so failures are counted from the flips alone.
    The logical bits and burst offsets are still drawn, and discarded, so
    that later draws from ``rng`` do not move.
    """
    if n_blocks <= 0:
        raise ValueError("need at least one block")
    p = float(flip_probability)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    if mode not in ("iid", "burst-2"):
        raise ValueError(f"unknown noise mode {mode!r}")

    rng.integers(0, 2, size=n_blocks, dtype=np.int8)  # logical bits
    if mode == "iid":
        flips = (rng.random((n_blocks, 3)) < p).view(np.uint8)
        failed = flips[:, 0] + flips[:, 1] + flips[:, 2] >= 2
    else:
        failed = rng.random(n_blocks) < p  # a burst flips two adjacent bits
        rng.integers(0, 2, size=n_blocks)  # its offset: pair (0,1) or (1,2)
    errors = int(np.count_nonzero(failed))
    return QecResult(
        mode=mode,
        flip_probability=p,
        n_blocks=int(n_blocks),
        logical_errors=errors,
        logical_error_rate=errors / n_blocks,
        iid_analytic_rate=iid_logical_error_rate(p),
    )
