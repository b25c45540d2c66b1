"""Exact state-vector engine for small qubit registers.

States are dense complex amplitude vectors over one to four qubits.  Every
gate, preparation and measurement works on one view of them,
``reshape([2] * n)``: one axis per qubit, qubit 0 first.  So qubit 0 is the
leftmost position in a basis label and the most significant bit of the flat
amplitude index: for a two-qubit register, index 2 = 0b10 is |10> with
qubit 0 equal to 1.  States are immutable: operations never mutate their
input, and the prepared states (:func:`encoded_qubit`, :func:`bell_pair`)
are module constants shared by every caller, so states can be shared freely
across threads.  :func:`measure_rotated` computes each Born split afresh and
draws one uniform variate.  :func:`measure_qubit` measures arrays of the four
BB84 states, named by id, on a table of their splits built once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "NORM_TOL",
    "CHSH_OPTIMAL_ANGLES",
    "Basis",
    "PureState",
    "MeasurementOutcome",
    "basis_state",
    "encoded_qubit",
    "bell_pair",
    "measure_qubit",
    "measure_rotated",
    "apply_cnot",
    "joint_probabilities",
]

MAX_QUBITS = 4
NORM_TOL = 1e-9

# Analyzer angles (a, a', b, b') that maximize the CHSH combination on a
# phi+ pair: S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| = 2*sqrt(2).
CHSH_OPTIMAL_ANGLES: tuple[float, float, float, float] = (
    0.0,
    math.pi / 4,
    math.pi / 8,
    3 * math.pi / 8,
)


class Basis(Enum):
    """Measurement basis for a single qubit."""

    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"

    @property
    def analyzer_angle(self) -> float:
        """Rotation angle whose eigenvectors realize this basis."""
        return 0.0 if self is Basis.RECTILINEAR else math.pi / 4


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of ``num_qubits`` qubits.

    The amplitude array has length 2**num_qubits, squared magnitudes summing
    to 1 within ``NORM_TOL``, and is frozen read-only on construction.
    """

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a 1-d vector")
        n = int(self.num_qubits)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"register size must be 1..{MAX_QUBITS}, got {n}")
        if amps.size != 2**n:
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match {n} qubit(s)"
            )
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    def tensor(self, other: "PureState") -> "PureState":
        """Joint state with ``other`` appended as the trailing qubits."""
        total = self.num_qubits + other.num_qubits
        if total > MAX_QUBITS:
            raise ValueError(f"combined register would exceed {MAX_QUBITS} qubits")
        return PureState(np.outer(self.amplitudes, other.amplitudes).ravel(), total)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a single-qubit measurement: the bit and the collapsed state."""

    bit: int
    post_state: PureState


def basis_state(bits: Sequence[int] | str) -> PureState:
    """Computational basis state |bits>, e.g. ``basis_state("10")`` = |10>."""
    bit_list = [int(b) for b in bits]
    if not bit_list or any(b not in (0, 1) for b in bit_list):
        raise ValueError("bits must be a non-empty sequence of 0/1")
    n = len(bit_list)
    if n > MAX_QUBITS:
        raise ValueError(f"register size must be 1..{MAX_QUBITS}, got {n}")
    amps = np.zeros([2] * n, dtype=np.complex128)
    amps[tuple(bit_list)] = 1.0
    return PureState(amps.reshape(-1), n)


_SQRT_HALF = 1.0 / math.sqrt(2.0)

_ENCODED = {
    (0, Basis.RECTILINEAR): PureState((1.0, 0.0), 1),
    (1, Basis.RECTILINEAR): PureState((0.0, 1.0), 1),
    (0, Basis.DIAGONAL): PureState((_SQRT_HALF, _SQRT_HALF), 1),
    (1, Basis.DIAGONAL): PureState((_SQRT_HALF, -_SQRT_HALF), 1),
}


def encoded_qubit(bit: int, basis: Basis) -> PureState:
    """Single qubit carrying ``bit`` in ``basis``: |0>, |1>, |+>, or |->.

    These are the four sender states of prepare-and-measure key exchange;
    measuring in the preparation basis recovers the bit with certainty.  Each
    is one shared immutable constant, validated once at import.
    """
    try:
        return _ENCODED[(int(bit), basis)]
    except KeyError:
        raise ValueError(f"bit must be 0 or 1, got {bit!r}") from None


_PHI_PLUS = PureState((_SQRT_HALF, 0.0, 0.0, _SQRT_HALF), 2)


def bell_pair() -> PureState:
    """The phi+ pair (|00> + |11>)/sqrt(2): one shared immutable constant,
    validated once at import."""
    return _PHI_PLUS


def _check_qubit(state: PureState, qubit_index: int) -> int:
    qubit_index = int(qubit_index)
    if not 0 <= qubit_index < state.num_qubits:
        raise IndexError(
            f"qubit index {qubit_index} out of range for {state.num_qubits} qubit(s)"
        )
    return qubit_index


def measure_rotated(
    state: PureState,
    qubit_index: int,
    angle: float,
    rng: np.random.Generator,
) -> MeasurementOutcome:
    """Projective measurement of one qubit along a rotated axis.

    The outcome-0 eigenvector is cos(angle)|0> + sin(angle)|1>; angle 0 is the
    rectilinear basis and pi/4 the diagonal one.  The returned post-state is
    the renormalized projection, so repeating the same measurement reproduces
    the same bit with certainty.  One uniform variate is consumed per call,
    making results deterministic for a fixed generator state.
    """
    q = _check_qubit(state, qubit_index)
    threshold, out0, out1 = _split(state, q, float(angle))
    return out0 if rng.random() < threshold else out1


def _split(
    state: PureState, q: int, angle: float
) -> tuple[float, MeasurementOutcome | None, MeasurementOutcome | None]:
    """Born split of qubit ``q`` of ``state``: the bound a uniform must fall
    below for outcome 0 (+-inf guard the float gap between p0 and 1), and
    both outcomes, ``None`` where the probability is 0."""
    n = state.num_qubits
    comps = _project(state.amplitudes, n, (q,), (angle,))
    p0, p1 = (np.abs(comps) ** 2).sum(axis=1).tolist()
    threshold = math.inf if p1 == 0.0 else -math.inf if p0 == 0.0 else p0
    outcomes = [None, None]
    for bit, (eigenvector, comp, p) in enumerate(zip(_eigenvectors(angle), comps, (p0, p1))):
        if p != 0.0:
            # The eigenvector on axis q, the component on the other axes.
            post = np.multiply.outer(eigenvector, comp) * (1.0 / math.sqrt(p))
            post = np.moveaxis(post.reshape([2] * n), 0, q).reshape(-1)
            post /= math.sqrt(float(np.sum(np.abs(post) ** 2)))
            outcomes[bit] = MeasurementOutcome(bit=bit, post_state=PureState(post, n))
    return threshold, *outcomes


def _eigenvectors(angle: float) -> np.ndarray:
    """Rows are the outcome-0 and outcome-1 eigenvectors of
    :func:`measure_rotated` at ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def _project(
    amps: np.ndarray, n: int, qubits: Sequence[int], angles: Sequence[float]
) -> np.ndarray:
    """Components of the ``n``-qubit ``amps`` along the eigenvectors of
    ``qubits`` at ``angles``.  Row r holds the measured qubits' outcomes r,
    the first qubit's the most significant bit; columns run over the other
    qubits' labels.  Each weight is a product of eigenvector entries, and the
    weighted amplitudes are summed elementwise, not by a BLAS product, whose
    fused multiply-adds would leave rounding residue in cells that cancel."""
    weights = np.ones((1, 1))
    for angle in angles:
        e = _eigenvectors(angle)
        weights = (weights[:, None, :, None] * e[None, :, None, :]).reshape(2 * len(weights), -1)
    k = len(qubits)
    view = np.moveaxis(amps.reshape([2] * n), qubits, range(k)).reshape(2**k, -1)
    return (weights[:, :, None] * view).sum(axis=1)


def measure_qubit(
    states: np.ndarray, bases: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Measure an array of encoded qubits, each in its own basis.

    ``states`` holds state ids ``2 * basis + bit``, the qubit that
    :func:`encoded_qubit` prepares for ``bit`` in basis index ``basis`` (0
    rectilinear, 1 diagonal); ``bases`` holds the measurement basis
    indices.  One array of uniforms, one per qubit, is compared with the
    exact Born split of each (state, basis) pair, the threshold of
    :func:`measure_rotated`, so bit 0 reads |0> or |+>.  Returns the bits
    and the post-state ids ``2 * bases + bits``: the collapsed qubit is the
    encoded state of the bit read in the measurement basis, up to a global
    phase.
    """
    bits = (rng.random(bases.size) >= _born_thresholds()[states, bases]).astype(np.int8)
    return bits, 2 * bases + bits


@functools.cache
def _born_thresholds() -> np.ndarray:
    """(4, 2) table of :func:`measure_qubit`: entry [s, b] is the bound a
    uniform must fall below for outcome 0 when state id s is measured in
    basis index b, taken from :func:`_split`."""
    bases = tuple(Basis)
    return np.array([
        [_split(encoded_qubit(s & 1, bases[s >> 1]), 0, basis.analyzer_angle)[0]
         for basis in bases]
        for s in range(4)
    ])


def apply_cnot(state: PureState, control: int, target: int) -> PureState:
    """Controlled-NOT: flips ``target`` wherever ``control`` is 1."""
    c = _check_qubit(state, control)
    t = _check_qubit(state, target)
    if c == t:
        raise ValueError("control and target must be distinct qubits")
    n = state.num_qubits
    amps = state.amplitudes.reshape([2] * n)
    out = amps.copy()
    on = (slice(None),) * c + (1,)  # control at 1; the target axis shifts down past it
    out[on] = np.flip(amps[on], axis=t - (t > c))
    return PureState(out.reshape(-1), n)


def joint_probabilities(
    state: PureState,
    angle_a: float,
    angle_b: float,
    trace_out: Iterable[int] | None = None,
) -> np.ndarray:
    """(2, 2) Born table: entry [i, j] is the probability that the first kept
    qubit reads i at ``angle_a`` and the second j at ``angle_b``, on the
    eigenvectors of :func:`measure_rotated`.  ``trace_out`` discards
    ancillary qubits (e.g. an eavesdropper's probe) by summing over them.
    Entries are sums of squared magnitudes, so never negative, and a cell
    whose terms cancel (a Bell pair's mismatches at equal angles) is 0.
    """
    n = state.num_qubits
    traced = set() if trace_out is None else {_check_qubit(state, q) for q in trace_out}
    kept = [q for q in range(n) if q not in traced]
    if len(kept) != 2:
        raise ValueError(f"correlation needs exactly 2 remaining qubits, got {len(kept)}")
    projected = _project(state.amplitudes, n, kept, (angle_a, angle_b))
    return (np.abs(projected) ** 2).sum(axis=1).reshape(2, 2)
