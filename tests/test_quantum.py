"""Tests for the small-register state-vector engine."""
import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qntl.attacks import intercept_resend, probe_hook
from qntl.photonics import LossChannel
from qntl.qkd import run_bb84, run_e91
from qntl.quantum import (
    CHSH_OPTIMAL_ANGLES,
    Basis,
    MeasurementOutcome,
    PureState,
    apply_cnot,
    basis_state,
    bell_pair,
    encoded_qubit,
    joint_probabilities,
    measure_qubit,
    measure_rotated,
    _born_thresholds,
    _split,
)
from qntl.stats import stream

from oracles import apply_phase, chsh_value, correlation

SQ2 = 1.0 / math.sqrt(2.0)


def random_state(n_qubits, seed):
    rng = stream(seed, "random-state")
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return PureState(v / np.linalg.norm(v), n_qubits)


# ---------------------------------------------------------------- states

def test_basis_state_is_msb_first():
    # qubit 0 is the leftmost label position, so |10> is index 0b10 = 2
    s = basis_state("10")
    assert abs(s.amplitudes[2]) ** 2 == pytest.approx(1.0)
    assert abs(basis_state([0, 1]).amplitudes[1]) ** 2 == pytest.approx(1.0)


def test_bell_pair_amplitudes():
    assert np.allclose(bell_pair().amplitudes, [SQ2, 0, 0, SQ2])


def test_encoded_qubit_four_states():
    assert np.allclose(encoded_qubit(0, Basis.RECTILINEAR).amplitudes, [1, 0])
    assert np.allclose(encoded_qubit(1, Basis.RECTILINEAR).amplitudes, [0, 1])
    assert np.allclose(encoded_qubit(0, Basis.DIAGONAL).amplitudes, [SQ2, SQ2])
    assert np.allclose(encoded_qubit(1, Basis.DIAGONAL).amplitudes, [SQ2, -SQ2])
    with pytest.raises(ValueError):
        encoded_qubit(2, Basis.RECTILINEAR)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState([1.0, 0.0, 0.0], 2)  # length does not match the register
    with pytest.raises(ValueError):
        PureState([0.9, 0.1], 1)  # norm off
    with pytest.raises(ValueError):
        PureState(np.zeros(32, dtype=complex), 5)  # register too large
    with pytest.raises(ValueError):
        bell_pair().tensor(basis_state("000"))  # 5 qubits combined


def test_tensor_orders_amplitudes():
    joint = basis_state("1").tensor(basis_state("0"))
    assert abs(joint.amplitudes[2]) ** 2 == pytest.approx(1.0)


# ---------------------------------------------------------------- measurement

def test_eigenstate_measurement_is_certain():
    rng = stream(0, "meas-eigen")
    out = measure_rotated(basis_state("0"), 0, Basis.RECTILINEAR.analyzer_angle, rng)
    assert out.bit == 0
    out = measure_rotated(
        encoded_qubit(1, Basis.DIAGONAL), 0, Basis.DIAGONAL.analyzer_angle, rng
    )
    assert out.bit == 1


def test_plus_state_rectilinear_frequency():
    rng = stream(42, "meas-plus")
    plus = encoded_qubit(0, Basis.DIAGONAL)
    rect = Basis.RECTILINEAR.analyzer_angle
    zeros = sum(measure_rotated(plus, 0, rect, rng).bit == 0 for _ in range(10**4))
    assert abs(zeros / 10**4 - 0.5) < 0.01


def test_bell_measurements_are_correlated():
    rng = stream(7, "meas-bell")
    for _ in range(200):
        first = measure_rotated(bell_pair(), 0, Basis.RECTILINEAR.analyzer_angle, rng)
        second = measure_rotated(first.post_state, 1, Basis.RECTILINEAR.analyzer_angle, rng)
        assert first.bit == second.bit


def test_measurement_is_idempotent():
    rng = stream(13, "meas-idem")
    for seed in range(50):
        state = random_state(2, seed)
        out = measure_rotated(state, 0, 0.3, rng)
        again = measure_rotated(out.post_state, 0, 0.3, rng)
        assert again.bit == out.bit


def test_measurement_is_seed_deterministic():
    plus = encoded_qubit(0, Basis.DIAGONAL)
    rect = Basis.RECTILINEAR.analyzer_angle
    bits_a = [measure_rotated(plus, 0, rect, stream(9, f"det-{t}")).bit for t in range(64)]
    bits_b = [measure_rotated(plus, 0, rect, stream(9, f"det-{t}")).bit for t in range(64)]
    assert bits_a == bits_b


def test_born_table_matches_split_for_every_state_and_basis():
    # State id 2 * basis + bit is encoded_qubit(bit, basis); the table holds
    # _split's threshold, and the post-state id 2 * basis + bit names the
    # collapsed state up to a global phase.
    bases = tuple(Basis)
    for state_id in range(4):
        state = encoded_qubit(state_id & 1, bases[state_id >> 1])
        for b, basis in enumerate(bases):
            split = _split(state, 0, basis.analyzer_angle)
            assert _born_thresholds()[state_id, b] == split[0]
            for bit, outcome in enumerate(split[1:]):
                if outcome is None:
                    continue
                resent = encoded_qubit(bit, bases[b])
                overlap = np.vdot(resent.amplitudes, outcome.post_state.amplitudes)
                assert abs(abs(overlap) - 1.0) <= 1e-12


@given(seed=st.integers(0, 10**6), n=st.integers(0, 64))
@settings(max_examples=50, deadline=None)
def test_batched_measure_reads_one_uniform_per_qubit(seed, n):
    # bit = u >= threshold[state, basis] on one array of n uniforms, and the
    # generator ends where one draw of n uniforms leaves it.
    rng, ref_rng = stream(seed, "batch-measure"), stream(seed, "batch-measure")
    states, bases = rng.integers(0, [[4], [2]], size=(2, n)).astype(np.int8)
    ref_rng.integers(0, [[4], [2]], size=(2, n))
    bits, post = measure_qubit(states, bases, rng)
    expected = (ref_rng.random(n) >= _born_thresholds()[states, bases]).astype(np.int8)
    assert np.array_equal(bits, expected)
    assert np.array_equal(post, 2 * bases + expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # Measuring in the preparation basis is certain.
    same = bases == states >> 1
    assert np.array_equal(bits[same], states[same] & 1)


def reference_split(state, qubit_index, angle):
    """The earlier array kernel's Born split: reshape the register to one
    axis per qubit, rotate the measured axis, and renormalise each branch.
    Returns (p, post-state amplitudes or None where p is 0) per outcome."""
    q = qubit_index
    n = state.num_qubits
    t = state.amplitudes.reshape([2] * n)
    a0 = np.take(t, 0, axis=q)
    a1 = np.take(t, 1, axis=q)
    c, s = math.cos(angle), math.sin(angle)
    branches = []
    for comp, u0, u1 in ((c * a0 + s * a1, c, s), (-s * a0 + c * a1, -s, c)):
        p = float(np.sum(np.abs(comp) ** 2))
        if p == 0.0:
            branches.append((p, None))
            continue
        scale = 1.0 / math.sqrt(p)
        post = np.stack([u0 * comp * scale, u1 * comp * scale], axis=q).reshape(2**n)
        branches.append((p, post / math.sqrt(float(np.sum(np.abs(post) ** 2)))))
    return branches


def reference_measure_rotated(state, qubit_index, angle, rng):
    """The earlier array kernel: one uniform against the reference split."""
    (p0, post0), (p1, post1) = reference_split(state, qubit_index, angle)
    bit = 0 if rng.random() < p0 else 1
    if p1 == 0.0:
        bit = 0
    elif p0 == 0.0:
        bit = 1
    post = post1 if bit else post0
    return MeasurementOutcome(bit=bit, post_state=PureState(post, state.num_qubits))


@st.composite
def registers(draw, min_qubits=1):
    """A ``min_qubits``-4 qubit state (random, or a computational basis
    state) and a qubit index into it."""
    n = draw(st.integers(min_qubits, 4))
    if draw(st.booleans()):
        state = basis_state(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        state = random_state(n, draw(st.integers(0, 10**6)))
    return state, draw(st.integers(0, n - 1))


@given(
    register=registers(),
    angle=st.one_of(
        st.sampled_from([0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8]),
        st.floats(-2 * math.pi, 2 * math.pi),
    ),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=400, deadline=None)
def test_measure_rotated_matches_reference_kernel(register, angle, seed):
    state, qubit = register
    rng, ref_rng = stream(seed, "kernel"), stream(seed, "kernel")
    out = measure_rotated(state, qubit, angle, rng)
    ref = reference_measure_rotated(state, qubit, angle, ref_rng)
    assert out.bit == ref.bit
    assert np.max(np.abs(out.post_state.amplitudes - ref.post_state.amplitudes)) <= 1e-12
    # Exactly one uniform was drawn by each kernel.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(register=registers(min_qubits=2), angle=st.floats(-2 * math.pi, 2 * math.pi))
@settings(max_examples=50, deadline=None)
def test_joint_probabilities_match_sequential_reference_splits(register, angle):
    # P[i, j] = P(first kept qubit reads i) * P(second reads j | first read
    # i), from two sequential reference splits on the whole register; the
    # qubits left out are summed over by the second split.
    state, _ = register
    n = state.num_qubits
    angles = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, angle)
    for first, second in itertools.combinations(range(n), 2):
        traced = [q for q in range(n) if q not in (first, second)]
        for angle_a in angles:
            branches = [
                (p_i, None if post is None else PureState(post, n))
                for p_i, post in reference_split(state, first, angle_a)
            ]
            for angle_b in angles:
                expected = np.zeros((2, 2))
                for i, (p_i, post) in enumerate(branches):
                    if post is not None:
                        for j, (p_j, _) in enumerate(reference_split(post, second, angle_b)):
                            expected[i, j] = p_i * p_j
                table = joint_probabilities(state, angle_a, angle_b, trace_out=traced)
                assert table.shape == (2, 2)
                assert np.max(np.abs(table - expected)) <= 1e-12
                assert np.all(table >= 0.0)
                assert abs(table.sum() - 1.0) <= 1e-12
                if not traced:
                    assert np.array_equal(joint_probabilities(state, angle_a, angle_b), table)


def test_joint_probabilities_of_phi_plus_mismatches_are_exactly_zero():
    # The honest key rounds' error cells are exact zeros, not rounding
    # residue, so an honest E91 key has no errors at any setting.
    for angle in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, 0.3, 1.234):
        table = joint_probabilities(bell_pair(), angle, angle)
        assert table[0, 1] == 0.0 and table[1, 0] == 0.0


SESSIONS = {
    "bb84": lambda rng: run_bb84(300, rng),
    "bb84-intercept": lambda rng: run_bb84(300, rng, eavesdropper=intercept_resend()),
    "bb84-weak-coherent": lambda rng: run_bb84(
        1000, rng, mean_photons=0.5, channel=LossChannel(0.5)
    ),
}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_sessions_repeat_from_cold_and_warm_cache(name):
    _born_thresholds.cache_clear()
    runs = []
    for _ in ("cold", "warm"):
        rng = stream(5, f"memo-session-{name}")
        session = SESSIONS[name](rng)
        runs.append((session, rng.bit_generator.state))
    (cold, cold_rng), (warm, warm_rng) = runs
    assert _born_thresholds.cache_info().hits > 0
    for field in ("sifted_alice", "sifted_bob", "final_key"):
        assert np.array_equal(getattr(cold, field), getattr(warm, field))
    assert (cold.qber_estimate, cold.chsh_estimate) == (warm.qber_estimate, warm.chsh_estimate)
    assert cold_rng == warm_rng


@pytest.mark.parametrize("hook", [None, probe_hook()], ids=["e91", "e91-probe"])
def test_e91_sessions_repeat_from_the_same_seed(hook):
    runs = []
    for _ in ("first", "second"):
        rng = stream(5, "e91-repeat")
        session = run_e91(300, rng, pair_hook=hook)
        runs.append((session, rng.bit_generator.state))
    (first, first_rng), (second, second_rng) = runs
    for field in ("sifted_alice", "sifted_bob", "final_key"):
        assert np.array_equal(getattr(first, field), getattr(second, field))
    assert (first.qber_estimate, first.chsh_estimate) == (
        second.qber_estimate, second.chsh_estimate)
    assert first_rng == second_rng


def test_measurement_outcomes_are_shared_and_read_only():
    rng = stream(3, "memo-shared")
    plus = encoded_qubit(0, Basis.DIAGONAL)
    outcomes = {}
    while len(outcomes) < 2:
        out = measure_rotated(plus, 0, Basis.RECTILINEAR.analyzer_angle, rng)
        outcomes.setdefault(out.bit, out)
    for out in outcomes.values():
        assert not out.post_state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            out.post_state.amplitudes[0] = 0.0


def test_prepared_states_are_shared_constants():
    for bit in (0, 1):
        for basis in Basis:
            state = encoded_qubit(bit, basis)
            assert encoded_qubit(np.int8(bit), basis) is state
            assert not state.amplitudes.flags.writeable
    assert bell_pair() is bell_pair()
    assert not bell_pair().amplitudes.flags.writeable


def test_measurement_index_errors():
    rng = stream(0, "meas-err")
    with pytest.raises(IndexError):
        measure_rotated(bell_pair(), 2, Basis.RECTILINEAR.analyzer_angle, rng)


# ---------------------------------------------------------------- gates

def test_cnot_truth_table():
    for control_bit, target_bit in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        before = basis_state([control_bit, target_bit])
        after = apply_cnot(before, 0, 1)
        expected = basis_state([control_bit, target_bit ^ control_bit])
        assert np.allclose(after.amplitudes, expected.amplitudes)


def test_cnot_builds_tripartite_entanglement():
    # phi+ with a fresh ancilla, copying Bob's qubit onto it
    joint = bell_pair().tensor(basis_state("0"))
    ghz = apply_cnot(joint, 1, 2)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = SQ2
    assert np.allclose(ghz.amplitudes, expected)


def test_cnot_index_validation():
    with pytest.raises(ValueError):
        apply_cnot(bell_pair(), 0, 0)
    with pytest.raises(IndexError):
        apply_cnot(bell_pair(), 0, 5)


def test_phase_zero_is_identity():
    state = random_state(2, 3)
    out = apply_phase(state, 0, 0.0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_phase_pi_turns_plus_into_minus():
    plus = encoded_qubit(0, Basis.DIAGONAL)
    minus = encoded_qubit(1, Basis.DIAGONAL)
    shifted = apply_phase(plus, 0, math.pi)
    # equal up to a global phase: the overlap has unit modulus
    assert abs(abs(np.vdot(shifted.amplitudes, minus.amplitudes)) - 1.0) <= 1e-9
    assert abs(abs(np.vdot(shifted.amplitudes, plus.amplitudes)) - 1.0) > 1e-9


@given(theta=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 1000), qubit=st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_phase_preserves_rectilinear_probabilities(theta, seed, qubit):
    state = random_state(2, seed)
    shifted = apply_phase(state, qubit, theta)
    before = np.abs(state.amplitudes) ** 2
    after = np.abs(shifted.amplitudes) ** 2
    assert np.allclose(before, after, atol=1e-12)


@given(seed=st.integers(0, 1000), theta=st.floats(-10.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_operations_preserve_norm(seed, theta):
    state = random_state(3, seed)
    for out in (
        apply_phase(state, 1, theta),
        apply_cnot(state, 0, 2),
        measure_rotated(state, 1, theta, stream(seed, "norm-meas")).post_state,
    ):
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-9


def reference_basis_state(bits):
    """Basis state amplitudes from the flat index, qubit 0 its most
    significant bit."""
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2 ** len(bits), dtype=np.complex128)
    amps[index] = 1.0
    return amps


def reference_apply_cnot(state, control, target):
    """CNOT as a flat-index permutation: qubit q is bit n - 1 - q."""
    n = state.num_qubits
    idx = np.arange(2**n)
    c_bit = (idx >> (n - 1 - control)) & 1
    return state.amplitudes[np.where(c_bit == 1, idx ^ (1 << (n - 1 - target)), idx)]


def reference_apply_phase(state, qubit, theta):
    """Phase gate through a flat-index mask: qubit q is bit n - 1 - q."""
    n = state.num_qubits
    idx = np.arange(2**n)
    amps = state.amplitudes.copy()
    amps[((idx >> (n - 1 - qubit)) & 1) == 1] *= cmath.exp(1j * float(theta))
    return amps


@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=4))
def test_basis_state_matches_index_reference(bits):
    assert np.array_equal(basis_state(bits).amplitudes, reference_basis_state(bits))


@given(register=registers(), theta=st.floats(-10.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_gates_match_index_reference(register, theta):
    # Every qubit for the phase gate and every control != target pair for
    # CNOT, on random and computational basis states of 1-4 qubits.
    state, _ = register
    n = state.num_qubits
    for qubit in range(n):
        out = apply_phase(state, qubit, theta)
        assert np.array_equal(out.amplitudes, reference_apply_phase(state, qubit, theta))
    for control, target in itertools.permutations(range(n), 2):
        out = apply_cnot(state, control, target)
        assert np.array_equal(out.amplitudes, reference_apply_cnot(state, control, target))


# ---------------------------------------------------------------- correlators

def test_correlation_matches_closed_form():
    # For phi+ the correlator is cos(2(a-b)); checked on an angle grid.
    phi = bell_pair()
    for a in np.linspace(0, math.pi, 7):
        for b in np.linspace(0, math.pi, 7):
            assert correlation(phi, a, b) == pytest.approx(math.cos(2 * (a - b)), abs=1e-12)


def test_chsh_optimal_value():
    s = chsh_value(bell_pair(), CHSH_OPTIMAL_ANGLES)
    assert abs(s - 2 * math.sqrt(2)) < 1e-9
    assert s > 2.8


def test_chsh_product_states_respect_classical_bound():
    # |00>: E(a,b) factorizes to cos(2a)cos(2b).  The closed form is checked
    # against the implementation on a subsample, then the exhaustive
    # 20^4 grid bound is evaluated vectorized.
    zero = basis_state("00")
    grid = np.linspace(0.0, math.pi, 20)
    rng = stream(5, "chsh-grid")
    for _ in range(40):
        a, ap, b, bp = (float(grid[i]) for i in rng.integers(0, 20, size=4))
        direct = chsh_value(zero, (a, ap, b, bp))
        c = np.cos(2 * np.array([a, ap, b, bp]))
        closed = abs(c[0] * c[2] - c[0] * c[3] + c[1] * c[2] + c[1] * c[3])
        assert direct == pytest.approx(closed, abs=1e-12)
    ca = np.cos(2 * grid)
    e = np.einsum("i,j->ij", ca, ca)
    s_all = np.abs(
        e[:, None, :, None]
        - e[:, None, None, :]
        + e[None, :, :, None]
        + e[None, :, None, :]
    )
    assert float(s_all.max()) <= 2.0 + 1e-9


def test_chsh_after_probe_is_classical():
    # Copying Bob's qubit onto an ancilla and tracing it leaves the mixture
    # (|00><00| + |11><11|)/2, whose optimal-angle combination is sqrt(2).
    joint = apply_cnot(bell_pair().tensor(basis_state("0")), 1, 2)
    s = chsh_value(joint, CHSH_OPTIMAL_ANGLES, trace_out=[2])
    assert s == pytest.approx(math.sqrt(2), abs=1e-12)
    assert s <= 2.0


def test_chsh_validation():
    with pytest.raises(ValueError):
        chsh_value(bell_pair(), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        chsh_value(basis_state("0"), CHSH_OPTIMAL_ANGLES)
    with pytest.raises(ValueError):
        correlation(basis_state("010"), 0.0, 0.0)  # 3 kept qubits

