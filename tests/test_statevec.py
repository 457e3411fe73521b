import math

import numpy as np
import pytest

from qanneal.cost import constant_cost, normalized_all, random_local_cost
from qanneal.statevec import (
    CapExceededError,
    PhaseTable,
    QuantumState,
    apply_diagonal,
    apply_hadamard,
    apply_u_pm,
    build_phase_tables,
    fuse_phase_tables,
    max_amplitude_deviation,
    uniform_superposition,
)
from conftest import (
    apply_controlled_diagonal,
    composite_phases,
    inverse_square,
    marginal_probabilities,
    per_term_u_pm,
    random_state,
)


# --- uniform superposition ---------------------------------------------------


def test_uniform_superposition_single_qubit():
    state = uniform_superposition(1, 0)
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_uniform_superposition_with_control_register():
    state = uniform_superposition(2, 1)
    assert np.allclose(state.amplitudes[:4], 0.5)
    assert np.allclose(state.amplitudes[4:], 0.0)


def test_uniform_superposition_normalized_for_various_sizes():
    for n, b in [(1, 0), (3, 2), (5, 3)]:
        assert abs(uniform_superposition(n, b).norm() - 1.0) < 1e-12


def test_uniform_superposition_size_cap(monkeypatch):
    monkeypatch.setenv("QANNEAL_MAX_QUBITS", "26")
    with pytest.raises(CapExceededError):
        uniform_superposition(20, 10)


def test_amplitude_refusal_names_its_bytes_and_the_default_cap(monkeypatch):
    monkeypatch.delenv("QANNEAL_MAX_QUBITS", raising=False)
    with pytest.raises(CapExceededError, match=r"needs 2147483648 bytes .*cap of 26 qubits"):
        uniform_superposition(20, 7)
    monkeypatch.setenv("QANNEAL_MAX_QUBITS", "5")
    with pytest.raises(CapExceededError, match=r"amplitude vector needs 1024 bytes .*cap of 5"):
        uniform_superposition(4, 2)


def test_cap_override_via_environment(monkeypatch):
    monkeypatch.setenv("QANNEAL_MAX_QUBITS", "4")
    with pytest.raises(CapExceededError):
        uniform_superposition(5, 0)
    monkeypatch.setenv("QANNEAL_MAX_QUBITS", "6")
    assert uniform_superposition(5, 0).n_search == 5


# --- Hadamard -----------------------------------------------------------------


def test_hadamard_on_zero_state():
    state = QuantumState(1, 0, np.array([1.0, 0.0], dtype=complex))
    out = apply_hadamard(state, 0)
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_hadamard_is_involution_on_random_state():
    state = QuantumState(3, 1, random_state(3, 1, seed=5))
    back = apply_hadamard(apply_hadamard(state, 2), 2)
    assert max_amplitude_deviation(back, state) < 1e-12


def test_hadamard_produces_first_step_state():
    # first Hadamard on the first control qubit of the initial state
    n, b = 2, 2
    state = apply_hadamard(uniform_superposition(n, b), n)
    size = 1 << n
    expected = np.zeros(1 << (n + b), dtype=complex)
    expected[:size] = 1 / math.sqrt(2 * size)
    expected[size : 2 * size] = 1 / math.sqrt(2 * size)
    assert max_amplitude_deviation(state, expected) < 1e-12


def test_hadamard_matches_kronecker_matrix_on_every_qubit():
    from functools import reduce

    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    total = 5
    state = QuantumState(3, 2, random_state(3, 2, seed=9))
    for qubit in range(total):
        # kron factors run from the highest qubit (most significant bit) down
        factors = [h if q == qubit else np.eye(2) for q in reversed(range(total))]
        expected = reduce(np.kron, factors) @ state.amplitudes
        assert max_amplitude_deviation(apply_hadamard(state, qubit), expected) < 1e-14


def test_hadamard_index_out_of_range():
    with pytest.raises(IndexError):
        apply_hadamard(uniform_superposition(2, 0), 2)


# --- phase tables --------------------------------------------------------------


def test_build_phase_tables_composite_example(two_state_cost):
    composite = composite_phases(two_state_cost)
    expected = np.exp(0.5j * np.pi * np.array([0.25, 0.75]))
    assert np.abs(composite - expected).max() < 1e-12


def test_phase_tables_negative_sign_is_conjugate(two_state_cost):
    plus = build_phase_tables(two_state_cost, sign=+1)
    minus = build_phase_tables(two_state_cost, sign=-1)
    for (q1, t1), (q2, t2) in zip(plus, minus):
        assert q1 == q2
        assert np.allclose(np.conj(t1.phases), t2.phases)


def test_phase_table_product_matches_normalized_cost():
    cost = random_local_cost(6, 2, 1.5, seed=21)
    composite = composite_phases(cost)
    expected = np.exp(0.5j * np.pi * normalized_all(cost))
    assert np.abs(composite - expected).max() < 1e-12


def test_phase_table_rejects_non_unit_modulus():
    with pytest.raises(ValueError):
        PhaseTable((1.0, 0.5))


# --- diagonal application -------------------------------------------------------


def test_identity_table_leaves_state_unchanged():
    state = QuantumState(2, 1, random_state(2, 1, seed=1))
    out = apply_diagonal(state, (0, 2), PhaseTable((1.0, 1.0, 1.0, 1.0)))
    assert max_amplitude_deviation(out, state) < 1e-15


def test_global_phase_table_preserves_probabilities():
    state = QuantumState(2, 0, random_state(2, 0, seed=2))
    phase = complex(math.cos(0.7), math.sin(0.7))
    out = apply_diagonal(state, (0, 1), PhaseTable((phase,) * 4))
    assert np.allclose(np.abs(out.amplitudes) ** 2, np.abs(state.amplitudes) ** 2)


def test_all_tables_on_uniform_state_reproduce_cost_unitary():
    cost = random_local_cost(5, 2, 1.5, seed=8)
    state = uniform_superposition(cost.n, 0)
    for qubits, table in build_phase_tables(cost, sign=+1):
        state = apply_diagonal(state, qubits, table)
    expected = np.exp(0.5j * np.pi * normalized_all(cost)) / math.sqrt(1 << cost.n)
    assert max_amplitude_deviation(state, expected) < 1e-12


def test_diagonal_gates_commute():
    state = QuantumState(3, 0, random_state(3, 0, seed=3))
    t1 = PhaseTable(tuple(np.exp(1j * np.array([0.1, 0.4, -0.3, 0.9]))))
    t2 = PhaseTable(tuple(np.exp(1j * np.array([0.2, -0.6]))))
    ab = apply_diagonal(apply_diagonal(state, (0, 2), t1), (1,), t2)
    ba = apply_diagonal(apply_diagonal(state, (1,), t2), (0, 2), t1)
    assert max_amplitude_deviation(ab, ba) < 1e-14


def test_diagonal_arity_mismatch_rejected():
    state = uniform_superposition(2, 0)
    with pytest.raises(ValueError):
        apply_diagonal(state, (0,), PhaseTable((1.0, 1.0, 1.0, 1.0)))


# --- controlled diagonal (per-term oracle in conftest) ---------------------------


def test_controlled_diagonal_inactive_on_zero_control():
    # control register stays |0>, so the controlled gate must act as identity
    state = uniform_superposition(2, 1)
    table = PhaseTable(tuple(np.exp(1j * np.array([0.3, -0.2, 0.8, 0.1]))))
    out = apply_controlled_diagonal(state, 2, (0, 1), table)
    assert max_amplitude_deviation(out, state) < 1e-15


def test_controlled_diagonal_equals_plain_on_one_control():
    n = 2
    base = random_state(n, 1, seed=6)
    # move all weight onto the control = 1 block
    amps = np.zeros_like(base)
    amps[1 << n :] = base[1 << n :]
    amps /= np.linalg.norm(amps)
    state = QuantumState(n, 1, amps)
    table = PhaseTable(tuple(np.exp(1j * np.array([0.3, -0.2, 0.8, 0.1]))))
    controlled = apply_controlled_diagonal(state, n, (0, 1), table)
    plain = apply_diagonal(state, (0, 1), table)
    assert max_amplitude_deviation(controlled, plain) < 1e-14


def test_gate_then_controlled_inverse_square_gives_opposite_branches(two_state_cost):
    # per-branch effect: control 0 sees the table, control 1 its conjugate
    state = apply_hadamard(uniform_superposition(1, 1), 1)
    (qc, tc), (qt, tt) = build_phase_tables(two_state_cost, sign=+1)
    for qubits, table in ((qc, tc), (qt, tt)):
        state = apply_diagonal(state, qubits, table)
        state = apply_controlled_diagonal(state, 1, qubits, inverse_square(table))
    minus_tables = build_phase_tables(two_state_cost, sign=-1)
    branch_plus = apply_hadamard(uniform_superposition(1, 1), 1)
    branch_minus = branch_plus
    for qubits, table in build_phase_tables(two_state_cost, sign=+1):
        branch_plus = apply_diagonal(branch_plus, qubits, table)
    for qubits, table in minus_tables:
        branch_minus = apply_diagonal(branch_minus, qubits, table)
    np.testing.assert_allclose(
        state.amplitudes[:2], branch_plus.amplitudes[:2], atol=1e-14
    )
    np.testing.assert_allclose(
        state.amplitudes[2:], branch_minus.amplitudes[2:], atol=1e-14
    )


def test_controlled_diagonal_rejects_overlapping_control():
    state = uniform_superposition(2, 1)
    with pytest.raises(ValueError):
        apply_controlled_diagonal(state, 1, (0, 1), PhaseTable((1.0,) * 4))


# --- controlled cost unitary ------------------------------------------------------


def test_u_pm_produces_phase_kick_state(two_state_cost):
    # H on the control then the controlled unitary must give the two-branch phase state
    state = apply_hadamard(uniform_superposition(1, 1), 1)
    state = apply_u_pm(state, 1, fuse_phase_tables(two_state_cost))
    c_nor = np.array([0.25, 0.75])
    expected = np.concatenate(
        [np.exp(0.5j * np.pi * c_nor), np.exp(-0.5j * np.pi * c_nor)]
    ) / 2.0
    assert max_amplitude_deviation(state, expected) < 1e-12


def test_u_pm_constant_cost_gives_opposite_global_phases():
    cost = constant_cost(2, 1.7)  # C_nor = 0.5 everywhere
    state = apply_hadamard(uniform_superposition(2, 1), 2)
    out = apply_u_pm(state, 2, fuse_phase_tables(cost))
    ratio_zero = out.amplitudes[:4] / state.amplitudes[:4]
    ratio_one = out.amplitudes[4:] / state.amplitudes[4:]
    assert np.allclose(ratio_zero, np.exp(0.25j * np.pi), atol=1e-12)
    assert np.allclose(ratio_one, np.exp(-0.25j * np.pi), atol=1e-12)


def test_u_pm_with_control_flip_round_trip():
    cost = random_local_cost(3, 2, 1.5, seed=14)
    state = QuantumState(3, 1, random_state(3, 1, seed=15))
    flip_z = PhaseTable((1.0, -1.0))

    def flip_control(s):
        return apply_hadamard(apply_diagonal(apply_hadamard(s, 3), (3,), flip_z), 3)

    phases = fuse_phase_tables(cost)
    out = apply_u_pm(state, 3, phases)
    out = flip_control(out)
    out = apply_u_pm(out, 3, phases)
    out = flip_control(out)
    assert max_amplitude_deviation(out, state) < 1e-12


def test_u_pm_branches_apply_forward_and_inverse_unitary():
    cost = random_local_cost(4, 2, 1.5, seed=16)
    state = apply_hadamard(uniform_superposition(4, 1), 4)
    out = apply_u_pm(state, 4, fuse_phase_tables(cost))
    phases = np.exp(0.5j * np.pi * normalized_all(cost))
    base = uniform_superposition(4, 0).amplitudes
    np.testing.assert_allclose(
        out.amplitudes[:16] * math.sqrt(2), base * phases, atol=1e-12
    )
    np.testing.assert_allclose(
        out.amplitudes[16:] * math.sqrt(2), base * np.conj(phases), atol=1e-12
    )


def test_fused_u_pm_matches_per_term_gate_product():
    seed = 0
    for n in range(1, 9):
        for m in range(1, min(3, n) + 1):
            for b in range(1, 11 - n):
                seed += 1
                cost = random_local_cost(n, m, 1.5, seed=300 + seed)
                state = QuantumState(n, b, random_state(n, b, seed=seed))
                for control in range(n, n + b):
                    fused = apply_u_pm(state, control, fuse_phase_tables(cost))
                    oracle = per_term_u_pm(state, control, cost)
                    assert max_amplitude_deviation(fused, oracle) < 1e-12


def test_fused_phase_vector_is_the_table_product():
    cost = random_local_cost(6, 3, 1.5, seed=22)
    assert np.abs(fuse_phase_tables(cost) - composite_phases(cost)).max() < 1e-14


def test_u_pm_layout_mismatch_rejected():
    phases = fuse_phase_tables(random_local_cost(3, 2, 1.5, seed=17))
    with pytest.raises(ValueError):
        apply_u_pm(uniform_superposition(2, 1), 2, phases)
    with pytest.raises(IndexError):
        apply_u_pm(uniform_superposition(3, 1), 0, phases)


# --- marginals ---------------------------------------------------------------------


def test_marginal_of_uniform_state_single_qubit():
    state = uniform_superposition(3, 0)
    assert np.allclose(marginal_probabilities(state, (1,)), [0.5, 0.5])


def test_marginal_of_phase_kicked_state_control_qubit(two_state_cost):
    from qanneal.circuit import run_circuit

    state = run_circuit(two_state_cost, 1)
    theta = 0.5 * np.pi * np.array([0.25, 0.75])
    expected = [np.cos(theta) @ np.cos(theta) / 2, np.sin(theta) @ np.sin(theta) / 2]
    assert np.allclose(marginal_probabilities(state, (1,)), expected, atol=1e-12)


def test_full_register_marginal_of_basis_state_is_indicator():
    amps = np.zeros(8, dtype=complex)
    amps[5] = 1.0
    state = QuantumState(3, 0, amps)
    probs = marginal_probabilities(state, (0, 1, 2))
    assert probs[5] == pytest.approx(1.0)
    assert probs.sum() == pytest.approx(1.0)


def test_marginal_sums_to_one():
    state = QuantumState(3, 2, random_state(3, 2, seed=19))
    assert marginal_probabilities(state, (0, 3)).sum() == pytest.approx(1.0, abs=1e-12)


# --- invariants ----------------------------------------------------------------------


def test_every_gate_preserves_norm():
    cost = random_local_cost(3, 2, 1.5, seed=20)
    state = QuantumState(3, 1, random_state(3, 1, seed=21))
    state = apply_hadamard(state, 3)
    assert abs(state.norm() - 1.0) < 1e-12
    for qubits, table in build_phase_tables(cost, sign=+1):
        state = apply_diagonal(state, qubits, table)
        assert abs(state.norm() - 1.0) < 1e-12
    state = apply_u_pm(state, 3, fuse_phase_tables(cost))
    assert abs(state.norm() - 1.0) < 1e-12


def test_norm_is_accurate_on_a_twenty_qubit_state():
    # a serial dot product drifts by several ulps here, and by more than
    # NORM_ATOL at the 24-qubit gate-level states
    from qanneal.circuit import closed_form_final_state

    state = closed_form_final_state(random_local_cost(14, 2, 1.5, seed=5), 6)
    amps = state.amplitudes
    exact = math.fsum((amps.real**2).tolist()) + math.fsum((amps.imag**2).tolist())
    assert abs(state.norm() - math.sqrt(exact)) < 1e-15


def test_no_gate_mutates_its_input():
    cost = random_local_cost(3, 2, 1.5, seed=24)
    state = QuantumState(3, 2, random_state(3, 2, seed=25))
    before = state.amplitudes.copy()
    table = PhaseTable(tuple(np.exp(1j * np.array([0.1, 0.4, -0.3, 0.9]))))
    for qubit in range(5):
        apply_hadamard(state, qubit)
    apply_diagonal(state, (1, 3), table)
    for control in (3, 4):
        apply_u_pm(state, control, fuse_phase_tables(cost))
    assert np.array_equal(state.amplitudes, before)


def test_product_decomposition_identity_random_costs():
    for seed in range(6):
        cost = random_local_cost(4 + (seed % 5), 1 + seed % 3, 1.5, seed=seed)
        composite = composite_phases(cost)
        expected = np.exp(0.5j * np.pi * normalized_all(cost))
        assert np.abs(composite - expected).max() < 1e-12


def test_max_amplitude_deviation_finds_the_largest_difference_in_any_block():
    rng = np.random.default_rng(24)
    size = 3 << 16  # spans several blocks
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for where in (0, (1 << 16) - 1, 1 << 16, size - 1):
        b = a + 1e-13 * rng.standard_normal(size)
        b[where] += 1e-9j
        assert max_amplitude_deviation(a, b) == float(np.max(np.abs(a - b)))
    with pytest.raises(ValueError):
        max_amplitude_deviation(a, a[:-1])
