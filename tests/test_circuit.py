import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qanneal import ensemble
from qanneal.circuit import (
    DegenerateProjectionError,
    RepetitionCutoffError,
    RunOutcome,
    closed_form_final_state,
    postselect_zero,
    run_circuit,
    sample_many,
)
from qanneal.cost import (
    constant_cost,
    evaluate_all,
    graph_partition_cost,
    random_graph,
    random_local_cost,
)
from qanneal.statevec import (
    CapExceededError,
    QuantumState,
    marginal_probabilities,
    max_amplitude_deviation,
    uniform_superposition,
)


from conftest import literal_step_states


@pytest.mark.parametrize("which", ["two_state", "k4"])
def test_single_control_intermediate_states_match_displayed_forms(request, which):
    cost = request.getfixturevalue("two_state_cost" if which == "two_state" else "k4_cost")
    steps = run_circuit(cost, 1, record_steps=True)
    expected = literal_step_states(cost)
    assert len(steps) == 4
    for got, want in zip(steps, expected):
        assert max_amplitude_deviation(got, want) < 1e-12


def test_constant_cost_final_search_marginal_is_uniform():
    cost = constant_cost(3, 4.2)
    for b in (1, 2, 3):
        state = run_circuit(cost, b)
        probs = marginal_probabilities(state, (0, 1, 2))
        assert np.allclose(probs, 1 / 8, atol=1e-12)


def test_gate_level_matches_closed_form_random_instance():
    cost = random_local_cost(6, 2, 1.5, seed=31)
    dev = max_amplitude_deviation(run_circuit(cost, 3), closed_form_final_state(cost, 3))
    assert dev < 1e-10


def test_gate_level_matches_closed_form_at_twenty_qubits():
    inst = replace(random_graph(16, 0.5, seed=7), lam=1.0)
    cost = graph_partition_cost(inst)
    dev = max_amplitude_deviation(run_circuit(cost, 4), closed_form_final_state(cost, 4))
    assert dev < 1e-10


def test_run_circuit_holds_at_most_three_vectors():
    # intermediate states are dropped unless record_steps asks for them
    cost = random_local_cost(12, 2, 1.5, seed=36)
    b = 4
    vector_bytes = 16 << (cost.n + b)
    tracemalloc.start()
    try:
        run_circuit(cost, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * vector_bytes


def test_record_steps_keeps_every_state():
    cost = random_local_cost(4, 2, 1.5, seed=37)
    steps = run_circuit(cost, 2, record_steps=True)
    assert len(steps) == 7
    assert max_amplitude_deviation(steps[-1], run_circuit(cost, 2)) == 0.0


def test_closed_form_single_control_amplitudes(two_state_cost):
    state = closed_form_final_state(two_state_cost, 1)
    c, s = np.cos, np.sin
    expected = np.array(
        [
            c(np.pi / 8),
            c(3 * np.pi / 8),
            1j * s(np.pi / 8),
            1j * s(3 * np.pi / 8),
        ]
    ) / math.sqrt(2)
    assert max_amplitude_deviation(state, expected) < 1e-12


def test_closed_form_norm_is_exact():
    cost = random_local_cost(5, 2, 1.5, seed=32)
    for b in (1, 4, 7):
        assert abs(closed_form_final_state(cost, b).norm() - 1.0) < 1e-12


def test_closed_form_b_zero_is_uniform():
    cost = random_local_cost(4, 2, 1.5, seed=33)
    state = closed_form_final_state(cost, 0)
    assert max_amplitude_deviation(state, uniform_superposition(4, 0)) < 1e-15


def test_closed_form_amplitudes_depend_only_on_control_popcount():
    cost = random_local_cost(3, 2, 1.5, seed=34)
    state = closed_form_final_state(cost, 3)
    size = 1 << cost.n
    blocks = {}
    for pattern in range(8):
        block = state.amplitudes[pattern * size : (pattern + 1) * size]
        key = bin(pattern).count("1")
        if key in blocks:
            assert np.array_equal(blocks[key], block)
        else:
            blocks[key] = block


def test_run_circuit_requires_control_qubit():
    with pytest.raises(ValueError):
        run_circuit(constant_cost(2, 1.0), 0)


def test_run_circuit_cap_refusal_mentions_closed_form():
    cost = random_local_cost(4, 2, 1.5, seed=35)
    with pytest.raises(CapExceededError, match="closed-form"):
        run_circuit(cost, 3, cap=5)


def test_closed_form_cap_refusal_names_the_cap_only():
    cost = random_local_cost(4, 2, 1.5, seed=35)
    with pytest.raises(CapExceededError, match="cap of 5") as info:
        closed_form_final_state(cost, 3, cap=5)
    assert "closed-form" not in str(info.value)


# --- post-selection ----------------------------------------------------------


def test_postselection_probability_is_half_for_two_state_example(two_state_cost):
    state = run_circuit(two_state_cost, 1)
    _, probability = postselect_zero(state, 1)
    assert probability == pytest.approx(0.5, abs=1e-12)


def test_postselected_distribution_two_state_example(two_state_cost):
    search, _ = postselect_zero(run_circuit(two_state_cost, 1))
    p0 = abs(search.amplitudes[0]) ** 2
    assert p0 == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)


def test_postselection_constant_cost():
    cost = constant_cost(2, 1.7)  # C_nor = 0.5
    for b in (1, 2, 3):
        search, probability = postselect_zero(run_circuit(cost, b))
        assert probability == pytest.approx(math.cos(math.pi / 4) ** (2 * b), abs=1e-12)
        assert np.allclose(np.abs(search.amplitudes) ** 2, 0.25, atol=1e-12)


def test_postselect_checks_control_count(two_state_cost):
    state = run_circuit(two_state_cost, 2)
    with pytest.raises(ValueError):
        postselect_zero(state, 1)


def test_postselect_zero_weight_raises():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0  # all weight on the control = 1 block
    with pytest.raises(DegenerateProjectionError):
        postselect_zero(QuantumState(1, 1, amps))


def test_postselected_probabilities_monotone_in_cost():
    cost = random_local_cost(5, 2, 1.5, seed=36)
    search, _ = postselect_zero(run_circuit(cost, 3))
    probs = np.abs(search.amplitudes) ** 2
    order = np.argsort(evaluate_all(cost))
    assert np.all(np.diff(probs[order]) <= 1e-15)


def test_concentration_on_unique_minimum(two_state_cost):
    search, _ = postselect_zero(closed_form_final_state(two_state_cost, 10))
    assert abs(search.amplitudes[0]) ** 2 > 1 - 1e-3


def test_concentration_splits_mass_over_degenerate_minima():
    from conftest import full_table_cost

    cost = full_table_cost(2, np.array([0.2, 0.2, 0.7, 0.9]))
    search, _ = postselect_zero(closed_form_final_state(cost, 16))
    probs = np.abs(search.amplitudes) ** 2
    assert probs[0] + probs[1] > 1 - 1e-3
    assert probs[0] == pytest.approx(probs[1], rel=1e-12)


# --- sampling ----------------------------------------------------------------


def test_sample_many_deterministic_replay():
    cost = random_local_cost(4, 2, 1.5, seed=37)
    for mode in ("closed_form", "gate_level"):
        a = sample_many(cost, 2, 32, seed=99, mode=mode)
        b = sample_many(cost, 2, 32, seed=99, mode=mode)
        assert a == b


def test_sample_many_modes_agree_on_distribution_support():
    cost = random_local_cost(3, 2, 1.5, seed=38)
    for out in sample_many(cost, 2, 16, seed=5, mode="gate_level"):
        assert out.repetitions >= 1
        assert len(out.result) == 3
        assert out.cost_value == pytest.approx(evaluate_all(cost)[int(out.result, 2)])


def test_sample_many_rejects_unknown_mode():
    with pytest.raises(ValueError):
        sample_many(constant_cost(2, 1.0), 1, 1, seed=0, mode="magic")


def test_repetition_cutoff_raises():
    cost = constant_cost(3, 1.0)  # C_nor = 0.5: success probability 2^-12
    for mode in ("closed_form", "gate_level"):
        # one allowed repetition almost surely fails for this seed
        with pytest.raises(RepetitionCutoffError):
            sample_many(cost, 12, 1, seed=0, mode=mode, max_repetitions=1)


@pytest.mark.parametrize("b", [500, 2000, 4096])
def test_cutoff_names_the_limit_when_success_probability_is_tiny(b):
    # P0_b = exp(-185), a subnormal exp(-730), and exp(-1492), which underflows to 0
    cost = graph_partition_cost(replace(random_graph(8, 0.5, seed=7), lam=1.0))
    with pytest.raises(RepetitionCutoffError) as info:
        sample_many(cost, b, 4, seed=1)
    message = str(info.value)
    assert "cutoff of 1000000" in message and "P0_b" in message
    assert str(np.iinfo(np.int64).max) not in message
    assert sample_many(cost, b, 4, seed=1, record_aborts=True) == [None] * 4


@pytest.mark.parametrize("mode", ["closed_form", "gate_level"])
def test_success_probability_rounding_to_one_takes_one_repetition(mode):
    from conftest import full_table_cost

    # C_nor = 1e-10 everywhere: cos^(2b) and so P0_b round to 1
    cost = full_table_cost(2, np.full(4, 1e-10))
    assert all(o.repetitions == 1 for o in sample_many(cost, 3, 16, seed=2, mode=mode))


def test_sample_many_records_aborts():
    cost = constant_cost(3, 1.0)
    outcomes = sample_many(cost, 12, 20, seed=3, max_repetitions=1, record_aborts=True)
    assert len(outcomes) == 20
    assert any(o is None for o in outcomes)


def test_sample_many_prefix_is_stable():
    # trial i reads row i of one (trials, 2) uniform block
    cost = random_local_cost(4, 2, 1.5, seed=39)
    long = sample_many(cost, 2, 256, seed=11)
    assert sample_many(cost, 2, 64, seed=11) == long[:64]
    assert sample_many(cost, 2, 64, seed=12) != long[:64]


def test_gate_and_closed_modes_draw_identical_runs():
    cost = random_local_cost(4, 2, 1.5, seed=39)
    gate = sample_many(cost, 2, 256, seed=11, mode="gate_level")
    closed = sample_many(cost, 2, 256, seed=11, mode="closed_form")
    assert [(o.repetitions, o.result) for o in gate] == [(o.repetitions, o.result) for o in closed]


def test_mean_repetitions_matches_geometric_law():
    cost = random_local_cost(3, 2, 1.5, seed=40)
    b, trials = 3, 4000
    outcomes = sample_many(cost, b, trials, seed=21)
    p0 = math.exp(ensemble.log_p0(cost, b))
    reps = np.array([o.repetitions for o in outcomes])
    sigma_mean = math.sqrt((1 - p0) / p0**2 / trials)
    assert abs(reps.mean() - 1 / p0) < 3 * sigma_mean


def test_empirical_distribution_approaches_exact():
    cost = random_local_cost(3, 2, 1.5, seed=41)
    b, trials = 2, 20000
    outcomes = sample_many(cost, b, trials, seed=22)
    counts = np.zeros(8)
    for o in outcomes:
        counts[int(o.result, 2)] += 1
    tv = 0.5 * np.abs(counts / trials - ensemble.boltzmann_distribution(cost, b)).sum()
    assert tv < 0.02


def test_gate_level_sampler_matches_closed_form_statistics():
    cost = random_local_cost(3, 2, 1.5, seed=42)
    outcomes = sample_many(cost, 2, 4000, seed=23, mode="gate_level")
    counts = np.zeros(8)
    for o in outcomes:
        counts[int(o.result, 2)] += 1
    tv = 0.5 * np.abs(counts / 4000 - ensemble.boltzmann_distribution(cost, 2)).sum()
    assert tv < 0.05


def test_run_outcome_validates_repetitions():
    with pytest.raises(ValueError):
        RunOutcome(0, "01", 1.0)
