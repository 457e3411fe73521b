import math
import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from qanneal import circuit, ensemble
from qanneal import cost as cost_module
from qanneal.cost import (
    CostFunction,
    GraphPartitionInstance,
    constant_cost,
    evaluate_all,
    graph_partition_cost,
    normalized_all,
    random_graph,
    random_local_cost,
)
from qanneal.ensemble import (
    EntropyCrossCheckError,
    asymptotic_energy,
    boltzmann_distribution,
    consistency_p0b,
    effective_cost_limits,
    energies,
    expected_repetitions,
    free_energy,
    internal_energy,
    log_p0,
    partition_function,
    sweep,
    thermo_point,
)
from qanneal.statevec import CapExceededError


def fixed_level_cost(n, c_nor_value):
    """Cost whose every state has the given normalized value (explicit unit bounds)."""
    return CostFunction(n=n, constant=c_nor_value, terms=(), c_min=0.0, c_max=1.0)


# --- energies ----------------------------------------------------------------


def test_energy_vanishes_as_cost_floor_is_approached():
    assert energies(fixed_level_cost(1, 1e-8))[0] == pytest.approx(0.0, abs=1e-12)


def test_energy_at_half_is_log_two():
    e = energies(fixed_level_cost(1, 0.5))[0]
    assert e == pytest.approx(math.log(2.0), abs=1e-12)


def test_energy_matches_low_cost_asymptote():
    e = energies(fixed_level_cost(1, 0.01))[0]
    approx = asymptotic_energy(0.01, "low")
    assert approx == pytest.approx(2.4674e-4, rel=1e-4)
    assert abs(approx - e) / e < 1e-3


def test_energies_nonnegative_and_finite():
    c = random_local_cost(8, 3, 1.5, seed=51)
    e = energies(c)
    assert np.all(e >= 0) and np.all(np.isfinite(e))


def test_energies_enumeration_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        energies(constant_cost(25, 1.0))
    # smaller cap
    monkeypatch.setattr("qanneal.cost.TABLE_MAX_BITS", 8)
    with pytest.raises(CapExceededError):
        energies(constant_cost(10, 1.0))


def test_energies_are_built_once_and_read_only():
    c = random_local_cost(6, 3, 1.5, seed=5)
    assert energies(c) is energies(c)
    with pytest.raises(ValueError):
        energies(c)[0] = 1.0
    assert np.array_equal(energies(c), -2.0 * np.log(np.cos(0.5 * np.pi * normalized_all(c))))


def test_sweep_builds_the_levels_once(monkeypatch):
    # a certified graph: every thermo quantity comes from the streamed levels,
    # and no pass of cos(pi/2 * C_nor) over the 2^n states is made
    c = graph_partition_cost(replace(random_graph(10, 0.5, seed=7), lam=1.0))
    builds = []
    original = CostFunction.levels.func

    def counted(cost):
        builds.append(cost)
        return original(cost)

    prop = cached_property(counted)
    prop.__set_name__(CostFunction, "levels")
    monkeypatch.setattr(CostFunction, "levels", prop)

    def forbidden(cost):
        raise AssertionError("normalized_all was called")

    for module in (cost_module, ensemble, circuit):
        if hasattr(module, "normalized_all"):
            monkeypatch.setattr(module, "normalized_all", forbidden)
    points = sweep(c, [1, 2, 4, 8, 16, 32])
    assert len(points) == 6
    assert len(builds) == 1
    assert "table" not in vars(c) and "energies" not in vars(c)


# --- asymptotic branches -------------------------------------------------------


def test_low_branch_value():
    assert asymptotic_energy(0.01, "low") == pytest.approx(math.pi**2 / 4 * 1e-4, rel=1e-12)


def test_high_branch_diverges_monotonically():
    values = [asymptotic_energy(c, "high") for c in (0.99, 0.999, 0.9999)]
    assert values[0] < values[1] < values[2]


def test_asymptote_accuracy_windows():
    for c_nor in (0.005, 0.02, 0.049):
        exact = energies(fixed_level_cost(1, c_nor))[0]
        assert abs(asymptotic_energy(c_nor, "low") - exact) / exact < 0.01
    for c_nor in (0.9905, 0.995, 0.999):
        exact = energies(fixed_level_cost(1, c_nor))[0]
        assert abs(asymptotic_energy(c_nor, "high") - exact) / exact < 0.01


def test_asymptotic_energy_validates_inputs():
    with pytest.raises(ValueError):
        asymptotic_energy(0.0, "low")
    with pytest.raises(ValueError):
        asymptotic_energy(0.5, "middle")


# --- partition function ---------------------------------------------------------


def test_partition_function_at_b_zero():
    c = random_local_cost(5, 2, 1.5, seed=52)
    z, p0 = partition_function(c, 0.0)
    assert z == pytest.approx(32.0, abs=1e-9)
    assert p0 == pytest.approx(1.0, abs=1e-12)


def test_partition_function_two_state_example(two_state_cost):
    z, p0 = partition_function(two_state_cost, 1.0)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert z == pytest.approx(1.0, abs=1e-12)


def test_partition_function_cross_formula_consistency():
    for seed in (0, 1):
        c = random_local_cost(7, 2, 1.5, seed=seed)
        for b in (0.5, 1.0, 3.0):
            z, p0 = partition_function(c, b)
            z_from_energies = float(np.exp(-b * energies(c)).sum())
            assert z == pytest.approx(z_from_energies, rel=1e-12)
            assert z == pytest.approx((1 << c.n) * p0, rel=1e-12)


def test_partition_function_accepts_real_b():
    c = random_local_cost(4, 2, 1.5, seed=53)
    z1, _ = partition_function(c, 1.5)
    z2, _ = partition_function(c, 1.6)
    assert z2 < z1


# --- Boltzmann distribution -------------------------------------------------------


def test_distribution_uniform_at_b_zero():
    c = random_local_cost(4, 2, 1.5, seed=54)
    assert np.allclose(boltzmann_distribution(c, 0.0), 1 / 16, atol=1e-15)


def test_distribution_two_state_example(two_state_cost):
    p = boltzmann_distribution(two_state_cost, 1.0)
    assert p[0] == pytest.approx(0.853553, abs=1e-6)
    assert p[1] == pytest.approx(0.146447, abs=1e-6)


def test_distribution_matches_postselected_circuit():
    for seed in (0, 1, 2):
        c = random_local_cost(5, 2, 1.5, seed=seed)
        for b in (1, 2, 3):
            search, _ = circuit.postselect_zero(circuit.run_circuit(c, b))
            gate_probs = np.abs(search.amplitudes) ** 2
            assert np.abs(gate_probs - boltzmann_distribution(c, b)).max() < 1e-12


def test_two_code_paths_agree():
    # cos^(2b) form versus exp(-bE)/Z form
    for seed in (3, 4):
        c = random_local_cost(10, 2, 1.2, seed=seed)
        for b in (1.0, 2.0, 5.0):
            theta = 0.5 * np.pi * normalized_all(c)
            direct = np.cos(theta) ** (2 * b)
            direct /= direct.sum()
            e = energies(c)
            gibbs = np.exp(-b * (e - e.min()))
            gibbs /= gibbs.sum()
            assert np.abs(direct - boltzmann_distribution(c, b)).max() < 1e-12
            assert np.abs(gibbs - boltzmann_distribution(c, b)).max() < 1e-12


def test_argmax_probability_is_argmin_cost():
    for seed in (5, 6):
        c = random_local_cost(6, 2, 1.5, seed=seed)
        argmin = int(np.argmin(evaluate_all(c)))
        for b in (0.5, 1.0, 4.0, 16.0):
            assert int(np.argmax(boltzmann_distribution(c, b))) == argmin


# --- free energy -------------------------------------------------------------------


def test_free_energy_constant_cost_is_b_independent():
    c = fixed_level_cost(3, 0.3)
    expected = -2.0 * math.log(math.cos(0.5 * math.pi * 0.3))
    for b in (0.5, 1.0, 2.0, 7.0):
        assert free_energy(c, b) == pytest.approx(expected, abs=1e-12)


def test_free_energy_two_state_example(two_state_cost):
    assert free_energy(two_state_cost, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_free_energy_deep_b_reaches_minimum_energy(plateau_cost):
    # the 255-state ground plateau dominates: F(b) - E_min = t*log(256/255)
    f = free_energy(plateau_cost, 1e4)
    assert abs(f - energies(plateau_cost).min()) < 1e-6


def test_free_energy_rejects_b_zero(two_state_cost):
    with pytest.raises(ValueError):
        free_energy(two_state_cost, 0.0)


# --- thermo points --------------------------------------------------------------


def test_constant_cost_thermo_point_is_degenerate_with_zero_entropy():
    c = constant_cost(4, 2.0)
    point = thermo_point(c, 1.0)
    assert point.degenerate
    assert point.accuracy is None
    assert point.s == pytest.approx(0.0, abs=1e-12)
    assert point.f == pytest.approx(point.u, abs=1e-12)


def test_effective_cost_converges_to_brute_force_minimum(high_floor_cost):
    point = thermo_point(high_floor_cost, 1e-4)
    true_min = float(evaluate_all(high_floor_cost).min())
    assert abs(point.c_eff - true_min) < 1e-6


def test_infinite_temperature_effective_cost_from_small_b_expansion():
    c = random_local_cost(8, 2, 1.5, seed=3)
    e = energies(c)
    b_small = 1e-5
    taylor = free_energy(c, b_small) + 0.5 * b_small * float(e.var())
    assert abs(taylor - float(e.mean())) < 1e-9
    _, c_inf = effective_cost_limits(c)
    direct = c.c_min + c.span * (2 / math.pi) * math.acos(math.exp(-0.5 * float(e.mean())))
    assert c_inf == pytest.approx(direct, abs=1e-12)


def test_thermo_point_identity_and_entropy_range():
    c = random_local_cost(6, 2, 1.5, seed=55)
    for b in (0.25, 1.0, 4.0, 64.0):
        point = thermo_point(c, 1.0 / b)
        assert abs(point.f - (point.u - point.t * point.s)) < 1e-9
        assert point.s <= 1e-12  # excess entropy is nonpositive
        assert -1e-12 <= point.s_gibbs <= c.n * math.log(2.0) + 1e-12


def test_gibbs_entropy_reaches_log_n_at_infinite_temperature():
    c = random_local_cost(5, 2, 1.5, seed=56)
    point = thermo_point(c, 1e9)
    assert abs(point.s_gibbs - c.n * math.log(2.0)) < 1e-9


def test_gibbs_entropy_matches_shannon_entropy_of_distribution():
    c = random_local_cost(6, 2, 1.5, seed=57)
    for b in (0.5, 2.0, 8.0):
        point = thermo_point(c, 1.0 / b)
        p = boltzmann_distribution(c, b)
        shannon = float(-(p * np.log(p)).sum())
        assert point.s_gibbs == pytest.approx(shannon, abs=1e-9)


def test_entropy_cross_check_negative_control(monkeypatch):
    c = random_local_cost(6, 2, 1.5, seed=3)
    monkeypatch.setattr(ensemble, "FD_REL_STEP", 0.9)
    with pytest.raises(EntropyCrossCheckError):
        thermo_point(c, 0.5)


def test_thermo_point_rejects_nonpositive_temperature(two_state_cost):
    with pytest.raises(ValueError):
        thermo_point(two_state_cost, 0.0)


# --- consistency of the effective-cost definition ---------------------------------


def test_consistency_two_state_example(two_state_cost):
    assert consistency_p0b(two_state_cost, 1.0) < 1e-12


def test_consistency_random_costs():
    c = random_local_cost(8, 2, 1.5, seed=58)
    for b in (1.0, 2.0, 4.0, 8.0):
        assert consistency_p0b(c, b) < 1e-10


def test_consistency_constant_cost():
    assert consistency_p0b(constant_cost(4, 1.0), 3.0) < 1e-14


# --- sweeps ------------------------------------------------------------------------


def test_sweep_monotone_diagnostics():
    c = random_local_cost(7, 2, 1.5, seed=59)
    points = sweep(c, [0.5, 1, 2, 4, 8, 16, 32])
    accuracies = [p.accuracy for p in points]
    assert all(b <= a + 1e-12 for a, b in zip(accuracies[1:], accuracies))
    fs = [p.f for p in points]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(fs, fs[1:]))
    c_effs = [p.c_eff for p in points]  # t decreasing along the list
    assert all(later <= earlier + 1e-12 for earlier, later in zip(c_effs, c_effs[1:]))
    deltas = [p.delta for p in points]
    assert all(later >= earlier - 1e-12 for earlier, later in zip(deltas, deltas[1:]))


def test_sweep_accuracy_endpoints(plateau_cost):
    low_b, high_b = sweep(plateau_cost, [1e-4, 1e4])
    assert low_b.accuracy < 1e-3
    assert high_b.accuracy > 0.999


def test_sweep_rejects_nonpositive_b(two_state_cost):
    with pytest.raises(ValueError):
        sweep(two_state_cost, [1.0, 0.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_sweep_and_thermo_point_refuse_non_finite_or_non_positive_values(two_state_cost, value):
    with pytest.raises(ValueError, match="finite"):
        sweep(two_state_cost, [1.0, value])
    with pytest.raises(ValueError, match="finite"):
        thermo_point(two_state_cost, value)


def test_every_dense_enumeration_refuses_above_the_table_cap():
    assert cost_module.TABLE_MAX_BITS == 24
    c = constant_cost(25, 1.0)
    for enumeration in (energies, evaluate_all, normalized_all):
        with pytest.raises(CapExceededError, match="needs 268435456 bytes"):
            enumeration(c)
    # an uncertified 3-local cost has no streamed levels: its ensemble reads the table
    uncertified = random_local_cost(25, 3, seed=1)
    assert uncertified.max_arity == 3
    with pytest.raises(CapExceededError, match="needs 268435456 bytes"):
        effective_cost_limits(uncertified)
    with pytest.raises(CapExceededError, match="cap of 24"):
        log_p0(uncertified, 1.0)
    # a certified cost streams its levels, up to LEVELS_MAX_BITS
    assert cost_module.LEVELS_MAX_BITS == 30
    for enumeration in (effective_cost_limits, lambda cost: log_p0(cost, 1.0)):
        with pytest.raises(CapExceededError, match="2\\^31 states, over the cap of 30 bits"):
            enumeration(constant_cost(31, 1.0))


def test_accuracy_roughly_size_independent_for_graph_family():
    # fixed edge probability, fixed b; absolute spread of the accuracy stays small
    accuracies = []
    for v in (8, 12, 16):
        c = graph_partition_cost(random_graph(v, 0.5, seed=100 + v))
        accuracies.append(thermo_point(c, 0.5).accuracy)
    assert max(accuracies) - min(accuracies) < 0.1


def test_expected_repetitions_bounded_across_sizes():
    # complete graphs keep the normalized costs away from 1, so the
    # post-selection probability has a stable large-n limit
    for b in (1.0, 2.0):
        reps = []
        for v in range(4, 17, 2):
            edges = tuple((a, bb) for a in range(v) for bb in range(a + 1, v))
            inst = GraphPartitionInstance(v=v, edges=edges, j=1.0, lam=0.0, p=1.0)
            reps.append(expected_repetitions(graph_partition_cost(inst), b))
        assert max(reps) <= 1.1 * 2**b
        assert min(reps) >= 0.8 * 2**b
        assert max(reps) / min(reps) < 1.15


@pytest.mark.parametrize("b", [2000, 4096])
def test_expected_repetitions_is_inf_past_the_float_range(b):
    # log P0_b = -730.38 at b = 2000: P0_b is subnormal and 1/P0_b overflows;
    # at b = 4096 P0_b underflows to 0
    c = graph_partition_cost(replace(random_graph(8, 0.5, seed=7), lam=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(log_p0(c, b))
        assert expected_repetitions(c, b) == math.inf
        assert thermo_point(c, 1.0 / b).expected_repetitions == math.inf
        assert ensemble.mean_repetitions(0.0) == math.inf


def test_log_p0_matches_direct_mean():
    c = random_local_cost(6, 2, 1.5, seed=61)
    theta = 0.5 * np.pi * normalized_all(c)
    direct = float(np.mean(np.cos(theta) ** 4))
    assert math.exp(log_p0(c, 2.0)) == pytest.approx(direct, rel=1e-12)


def test_thermodynamics_against_high_precision_oracle():
    # recompute the whole pipeline in 50-digit arithmetic from the same inputs
    mp = pytest.importorskip("mpmath").mp
    mpmath = pytest.importorskip("mpmath")
    mp.dps = 50
    c = random_local_cost(4, 2, 1.5, seed=3)
    c_nor = [mpmath.mpf(v) for v in normalized_all(c)]
    n_states = len(c_nor)
    for b_val in (0.5, 1.0, 3.0, 17.0):
        b = mpmath.mpf(b_val)
        e = [-2 * mpmath.log(mpmath.cos(mpmath.pi / 2 * v)) for v in c_nor]
        z = sum(mpmath.e ** (-b * ek) for ek in e)
        f_ref = -mpmath.log(z / n_states) / b
        weights = [mpmath.e ** (-b * ek) / z for ek in e]
        u_ref = sum(w * ek for w, ek in zip(weights, e))
        s_ref = (u_ref - f_ref) * b
        point = thermo_point(c, 1.0 / b_val)
        assert point.f == pytest.approx(float(f_ref), rel=1e-13, abs=1e-13)
        assert point.u == pytest.approx(float(u_ref), rel=1e-13, abs=1e-13)
        assert point.s == pytest.approx(float(s_ref), rel=1e-12, abs=1e-12)
        c_eff_ref = c.c_min + c.span * 2 / mpmath.pi * mpmath.acos(mpmath.e ** (-f_ref / 2))
        assert point.c_eff == pytest.approx(float(c_eff_ref), rel=1e-13)


def test_deep_b_stability_no_overflow():
    c = random_local_cost(6, 2, 1.5, seed=62)
    e = energies(c)
    f = free_energy(c, 1e6)
    assert np.isfinite(f)
    assert abs(f - e.min()) < 1e-4  # t*log(N/g0) at t = 1e-6
    p = boltzmann_distribution(c, 1e6)
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(p)) == int(np.argmin(evaluate_all(c)))
