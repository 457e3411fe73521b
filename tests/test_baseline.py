import math

import numpy as np
import pytest

from qanneal import baseline, ensemble
from qanneal.baseline import (
    BaselineReport,
    _anneal,
    anneal_to_target,
    brute_force_min,
    compare_loads,
    default_schedule,
    simulated_annealing,
)
from qanneal.cost import (
    CostFunction,
    LocalTerm,
    bitstring,
    constant_cost,
    evaluate,
    evaluate_all,
    random_local_cost,
)
from qanneal.statevec import CapExceededError


def reference_chain(cost, schedule, n_steps, seed):
    """Independent re-implementation of the documented chain and its three-block stream."""
    t_start, ratio, t_end = schedule
    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, 1 << cost.n))
    flips = rng.integers(0, cost.n, size=n_steps)
    uniforms = rng.random(n_steps)
    e = evaluate(cost, x)
    best_x, best_e = x, e
    uphill_accepted = 0
    temp = t_start
    for k in range(n_steps):
        y = x ^ (1 << int(flips[k]))
        ey = evaluate(cost, y)
        if ey - e <= 0:
            x, e = y, ey
        elif temp > 0 and uniforms[k] < math.exp(-(ey - e) / temp):
            x, e = y, ey
            uphill_accepted += 1
        if ey < best_e:
            best_x, best_e = y, ey
        temp = max(t_end, temp * ratio)
    return bitstring(best_x, cost.n), best_e, uphill_accepted


class CountingGenerator:
    """Generator proxy that counts every draw method call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.draws += 1
            return method(*args, **kwargs)

        return counted


# --- brute force ------------------------------------------------------------


def test_brute_force_k4_with_penalty_finds_all_balanced_cuts(k4_cost):
    argmin, vmin = brute_force_min(k4_cost)
    assert vmin == pytest.approx(4.0, abs=1e-12)
    balanced = {x for x in range(16) if bin(x).count("1") == 2}
    assert set(argmin) == balanced
    assert len(argmin) == 6


def test_brute_force_constant_cost_returns_every_state():
    argmin, vmin = brute_force_min(constant_cost(4, 1.5))
    assert vmin == 1.5
    assert argmin == list(range(16))


def test_brute_force_one_local_sum_has_all_zero_minimum():
    terms = tuple(LocalTerm((i,), (0.0, 1.0)) for i in range(5))
    c = CostFunction(n=5, constant=0.0, terms=terms, c_min=-0.5, c_max=5.5)
    argmin, vmin = brute_force_min(c)
    assert argmin == [0]
    assert vmin == 0.0


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_min(constant_cost(25, 1.0))


# --- simulated annealing ------------------------------------------------------


def test_default_schedule_solves_small_instances_reliably():
    # 5 instances x 20 seeded runs: at least 90% must land on the optimum
    corpus = [(8, 1), (10, 2), (12, 3), (12, 4), (10, 5)]
    hits = total = 0
    for i, (n, seed) in enumerate(corpus):
        c = random_local_cost(n, 2, 1.5, seed=seed)
        _, vmin = brute_force_min(c)
        for trial in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([11, i, trial]))
            report = simulated_annealing(c, rng=rng)
            total += 1
            hits += abs(report.best_cost - vmin) < 1e-9
    assert hits / total >= 0.9


def test_zero_temperature_is_strict_descent():
    c = random_local_cost(10, 2, 1.5, seed=8)
    for seed in (0, 1, 2):
        report = simulated_annealing(c, schedule=(0.0, 1.0, 0.0), n_steps=500, rng=seed)
        ref_best, ref_cost, uphill = reference_chain(c, (0.0, 1.0, 0.0), 500, seed)
        assert uphill == 0
        assert report.best_bitstring == ref_best
        assert report.best_cost == pytest.approx(ref_cost)


def test_chain_matches_reference_implementation():
    c = random_local_cost(8, 2, 1.5, seed=9)
    schedule = default_schedule(c)
    for seed in (3, 4, 5):
        report = simulated_annealing(c, schedule=schedule, n_steps=800, rng=seed)
        ref_best, ref_cost, _ = reference_chain(c, schedule, 800, seed)
        assert report.best_bitstring == ref_best
        assert report.best_cost == pytest.approx(ref_cost)


def test_fixed_seed_reproduces_report():
    c = random_local_cost(8, 2, 1.5, seed=10)
    assert simulated_annealing(c, rng=42) == simulated_annealing(c, rng=42)


def test_evaluation_counter_is_steps_plus_one():
    c = random_local_cost(6, 2, 1.5, seed=11)
    for n_steps in (0, 1, 257):
        report = simulated_annealing(c, n_steps=n_steps, rng=1)
        assert report.evaluations == n_steps + 1


def test_chain_draws_three_blocks_whatever_the_length():
    c = random_local_cost(8, 2, 1.5, seed=12)
    for n_steps in (0, 1, 2000):
        rng = CountingGenerator(n_steps)
        _, _, evaluations, _ = _anneal(c, default_schedule(c), n_steps, rng)
        assert evaluations == n_steps + 1
        assert rng.draws <= 3


def test_chain_above_table_threshold_never_builds_the_table():
    c = random_local_cost(22, 2, 1.5, seed=12)
    report = simulated_annealing(c, n_steps=50, rng=0)
    assert report.evaluations == 51
    assert "table" not in c.__dict__


def test_chain_above_table_threshold_reads_a_table_already_built(monkeypatch):
    c = random_local_cost(22, 2, 1.5, seed=12)
    by_evaluate = simulated_annealing(c, n_steps=300, rng=4)
    assert "table" not in vars(c)
    assert c.table.size == 1 << 22
    calls = []
    monkeypatch.setattr(baseline, "evaluate", lambda *args: calls.append(args))
    assert simulated_annealing(c, n_steps=300, rng=4) == by_evaluate
    assert calls == []


def test_brute_force_refusal_names_the_table_bytes():
    with pytest.raises(CapExceededError, match="cost table needs 268435456 bytes"):
        brute_force_min(constant_cost(25, 1.0))


def test_best_cost_never_beats_brute_force():
    for seed in range(5):
        c = random_local_cost(9, 2, 1.5, seed=seed)
        _, vmin = brute_force_min(c)
        report = simulated_annealing(c, rng=seed)
        assert report.best_cost >= vmin - 1e-12
        assert report.best_cost < c.c_max


def test_invalid_schedule_rejected():
    c = constant_cost(3, 1.0)
    with pytest.raises(ValueError):
        simulated_annealing(c, schedule=(1.0, 1.5, 0.1))
    with pytest.raises(ValueError):
        simulated_annealing(c, schedule=(1.0, 0.9, 2.0))


@pytest.mark.parametrize(
    "schedule, field",
    [
        ((math.nan, 0.998, 0.0), "t_start"),
        ((math.inf, 0.998, 0.0), "t_start"),
        ((1.0, math.nan, 0.0), "ratio"),
        ((1.0, 0.998, math.nan), "t_end"),
    ],
)
def test_non_finite_schedule_rejected_with_its_field(schedule, field):
    c = random_local_cost(6, 2, 1.5, seed=17)
    calls = [
        lambda: simulated_annealing(c, schedule, 2000, 1),
        lambda: anneal_to_target(c, 0.0, schedule, 2000, 1),
        lambda: compare_loads(c, 2.0, {"schedule": schedule}, trials=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=field):
            call()


def test_negative_step_count_rejected_by_both_entry_points():
    c = random_local_cost(6, 2, 1.5, seed=18)
    with pytest.raises(ValueError, match="n_steps"):
        simulated_annealing(c, n_steps=-5, rng=1)
    with pytest.raises(ValueError, match="n_steps"):
        anneal_to_target(c, 0.0, None, -5, 1)


def test_anneal_to_target_reports_first_passage():
    c = random_local_cost(8, 2, 1.5, seed=13)
    _, vmin = brute_force_min(c)
    evals, report = anneal_to_target(c, vmin, rng=7)
    assert report.evaluations == 4001
    if evals is not None:
        assert 1 <= evals <= report.evaluations
        assert report.best_cost == pytest.approx(vmin)


# --- load comparison ------------------------------------------------------------


def test_quantum_load_column_matches_ensemble_formula():
    c = random_local_cost(6, 2, 1.5, seed=14)
    record = compare_loads(c, 2.0, trials=2, seed=0)
    assert record["quantum"]["expected_repetitions"] == pytest.approx(
        ensemble.expected_repetitions(c, 2.0), rel=1e-12
    )


def test_compare_loads_trial_streams_are_seed_sequence_children():
    c = random_local_cost(7, 2, 1.5, seed=19)
    record = compare_loads(c, 2.0, sa_params={"n_steps": 300}, trials=4, seed=5)
    target = record["classical"]["target_cost"]
    schedule = default_schedule(c)
    for i, row in enumerate(record["classical"]["per_trial"]):
        rng = np.random.default_rng(np.random.SeedSequence([5, i]))
        evals, report = anneal_to_target(c, target, schedule, 300, rng)
        assert row == {
            "trial": i,
            "evaluations_to_target": evals,
            "best_cost": report.best_cost,
            "evaluations": report.evaluations,
        }


def test_compare_loads_zero_trials_gives_empty_record():
    c = random_local_cost(5, 2, 1.5, seed=15)
    record = compare_loads(c, 1.0, trials=0, seed=0)
    assert record["classical"]["per_trial"] == []
    assert record["classical"]["matched_trials"] == 0
    assert record["classical"]["mean_evaluations_to_target"] is None


def test_compare_loads_record_carries_both_accountings():
    c = random_local_cost(5, 2, 1.5, seed=16)
    record = compare_loads(c, 2.0, trials=3, seed=1)
    assert "note" in record and "evaluations" in record["note"]
    assert record["classical"]["trials"] == 3
    assert len(record["classical"]["per_trial"]) == 3
    for row in record["classical"]["per_trial"]:
        assert row["best_cost"] >= brute_force_min(c)[1] - 1e-12


def test_baseline_report_is_plain_record():
    report = BaselineReport("0101", 1.0, 10, "simulated_annealing", 3)
    assert report.best_bitstring == "0101"
    assert report.seed == 3
