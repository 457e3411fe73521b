import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qanneal.cost import (
    CapExceededError,
    CostFunction,
    GraphPartitionInstance,
    LocalTerm,
    bitstring,
    cost_from_dict,
    cost_to_dict,
    constant_cost,
    cut_size,
    derive_bounds,
    evaluate,
    evaluate_all,
    graph_from_dict,
    graph_partition_cost,
    graph_to_dict,
    normalize,
    normalized_all,
    random_graph,
    random_local_cost,
)
from conftest import complete_graph_instance


def direct_partition_cost(inst: GraphPartitionInstance, x: int) -> float:
    """Independent oracle: the spin formula evaluated directly from the edge set."""
    s = [2 * ((x >> i) & 1) - 1 for i in range(inst.v)]
    coupling = sum(s[a] * s[b] for a, b in inst.edges)
    balance = sum(s) ** 2
    return inst.v * (inst.v - 1) * inst.p / 4.0 - 0.5 * coupling + 0.5 * inst.lam * balance


# --- evaluate ---------------------------------------------------------------


def test_constant_cost_evaluates_to_constant():
    c = constant_cost(3, 2.5)
    for x in range(8):
        assert evaluate(c, x) == 2.5


def test_k4_balanced_assignment_counts_cut_edges():
    c = graph_partition_cost(complete_graph_instance(4))
    assert evaluate(c, "0011") == pytest.approx(4.0, abs=1e-12)


def test_k4_unbalanced_assignment():
    c = graph_partition_cost(complete_graph_instance(4))
    assert evaluate(c, "0111") == pytest.approx(3.0, abs=1e-12)


def test_evaluate_rejects_length_mismatch():
    c = constant_cost(3, 1.0)
    with pytest.raises(ValueError):
        evaluate(c, "01")
    with pytest.raises(ValueError):
        evaluate(c, [0, 1])


def test_evaluate_accepts_index_string_and_bits():
    c = graph_partition_cost(complete_graph_instance(4))
    # "0011" (MSB-first) = index 3 = bits (1, 1, 0, 0) LSB-first
    assert evaluate(c, "0011") == evaluate(c, 3) == evaluate(c, [1, 1, 0, 0])


# --- per-instance cost table -------------------------------------------------


def test_evaluate_all_is_bit_identical_to_evaluate_on_asymmetric_terms():
    # random tables are asymmetric in their qubits, so a wrong axis order shows
    for n in range(1, 11):
        for m in range(1, min(3, n) + 1):
            for seed in range(3):
                c = random_local_cost(n, m, 1.5, seed=100 * n + 10 * m + seed)
                direct = np.array([evaluate(c, x) for x in range(1 << n)])
                assert evaluate_all(c).tobytes() == direct.tobytes(), (n, m, seed)


def test_evaluate_all_is_the_instance_table_and_read_only():
    c = random_local_cost(6, 3, 1.5, seed=5)
    assert evaluate_all(c) is evaluate_all(c) is c.table
    with pytest.raises(ValueError):
        evaluate_all(c)[0] = 1.0
    # the table never enters equality or hashing
    assert c == replace(c) and hash(c) == hash(replace(c))


# --- normalize --------------------------------------------------------------


def test_normalize_examples(two_state_cost):
    assert normalize(two_state_cost, "0") == pytest.approx(0.25, abs=1e-15)
    assert normalize(two_state_cost, "1") == pytest.approx(0.75, abs=1e-15)


def test_bounds_must_be_strict():
    # a cost value equal to c_min is rejected at construction
    with pytest.raises(ValueError):
        CostFunction(n=1, constant=0.0, terms=(LocalTerm((0,), (0.0, 1.0)),), c_min=0.0, c_max=1.5)


def test_strict_bounds_past_interval_arithmetic_are_verified_exhaustively_at_n_21():
    # the two terms cannot reach their maxima together: the cost range is
    # [0, 1] while interval arithmetic gives [0, 2], past c_max
    terms = (LocalTerm((0,), (1.0, 0.0)), LocalTerm((0, 1), (0.0, 1.0, 0.0, 1.0)))
    c = CostFunction(n=21, constant=0.0, terms=terms, c_min=-0.5, c_max=1.5)
    assert float(c.table.max()) == 1.0
    with pytest.raises(ValueError, match="not strict"):
        CostFunction(n=21, constant=0.0, terms=terms, c_min=-0.5, c_max=1.0)


def test_cost_table_refusal_names_its_bytes_and_cap():
    c = constant_cost(25, 1.0)
    with pytest.raises(CapExceededError, match=r"cost table needs 268435456 bytes .*cap of 24"):
        c.table
    assert "table" not in vars(c)


def test_unverifiable_bounds_above_the_table_cap_are_refused():
    terms = (LocalTerm((0,), (1.0, 0.0)), LocalTerm((0, 1), (0.0, 1.0, 0.0, 1.0)))
    with pytest.raises(CapExceededError, match="cap of 24"):
        CostFunction(n=25, constant=0.0, terms=terms, c_min=-0.5, c_max=1.5)


def test_normalize_monotone_in_evaluate():
    c = random_local_cost(6, 2, 1.5, seed=9)
    values = evaluate_all(c)
    nor = normalized_all(c)
    order = np.argsort(values)
    assert np.all(np.diff(nor[order]) >= 0)
    assert np.all((nor > 0) & (nor < 1))


# --- derive_bounds ----------------------------------------------------------


def test_derive_bounds_single_term():
    lo, hi = derive_bounds(0.0, (LocalTerm((0,), (0.0, 1.0)),), margin=0.5)
    assert (lo, hi) == (-0.5, 1.5)


def test_derive_bounds_two_terms_additive():
    terms = (LocalTerm((0,), (0.0, 1.0)), LocalTerm((1,), (0.0, 1.0)))
    lo, hi = derive_bounds(0.0, terms, margin=0.1)
    assert lo == pytest.approx(-0.1)
    assert hi == pytest.approx(2.1)


def test_derive_bounds_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LocalTerm((0,), (0.0, float("nan")))
    with pytest.raises(ValueError):
        derive_bounds(0.0, (LocalTerm((0,), (0.0, 1.0)),), margin=0.0)


@pytest.mark.parametrize("value", [1e9, -1e12])
def test_constant_cost_of_large_magnitude_gets_open_bounds(value):
    c = constant_cost(3, value)
    assert c.c_min < value < c.c_max
    assert np.all(normalized_all(c) == 0.5)


def test_relative_margin_dominates_on_graph_instances():
    # the ulp floor must leave ordinary bounds bit-identical to lo - rel, hi + rel
    from qanneal.cost import MARGIN_REL, loose_range

    for seed in range(5):
        c = graph_partition_cost(replace(random_graph(12, 0.5, seed), lam=1.0))
        lo, hi = loose_range(c.constant, c.terms)
        margin = MARGIN_REL * (hi - lo)
        assert (c.c_min, c.c_max) == (lo - margin, hi + margin)


def test_derived_bounds_contain_all_evaluations_exhaustively():
    c = random_local_cost(8, 3, 2.0, seed=123)
    values = evaluate_all(c)
    assert c.c_min < values.min()
    assert values.max() < c.c_max


# --- graph partitioning -----------------------------------------------------


def test_k4_cost_equals_cut_size_on_all_assignments():
    inst = complete_graph_instance(4)
    c = graph_partition_cost(inst)
    for x in range(16):
        assert evaluate(c, x) == pytest.approx(cut_size(inst, x), abs=1e-12)


def test_empty_graph_cost_is_constant():
    inst = GraphPartitionInstance(v=4, edges=(), lam=0.0, p=0.5)
    c = graph_partition_cost(inst)
    expected = 4 * 3 * 0.5 / 4.0
    assert np.allclose(evaluate_all(c), expected)


def test_two_vertex_single_edge_hand_expansion():
    inst = GraphPartitionInstance(v=2, edges=((0, 1),), lam=0.0, p=1.0)
    c = graph_partition_cost(inst)
    # direct expansion of the spin formula: constant 0.5, -s0*s1/2
    assert evaluate(c, "01") == pytest.approx(1.0, abs=1e-12)
    assert evaluate(c, "00") == pytest.approx(0.0, abs=1e-12)


def test_graph_cost_matches_direct_formula_oracle():
    for seed in (0, 1, 2):
        inst = random_graph(8, 0.5, seed=seed)
        c = graph_partition_cost(inst)
        for x in range(256):
            assert evaluate(c, x) == pytest.approx(direct_partition_cost(inst, x), abs=1e-12)


def test_balanced_partitions_cost_equals_cut_size_with_penalty():
    # p=1, J=1: on balanced assignments the penalty vanishes and cost = cut size
    inst = complete_graph_instance(6, lam=2.5)
    c = graph_partition_cost(inst)
    for x in range(64):
        if bin(x).count("1") == 3:
            assert evaluate(c, x) == pytest.approx(cut_size(inst, x), abs=1e-12)


def test_graph_instance_invariants():
    with pytest.raises(ValueError):
        GraphPartitionInstance(v=3, edges=())
    with pytest.raises(ValueError):
        GraphPartitionInstance(v=4, edges=((1, 1),))
    with pytest.raises(ValueError):
        GraphPartitionInstance(v=4, edges=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        GraphPartitionInstance(v=4, edges=((0, 4),))


# --- random generators ------------------------------------------------------


def test_random_graph_edge_probability_extremes():
    assert random_graph(6, 0.0, seed=1).edges == ()
    assert len(random_graph(6, 1.0, seed=1).edges) == 15


def test_random_graph_rejects_odd_vertex_count():
    with pytest.raises(ValueError):
        random_graph(5, 0.5, seed=0)


def test_random_graph_mean_edge_count_matches_binomial():
    v, p, n_seeds = 20, 0.5, 1000
    pairs = v * (v - 1) // 2
    counts = [len(random_graph(v, p, seed=s).edges) for s in range(n_seeds)]
    expected = pairs * p
    sigma_mean = math.sqrt(pairs * p * (1 - p) / n_seeds)
    assert abs(np.mean(counts) - expected) < 3 * sigma_mean


def test_random_local_cost_is_deterministic():
    a = random_local_cost(6, 2, 1.5, seed=7)
    b = random_local_cost(6, 2, 1.5, seed=7)
    assert a == b
    assert a != random_local_cost(6, 2, 1.5, seed=8)


def test_random_local_cost_arity_cap():
    c = random_local_cost(6, 1, 2.0, seed=3)
    assert all(t.arity == 1 for t in c.terms)
    with pytest.raises(ValueError):
        random_local_cost(4, 5, 1.0, seed=0)


def test_random_local_cost_bounds_contain_all_evaluations():
    c = random_local_cost(6, 2, 1.5, seed=11)
    values = evaluate_all(c)
    assert c.c_min < values.min() and values.max() < c.c_max


# --- invariants -------------------------------------------------------------


def test_strict_bounds_hold_exhaustively_for_random_costs():
    for seed, n, m in [(0, 10, 2), (1, 12, 3), (2, 16, 2)]:
        c = random_local_cost(n, m, 1.2, seed=seed)
        values = evaluate_all(c)
        assert c.c_min < values.min() and values.max() < c.c_max


def test_canonicalization_folds_duplicate_terms():
    c = CostFunction(
        n=2,
        constant=0.0,
        terms=(LocalTerm((0,), (0.0, 1.0)), LocalTerm((0,), (0.5, -0.5))),
        c_min=-1.0,
        c_max=2.0,
    )
    assert len(c.terms) == 1
    assert c.terms[0].values == (0.5, 0.5)


def test_degenerate_cost_normalizes_strictly_inside_unit_interval():
    c = constant_cost(4, 3.0)
    nor = normalized_all(c)
    assert np.all((nor > 0) & (nor < 1))


# --- JSON -------------------------------------------------------------------


def test_cost_json_round_trip():
    c = random_local_cost(5, 2, 1.5, seed=4)
    assert cost_from_dict(json.loads(json.dumps(cost_to_dict(c)))) == c


def test_graph_json_round_trip_and_field_order():
    inst = random_graph(6, 0.5, seed=9)
    data = graph_to_dict(inst)
    assert list(data) == ["v", "edges", "j", "lambda", "p"]
    assert graph_from_dict(json.loads(json.dumps(data))) == inst


def test_cost_json_field_order():
    c = random_local_cost(4, 2, 1.0, seed=2)
    data = cost_to_dict(c)
    assert list(data) == ["n", "constant", "terms", "c_min", "c_max"]
    assert all(list(t) == ["qubits", "values"] for t in data["terms"])


def test_bitstring_round_trip():
    assert bitstring(3, 4) == "0011"
    assert int(bitstring(11, 4), 2) == 11
