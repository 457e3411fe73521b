"""The level-compressed spectrum: streamed histogram, its certificate, and the ensemble over it."""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_thermo
from qanneal import cli, ensemble
from qanneal import cost as cost_module
from qanneal.cost import (
    CostFunction,
    LocalTerm,
    derive_bounds,
    graph_partition_cost,
    graph_to_dict,
    random_graph,
    random_local_cost,
)

DERANDOMIZED = settings(derandomize=True, deadline=None, database=None)


@st.composite
def dyadic_costs(draw, max_n: int = 12) -> CostFunction:
    """Costs with terms of one or two bits whose values are small multiples of 2^-e."""
    n = draw(st.integers(1, max_n))
    unit = 2.0 ** -draw(st.integers(0, 3))
    constant = draw(st.integers(-64, 64)) * unit
    terms = []
    for _ in range(draw(st.integers(0, 2 * n))):
        k = draw(st.integers(1, min(2, n)))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        values = [draw(st.integers(-8, 8)) * unit for _ in range(1 << k)]
        terms.append(LocalTerm(tuple(sorted(qubits)), tuple(values)))
    c_min, c_max = derive_bounds(constant, terms)
    return CostFunction(n=n, constant=constant, terms=tuple(terms), c_min=c_min, c_max=c_max)


def is_streamed(cost: CostFunction) -> bool:
    return cost.level_grid is not None


# --- the histogram ---------------------------------------------------------------


@settings(DERANDOMIZED, max_examples=40)
@given(dyadic_costs())
def test_streamed_levels_equal_the_dense_histogram_bit_for_bit(cost):
    assert is_streamed(cost)
    values, counts = cost.levels
    assert "table" not in vars(cost)
    dense_values, dense_counts = np.unique(cost.table, return_counts=True)
    assert values.tobytes() == dense_values.tobytes()
    assert counts.dtype == np.int64 and np.array_equal(counts, dense_counts)
    assert int(counts.sum()) == 1 << cost.n


# v = 18 streams 2^18 states in four blocks of 2^16
@pytest.mark.parametrize(
    "v, lam", [(v, lam) for v in (8, 12, 16) for lam in (0.0, 0.5, 1.0)] + [(18, 1.0)]
)
def test_graph_levels_are_streamed_and_equal_the_dense_histogram(v, lam):
    cost = graph_partition_cost(replace(random_graph(v, 0.5, seed=7), lam=lam))
    assert is_streamed(cost)
    values, counts = cost.levels
    assert "table" not in vars(cost)
    dense_values, dense_counts = np.unique(cost.table, return_counts=True)
    assert values.tobytes() == dense_values.tobytes()
    assert np.array_equal(counts, dense_counts)


def wide_dyadic_cost(n: int) -> CostFunction:
    """A certified cost spread over millions of bins: one-bit weights up to 2^15 in steps of 1/8."""
    rng = np.random.default_rng(5)
    terms = [LocalTerm((q,), (0.0, float(rng.integers(0, 1 << 18)) / 8)) for q in range(n)]
    terms += [LocalTerm((q, q + 1), tuple(float(x) / 8 for x in rng.integers(-64, 64, 4)))
              for q in range(n - 1)]
    c_min, c_max = derive_bounds(0.0, terms)
    return CostFunction(n=n, constant=0.0, terms=tuple(terms), c_min=c_min, c_max=c_max)


def test_stream_work_per_block_follows_the_block_not_the_bins(monkeypatch):
    # v = 18 and n = 18 stream four blocks of 2^16 states each, over 2.9e5 and
    # 1.9e6 bins; the fine-weight graph's blocks each span about 2e5 of them
    fine = graph_partition_cost(replace(random_graph(18, 0.5, seed=7), lam=2.0**-12))
    wide = wide_dyadic_cost(18)
    block = 1 << 16
    binned, sorted_sizes = [], []
    bincount, unique = np.bincount, np.unique

    def counting(x, *args, **kwargs):
        found = bincount(x, *args, **kwargs)
        binned.append(len(found))
        return found

    def sorting(x, *args, **kwargs):
        sorted_sizes.append(x.size)
        return unique(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    monkeypatch.setattr(np, "unique", sorting)
    for cost in (fine, wide):
        assert cost.level_grid[2] > 4 * block
        cost.levels
    monkeypatch.undo()
    # a bincount spans its block's own range, a few block lengths at most;
    # a block spread wider than that is sorted, and never more than one block at a time
    assert binned and max(binned) <= 4 * block
    assert sorted_sizes and max(sorted_sizes) <= block
    for cost in (fine, wide):
        values, counts = cost.levels
        dense_values, dense_counts = np.unique(cost.table, return_counts=True)
        assert values.tobytes() == dense_values.tobytes()
        assert np.array_equal(counts, dense_counts)


def test_levels_are_built_once_and_read_only():
    cost = graph_partition_cost(replace(random_graph(10, 0.5, seed=3), lam=1.0))
    assert cost.levels is cost.levels
    values, counts = cost.levels
    assert cost.spectrum[0] is values
    for array in (values, counts, *cost.spectrum):
        with pytest.raises(ValueError):
            array[0] = 1


def test_certificate_refuses_inexact_or_wide_costs():
    # non-dyadic weights: sums of 0.3 are rounded, so the order would matter
    inexact = graph_partition_cost(replace(random_graph(8, 0.5, seed=7), lam=0.3))
    assert cost_module._level_grid(inexact.constant, inexact.terms) is None
    # magnitudes past 2^50 units of 2^-e
    big = (LocalTerm((0,), (0.0, 2.0**50)), LocalTerm((1,), (0.0, 1.0)))
    assert cost_module._level_grid(0.0, big) is None
    # a loose range wider than 2^TABLE_MAX_BITS bins
    wide = (LocalTerm((0,), (0.0, 2.0**24)),)
    assert cost_module._level_grid(0.0, wide) is None
    assert cost_module._level_grid(0.0, (LocalTerm((0,), (0.0, 2.0**24 - 1)),)) == (0, 0, 1 << 24)


def test_uncertified_costs_take_the_dense_histogram():
    for cost in (random_local_cost(10, 3, 1.5, seed=4), random_local_cost(10, 2, 1.5, seed=4)):
        assert not is_streamed(cost)
        values, counts = cost.levels
        dense_values, dense_counts = np.unique(cost.table, return_counts=True)
        assert values.tobytes() == dense_values.tobytes()
        assert np.array_equal(counts, dense_counts)


# --- the ensemble over levels ------------------------------------------------------


@pytest.mark.parametrize(
    "cost",
    [random_local_cost(10, 3, 1.5, seed=4), random_local_cost(10, 2, 1.5, seed=4),
     graph_partition_cost(replace(random_graph(10, 0.5, seed=7), lam=0.3))],
    ids=["local3", "local2", "graph-lam0.3"],
)
def test_uncertified_ensemble_sums_over_the_states_without_sorting(cost):
    # an uncertified cost can have nearly one level per state, so its ensemble
    # reads the per-state energies with unit weights and never sorts the table
    assert not is_streamed(cost)
    points = ensemble.sweep(cost, [1.0, 4.0, 16.0])
    assert "levels" not in vars(cost)
    costs, energies, weights = cost.spectrum
    assert costs is cost.table and energies is cost.energies and weights is None
    for point in points:
        ref = dense_thermo(cost, point.b)
        assert point.f == pytest.approx(ref["f"], rel=1e-14)
        assert point.u == pytest.approx(ref["u"], rel=1e-14)


def thermo_cases():
    for v in (8, 10, 12, 14, 16):
        for lam in (0.0, 0.5, 1.0):
            yield f"graph{v}-lam{lam}", graph_partition_cost(
                replace(random_graph(v, 0.5, seed=100 + v), lam=lam)
            )
    for n, seed in ((8, 1), (10, 2), (12, 3)):
        yield f"local3-{n}", random_local_cost(n, 3, 1.5, seed=seed)


@pytest.mark.parametrize("name, cost", list(thermo_cases()))
def test_level_thermo_matches_the_dense_oracle(name, cost):
    rel = 1e-12
    c0, c_inf = cost.cost_limits
    for b in (0.5, 2.0, 8.0, 32.0):
        point = ensemble.thermo_point(cost, 1.0 / b)
        ref = dense_thermo(cost, b)
        for key, value in (("f", point.f), ("u", point.u), ("log_p0b", point.log_p0b),
                           ("c_eff", point.c_eff), ("c_0", c0), ("c_inf", c_inf)):
            assert value == pytest.approx(ref[key], rel=rel), (name, b, key)
        # differences carry the relative error of their operands
        scale = max(abs(ref["c_inf"]), abs(ref["c_eff"]))
        assert point.s == pytest.approx(ref["s"], abs=rel * b * max(abs(ref["u"]), abs(ref["f"])))
        assert point.delta == pytest.approx(ref["delta"], abs=rel * scale)
        assert point.accuracy == pytest.approx(ref["accuracy"], abs=rel * scale / (c_inf - c0))


@settings(DERANDOMIZED, max_examples=30)
@given(
    dyadic_costs(max_n=8),
    st.lists(st.floats(0.05, 200.0), min_size=2, max_size=5, unique=True),
)
def test_sweep_is_monotone_and_its_entropies_bounded(cost, b_values):
    points = ensemble.sweep(cost, sorted(b_values))
    tol = 1e-12
    log_n = cost.n * math.log(2.0)
    for point in points:
        assert point.s <= tol
        assert -tol <= point.s_gibbs <= log_n + tol * max(1.0, log_n)
        assert point.degenerate or 0.0 <= point.accuracy <= 1.0
    for lower, higher in zip(points, points[1:]):
        assert higher.f <= lower.f + tol * max(1.0, abs(lower.f))
        if not lower.degenerate:
            assert higher.accuracy >= lower.accuracy - tol


def test_log_p0b_stays_finite_where_p0b_underflows(tmp_path):
    inst = replace(random_graph(8, 0.5, seed=7), lam=1.0)
    (tmp_path / "g.json").write_text(json.dumps(graph_to_dict(inst)))
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sweep", str(tmp_path / "g.json"), "--b-list", "4096",
                         "--no-timestamp", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["P0b"]) == 0.0
    assert float(row["expected_repetitions"]) == math.inf
    assert float(row["log_P0b"]) == pytest.approx(-1491.9, abs=0.05)


# --- size reach --------------------------------------------------------------------


def test_sweep_past_the_table_cap_builds_no_table(tmp_path, monkeypatch):
    inst = replace(random_graph(26, 0.5, seed=7), lam=1.0)  # a 2^26 table would be 512 MiB
    (tmp_path / "g26.json").write_text(json.dumps(graph_to_dict(inst)))
    loaded = []
    original = cli.load_instance

    def recording(path):
        cost, info = original(path)
        loaded.append(cost)
        return cost, info

    monkeypatch.setattr(cli, "load_instance", recording)
    tracemalloc.start()
    try:
        code = cli.main(["sweep", str(tmp_path / "g26.json"), "--b-list", "1,2,4,8,16,32",
                         "--no-timestamp", "--out", str(tmp_path / "s.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    (cost,) = loaded
    assert cost.n > cost_module.TABLE_MAX_BITS
    assert "table" not in vars(cost) and "energies" not in vars(cost)
    assert int(cost.levels[1].sum()) == 1 << 26
    assert peak < 32 << 20  # the 2^24-entry table alone is 128 MiB
    rows = (tmp_path / "s.csv").read_text().splitlines()[2:]
    assert len(rows) == 6 and all(row.endswith(",ok") for row in rows)
