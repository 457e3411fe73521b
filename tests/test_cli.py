import json
import tracemalloc
from dataclasses import replace

import pytest

from qanneal.cli import main, verification_report
from qanneal.cost import (
    constant_cost,
    cost_from_dict,
    cost_to_dict,
    graph_from_dict,
    graph_partition_cost,
    random_graph,
)


def run(args, tmp_path, name):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


def write_instance(tmp_path, cost, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cost_to_dict(cost)) + "\n")
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    code, out = run(
        ["generate", "graph", "--v", "4", "--p", "1.0", "--lam", "1.0", "--seed", "7",
         "--no-timestamp"],
        tmp_path,
        "k4.json",
    )
    assert code == 0
    return str(out)


# --- generate ----------------------------------------------------------------


def test_generate_graph_is_byte_identical_on_rerun(tmp_path):
    args = ["generate", "graph", "--v", "8", "--p", "0.5", "--lam", "1.0", "--seed", "7",
            "--no-timestamp"]
    _, first = run(args, tmp_path, "a.json")
    _, second = run(args, tmp_path, "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_generate_graph_schema_round_trips(graph_file):
    data = json.loads(open(graph_file).read())
    assert data["tool"] == "qanneal" and data["seed"] == 7
    inst = graph_from_dict(data["instance"])  # validates invariants
    assert inst.v == 4 and len(inst.edges) == 6


def test_generate_cost_schema_round_trips(tmp_path):
    code, out = run(
        ["generate", "cost", "--n", "6", "--m", "2", "--seed", "3", "--no-timestamp"],
        tmp_path,
        "cost.json",
    )
    assert code == 0
    data = json.loads(out.read_text())
    cost = cost_from_dict(data["instance"])  # validates bounds and terms
    assert cost.n == 6 and cost.max_arity <= 2


def test_generate_includes_timestamp_unless_suppressed(tmp_path):
    _, out = run(["generate", "cost", "--n", "3", "--m", "1", "--seed", "0"], tmp_path, "t.json")
    assert "timestamp" in json.loads(out.read_text())
    _, out2 = run(
        ["generate", "cost", "--n", "3", "--m", "1", "--seed", "0", "--no-timestamp"],
        tmp_path,
        "t2.json",
    )
    assert "timestamp" not in json.loads(out2.read_text())


def test_generate_rejects_odd_vertex_count(tmp_path):
    code = main(["generate", "graph", "--v", "5", "--seed", "0", "--out", str(tmp_path / "x")])
    assert code == 1


# --- verify --------------------------------------------------------------------


def test_verify_passes_on_valid_instance(graph_file, tmp_path):
    code, out = run(["verify", graph_file, "--b", "2", "--no-timestamp"], tmp_path, "v.json")
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert {c["name"] for c in report["checks"]} == {
        "product_decomposition",
        "gate_vs_closed_form",
        "postselection_probability",
    }


def test_verify_corrupted_phase_table_fails(graph_file, tmp_path):
    code, out = run(
        ["verify", graph_file, "--b", "2", "--corrupt-phase", "--no-timestamp"],
        tmp_path,
        "vc.json",
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False


def test_verify_rejects_b_zero(graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", graph_file, "--b", "0"])
    assert exc.value.code == 2


def test_verify_refuses_gate_cap_overflow(graph_file, tmp_path, monkeypatch):
    monkeypatch.setenv("QANNEAL_MAX_QUBITS", "5")
    code = main(["verify", graph_file, "--b", "2", "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_verification_report_holds_at_most_three_vectors():
    # gate-level and closed-form states are live together; the comparison
    # between them must not add full-size temporaries
    cost = graph_partition_cost(replace(random_graph(14, 0.5, seed=7), lam=1.0))
    b = 4
    tracemalloc.start()
    try:
        checks = verification_report(cost, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for c in checks)
    assert peak <= 3 * (16 << (cost.n + b))


# --- sample --------------------------------------------------------------------


def test_sample_single_trial_record(graph_file, tmp_path):
    code, out = run(
        ["sample", graph_file, "--b", "2", "--trials", "1", "--seed", "9", "--no-timestamp"],
        tmp_path,
        "s.json",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["samples"]) == 1
    record = data["samples"][0]
    assert set(record) >= {"b", "mode", "repetitions", "result", "cost", "seed"}
    assert record["seed"] == 9 and record["repetitions"] >= 1


def test_sample_thread_count_does_not_change_output(graph_file, tmp_path):
    base = ["sample", graph_file, "--b", "2", "--trials", "64", "--seed", "3", "--no-timestamp"]
    _, one = run([*base, "--threads", "1"], tmp_path, "t1.json")
    _, four = run([*base, "--threads", "4"], tmp_path, "t4.json")
    assert one.read_bytes() == four.read_bytes()


def test_sample_gate_mode_agrees_with_closed_mode_summary(graph_file, tmp_path):
    gate = ["sample", graph_file, "--b", "2", "--trials", "200", "--seed", "3",
            "--mode", "gate", "--no-timestamp"]
    _, out = run(gate, tmp_path, "g.json")
    data = json.loads(out.read_text())
    assert data["summary"]["aborted_trials"] == 0
    assert data["summary"]["tv_distance_to_exact"] < 0.2


def test_sample_gate_mode_refuses_above_cap(graph_file, tmp_path, monkeypatch):
    # refusal, not silent fallback to closed form
    monkeypatch.setenv("QANNEAL_MAX_QUBITS", "5")
    code = main(
        ["sample", graph_file, "--b", "2", "--trials", "4", "--mode", "gate",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert not (tmp_path / "x.json").exists()
    assert main(
        ["sample", graph_file, "--b", "2", "--trials", "4", "--mode", "closed",
         "--out", str(tmp_path / "y.json")]
    ) == 0


def test_sample_reports_aborted_trials(tmp_path):
    inst = write_instance(tmp_path, constant_cost(3, 1.0))
    code, out = run(
        ["sample", inst, "--b", "12", "--trials", "10", "--seed", "1",
         "--max-repetitions", "1", "--no-timestamp"],
        tmp_path,
        "ab.json",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["aborted_trials"] > 0
    assert any(r.get("aborted") for r in data["samples"])


def test_sample_survives_underflowing_success_probability(tmp_path):
    # p0 = 2^-3000 underflows to 0.0: every trial aborts, summary stays valid
    inst = write_instance(tmp_path, constant_cost(2, 1.0))
    code, out = run(
        ["sample", inst, "--b", "3000", "--trials", "3", "--seed", "1", "--no-timestamp"],
        tmp_path,
        "uf.json",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["aborted_trials"] == 3
    assert data["summary"]["p0b"] == 0.0
    assert data["summary"]["expected_repetitions"] == float("inf")


# --- sweep ---------------------------------------------------------------------


def test_sweep_csv_columns_and_checks(graph_file, tmp_path):
    code, out = run(
        ["sweep", graph_file, "--b-list", "1,2,4,8,16,32", "--no-timestamp"],
        tmp_path,
        "sweep.csv",
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    meta = json.loads(lines[0][2:])
    assert meta["command"] == "sweep" and "c_0" in meta and "c_inf" in meta
    assert meta["degenerate"] is False
    header = lines[1].split(",")
    assert header == ["b", "t", "F", "U", "S", "C_eff", "C_eff_nor", "Delta",
                      "accuracy", "P0b", "expected_repetitions", "checks"]
    rows = [line.split(",") for line in lines[2:]]
    assert all(row[-1] == "ok" for row in rows)
    accuracy = [float(row[8]) for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(accuracy, accuracy[1:]))


def test_sweep_flags_degenerate_instance(tmp_path):
    inst = write_instance(tmp_path, constant_cost(3, 2.0))
    code, out = run(["sweep", inst, "--b-list", "1,2", "--no-timestamp"], tmp_path, "d.csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert json.loads(lines[0][2:])["degenerate"] is True
    assert all(row.split(",")[8] == "nan" for row in lines[2:])


def test_sweep_seventeen_significant_digits(graph_file, tmp_path):
    _, out = run(["sweep", graph_file, "--b-list", "3", "--no-timestamp"], tmp_path, "p.csv")
    row = out.read_text().strip().splitlines()[-1].split(",")
    f_field = row[2]
    assert len(f_field.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 16


# --- compare --------------------------------------------------------------------


def test_compare_reports_ground_truth_and_both_loads(graph_file, tmp_path):
    code, out = run(
        ["compare", graph_file, "--b", "2", "--trials", "4", "--seed", "3", "--no-timestamp"],
        tmp_path,
        "c.json",
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["ground_truth"]["min_cost"] == 4.0
    assert data["ground_truth"]["argmin_count"] == 6
    assert "note" in data
    assert data["quantum"]["expected_repetitions"] > 1
    assert len(data["classical"]["per_trial"]) == 4


def test_compare_reports_optimum_hit_fraction(graph_file, tmp_path):
    code, out = run(
        ["compare", graph_file, "--b", "2", "--trials", "5", "--seed", "8", "--no-timestamp"],
        tmp_path,
        "hit.json",
    )
    assert code == 0
    data = json.loads(out.read_text())
    fraction = data["classical"]["optimum_hit_fraction"]
    assert 0.0 <= fraction <= 1.0


def test_sample_mean_repetitions_tracks_geometric_law(graph_file, tmp_path):
    code, out = run(
        ["sample", graph_file, "--b", "3", "--trials", "2000", "--seed", "6", "--no-timestamp"],
        tmp_path,
        "geo.json",
    )
    assert code == 0
    summary = json.loads(out.read_text())["summary"]
    p0 = summary["p0b"]
    three_sigma = 3 * ((1 - p0) / p0**2 / 2000) ** 0.5
    assert abs(summary["mean_repetitions"] - summary["expected_repetitions"]) < three_sigma


def test_compare_same_seed_is_byte_identical(graph_file, tmp_path):
    args = ["compare", graph_file, "--b", "2", "--trials", "3", "--seed", "5", "--no-timestamp"]
    _, a = run(args, tmp_path, "a.json")
    _, b = run(args, tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_compare_thread_count_does_not_change_output(graph_file, tmp_path):
    base = ["compare", graph_file, "--b", "2", "--trials", "6", "--seed", "5", "--no-timestamp"]
    _, one = run([*base, "--threads", "1"], tmp_path, "one.json")
    _, four = run([*base, "--threads", "4"], tmp_path, "four.json")
    assert one.read_bytes() == four.read_bytes()


# --- plumbing ---------------------------------------------------------------------


def test_every_command_rerun_is_byte_identical(graph_file, tmp_path):
    commands = [
        ["verify", graph_file, "--b", "2", "--no-timestamp"],
        ["sample", graph_file, "--b", "2", "--trials", "16", "--seed", "1", "--no-timestamp"],
        ["sweep", graph_file, "--b-list", "1,4", "--no-timestamp"],
        ["compare", graph_file, "--b", "1", "--trials", "2", "--seed", "2", "--no-timestamp"],
    ]
    for i, args in enumerate(commands):
        _, a = run(args, tmp_path, f"r{i}a")
        _, b = run(args, tmp_path, f"r{i}b")
        assert a.read_bytes() == b.read_bytes(), args[0]


def test_stdout_output_when_no_out_given(graph_file, capsys):
    code = main(["verify", graph_file, "--b", "1", "--no-timestamp"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_missing_instance_file_is_reported(tmp_path):
    code = main(["verify", str(tmp_path / "nope.json"), "--b", "1"])
    assert code == 1


def test_malformed_instance_file_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}\n')  # missing every other field
    code = main(["verify", str(bad), "--b", "1"])
    assert code == 1
    assert "not a valid instance file" in capsys.readouterr().err
