"""The benchmark's own checks: negative controls and a tiny pass of each workload.

Run from the repository root with ``python3 -m pytest qbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

sys.path.insert(0, str(bench.ROOT / "src"))
import oracle  # noqa: E402
from qanneal import cli  # noqa: E402

TINY_V = 6


def test_corrupt_phase_op_counts_as_failed():
    workload = bench.Workload(
        "neg_verify", TINY_V, (("verify", "{instance}", "--b", "2", "--corrupt-phase"),), "negative control"
    )
    result, report = bench.run(workload, seed=1, seconds=0.1, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert report["fail_frac"] == 1.0


def _sweep_output(tmp_path: Path) -> tuple[oracle.Reference, str]:
    instance = tmp_path / "graph.json"
    out = tmp_path / "sweep.csv"
    cli.main(["generate", "graph", "--v", "8", "--p", "0.5", "--lam", "1.0", "--seed", "4",
              "--out", str(instance)])
    assert cli.main(["sweep", str(instance), "--b-list", "1,2,4,8", "--out", str(out)]) == 0
    return oracle.Reference(json.loads(instance.read_text())), out.read_text()


def test_sweep_oracle_accepts_the_program_output(tmp_path):
    reference, text = _sweep_output(tmp_path)
    assert oracle.check_sweep(reference, text) == []


def test_perturbed_sweep_f_fails_the_oracle(tmp_path):
    reference, text = _sweep_output(tmp_path)
    lines = text.splitlines()
    header = lines[1].split(",")
    row = lines[4].split(",")
    f_column = header.index("F")
    row[f_column] = repr(float(row[f_column]) * (1.0 + 1e-6))
    lines[4] = ",".join(row)
    problems = oracle.check_sweep(reference, "\n".join(lines) + "\n")
    assert any(p.startswith("b=4.0: F=") for p in problems)


def test_sweep_oracle_selects_columns_by_name(tmp_path):
    reference, text = _sweep_output(tmp_path)
    lines = text.splitlines()
    # an added column, as a later format may carry, must not disturb the check
    lines[1:] = [line + (",log_P0b" if i == 0 else ",0.0") for i, line in enumerate(lines[1:])]
    assert oracle.check_sweep(reference, "\n".join(lines) + "\n") == []


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_finishes_in_seconds(name, trace):
    workload = replace(bench.WORKLOADS[name], v=TINY_V)
    started = time.monotonic()
    result, _ = bench.run(workload, seed=2, seconds=0.1, trace=trace)
    assert time.monotonic() - started < 30.0
    assert result["correct"] is True and result["failed"] == 0
    expected = PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert set(result["metrics"]) == set(expected)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "verify_gate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
