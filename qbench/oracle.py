"""Independent oracle for the outputs of one benchmark op.

``qanneal.cost`` is used only to expand a graph instance into its term tables
and strict bounds.  Energies, log P0_b, F, U, the effective-cost limits and
accuracy are recomputed here with plain numpy: the cost vector is a
broadcast sum over a ``[2] * n`` tensor, not the program's index-gather.

Every ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from qanneal.cost import graph_from_dict, graph_partition_cost

REL_TOL = 1e-9
ABS_TOL = 1e-12
# Probability that a correct sampler trips a statistical bound.
FALSE_ALARM = 1e-9
MEAN_SIGMAS = 6.0


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _logsumexp(a: np.ndarray) -> float:
    top = float(a.max())
    return top + math.log(float(np.exp(a - top).sum()))


class Reference:
    """Exact ensemble of one graph-partitioning instance, computed independently."""

    def __init__(self, instance: dict):
        cost = graph_partition_cost(graph_from_dict(instance.get("instance", instance)))
        n = cost.n
        # axis i of the tensor is qubit n-1-i, so the flat index has qubit q at bit q
        tensor = np.full([2] * n, cost.constant)
        for term in cost.terms:
            shape = [1] * n
            for q in term.qubits:
                shape[n - 1 - q] = 2
            tensor = tensor + np.reshape(term.values, shape)
        self.n = n
        self.costs = tensor.reshape(-1)
        self.c_min, self.span = cost.c_min, cost.c_max - cost.c_min
        self.log_cos = np.log(np.cos(0.5 * np.pi * (self.costs - self.c_min) / self.span))
        self.energies = -2.0 * self.log_cos
        self.c0 = float(self.costs.min())
        self.c_inf = self._cost_at(float(self.energies.mean()))

    def _cost_at(self, free_energy: float) -> float:
        return self.c_min + self.span * (2.0 / np.pi) * math.acos(math.exp(-0.5 * free_energy))

    def log_p0(self, b: float) -> float:
        return _logsumexp(2.0 * b * self.log_cos) - self.n * math.log(2.0)

    def distribution(self, b: float) -> np.ndarray:
        w = 2.0 * b * self.log_cos
        p = np.exp(w - w.max())
        return p / p.sum()

    def thermo(self, b: float) -> dict:
        f = -self.log_p0(b) / b
        u = float(self.energies @ self.distribution(b))
        accuracy = (self.c_inf - self._cost_at(f)) / (self.c_inf - self.c0)
        return {"F": f, "U": u, "accuracy": min(1.0, max(0.0, accuracy))}


def check_verify(ref: Reference, payload: dict, b: int, probabilities: list[float]) -> list[str]:
    problems = []
    if payload.get("pass") is not True:
        failed = [c["name"] for c in payload.get("checks", []) if not c.get("pass")]
        problems.append(f"verify reported pass={payload.get('pass')!r}, failed checks {failed}")
    if not probabilities:
        problems.append("no post-selection probability was observed")
    p0 = math.exp(ref.log_p0(b))
    for p in probabilities:
        if not _close(p, p0):
            problems.append(f"post-selection probability {p!r} != oracle P0 {p0!r}")
    return problems


def check_sweep(ref: Reference, text: str) -> list[str]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if not rows:
        return ["sweep CSV has no rows"]
    problems = []
    previous = None
    for row in sorted(rows, key=lambda r: float(r["b"])):
        b = float(row["b"])
        expected = ref.thermo(b)
        for column in ("F", "U"):
            if not _close(float(row[column]), expected[column]):
                problems.append(f"b={b}: {column}={row[column]} != oracle {expected[column]!r}")
        if not _close(float(row["accuracy"]), expected["accuracy"], abs_=REL_TOL):
            problems.append(f"b={b}: accuracy={row['accuracy']} != oracle {expected['accuracy']!r}")
        if row["checks"] != "ok":
            problems.append(f"b={b}: checks={row['checks']!r}")
        f = float(row["F"])
        if previous is not None and f > previous:
            problems.append(f"F increases with b at b={b}: {f!r} > {previous!r}")
        previous = f
    return problems


def tv_bound(p: np.ndarray, trials: int) -> float:
    """High-probability bound on the TV distance of ``trials`` exact samples from ``p``.

    E|p_hat_i - p_i| <= sqrt(p_i (1 - p_i) / N) bounds the mean; one sample
    moves the TV distance by at most 1/N, so McDiarmid's inequality adds
    sqrt(ln(1/FALSE_ALARM) / 2N).
    """
    mean = 0.5 * float(np.sqrt(p * (1.0 - p) / trials).sum())
    return mean + math.sqrt(math.log(1.0 / FALSE_ALARM) / (2.0 * trials))


def check_sample(ref: Reference, payload: dict, b: int, trials: int) -> list[str]:
    samples = payload.get("samples", [])
    done = [s for s in samples if not s.get("aborted")]
    if len(samples) != trials:
        return [f"{len(samples)} sample records for {trials} trials"]
    if not done:
        return ["every trial aborted"]
    problems = []
    index = np.array([int(s["result"], 2) for s in done])
    reported = np.array([float(s["cost"]) for s in done])
    if not np.allclose(reported, ref.costs[index], rtol=REL_TOL, atol=ABS_TOL):
        problems.append("a sample's reported cost differs from the oracle cost of its bitstring")
    p = ref.distribution(b)
    empirical = np.bincount(index, minlength=p.size) / len(done)
    tv = 0.5 * float(np.abs(empirical - p).sum())
    bound = tv_bound(p, len(done))
    if tv > bound:
        problems.append(f"TV distance {tv:.4g} to the exact distribution exceeds {bound:.4g}")
    summary = payload.get("summary", {})
    if not _close(float(summary.get("tv_distance_to_exact", math.nan)), tv, rel=1e-6, abs_=1e-9):
        problems.append(f"reported TV {summary.get('tv_distance_to_exact')!r} != {tv!r}")
    p0 = math.exp(ref.log_p0(b))
    if not _close(float(summary.get("p0b", math.nan)), p0):
        problems.append(f"reported p0b {summary.get('p0b')!r} != oracle {p0!r}")
    mean = float(np.mean([s["repetitions"] for s in done]))
    slack = MEAN_SIGMAS * math.sqrt((1.0 - p0) / len(done)) / p0
    if abs(mean - 1.0 / p0) > slack:
        problems.append(f"mean repetitions {mean:.4g} differ from 1/P0 = {1 / p0:.4g} by more than {slack:.3g}")
    return problems


def check_compare(ref: Reference, payload: dict, b: float) -> list[str]:
    problems = []
    truth = payload.get("ground_truth", {})
    tol = 1e-12 * max(1.0, abs(ref.c0))
    count = int(np.count_nonzero(ref.costs <= ref.c0 + tol))
    if not _close(float(truth.get("min_cost", math.nan)), ref.c0):
        problems.append(f"ground-truth min {truth.get('min_cost')!r} != oracle {ref.c0!r}")
    if truth.get("argmin_count") != count:
        problems.append(f"argmin count {truth.get('argmin_count')!r} != oracle {count}")
    quantum = payload.get("quantum", {})
    p0 = math.exp(ref.log_p0(b))
    if not _close(float(quantum.get("p0b", math.nan)), p0):
        problems.append(f"quantum p0b {quantum.get('p0b')!r} != oracle {p0!r}")
    classical = payload.get("classical", {})
    if len(classical.get("per_trial", [])) != classical.get("trials"):
        problems.append("classical per-trial records do not match the trial count")
    return problems


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_command(ref: Reference, argv: list[str], out_path: str, probabilities: list[float]) -> list[str]:
    """Dispatch on the subcommand in ``argv``; ``out_path`` holds what it wrote."""
    with open(out_path) as fh:
        text = fh.read()
    command = argv[0]
    if command == "sweep":
        return check_sweep(ref, text)
    payload = json.loads(text)
    if command == "verify":
        return check_verify(ref, payload, int(_flag(argv, "--b")), probabilities)
    if command == "sample":
        return check_sample(ref, payload, int(_flag(argv, "--b")), int(_flag(argv, "--trials")))
    if command == "compare":
        return check_compare(ref, payload, float(_flag(argv, "--b")))
    return [f"no oracle for subcommand {command!r}"]
