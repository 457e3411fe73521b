"""Ground truth and classical comparison: exhaustive minimization and simulated annealing.

The annealer is a single-bit-flip Metropolis chain with a geometric cooling
schedule.  Every proposal costs exactly one instrumented cost evaluation, so a
run of ``n_steps`` proposals reports ``n_steps + 1`` evaluations (one for the
initial state); the evaluation counter is the classical computational-load
metric used by the comparison report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .cost import CostFunction, bitstring, evaluate, evaluate_all
from .statevec import CapExceededError

BRUTE_FORCE_CAP = 24
ARGMIN_RTOL = 1e-12

# Geometric cooling defaults, relative to the cost span; tuned so the default
# budget solves small 2-local instances with high probability.
DEFAULT_T_START_REL = 0.6
DEFAULT_T_END_REL = 1e-3
DEFAULT_RATIO = 0.998
DEFAULT_N_STEPS = 4000

LOAD_ACCOUNTING_NOTE = (
    "quantum load counts one unit per deterministic-part execution (each "
    "repetition evaluates the cost on all search states in superposition); "
    "classical load counts individual cost-function evaluations"
)


@dataclass(frozen=True)
class BaselineReport:
    best_bitstring: str
    best_cost: float
    evaluations: int
    method: str
    seed: int | None


class CountingCost:
    """Cost wrapper whose evaluation counter is exact: +1 per evaluate call.

    For small n the full value table is precomputed once (not counted); each
    counted call is then a table lookup, which keeps long chains cheap without
    changing the load accounting.
    """

    def __init__(self, cost: CostFunction):
        self.cost = cost
        self.evaluations = 0
        self._table = evaluate_all(cost) if cost.n <= 20 else None

    def evaluate(self, index: int) -> float:
        self.evaluations += 1
        if self._table is not None:
            return float(self._table[index])
        return evaluate(self.cost, index)


def brute_force_min(cost: CostFunction) -> tuple[list[int], float]:
    """Exact minimum by exhaustive evaluation: (sorted argmin indices, min value)."""
    if cost.n > BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"brute force over 2^{cost.n} states exceeds the cap n <= {BRUTE_FORCE_CAP}"
        )
    values = evaluate_all(cost)
    vmin = float(values.min())
    tol = ARGMIN_RTOL * max(1.0, abs(vmin))
    argmin = np.flatnonzero(values <= vmin + tol)
    return [int(i) for i in argmin], vmin


def default_schedule(cost: CostFunction) -> tuple[float, float, float]:
    """Span-relative geometric schedule (t_start, ratio, t_end)."""
    return (DEFAULT_T_START_REL * cost.span, DEFAULT_RATIO, DEFAULT_T_END_REL * cost.span)


def _coerce_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    return np.random.default_rng(rng), int(rng)


def _validate_schedule(schedule: tuple[float, float, float]):
    t_start, ratio, t_end = schedule
    if t_start < 0 or t_end < 0 or t_end > t_start:
        raise ValueError(f"need 0 <= t_end <= t_start, got ({t_start}, {t_end})")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"cooling ratio must lie in (0, 1], got {ratio}")


def _anneal(
    cost: CostFunction,
    schedule: tuple[float, float, float],
    n_steps: int,
    rng: np.random.Generator,
    target: float | None = None,
):
    """Metropolis chain core; returns (best_index, best_cost, counter, evals_to_target)."""
    t_start, ratio, t_end = schedule
    counting = CountingCost(cost)
    x = int(rng.integers(0, 1 << cost.n))
    e = counting.evaluate(x)
    best_x, best_e = x, e
    evals_to_target = counting.evaluations if target is not None and best_e <= target else None
    temp = t_start
    for _ in range(n_steps):
        y = x ^ (1 << int(rng.integers(cost.n)))
        ey = counting.evaluate(y)
        delta = ey - e
        if delta <= 0 or (temp > 0 and rng.random() < math.exp(-delta / temp)):
            x, e = y, ey
        if ey < best_e:
            best_x, best_e = y, ey
            if target is not None and evals_to_target is None and best_e <= target:
                evals_to_target = counting.evaluations
        temp = max(t_end, temp * ratio)
    return best_x, best_e, counting.evaluations, evals_to_target


def simulated_annealing(
    cost: CostFunction,
    schedule: tuple[float, float, float] | None = None,
    n_steps: int = DEFAULT_N_STEPS,
    rng: np.random.Generator | int = 0,
) -> BaselineReport:
    """Single-bit-flip Metropolis annealing; returns the best state ever proposed."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    schedule = default_schedule(cost) if schedule is None else schedule
    _validate_schedule(schedule)
    generator, seed = _coerce_rng(rng)
    best_x, best_e, evaluations, _ = _anneal(cost, schedule, n_steps, generator)
    return BaselineReport(
        best_bitstring=bitstring(best_x, cost.n),
        best_cost=best_e,
        evaluations=evaluations,
        method="simulated_annealing",
        seed=seed,
    )


def anneal_to_target(
    cost: CostFunction,
    target: float,
    schedule: tuple[float, float, float] | None = None,
    n_steps: int = DEFAULT_N_STEPS,
    rng: np.random.Generator | int = 0,
) -> tuple[int | None, BaselineReport]:
    """First-passage measurement: evaluations until the best-seen cost reaches ``target``.

    Returns (evaluations_to_target or None if the budget ran out, full report).
    """
    schedule = default_schedule(cost) if schedule is None else schedule
    _validate_schedule(schedule)
    generator, seed = _coerce_rng(rng)
    best_x, best_e, evaluations, evals_to_target = _anneal(
        cost, schedule, n_steps, generator, target=target
    )
    report = BaselineReport(
        best_bitstring=bitstring(best_x, cost.n),
        best_cost=best_e,
        evaluations=evaluations,
        method="simulated_annealing",
        seed=seed,
    )
    return evals_to_target, report


def compare_loads(
    cost: CostFunction,
    b: float,
    sa_params: dict | None = None,
    trials: int = 20,
    seed: int = 0,
) -> dict:
    """Quantum expected repetitions versus annealing evaluations at matched quality.

    The quantum side reports 1/P0_b and the effective cost / accuracy at
    t = 1/b.  The classical side runs independent annealing chains and records
    the evaluation count at which each first reaches the quantum effective
    cost.  Both load accountings are stated explicitly in the record.
    """
    sa_params = dict(sa_params or {})
    schedule = sa_params.get("schedule") or default_schedule(cost)
    n_steps = int(sa_params.get("n_steps", DEFAULT_N_STEPS))
    point = ensemble.thermo_point(cost, 1.0 / b)
    target = point.c_eff

    per_trial = []
    for i in range(trials):
        trial_seed_seq = np.random.SeedSequence([seed, i])
        evals_to_target, report = anneal_to_target(
            cost, target, schedule, n_steps, np.random.default_rng(trial_seed_seq)
        )
        per_trial.append(
            {
                "trial": i,
                "evaluations_to_target": evals_to_target,
                "best_cost": report.best_cost,
                "evaluations": report.evaluations,
            }
        )
    matched = [
        r["evaluations_to_target"] for r in per_trial if r["evaluations_to_target"] is not None
    ]
    return {
        "note": LOAD_ACCOUNTING_NOTE,
        "quantum": {
            "b": b,
            "p0b": point.p0b,
            "expected_repetitions": point.expected_repetitions,
            "effective_cost": point.c_eff,
            "accuracy": point.accuracy,
        },
        "classical": {
            "method": "simulated_annealing",
            "schedule": list(schedule),
            "n_steps": n_steps,
            "trials": trials,
            "seed": seed,
            "target_cost": target,
            "per_trial": per_trial,
            "matched_trials": len(matched),
            "mean_evaluations_to_target": (sum(matched) / len(matched)) if matched else None,
        },
    }
