"""Ground truth and classical comparison: exhaustive minimization and simulated annealing.

The annealer is a single-bit-flip Metropolis chain with a geometric cooling
schedule (the single-spin-flip baseline of Isakov et al., arXiv:1401.1084).
Every proposal costs exactly one cost evaluation, so a run of ``n_steps``
proposals reports ``n_steps + 1`` evaluations (one for the initial state).
The chain counts them with a loop counter; that count is the classical
computational-load metric used by the comparison report.

Stream layout: a chain makes exactly three draws from its generator, in this
order, whatever ``n_steps`` is:

1. ``x0 = integers(0, 2^n)``, the initial state;
2. ``flips = integers(0, n, size=n_steps)``; step ``k`` proposes
   ``x ^ (1 << flips[k])``;
3. ``uniforms = random(n_steps)``; step ``k`` accepts an uphill move
   (``delta > 0``) when ``temp > 0`` and ``uniforms[k] < exp(-delta / temp)``,
   and reads ``uniforms[k]`` for nothing else.

Costs are read from the instance's cost table for ``n <= ANNEAL_TABLE_MAX_N``
or when the instance has already built it (building it is not counted), and
from ``evaluate`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import ensemble
from .cost import CostFunction, bitstring, evaluate, evaluate_all

ANNEAL_TABLE_MAX_N = 20
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


def brute_force_min(cost: CostFunction) -> tuple[list[int], float]:
    """Exact minimum by exhaustive evaluation: (sorted argmin indices, min value)."""
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
    for name, value in (("t_start", t_start), ("ratio", ratio), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"schedule {name} must be finite, got {value}")
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
    """Metropolis chain core; returns (best_index, best_cost, evaluations, evals_to_target).

    Draws its randomness in the three blocks of the module's stream layout.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    t_start, ratio, t_end = schedule
    n = cost.n
    x = int(rng.integers(0, 1 << n))
    masks = [1 << flip for flip in rng.integers(0, n, size=n_steps).tolist()]
    uniforms = rng.random(n_steps).tolist()
    with_table = n <= ANNEAL_TABLE_MAX_N or "table" in vars(cost)
    cost_of = cost.table.item if with_table else partial(evaluate, cost)
    exp = math.exp

    e = cost_of(x)
    evaluations = 1
    best_x, best_e = x, e
    evals_to_target = evaluations if target is not None and best_e <= target else None
    temp = t_start
    for mask, u in zip(masks, uniforms):
        y = x ^ mask
        ey = cost_of(y)
        evaluations += 1
        delta = ey - e
        if delta <= 0 or (temp > 0 and u < exp(-delta / temp)):
            x, e = y, ey
        if ey < best_e:
            best_x, best_e = y, ey
            if target is not None and evals_to_target is None and best_e <= target:
                evals_to_target = evaluations
        temp = max(t_end, temp * ratio)
    return best_x, best_e, evaluations, evals_to_target


def simulated_annealing(
    cost: CostFunction,
    schedule: tuple[float, float, float] | None = None,
    n_steps: int = DEFAULT_N_STEPS,
    rng: np.random.Generator | int = 0,
) -> BaselineReport:
    """Single-bit-flip Metropolis annealing; returns the best state ever proposed."""
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
    _validate_schedule(schedule)
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
