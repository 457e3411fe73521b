"""Full optimization circuit: prepare, phase-kick b control qubits, post-select.

For each control qubit the circuit applies H, the controlled cost unitary,
then H again; measuring the control register in the all-zero state leaves the
search register in the post-selected distribution, with a geometric number of
repetitions until that measurement succeeds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .cost import CostFunction, bitstring, evaluate_all, normalized_all
from .statevec import (
    QuantumState,
    _check_cap,
    apply_hadamard,
    apply_u_pm,
    fuse_phase_tables,
    marginal_probabilities,
    uniform_superposition,
)

DEFAULT_MAX_REPETITIONS = 10**6
MODES = ("gate_level", "closed_form")


class RepetitionCutoffError(RuntimeError):
    """Post-selection did not succeed within the configured repetition budget."""


class DegenerateProjectionError(RuntimeError):
    """All-zero control outcome has (numerically) zero weight."""


@dataclass(frozen=True)
class RunOutcome:
    """One repeat-until-success run: trial count, measured search string, its cost."""

    repetitions: int
    result: str
    cost_value: float

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def run_circuit(
    cost: CostFunction, b: int, cap: int | None = None, record_steps: bool = False
) -> QuantumState | list[QuantumState]:
    """Gate-level evolution with b control qubits.

    With ``record_steps`` the returned list holds the initial state followed by
    the state after every single gate (three gates per control qubit).
    """
    if b < 1:
        raise ValueError(f"need at least one control qubit, got b = {b}")
    state = uniform_superposition(cost.n, b, cap)
    phases = fuse_phase_tables(cost)
    # without record_steps only the current state and the gate's output are live
    steps = [state] if record_steps else None
    for control in range(cost.n, cost.n + b):
        for gate in (
            lambda s: apply_hadamard(s, control),
            lambda s: apply_u_pm(s, control, phases),
            lambda s: apply_hadamard(s, control),
        ):
            state = gate(state)
            if record_steps:
                steps.append(state)
    return steps if record_steps else state


def closed_form_final_state(cost: CostFunction, b: int, cap: int | None = None) -> QuantumState:
    """Final state directly from the closed form.

    The amplitude of |x; J> is i^w * cos^(b-w) * sin^w of (pi/2 * C_nor(x)) over
    sqrt(N), where w is the popcount of the control pattern J.  The factor i^w
    is the relative phase the Hadamard pair leaves on each flipped control
    branch ((e^{i\\theta} - e^{-i\\theta})/2 = i sin(theta)); it drops out of
    every measurement probability but is required for amplitude-level equality
    with the gate-level evolution.
    """
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    total = cost.n + b
    _check_cap(total, cap, advice="")
    theta = 0.5 * np.pi * normalized_all(cost)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    size = 1 << cost.n
    blocks = [1j**i * cos_t ** (b - i) * sin_t**i / np.sqrt(size) for i in range(b + 1)]
    amps = np.empty(1 << total, dtype=complex)
    for pattern in range(1 << b):
        start = pattern << cost.n
        amps[start : start + size] = blocks[pattern.bit_count()]
    return QuantumState(cost.n, b, amps)


def postselect_zero(state: QuantumState, b: int | None = None) -> tuple[QuantumState, float]:
    """Project onto the all-zero control register and renormalize.

    Returns the renormalized search-register state and the projection
    probability (the post-selection success probability).
    """
    if b is not None and b != state.n_control:
        raise ValueError(f"state has {state.n_control} control qubits, not b = {b}")
    size = 1 << state.n_search
    block = state.amplitudes[:size]
    probability = float(np.sum(np.abs(block) ** 2))
    if probability < 1e-300:
        raise DegenerateProjectionError(
            "all-zero control outcome has no weight; this cannot happen for "
            "normalized costs strictly inside (0, 1)"
        )
    search = QuantumState(state.n_search, 0, block / np.sqrt(probability))
    return search, probability


class _ClosedFormSampler:
    """Samples runs from the analytic repetition law and output distribution."""

    mode = "closed_form"

    def __init__(self, cost: CostFunction, b: int):
        if b < 1:
            raise ValueError(f"need b >= 1, got {b}")
        self.cost = cost
        self.b = b
        self.p0 = float(np.exp(ensemble.log_p0(cost, b)))
        self.cumulative = np.cumsum(ensemble.boltzmann_distribution(cost, b))
        self.costs = evaluate_all(cost)

    def sample(self, rng: np.random.Generator, max_repetitions: int) -> RunOutcome:
        if self.p0 <= 0.0:
            raise RepetitionCutoffError(
                "post-selection probability underflows to zero; no finite repetition count"
            )
        repetitions = int(rng.geometric(self.p0))
        if repetitions > max_repetitions:
            raise RepetitionCutoffError(
                f"sampled {repetitions} repetitions, above the cutoff {max_repetitions}"
            )
        idx = _draw(self.cumulative, rng)
        return RunOutcome(repetitions, bitstring(idx, self.cost.n), float(self.costs[idx]))


class _GateLevelSampler:
    """Simulates the deterministic part once, then measures per repetition.

    The deterministic evolution is identical on every repetition, so the final
    state is cached; each repetition draws a fresh control-register outcome.
    """

    mode = "gate_level"

    def __init__(self, cost: CostFunction, b: int, cap: int | None = None):
        state = run_circuit(cost, b, cap)
        self.cost = cost
        self.b = b
        controls = tuple(range(cost.n, cost.n + b))
        self.cum_control = np.cumsum(marginal_probabilities(state, controls))
        search, self.p0 = postselect_zero(state)
        self.cum_search = np.cumsum(np.abs(search.amplitudes) ** 2)
        self.costs = evaluate_all(cost)

    def sample(self, rng: np.random.Generator, max_repetitions: int) -> RunOutcome:
        repetitions = 0
        while True:
            repetitions += 1
            if repetitions > max_repetitions:
                raise RepetitionCutoffError(
                    f"control register not all-zero after {max_repetitions} repetitions"
                )
            if _draw(self.cum_control, rng) == 0:
                break
        idx = _draw(self.cum_search, rng)
        return RunOutcome(repetitions, bitstring(idx, self.cost.n), float(self.costs[idx]))


def _draw(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    return min(int(np.searchsorted(cumulative, rng.random(), side="right")), len(cumulative) - 1)


def make_sampler(cost: CostFunction, b: int, mode: str, cap: int | None = None):
    if mode == "closed_form":
        return _ClosedFormSampler(cost, b)
    if mode == "gate_level":
        return _GateLevelSampler(cost, b, cap)
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def sample_run(
    cost: CostFunction,
    b: int,
    rng: np.random.Generator,
    mode: str = "closed_form",
    max_repetitions: int = DEFAULT_MAX_REPETITIONS,
) -> RunOutcome:
    """One repeat-until-success run with the given RNG stream."""
    return make_sampler(cost, b, mode).sample(rng, max_repetitions)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Per-trial stream derived deterministically from (master seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial_index]))


def sample_many(
    cost: CostFunction,
    b: int,
    trials: int,
    seed: int,
    mode: str = "closed_form",
    threads: int = 1,
    max_repetitions: int = DEFAULT_MAX_REPETITIONS,
    record_aborts: bool = False,
) -> list[RunOutcome | None]:
    """Independent trials with deterministic per-trial RNG streams.

    The result list is ordered by trial index regardless of ``threads``.  With
    ``record_aborts`` a trial that exceeds the repetition cutoff yields None
    instead of raising.
    """
    sampler = make_sampler(cost, b, mode)

    def one(index: int) -> RunOutcome | None:
        rng = trial_rng(seed, index)
        try:
            return sampler.sample(rng, max_repetitions)
        except RepetitionCutoffError:
            if record_aborts:
                return None
            raise

    if threads <= 1:
        return [one(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(trials)))
