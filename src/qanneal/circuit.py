"""Full optimization circuit: prepare, phase-kick b control qubits, post-select.

For each control qubit the circuit applies H, the controlled cost unitary,
then H again; measuring the control register in the all-zero state leaves the
search register in the post-selected distribution, with a geometric number of
repetitions until that measurement succeeds.
"""

from __future__ import annotations

import math
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


def sampling_law(cost: CostFunction, b: int, mode: str) -> tuple[float, np.ndarray]:
    """(log P0_b, cumulative P_b over search states) of one repeat-until-success run.

    ``closed_form`` takes both from the enumerated ensemble; ``gate_level``
    takes them from the post-selected gate-level state.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    if mode == "closed_form":
        return ensemble.log_p0(cost, b), np.cumsum(ensemble.boltzmann_distribution(cost, b))
    search, probability = postselect_zero(run_circuit(cost, b))
    return math.log(probability), np.cumsum(np.abs(search.amplitudes) ** 2)


def sample_many(
    cost: CostFunction,
    b: int,
    trials: int,
    seed: int,
    mode: str = "closed_form",
    max_repetitions: int = DEFAULT_MAX_REPETITIONS,
    record_aborts: bool = False,
) -> list[RunOutcome | None]:
    """Independent repeat-until-success runs, drawn as arrays from ``sampling_law``.

    Trial ``i`` uses row ``i`` of ``default_rng(seed).random((trials, 2))``:
    column 0 inverts the geometric repetition law with success probability
    P0_b, column 1 picks the kept search state by inverse CDF of P_b.  The
    first k trials therefore do not depend on ``trials``.  A trial that needs
    more than ``max_repetitions`` repetitions raises RepetitionCutoffError, or
    yields None with ``record_aborts``.
    """
    log_p0, cumulative = sampling_law(cost, b, mode)
    p0 = math.exp(log_p0)
    draws = np.random.default_rng(seed).random((trials, 2))
    # repetitions = ceil(hazard / rate) is geometric; the cutoff is tested on
    # hazard itself, so an unbounded count is never formed (rate = 0 when P0_b
    # underflows, and then every trial aborts).  P0_b rounds to 1 when every
    # normalized cost is within ~1e-8 of 0.
    rate = -math.log1p(-p0) if p0 < 1.0 else math.inf
    hazard = -np.log1p(-draws[:, 0])
    kept = hazard < max_repetitions * rate
    if not record_aborts and not kept.all():
        raise RepetitionCutoffError(
            f"trial {int(np.argmin(kept))} did not post-select within the cutoff of "
            f"{max_repetitions} repetitions (P0_b = exp({log_p0:.6g}) = {p0:.3g})"
        )
    repetitions = np.clip(np.ceil(hazard[kept] / rate), 1, max_repetitions).astype(np.int64)
    index = np.searchsorted(cumulative, draws[kept, 1], side="right")
    index = np.minimum(index, len(cumulative) - 1)
    costs = evaluate_all(cost)[index]
    outcomes: list[RunOutcome | None] = [None] * trials
    for trial, reps, idx, value in zip(
        np.flatnonzero(kept).tolist(), repetitions.tolist(), index.tolist(), costs.tolist()
    ):
        outcomes[trial] = RunOutcome(reps, bitstring(idx, cost.n), value)
    return outcomes
