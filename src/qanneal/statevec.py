"""Dense state-vector engine over a search register plus a control register.

The gate set is deliberately small: Hadamards, diagonal k-qubit phase gates,
and the controlled cost unitary as one fused diagonal (U on control 0, U^-1
on control 1).  Every gate writes one new amplitude buffer and never mutates
its input, so earlier states stay valid.

Index convention (fixed): basis index = (control_index << n_search) | search_index,
i.e. search qubits occupy the low-order bit positions and control qubits the
high-order ones.  Qubit ``q`` is bit ``q`` of the basis index; control qubit
``j`` (0-based) is global qubit ``n_search + j``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

# CapExceededError lives with the size policy in ``cost``; it is re-exported here.
from .cost import CapExceededError, CostFunction, check_amplitude_cap

NORM_ATOL = 1e-12
PHASE_MOD_ATOL = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_DEVIATION_BLOCK = 1 << 16


def _norm_sq(amps: np.ndarray) -> float:
    """Sum of |a|^2 in one pass without temporaries.

    Sums rows of 4096 amplitudes, then the row sums pairwise: one serial dot
    product over 2^24 amplitudes drifts by about 1e-12, past NORM_ATOL.
    """
    flat = amps.view(np.float64).reshape(-1, min(2 * amps.size, 8192))
    return float(np.einsum("ij,ij->i", flat, flat).sum())


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitudes over search (low bits) x control (high bits) registers."""

    n_search: int
    n_control: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.n_search < 1 or self.n_control < 0:
            raise ValueError("need n_search >= 1 and n_control >= 0")
        if amps.shape != (1 << self.total_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.total_qubits},)"
            )
        norm_sq = _norm_sq(amps)
        if abs(norm_sq - 1.0) > NORM_ATOL * max(1.0, norm_sq):
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")

    @property
    def total_qubits(self) -> int:
        return self.n_search + self.n_control

    def norm(self) -> float:
        return float(np.sqrt(_norm_sq(self.amplitudes)))

    def _tensor(self) -> np.ndarray:
        # axis i of the tensor view corresponds to qubit (total - 1 - i)
        return self.amplitudes.reshape([2] * self.total_qubits)


@dataclass(frozen=True)
class PhaseTable:
    """Diagonal of a k-qubit phase gate: 2^k unit-modulus entries.

    Entry ``s`` multiplies the basis states whose bits on the gate's qubits
    form the sub-index ``s`` (first qubit = least significant sub-index bit).
    """

    phases: tuple[complex, ...]

    def __post_init__(self):
        phases = tuple(complex(p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        k = self.arity
        if len(phases) != 1 << k:
            raise ValueError(f"phase table length {len(phases)} is not a power of two")
        if any(abs(abs(p) - 1.0) > PHASE_MOD_ATOL for p in phases):
            raise ValueError("phase table entries must have unit modulus")

    @property
    def arity(self) -> int:
        return max(0, (len(self.phases) - 1).bit_length())


def uniform_superposition(n_search: int, n_control: int) -> QuantumState:
    """Equal amplitude on every search assignment, control register all zero."""
    if n_search < 1 or n_control < 0:
        raise ValueError("need n_search >= 1 and n_control >= 0")
    check_amplitude_cap(n_search + n_control, "; use the closed-form mode for this size")
    amps = np.zeros(1 << (n_search + n_control), dtype=complex)
    amps[: 1 << n_search] = 1.0 / np.sqrt(1 << n_search)
    return QuantumState(n_search, n_control, amps)


def _check_qubits(qubits: tuple[int, ...], total: int):
    if any(b <= a for a, b in zip(qubits, qubits[1:])):
        raise ValueError(f"qubit indices must be strictly increasing, got {qubits}")
    if qubits and (qubits[0] < 0 or qubits[-1] >= total):
        raise IndexError(f"qubit indices {qubits} out of range for {total} qubits")


def apply_hadamard(state: QuantumState, qubit: int) -> QuantumState:
    """Standard 2x2 Hadamard on one qubit: the butterfly (a0 + a1, a0 - a1) / sqrt(2)."""
    total = state.total_qubits
    if not 0 <= qubit < total:
        raise IndexError(f"qubit {qubit} out of range for {total} qubits")
    pairs = state.amplitudes.reshape(-1, 2, 1 << qubit)
    out = np.empty_like(pairs)
    np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
    np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])
    out *= _INV_SQRT2
    return QuantumState(state.n_search, state.n_control, out.reshape(-1))


def _broadcast_table(qubits: tuple[int, ...], table: PhaseTable, total: int) -> np.ndarray:
    """The table's phases shaped to broadcast against a ``[2] * total`` tensor."""
    shape = [1] * total
    for q in qubits:
        shape[total - 1 - q] = 2
    return np.asarray(table.phases, dtype=complex).reshape(shape)


def apply_diagonal(state: QuantumState, qubits: tuple[int, ...], table: PhaseTable) -> QuantumState:
    """Multiply each amplitude by the phase selected by its bits on ``qubits``."""
    qubits = tuple(qubits)
    total = state.total_qubits
    _check_qubits(qubits, total)
    if len(qubits) != table.arity:
        raise ValueError(f"table arity {table.arity} does not match {len(qubits)} qubits")
    amps = (state._tensor() * _broadcast_table(qubits, table, total)).reshape(-1)
    return QuantumState(state.n_search, state.n_control, amps)


def build_phase_tables(
    cost: CostFunction, sign: int = +1
) -> list[tuple[tuple[int, ...], PhaseTable]]:
    """Per-term diagonal gates whose product multiplies |x> by exp(sign*i*pi/2*C_nor(x)).

    One table per canonical term plus one arity-0 table for the constant; the
    lower bound is split evenly across all of them, so composing the returned
    gates reproduces the normalized-cost phase exactly.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    n_tables = len(cost.terms) + 1
    offset = cost.c_min / n_tables
    scale = (np.pi / 2.0) / cost.span
    tables: list[tuple[tuple[int, ...], PhaseTable]] = [
        ((), PhaseTable((cmath.exp(sign * 1j * scale * (cost.constant - offset)),)))
    ]
    for term in cost.terms:
        phases = np.exp(sign * 1j * scale * (np.asarray(term.values) - offset))
        tables.append((term.qubits, PhaseTable(tuple(phases))))
    return tables


def fuse_phase_tables(cost: CostFunction) -> np.ndarray:
    """The cost unitary's diagonal over the search register: the product of all phase tables.

    Built from ``build_phase_tables`` alone, never from the closed-form
    normalized cost, so the gate route stays an independent check of it.
    """
    fused = np.ones([2] * cost.n, dtype=complex)
    for qubits, table in build_phase_tables(cost, sign=+1):
        fused *= _broadcast_table(qubits, table, cost.n)
    return fused.reshape(-1)


def apply_u_pm(state: QuantumState, control_qubit: int, phases: np.ndarray) -> QuantumState:
    """Controlled cost unitary: U on the control-0 branch, U^-1 on the control-1 branch.

    ``phases`` is U's diagonal over the search register (``fuse_phase_tables``);
    the gate is one pass multiplying the control-0 half by it and the
    control-1 half by its conjugate.
    """
    n = state.n_search
    if phases.shape != (1 << n,):
        raise ValueError(f"phase vector has shape {phases.shape}, but the state has {n} search qubits")
    if not n <= control_qubit < state.total_qubits:
        raise IndexError(f"control qubit {control_qubit} is not a control-register qubit")
    branches = state.amplitudes.reshape(-1, 2, 1 << (control_qubit - n), 1 << n)
    out = np.empty_like(branches)
    np.multiply(branches[:, 0], phases, out=out[:, 0])
    np.multiply(branches[:, 1], phases.conj(), out=out[:, 1])
    return QuantumState(n, state.n_control, out.reshape(-1))


def max_amplitude_deviation(a: QuantumState | np.ndarray, b: QuantumState | np.ndarray) -> float:
    """Largest elementwise amplitude difference between two states.

    Works in blocks of ``_DEVIATION_BLOCK`` amplitudes, so its temporaries stay
    small next to the two full-size inputs.
    """
    va = a.amplitudes if isinstance(a, QuantumState) else np.asarray(a)
    vb = b.amplitudes if isinstance(b, QuantumState) else np.asarray(b)
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch: {va.shape} vs {vb.shape}")
    va, vb = va.reshape(-1), vb.reshape(-1)
    return max(
        float(np.max(np.abs(va[i : i + _DEVIATION_BLOCK] - vb[i : i + _DEVIATION_BLOCK])))
        for i in range(0, va.size, _DEVIATION_BLOCK)
    )
