import numpy as np
import pytest

from qanneal.cost import (
    CostFunction,
    GraphPartitionInstance,
    LocalTerm,
    graph_partition_cost,
)


def complete_graph_instance(v: int, lam: float = 0.0, p: float = 1.0) -> GraphPartitionInstance:
    edges = tuple((a, b) for a in range(v) for b in range(a + 1, v))
    return GraphPartitionInstance(v=v, edges=edges, j=1.0, lam=lam, p=p)


@pytest.fixture
def two_state_cost() -> CostFunction:
    """n=1 cost with C(0)=0, C(1)=1 and bounds (-0.5, 1.5), so C_nor = 0.25, 0.75."""
    return CostFunction(
        n=1, constant=0.0, terms=(LocalTerm((0,), (0.0, 1.0)),), c_min=-0.5, c_max=1.5
    )


@pytest.fixture
def k4_cost() -> CostFunction:
    """Complete 4-vertex partitioning cost with balance penalty 1 (cost = cut + penalty)."""
    return graph_partition_cost(complete_graph_instance(4, lam=1.0))


@pytest.fixture
def k4_cost_plain() -> CostFunction:
    """Complete 4-vertex partitioning cost without penalty (cost = cut size)."""
    return graph_partition_cost(complete_graph_instance(4, lam=0.0))


def full_table_cost(n: int, values: np.ndarray, c_min: float = 0.0, c_max: float = 1.0) -> CostFunction:
    """Cost with one n-local term assigning an explicit value to every state."""
    return CostFunction(
        n=n,
        constant=0.0,
        terms=(LocalTerm(tuple(range(n)), tuple(float(v) for v in values)),),
        c_min=c_min,
        c_max=c_max,
    )


@pytest.fixture
def high_floor_cost() -> CostFunction:
    """Gapped n=8 instance whose normalized costs all sit just below 1.

    Near the upper bound the energy map is strongly contracting, which makes
    the effective cost converge to the true minimum extremely fast as t -> 0.
    """
    rng = np.random.default_rng(77)
    values = 0.9985 + 0.001 * rng.random(256)
    values[int(np.argmin(values))] = 0.998
    return full_table_cost(8, values)


@pytest.fixture
def plateau_cost() -> CostFunction:
    """n=8 instance with a 255-state ground plateau and one excited state.

    The ground level dominates the ensemble so strongly that the normalized
    free energy sits within t*log(256/255) of the minimum energy.
    """
    values = np.full(256, 0.3)
    values[137] = 0.7
    return full_table_cost(8, values)


def random_state(n_search: int, n_control: int, seed: int) -> "np.ndarray":
    rng = np.random.default_rng(seed)
    size = 1 << (n_search + n_control)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


def marginal_probabilities(state, qubit_subset: tuple) -> np.ndarray:
    """Born-rule marginal over a subset of qubits (sub-index convention as PhaseTable)."""
    qubits = tuple(qubit_subset)
    total = state.total_qubits
    probs = np.abs(state.amplitudes.reshape([2] * total)) ** 2
    drop = tuple(total - 1 - q for q in range(total) if q not in qubits)
    return probs.sum(axis=drop).reshape(-1)


# --- per-term oracle for the fused controlled cost unitary -------------------


def controlled_table(control_qubit: int, qubits: tuple, table):
    """Fold a control qubit into a diagonal: identity on control 0, the table on control 1."""
    from qanneal.statevec import PhaseTable

    if control_qubit in qubits:
        raise ValueError(f"control qubit {control_qubit} overlaps the targets {qubits}")
    combined = tuple(sorted(qubits + (control_qubit,)))
    control_pos = combined.index(control_qubit)
    target_pos = [combined.index(q) for q in qubits]
    subs = np.arange(1 << len(combined))
    orig = np.zeros_like(subs)
    for j, pos in enumerate(target_pos):
        orig |= ((subs >> pos) & 1) << j
    phases = np.where(
        (subs >> control_pos) & 1,
        np.asarray(table.phases, dtype=complex)[orig],
        1.0 + 0.0j,
    )
    return combined, PhaseTable(tuple(phases))


def apply_controlled_diagonal(state, control_qubit: int, qubits: tuple, table):
    """Apply the table on the control = 1 subspace only."""
    from qanneal.statevec import apply_diagonal

    combined, full = controlled_table(control_qubit, tuple(qubits), table)
    return apply_diagonal(state, combined, full)


def inverse_square(table):
    """Elementwise power -2 of a phase table; stays diagonal and unit-modulus."""
    from qanneal.statevec import PhaseTable

    return PhaseTable(tuple(p**-2 for p in table.phases))


def per_term_u_pm(state, control_qubit: int, cost):
    """Controlled cost unitary as the per-term gate product.

    For every phase table: the unconditional gate, then its controlled
    inverse-square, so control 0 sees U and control 1 sees U^-1.
    """
    from qanneal.statevec import apply_diagonal, build_phase_tables

    for qubits, table in build_phase_tables(cost, sign=+1):
        state = apply_diagonal(state, qubits, table)
        state = apply_controlled_diagonal(state, control_qubit, qubits, inverse_square(table))
    return state


def composite_phases(cost) -> np.ndarray:
    """Product of all per-term gate phases for every basis state (direct composition)."""
    from qanneal.statevec import build_phase_tables

    size = 1 << cost.n
    acc = np.ones(size, dtype=complex)
    for qubits, table in build_phase_tables(cost, sign=+1):
        sub = np.zeros(size, dtype=np.int64)
        idx = np.arange(size)
        for j, q in enumerate(qubits):
            sub |= ((idx >> q) & 1) << j
        acc *= np.asarray(table.phases)[sub]
    return acc


def literal_step_states(cost) -> list[np.ndarray]:
    """The four displayed states of the single-control circuit, built directly."""
    import math

    from qanneal.cost import normalized_all

    size = 1 << cost.n
    theta = 0.5 * np.pi * normalized_all(cost)
    psi0 = np.zeros(2 * size, dtype=complex)
    psi0[:size] = 1 / math.sqrt(size)
    psi1 = np.full(2 * size, 1 / math.sqrt(2 * size), dtype=complex)
    psi2 = np.concatenate([np.exp(1j * theta), np.exp(-1j * theta)]) / math.sqrt(2 * size)
    # the flipped-control branch carries the i sin(theta) phase left by the Hadamard pair
    psi3 = np.concatenate([np.cos(theta), 1j * np.sin(theta)]) / math.sqrt(size)
    return [psi0, psi1, psi2, psi3]


# --- dense-energy oracle for the level-compressed ensemble --------------------


def dense_thermo(cost, b: float) -> dict:
    """Thermodynamics at inverse temperature b summed over all 2^n per-state energies.

    The ensemble's former route: logsumexp over ``cost.energies``, U from the
    per-state Boltzmann law, C(0) as the table minimum and C(inf) from the
    mean per-state energy.
    """
    import math

    e = cost.energies
    w = -b * e
    top = float(np.max(w))
    lp0 = top + math.log(float(np.sum(np.exp(w - top)))) - cost.n * math.log(2.0)
    f = -lp0 / b
    p = np.exp(w - top)
    p /= p.sum()
    u = float(e @ p)
    s = (u - f) * b
    c0 = float(cost.table.min())

    def effective_cost(energy: float) -> float:
        return cost.c_min + cost.span * (2.0 / np.pi) * math.acos(math.exp(-0.5 * energy))

    c_inf = effective_cost(float(np.mean(e)))
    c_eff = effective_cost(f)
    return {
        "f": f,
        "u": u,
        "s": s,
        "s_gibbs": s + cost.n * math.log(2.0),
        "c_eff": c_eff,
        "delta": c_inf - c_eff,
        "accuracy": min(1.0, max(0.0, (c_inf - c_eff) / (c_inf - c0))),
        "log_p0b": lp0,
        "c_0": c0,
        "c_inf": c_inf,
    }
