"""k-local cost functions with strict bounds, plus the graph-partitioning family.

A cost function over n bits is a constant offset plus a sum of local terms,
each term an explicit value table over a small subset of bits.  Strict lower
and upper bounds (c_min, c_max) are part of the object: every assignment must
evaluate strictly inside (c_min, c_max), which is what makes the normalized
cost land strictly inside (0, 1).

Bit conventions used throughout the package:

* qubit/bit ``i`` of an assignment is bit ``i`` of its integer index
  (qubit 0 = least significant bit);
* bitstrings render the index MSB-first, i.e. ``bitstring(idx, n)[-1 - i]``
  is bit ``i``;
* a term's value table is indexed by the joint sub-assignment
  ``sum(bit(qubits[j]) << j)`` (first listed qubit = LSB of the sub-index).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# Margin construction for derived strict bounds: relative half-width with an
# absolute floor so degenerate (zero-span) costs still get an open interval,
# and a floor of a few ulps of the cost magnitude so that interval survives
# rounding at large |cost|.
MARGIN_REL = 0.5e-3
MARGIN_FLOOR = 1e-9
MARGIN_ULPS = 4

# Size policy: each cap is checked once, where its array is allocated or its
# states are streamed.  The cost table (float64, 2^n entries) checks
# TABLE_MAX_BITS itself, and every dense enumeration (per-state energies,
# brute force, bound verification, annealer and sampler reads) is read from
# it.  The cost levels stream up to LEVELS_MAX_BITS bits without any 2^n
# array when their exactness certificate holds, and otherwise come from the
# table, as does the ensemble's spectrum.  Amplitude vectors (complex128,
# 2^(n+b) entries) check AMPLITUDE_MAX_QUBITS, which the environment variable
# QANNEAL_MAX_QUBITS overrides at call time.
TABLE_MAX_BITS = 24
LEVELS_MAX_BITS = 30
AMPLITUDE_MAX_QUBITS = 26


class CapExceededError(RuntimeError):
    """Raised when a dense array would exceed its size cap."""


def check_table_cap(bits: int):
    """Refuse a cost table over more bits than ``TABLE_MAX_BITS``."""
    if bits > TABLE_MAX_BITS:
        raise CapExceededError(
            f"the cost table needs {8 << bits} bytes (2^{bits} entries), "
            f"over the cap of {TABLE_MAX_BITS} bits"
        )


def check_amplitude_cap(qubits: int, advice: str = ""):
    """Refuse an amplitude vector over more qubits than the cap (QANNEAL_MAX_QUBITS overrides it)."""
    cap = int(os.environ.get("QANNEAL_MAX_QUBITS", AMPLITUDE_MAX_QUBITS))
    if qubits > cap:
        raise CapExceededError(
            f"the amplitude vector needs {16 << qubits} bytes (2^{qubits} entries), "
            f"over the cap of {cap} qubits{advice}"
        )


def index_of(x: int | str | Sequence[int], n: int) -> int:
    """Coerce an assignment (int index, MSB-first string, or bit sequence) to its index."""
    if isinstance(x, (int, np.integer)):
        idx = int(x)
        if not 0 <= idx < (1 << n):
            raise ValueError(f"index {idx} out of range for {n} bits")
        return idx
    if isinstance(x, str):
        if len(x) != n:
            raise ValueError(f"bitstring length {len(x)} != n = {n}")
        return int(x, 2)
    bits = list(x)
    if len(bits) != n:
        raise ValueError(f"bit sequence length {len(bits)} != n = {n}")
    return sum((1 << i) for i, b in enumerate(bits) if b)


def bitstring(index: int, n: int) -> str:
    """Render an assignment index as an MSB-first bitstring."""
    return format(index, f"0{n}b")


@dataclass(frozen=True)
class LocalTerm:
    """Cost contribution depending on k specific bits, as an explicit 2^k table."""

    qubits: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        qubits = tuple(int(q) for q in self.qubits)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "values", values)
        k = len(qubits)
        if k < 1:
            raise ValueError("a local term must involve at least one bit")
        if any(nxt <= prev for prev, nxt in zip(qubits, qubits[1:])):
            raise ValueError(f"qubit indices must be strictly increasing, got {qubits}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        if len(values) != 1 << k:
            raise ValueError(f"value table for {k} bits needs {1 << k} entries, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("value table entries must be finite")

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def value_at(self, index: int) -> float:
        """Table entry selected by the bits of a full assignment index."""
        sub = 0
        for j, q in enumerate(self.qubits):
            sub |= ((index >> q) & 1) << j
        return self.values[sub]


def canonical_terms(terms: Iterable[LocalTerm]) -> tuple[LocalTerm, ...]:
    """Fold terms acting on identical bit subsets into one and sort by (arity, qubits)."""
    folded: dict[tuple[int, ...], np.ndarray] = {}
    for term in terms:
        acc = folded.get(term.qubits)
        if acc is None:
            folded[term.qubits] = np.array(term.values, dtype=float)
        else:
            acc += np.array(term.values, dtype=float)
    return tuple(
        LocalTerm(qubits, tuple(values))
        for qubits, values in sorted(folded.items(), key=lambda kv: (len(kv[0]), kv[0]))
    )


@dataclass(frozen=True)
class CostFunction:
    """n-bit cost: constant + sum of local terms, with strict bounds c_min < C(x) < c_max."""

    n: int
    constant: float
    terms: tuple[LocalTerm, ...]
    c_min: float
    c_max: float

    def __post_init__(self):
        object.__setattr__(self, "terms", canonical_terms(self.terms))
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "c_min", float(self.c_min))
        object.__setattr__(self, "c_max", float(self.c_max))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.c_min < self.c_max:
            raise ValueError(f"need c_min < c_max, got ({self.c_min}, {self.c_max})")
        for term in self.terms:
            if term.arity > self.n:
                raise ValueError(f"term arity {term.arity} exceeds n = {self.n}")
            if term.qubits[-1] >= self.n:
                raise ValueError(f"term qubits {term.qubits} out of range for n = {self.n}")
        self._verify_strict_bounds()

    def _verify_strict_bounds(self):
        lo, hi = loose_range(self.constant, self.terms)
        if self.c_min < lo and hi < self.c_max:
            return  # interval-consistent: every assignment is inside (c_min, c_max)
        values = self.table  # exhaustive check, refused above the table cap
        if not (self.c_min < values.min() and values.max() < self.c_max):
            raise ValueError(
                f"bounds ({self.c_min}, {self.c_max}) are not strict: cost range is "
                f"[{values.min()}, {values.max()}]"
            )

    @cached_property
    def table(self) -> np.ndarray:
        """All 2^n costs, indexed by assignment; built once per instance, read-only.

        Term tables are broadcast-added in canonical order onto the constant,
        so each entry is summed in the same order as ``evaluate``.  Refused
        above ``TABLE_MAX_BITS``.
        """
        check_table_cap(self.n)
        values = np.full(1 << self.n, self.constant)
        for term in self.terms:
            _broadcast_add(values, self.n, term.qubits, term.values)
        values.flags.writeable = False
        return values

    @cached_property
    def energies(self) -> np.ndarray:
        """E = -2 log cos(pi/2 * C_nor) per state, read-only; built from ``table``."""
        values = _effective_energy(self.table, self)
        values.flags.writeable = False
        return values

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, counts): the distinct costs ascending and how many states take each.

        Read-only; counts are int64 and sum to 2^n.  When the exactness
        certificate holds (see ``_level_grid``) and no term has more than two
        bits, the histogram is streamed block by block without any 2^n array,
        up to ``LEVELS_MAX_BITS``; it is then bit-identical to
        ``np.unique(table, return_counts=True)``, which is the route otherwise.
        """
        if self.level_grid is None:
            values, counts = np.unique(self.table, return_counts=True)
        else:
            if self.n > LEVELS_MAX_BITS:
                raise CapExceededError(
                    f"the cost levels would stream 2^{self.n} states, "
                    f"over the cap of {LEVELS_MAX_BITS} bits"
                )
            values, counts = _stream_levels(self, *self.level_grid)
        values.flags.writeable = False
        counts.flags.writeable = False
        return values, counts

    @cached_property
    def level_grid(self) -> tuple[int, int, int] | None:
        """The streamed histogram's certificate (see ``_level_grid``); None past two-bit terms."""
        return _level_grid(self.constant, self.terms) if self.max_arity <= 2 else None

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(costs, energies, weights) that every ensemble sum runs over, read-only.

        When the certificate holds: the streamed ``levels``, their energies and
        their counts as floats.  Otherwise the cost ``table``, the per-state
        ``energies`` and None for unit weights: an uncertified cost can have
        nearly one level per state, and sorting its table costs more than
        summing over the states.
        """
        if self.level_grid is None:
            return self.table, self.energies, None
        values, counts = self.levels
        energies = _effective_energy(values, self)
        weights = counts.astype(float)  # exact: every count is at most 2^LEVELS_MAX_BITS
        energies.flags.writeable = False
        weights.flags.writeable = False
        return values, energies, weights

    @cached_property
    def cost_limits(self) -> tuple[float, float]:
        """(C(t=0), C(t=inf)) from ``spectrum``: the lowest cost, and the cost at the mean energy."""
        costs, energies, weights = self.spectrum
        if weights is None:
            mean_energy = float(np.mean(energies))
        else:
            mean_energy = float(weights @ energies) / (1 << self.n)
        c_inf = self.c_min + self.span * (2.0 / np.pi) * math.acos(math.exp(-0.5 * mean_energy))
        return float(costs.min()), c_inf

    @property
    def max_arity(self) -> int:
        return max((t.arity for t in self.terms), default=0)

    @property
    def span(self) -> float:
        return self.c_max - self.c_min


def _effective_energy(costs: np.ndarray, cost: CostFunction) -> np.ndarray:
    """-2 log cos(pi/2 * C_nor) of each entry of ``costs`` under the bounds of ``cost``."""
    return -2.0 * np.log(np.cos(0.5 * np.pi * ((costs - cost.c_min) / cost.span)))


def _broadcast_add(values: np.ndarray, bits: int, qubits: Sequence[int], table) -> None:
    """Add a term table over ``qubits`` to every entry of the 2^bits vector ``values``, in place."""
    shape = [1] * bits
    for q in qubits:
        shape[bits - 1 - q] = 2
    view = values.reshape([2] * bits)
    view += np.asarray(table, dtype=float).reshape(shape)


def _level_grid(constant: float, terms: Sequence[LocalTerm]) -> tuple[int, int, int] | None:
    """Exactness certificate of the streamed level histogram: (e, lo, bins), or None.

    It holds when the constant and every term value are integer multiples of
    2^-e and, in units of 2^-e, the constant's magnitude plus each term's
    largest magnitude sums to at most 2^50.  Every quantity the stream adds
    (table entries, the hi/lo differences, the offset ``lo`` and the GEMM
    accumulation) is then an integer of magnitude below 5 * 2^50 < 2^53, so
    every partial sum is exact in any order.  ``lo`` is the scaled loose
    minimum, and the scaled loose range must fit in ``bins <= 2^TABLE_MAX_BITS``
    histogram bins, so the histogram's size is known before any work.
    """
    ratios = [[v.as_integer_ratio() for v in term.values] for term in terms]
    c_num, c_den = constant.as_integer_ratio()
    e = max([c_den] + [den for term in ratios for _, den in term]).bit_length() - 1

    def scaled(num: int, den: int) -> int:
        return num << (e + 1 - den.bit_length())

    lo = hi = scaled(c_num, c_den)
    magnitude = abs(lo)
    for term in ratios:
        ints = [scaled(num, den) for num, den in term]
        lo += min(ints)
        hi += max(ints)
        magnitude += max(-min(ints), max(ints))
    if magnitude > 1 << 50 or hi - lo >= 1 << TABLE_MAX_BITS:
        return None
    return e, lo, hi - lo + 1


def _stream_levels(cost: CostFunction, e: int, lo: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact level histogram of a certified cost with terms of at most two bits.

    Split an assignment into its low ``n_lo`` bits and high ``n_hi`` bits.  In
    units of 2^-e, C - lo = T_hi[hi] + T_lo[lo_bits] + D[hi] . bits(lo_bits):
    terms inside one half fold into T_hi or T_lo, and a term (a, b) with a
    low and b high puts its b-dependent base value in T_hi and its difference
    for flipping a in column a of D.  The stacked rows [D; 1; T_hi - lo] and
    [bits; T_lo; 1] make each block of high assignments one GEMM, whose
    integer entries are binned.  Memory is (n_lo + 2) 2^n_hi floats (29 MiB at
    n = 30), 8 bytes per histogram bin (at most 2^TABLE_MAX_BITS bins, 128
    MiB; 21 KiB for a v=30 graph at lam = 1), and one block of 2^16 states.
    """
    n = cost.n
    n_lo = min(n - n // 2, 12)  # the low rows (at most 2^12 columns) stay in cache
    n_hi = n - n_lo
    rows_hi = np.zeros((n_lo + 2, 1 << n_hi))
    rows_lo = np.zeros((n_lo + 2, 1 << n_lo))
    rows_lo[:n_lo] = (np.arange(1 << n_lo) >> np.arange(n_lo)[:, None]) & 1
    rows_lo[n_lo + 1] = 1.0
    rows_hi[n_lo] = 1.0
    # in units of 2^-e every value is an integer below 2^50, so ldexp is exact
    rows_hi[n_lo + 1] = math.ldexp(cost.constant, e) - lo
    for term in cost.terms:
        values = [math.ldexp(v, e) for v in term.values]
        if term.qubits[0] >= n_lo:
            _broadcast_add(rows_hi[n_lo + 1], n_hi, [q - n_lo for q in term.qubits], values)
        elif term.qubits[-1] < n_lo:
            _broadcast_add(rows_lo[n_lo], n_lo, term.qubits, values)
        else:  # values indexed by (q_a, q_b) = 00, 10, 01, 11 with a low, b high
            a, b = term.qubits
            v00, v10, v01, v11 = values
            _broadcast_add(rows_hi[n_lo + 1], n_hi, (b - n_lo,), (v00, v01))
            _broadcast_add(rows_hi[a], n_hi, (b - n_lo,), (v10 - v00, v11 - v01))
    counts = np.zeros(bins, dtype=np.int64)
    block = max(1, (1 << 16) >> n_lo)  # high assignments per GEMM: 2^16 entries stay in cache
    for start in range(0, 1 << n_hi, block):
        found = (rows_hi[:, start : start + block].T @ rows_lo).astype(np.int64).ravel()
        first = int(found.min())
        width = int(found.max()) - first + 1
        # per-block work follows the block, not the bins: a bincount over the
        # block's own range while that range is a few block lengths, else a sort
        if width <= 4 * found.size:
            counts[first : first + width] += np.bincount(found - first)
        else:
            distinct, repeats = np.unique(found, return_counts=True)
            counts[distinct] += repeats
    nonzero = np.flatnonzero(counts)
    values = np.ldexp((nonzero + lo).astype(float), -e)
    return values, counts[nonzero]


def loose_range(constant: float, terms: Iterable[LocalTerm]) -> tuple[float, float]:
    """Interval-arithmetic cost range: constant plus per-term minima/maxima."""
    lo = hi = float(constant)
    for term in terms:
        lo += min(term.values)
        hi += max(term.values)
    return lo, hi


def derive_bounds(
    constant: float, terms: Iterable[LocalTerm], margin: float | None = None
) -> tuple[float, float]:
    """Strict bounds from interval arithmetic plus an additive margin.

    The margin defaults to ``max(MARGIN_FLOOR, MARGIN_REL * (loose_max - loose_min),
    MARGIN_ULPS * ulp(max(|loose_min|, |loose_max|)))`` so that even an
    all-constant cost of any magnitude gets an open interval around it.
    """
    terms = tuple(terms)
    lo, hi = loose_range(constant, terms)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot derive bounds from non-finite term values")
    if margin is None:
        margin = max(
            MARGIN_FLOOR, MARGIN_REL * (hi - lo), MARGIN_ULPS * math.ulp(max(abs(lo), abs(hi)))
        )
    elif margin <= 0:
        raise ValueError("margin must be positive")
    return lo - margin, hi + margin


def evaluate(cost: CostFunction, x: int | str | Sequence[int]) -> float:
    """Cost of one assignment: constant + sum of term-table entries."""
    idx = index_of(x, cost.n)
    total = cost.constant
    for term in cost.terms:
        total += term.value_at(idx)
    return total


def evaluate_all(cost: CostFunction) -> np.ndarray:
    """Vector of all 2^n costs, indexed by assignment: the instance's read-only ``table``."""
    return cost.table


def normalize(cost: CostFunction, x: int | str | Sequence[int]) -> float:
    """Affinely map the cost of ``x`` into the open unit interval."""
    c_nor = (evaluate(cost, x) - cost.c_min) / cost.span
    if not 0.0 < c_nor < 1.0:
        raise ValueError(f"normalized cost {c_nor} not strictly inside (0, 1); bounds are not strict")
    return c_nor


def normalized_all(cost: CostFunction) -> np.ndarray:
    """All 2^n normalized costs; strictly inside (0, 1) by the bound invariant."""
    return (evaluate_all(cost) - cost.c_min) / cost.span


@dataclass(frozen=True)
class GraphPartitionInstance:
    """Random-graph partitioning instance: split v vertices evenly, minimizing cut edges.

    ``lam`` is the soft balance penalty weight and ``p`` the edge probability the
    instance was generated with (p enters the cost only through its constant).
    """

    v: int
    edges: tuple[tuple[int, int], ...]
    j: float = 1.0
    lam: float = 0.0
    p: float = 0.5

    def __post_init__(self):
        if self.v < 2 or self.v % 2:
            raise ValueError(f"vertex count must be even and >= 2, got {self.v}")
        if self.j <= 0:
            raise ValueError("coupling strength j must be > 0")
        if self.lam < 0:
            raise ValueError("balance penalty lam must be >= 0")
        edges = tuple(sorted(tuple(sorted(map(int, e))) for e in self.edges))
        object.__setattr__(self, "edges", edges)
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop ({a}, {b})")
            if not (0 <= a < self.v and 0 <= b < self.v):
                raise ValueError(f"edge ({a}, {b}) out of range for v = {self.v}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))


def random_graph(v: int, p: float, seed: int) -> GraphPartitionInstance:
    """Each of the v(v-1)/2 vertex pairs becomes an edge independently with probability p."""
    if v < 2 or v % 2:
        raise ValueError(f"vertex count must be even and >= 2, got {v}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    edges = []
    for a in range(v):
        for b in range(a + 1, v):
            if rng.random() < p:
                edges.append((a, b))
    return GraphPartitionInstance(v=v, edges=tuple(edges), p=p)


def cut_size(inst: GraphPartitionInstance, x: int | str | Sequence[int]) -> int:
    """Number of edges joining the two sides of the assignment (independent oracle)."""
    idx = index_of(x, inst.v)
    return sum(1 for a, b in inst.edges if ((idx >> a) ^ (idx >> b)) & 1)


def graph_partition_cost(inst: GraphPartitionInstance) -> CostFunction:
    """2-local cost for a partitioning instance.

    Substituting s_i = 2 q_i - 1 into
    ``v(v-1)p/4 - (1/2J) sum_{i<j} J_ij s_i s_j + (lam/2) (sum_i s_i)^2``
    leaves a constant ``v(v-1)p/4 + lam*v/2`` plus one pair term per coupled
    pair: weight ``lam - 1/2`` on edges (the J's cancel) and ``lam`` on
    non-edges, multiplying s_i s_j.
    """
    edge_set = set(inst.edges)
    constant = inst.v * (inst.v - 1) * inst.p / 4.0 + inst.lam * inst.v / 2.0
    terms = []
    for a in range(inst.v):
        for b in range(a + 1, inst.v):
            w = inst.lam - 0.5 if (a, b) in edge_set else inst.lam
            if w != 0.0:
                # values indexed by (q_a, q_b) = 00, 10, 01, 11 -> s_a*s_b = +,-,-,+
                terms.append(LocalTerm((a, b), (w, -w, -w, w)))
    c_min, c_max = derive_bounds(constant, terms)
    return CostFunction(n=inst.v, constant=constant, terms=tuple(terms), c_min=c_min, c_max=c_max)


def random_local_cost(n: int, m: int, term_density: float = 1.0, seed: int = 0) -> CostFunction:
    """Reproducible random cost with term arities <= m.

    Draws ``max(1, round(term_density * n))`` terms; each picks an arity
    uniformly in 1..m, a uniform bit subset, and i.i.d. U(-1, 1) table values.
    Duplicate subsets fold together during canonicalization.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m = {m}, n = {n}")
    if term_density <= 0:
        raise ValueError("term_density must be positive")
    rng = np.random.default_rng(seed)
    num_terms = max(1, round(term_density * n))
    constant = float(rng.uniform(-1.0, 1.0))
    terms = []
    for _ in range(num_terms):
        k = int(rng.integers(1, m + 1))
        qubits = tuple(sorted(int(q) for q in rng.choice(n, size=k, replace=False)))
        values = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=1 << k))
        terms.append(LocalTerm(qubits, values))
    terms = canonical_terms(terms)
    c_min, c_max = derive_bounds(constant, terms)
    return CostFunction(n=n, constant=constant, terms=terms, c_min=c_min, c_max=c_max)


def constant_cost(n: int, value: float) -> CostFunction:
    """Degenerate cost: every assignment costs ``value`` (bounds via the margin floors)."""
    c_min, c_max = derive_bounds(value, ())
    return CostFunction(n=n, constant=value, terms=(), c_min=c_min, c_max=c_max)


# --- JSON instance format ------------------------------------------------
# Field order is fixed for byte-reproducible files.

def cost_to_dict(cost: CostFunction) -> dict:
    return {
        "n": cost.n,
        "constant": cost.constant,
        "terms": [
            {"qubits": list(t.qubits), "values": list(t.values)} for t in cost.terms
        ],
        "c_min": cost.c_min,
        "c_max": cost.c_max,
    }


def cost_from_dict(data: dict) -> CostFunction:
    return CostFunction(
        n=int(data["n"]),
        constant=float(data["constant"]),
        terms=tuple(
            LocalTerm(tuple(t["qubits"]), tuple(t["values"])) for t in data["terms"]
        ),
        c_min=float(data["c_min"]),
        c_max=float(data["c_max"]),
    )


def graph_to_dict(inst: GraphPartitionInstance) -> dict:
    return {
        "v": inst.v,
        "edges": [list(e) for e in inst.edges],
        "j": inst.j,
        "lambda": inst.lam,
        "p": inst.p,
    }


def graph_from_dict(data: dict) -> GraphPartitionInstance:
    return GraphPartitionInstance(
        v=int(data["v"]),
        edges=tuple(tuple(e) for e in data["edges"]),
        j=float(data.get("j", 1.0)),
        lam=float(data.get("lambda", 0.0)),
        p=float(data.get("p", 0.5)),
    )
