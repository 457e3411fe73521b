"""Closed-form effective thermodynamics of the post-selected output ensemble.

The post-selected measurement distribution over search states is an exact
Boltzmann distribution at effective temperature t = 1/b, with per-state
energies E = -2 log cos(pi/2 * C_nor).  This module evaluates that ensemble
exactly: partition function, free energy, internal energy, entropy, the
effective cost at temperature t, and the resulting optimization gain and
accuracy.

Every ensemble sum runs over ``CostFunction.spectrum``, built once per
instance, read-only: Z, F, U, S, C(0), C(inf) and accuracy are weighted sums
of e^(-bE) over it.  When the exactness certificate of the level histogram
holds, the spectrum is the cost levels (distinct costs and their
degeneracies), streamed without any 2^n array up to ``cost.LEVELS_MAX_BITS``,
so each sum is O(levels) per b; graph instances have a few hundred levels
however many states they have.  Otherwise it is the per-state energies with
unit weights, read from the cost table (refused above
``cost.TABLE_MAX_BITS``).  ``boltzmann_distribution``, the per-state law that
sampling needs, always reads the per-state energies.  The finite-difference
step and tolerance are module constants, read at call time.

Conventions:

* The free energy is normalized against the infinite-temperature ensemble,
  F(b) = -(1/b) log(Z / Z(b=0)) with Z(b=0) = N = 2^n, so it is intensive and
  tends to the mean energy as b -> 0.
* The entropy reported in ``ThermoPoint.s`` is the excess entropy matching
  that normalization, s = (u - f)/t = S_gibbs - log N, which is <= 0 and
  vanishes at infinite temperature.  The absolute Gibbs entropy
  (-sum P log P, in [0, n log 2]) is carried alongside as ``s_gibbs``.
* b is treated as a continuous positive real here; only the gate-level
  circuit requires integer b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction

FD_REL_STEP = 1e-4
FD_REL_TOL = 1e-6
FD_ABS_FLOOR = 1e-9
DEGENERACY_RTOL = 1e-12


class EntropyCrossCheckError(RuntimeError):
    """Analytic and finite-difference entropies disagree beyond tolerance."""


def _logsumexp(a: np.ndarray, weights: np.ndarray | None) -> float:
    """log sum(weights * e^a) (unit weights for None), stable for any finite a."""
    a_max = np.max(a)
    if not np.isfinite(a_max):
        return float(a_max)
    terms = np.exp(a - a_max)
    return float(a_max + np.log(terms.sum() if weights is None else weights @ terms))


def energies(cost: CostFunction) -> np.ndarray:
    """Effective energy of every state: E = -2 log cos(pi/2 * C_nor); >= 0, finite, read-only."""
    return cost.energies


def asymptotic_energy(c_nor: float, branch: str) -> float:
    """Limiting effective-energy forms for very low or very high normalized cost."""
    if not 0.0 < c_nor < 1.0:
        raise ValueError(f"c_nor must lie strictly in (0, 1), got {c_nor}")
    if branch == "low":
        return (np.pi**2 / 4.0) * c_nor**2
    if branch == "high":
        return math.log(4.0 / (np.pi**2 * (1.0 - c_nor) ** 2))
    raise ValueError(f"branch must be 'low' or 'high', got {branch!r}")


def log_p0(cost: CostFunction, b: float) -> float:
    """log of the post-selection probability (1/N) sum e^(-bE); stable at any b >= 0."""
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    _, e, weights = cost.spectrum
    return _logsumexp(-b * e, weights) - cost.n * math.log(2.0)


def partition_function(cost: CostFunction, b: float) -> tuple[float, float]:
    """(Z, P0_b) with Z = N * P0_b = sum over states of cos^(2b)(pi/2 * C_nor).

    Raw (non-log) values: at very large b these underflow to 0.0; use
    ``log_p0`` or ``free_energy`` for deep-b analysis.
    """
    lp0 = log_p0(cost, b)
    return float(np.exp(lp0 + cost.n * math.log(2.0))), float(np.exp(lp0))


def mean_repetitions(p0b: float) -> float:
    """1/P0_b, the mean repeat-until-success count; inf once P0_b underflows or 1/P0_b overflows."""
    return math.inf if p0b <= 0.0 else 1.0 / p0b


def expected_repetitions(cost: CostFunction, b: float) -> float:
    """Mean number of deterministic-part executions before post-selection succeeds: 1/P0_b."""
    return mean_repetitions(float(np.exp(log_p0(cost, b))))


def boltzmann_distribution(cost: CostFunction, b: float) -> np.ndarray:
    """Post-selected output distribution P_b(x) = cos^(2b)(pi/2*C_nor(x)) / Z = e^(-bE)/Z."""
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    w = -b * energies(cost)
    w -= np.max(w)
    p = np.exp(w)
    return p / p.sum()


def free_energy(cost: CostFunction, b: float) -> float:
    """Normalized free energy F = -(1/b) log(Z/N) = -(1/b) log P0_b; requires b > 0."""
    if b <= 0:
        raise ValueError(f"free energy requires b > 0, got b = {b}")
    return -log_p0(cost, b) / b


def internal_energy(cost: CostFunction, b: float) -> float:
    """Ensemble average of the effective energies at inverse temperature b."""
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    _, e, weights = cost.spectrum
    w = -b * e
    w -= np.max(w)
    p = np.exp(w, out=w)
    if weights is not None:
        p *= weights
    p /= p.sum()
    return float(e @ p)


def consistency_p0b(cost: CostFunction, b: float) -> float:
    """Residual |P0_b - cos^(2b)(pi/2 * C_eff_nor(b))|; an algebraic identity, ~0."""
    p0 = float(np.exp(log_p0(cost, b)))
    c_eff_nor = (2.0 / np.pi) * math.acos(math.exp(-0.5 * free_energy(cost, b)))
    via_effective = math.exp(2.0 * b * math.log(math.cos(0.5 * np.pi * c_eff_nor)))
    return abs(p0 - via_effective)


@dataclass(frozen=True)
class ThermoPoint:
    """Effective-thermodynamics snapshot at one temperature t = 1/b.

    ``s`` is the excess entropy (u - f)/t matching the normalized free energy
    (nonpositive, 0 at t = infinity); ``s_gibbs = s + n log 2`` is the absolute
    Gibbs entropy.  ``accuracy`` is None when the instance is degenerate (all
    states share one cost, so the gain denominator vanishes).
    """

    t: float
    f: float
    u: float
    s: float
    s_gibbs: float
    c_eff: float
    c_eff_nor: float
    delta: float
    accuracy: float | None
    log_p0b: float
    degenerate: bool

    @property
    def b(self) -> float:
        return 1.0 / self.t

    @property
    def p0b(self) -> float:
        """P0_b; 0.0 once it underflows, where ``log_p0b`` stays finite."""
        return float(np.exp(self.log_p0b))

    @property
    def expected_repetitions(self) -> float:
        return mean_repetitions(self.p0b)


def effective_cost_limits(cost: CostFunction) -> tuple[float, float]:
    """(C(t=0), C(t=inf)): the exact minimum cost and the infinite-temperature effective cost.

    C(0) is the lowest cost of the spectrum.  The t -> infinity limit follows
    from F(b -> 0) = mean energy over the uniform ensemble, sum(weights * E)
    / 2^n over the spectrum.  Both are computed once per instance.
    """
    return cost.cost_limits


def thermo_point(cost: CostFunction, t: float) -> ThermoPoint:
    """All thermodynamic quantities at effective temperature t > 0.

    The entropy is computed analytically as (u - f)/t and cross-checked against
    the central finite difference -dF/dt with step ``FD_REL_STEP * t``;
    disagreement beyond ``FD_REL_TOL`` (relative, with a small absolute floor
    near s = 0) raises EntropyCrossCheckError.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"temperature must be positive and finite, got {t}")
    b = 1.0 / t
    lp0 = log_p0(cost, b)
    f = -lp0 / b
    u = internal_energy(cost, b)
    s = (u - f) / t

    h = FD_REL_STEP * t
    f_plus = free_energy(cost, 1.0 / (t + h))
    f_minus = free_energy(cost, 1.0 / (t - h))
    s_fd = -(f_plus - f_minus) / (2.0 * h)
    # relative agreement, with an absolute floor on the difference so that the
    # near-zero-entropy regime (s -> 0 at extreme temperatures) is not failed
    # on finite-difference roundoff alone
    if abs(s_fd - s) > max(FD_REL_TOL * max(abs(s), abs(s_fd)), FD_ABS_FLOOR):
        raise EntropyCrossCheckError(
            f"entropy cross-check failed at t = {t}: (u-f)/t = {s!r}, -dF/dt = {s_fd!r}"
        )

    c_eff_nor = (2.0 / np.pi) * math.acos(math.exp(-0.5 * f))
    c_eff = cost.c_min + cost.span * c_eff_nor
    c0, c_inf = effective_cost_limits(cost)
    delta = c_inf - c_eff
    denominator = c_inf - c0
    degenerate = abs(denominator) <= DEGENERACY_RTOL * max(1.0, abs(c_inf), abs(c0))
    accuracy = None if degenerate else min(1.0, max(0.0, delta / denominator))
    return ThermoPoint(
        t=t,
        f=f,
        u=u,
        s=s,
        s_gibbs=s + cost.n * math.log(2.0),
        c_eff=c_eff,
        c_eff_nor=c_eff_nor,
        delta=delta,
        accuracy=accuracy,
        log_p0b=lp0,
        degenerate=degenerate,
    )


def sweep(cost: CostFunction, b_values) -> list[ThermoPoint]:
    """Thermo points at t = 1/b for each b (all positive and finite), in the given order."""
    points = []
    for b in b_values:
        if not (math.isfinite(b) and b > 0):
            raise ValueError(f"sweep requires positive finite b, got {b}")
        points.append(thermo_point(cost, 1.0 / float(b)))
    return points
