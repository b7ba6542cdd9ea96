"""Ferromagnetic Ising models and their exact desk-scale distributions.

A model is a WeightedGraph plus the Boltzmann weights it induces:
log weight(s) = sum_edges beta_uv s_u s_v + sum_v h_v s_v, with clamped
vertices frozen at their pin.  Exact computations enumerate all 2^n
configurations and are capped at EXACT_ENUM_CAP vertices; everything else
in the package is checked against them at that scale.  One bitmask table
of log weights feeds them all, the dynamics' exact transition matrices
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConditioningError, SizeError
from .graph import WeightedGraph, graph_from_edges

EXACT_ENUM_CAP = 20
CLAMP_FIELD_FLOOR = 20.0  # clamp_large_fields pins no field of size 20 or less


@dataclass(frozen=True)
class IsingModel:
    """A weighted graph with its cached largest coupling and log-weight table."""

    graph: WeightedGraph
    beta_max: float

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def log_weights(self) -> np.ndarray:
        """``log_weights[x]``: log weight of bitmask state x, clamps ignored.

        Built on first use and read-only; bit v of x is 1 exactly when
        s_v = +1.  Capped at EXACT_ENUM_CAP vertices.
        """
        g, n = self.graph, self.n
        if n > EXACT_ENUM_CAP:
            raise SizeError(f"exact enumeration capped at {EXACT_ENUM_CAP} vertices, got {n}")
        idx = np.arange(1 << n, dtype=np.int64)
        logw = np.zeros(1 << n)
        for (u, v), b in zip(*g.edges()):
            disagree = ((idx >> int(u)) ^ (idx >> int(v))) & 1
            logw += b * (1.0 - 2.0 * disagree)
        for v in range(n):
            logw += g.h[v] * (2.0 * ((idx >> v) & 1) - 1.0)
        logw.setflags(write=False)
        return logw


def make_model(g: WeightedGraph) -> IsingModel:
    return IsingModel(g, g.beta_max())


def spins_array(values) -> np.ndarray:
    s = np.asarray(values, dtype=np.int8)
    if not np.all(np.abs(s) == 1):
        raise ValueError("spins must be +1 or -1")
    return s


def respects_clamps(m: IsingModel, s: np.ndarray) -> bool:
    c = m.graph.clamp
    return bool(np.all((c == 0) | (s == c)))


def all_plus(m: IsingModel) -> np.ndarray:
    """All-up configuration, except where clamps dictate otherwise."""
    s = np.ones(m.n, dtype=np.int8)
    s[m.graph.clamp < 0] = -1
    return s


def all_minus(m: IsingModel) -> np.ndarray:
    s = np.full(m.n, -1, dtype=np.int8)
    s[m.graph.clamp > 0] = 1
    return s


def plus_prob(f: float) -> float:
    """P(spin = +1) in effective field f: logistic(2f), stable on both tails."""
    if f >= 0.0:
        return float(1.0 / (1.0 + np.exp(-2.0 * f)))
    e = np.exp(2.0 * f)
    return float(e / (1.0 + e))


# ---------------------------------------------------------------------------
# exact enumeration

@dataclass(frozen=True)
class ExactDistribution:
    """Probabilities over all 2^n configurations, bitmask-indexed.

    Bit v of the index is 1 exactly when s_v = +1, so vertex 0 is the
    least significant bit.  Configurations violating a clamp get mass 0.
    ``log_z`` is the log normalizer over clamp-respecting configurations;
    it is None for distributions that were built without one (e.g. the
    output law of a sampler).
    """

    n: int
    probs: np.ndarray
    log_z: float | None


def _allowed_states(m: IsingModel, pins: np.ndarray) -> np.ndarray:
    """Mask of the bitmask states that agree with ``pins`` (+-1 pinned, 0 free)."""
    ok = np.ones(m.log_weights.size, dtype=bool)  # the size cap fires first
    for v in np.flatnonzero(pins):  # axis 1 of the view is bit v
        ok.reshape(-1, 2, 1 << v)[:, int(pins[v] < 0)] = False
    return ok


def _shifted_mass(logw: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, float]:
    """(exp(logw - shift), shift), the shift being the largest ``ok`` weight.

    States outside ``ok`` get exp(-inf) = 0, so none overflows.
    """
    shift = logw[ok].max()
    return np.exp(np.where(ok, logw - shift, -np.inf)), shift


def normalize_log_weights(logw: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, float]:
    """(probabilities, log normalizer) of exp(logw) over the ``ok`` states."""
    mass, shift = _shifted_mass(logw, ok)
    z = mass.sum()
    return mass / z, float(shift + np.log(z))


def exact_distribution(m: IsingModel) -> ExactDistribution:
    """Brute-force Boltzmann distribution with max-shifted normalization."""
    probs, log_z = normalize_log_weights(m.log_weights, _allowed_states(m, m.graph.clamp))
    return ExactDistribution(m.n, probs, log_z)


def merge_conditioning(m: IsingModel, cond: dict[int, int] | None) -> np.ndarray:
    """Clamps merged with extra conditioned spins, conflicts rejected."""
    pins = m.graph.clamp.copy()
    if cond:
        for v, val in cond.items():
            if not 0 <= v < m.n:
                raise ConditioningError(f"conditioned vertex {v} out of range")
            if val not in (-1, 1):
                raise ConditioningError(f"conditioned value must be +-1, got {val}")
            if pins[v] not in (0, val):
                raise ConditioningError(f"conditioning contradicts clamp at vertex {v}")
            pins[v] = val
    return pins


def exact_conditional_marginal(m: IsingModel, v: int, cond: dict[int, int] | None = None) -> float:
    """P(s_v = +1 | conditioned spins), by brute-force enumeration."""
    pins = merge_conditioning(m, cond)
    if not 0 <= v < m.n:
        raise ConditioningError(f"query vertex {v} out of range")
    if pins[v] != 0:
        raise ConditioningError(f"query vertex {v} is pinned")
    ok = _allowed_states(m, pins)
    if not ok.any():
        raise ConditioningError("conditioning event has probability zero")
    mass, _ = _shifted_mass(m.log_weights, ok)
    num = mass.reshape(-1, 2, 1 << v)[:, 1].ravel().sum()  # the s_v = +1 states, in order
    return float(num / mass.sum())


def tv_distance(p: ExactDistribution, q: ExactDistribution) -> float:
    if p.n != q.n:
        raise ValueError("distributions live on different spaces")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


# ---------------------------------------------------------------------------
# field clamping

def clamp_large_fields(m: IsingModel) -> IsingModel:
    """Pin every free vertex whose field exceeds max(10 * beta_max * n, 20) in size.

    Pinned vertices (new and pre-existing) are detached: each incident
    coupling is absorbed into the neighbor's field as +-beta, and the edge
    is dropped.  This preserves the conditional law of the free spins
    exactly; it changes the unconditional law only by the mass of the
    pinned-away events.  A pinned vertex's field outweighs its couplings
    (at most beta_max * n) by more than 18, so that mass is below e^-36,
    about double resolution, even where beta_max * n is small or zero.
    """
    g = m.graph
    threshold = max(10.0 * m.beta_max * g.n, CLAMP_FIELD_FLOOR)
    pins = g.clamp.copy()
    free = pins == 0
    pins[free & (g.h > threshold)] = 1
    pins[free & (g.h < -threshold)] = -1
    h = g.h.copy()
    edges = []
    for (u, v), b in zip(*g.edges()):
        pu, pv = pins[u], pins[v]
        if pu == 0 and pv == 0:
            edges.append((int(u), int(v), float(b)))
        elif pu != 0 and pv == 0:
            h[v] += pu * b
        elif pu == 0 and pv != 0:
            h[u] += pv * b
        # pinned-pinned edges contribute a constant and vanish
    return make_model(graph_from_edges(g.n, edges, h=h, clamp=pins))
