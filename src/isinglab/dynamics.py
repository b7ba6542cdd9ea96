"""Single-site heat-bath dynamics, monotone coupling and exact spectra.

The chain picks a uniformly random free vertex and redraws it from its
conditional; clamped vertices never move.  Two chains sharing one update
stream form the standard monotone coupling: for cooperative couplings the
coordinatewise order of configurations is preserved, so the all-up and
all-down chains sandwich every other start and their meeting time bounds
mixing from above.

Desk-scale tools build the full transition matrix over the free spins,
take the relaxation time from the symmetrized form, and locate the exact
mixing time at total-variation threshold 1/(2e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import MonotonicityError, SizeError
from .model import (
    IsingModel,
    _allowed_states,
    all_minus,
    all_plus,
    normalize_log_weights,
    respects_clamps,
    spins_array,
)
from .rng import substream

MATRIX_VERTEX_CAP = 10
TV_THRESHOLD = 1.0 / (2.0 * math.e)
MIXING_STEP_CAP = 10**9  # exact_mixing_time gives up past this many steps
BLOCK_SIZE_CAP = 20
_STEP_BLOCK = 1 << 16
POST_COUPLING_AUDIT = 1024  # updates run on after the chains meet


class UpdateStream:
    """Deterministic stream of (site, uniform) update pairs.

    Pair t is a pure function of (master seed, chain id, t): each pair
    consumes exactly two Philox doubles, so the sequence does not depend
    on how consumers batch their draws.  The site is uniform over the
    model's free vertices via floor(u * count), whose bias at double
    resolution is far below anything resolvable here; the second double
    is the threshold uniform on [0, 1).
    """

    def __init__(self, m: IsingModel, master_seed: int, chain_id: int = 0):
        self.free = m.graph.free_vertices()
        if self.free.size == 0:
            raise ValueError("model has no free vertices")
        self._rng = substream(master_seed, "glauber-updates", chain_id)

    def next_updates(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``count`` (site, uniform) pairs."""
        w = self._rng.random((count, 2))
        sites = self.free[(w[:, 0] * self.free.size).astype(np.int64)]
        return sites, np.ascontiguousarray(w[:, 1])


def run_chain(m: IsingModel, s0: np.ndarray, steps: int, stream: UpdateStream) -> np.ndarray:
    """Advance a chain ``steps`` updates from s0; returns the final state."""
    s = spins_array(s0).copy()
    if not respects_clamps(m, s):
        raise ValueError("initial configuration violates a clamp")
    adjacency = m.graph.adjacency
    h = m.graph.h.tolist()
    p_lo, p_hi = m.graph.plus_prob_bounds
    done = 0
    while done < steps:
        k = min(_STEP_BLOCK, steps - done)
        vs, us = stream.next_updates(k)
        kernels.chain_steps(adjacency, h, p_lo, p_hi, s, vs, us)
        done += k
    return s


@dataclass(frozen=True)
class CouplingResult:
    """Outcome of one monotone coupled run."""

    coupled: bool
    steps: int  # first-agreement step (1-based) if coupled, else the cap
    checkpoints: list[tuple[int, int]]  # (step, Hamming distance)


def default_checkpoints(cap: int) -> list[int]:
    """Geometric audit schedule 1, 2, 4, ... capped at ``cap``."""
    points = []
    t = 1
    while t < cap:
        points.append(t)
        t *= 2
    points.append(cap)
    return points


def monotone_coupled_run(m: IsingModel, cap: int, stream: UpdateStream) -> CouplingResult:
    """Run the all-up and all-down chains on one stream until they meet.

    Pairs are drawn in blocks that end at the next checkpoint or after
    2^16 pairs.  Every update asserts the order at the rewritten site, and
    the kernel returns at the update where the chains meet, so the rest of
    that block is drawn but never applied.  Every checkpoint audits the
    full coordinatewise order and records the Hamming distance.  After the
    chains meet, the next POST_COUPLING_AUDIT pairs are applied to both
    and must leave them equal.  Raises MonotonicityError when the order
    breaks (it cannot, for cooperative couplings).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    upper = all_plus(m)
    lower = all_minus(m)
    adjacency = m.graph.adjacency
    h = m.graph.h.tolist()
    p_lo, p_hi = m.graph.plus_prob_bounds
    ham = int(np.count_nonzero(upper != lower))
    recorded: list[tuple[int, int]] = []
    done = 0
    met_at = -1
    for mark in default_checkpoints(cap):
        while done < mark and met_at < 0:
            k = min(_STEP_BLOCK, mark - done)
            vs, us = stream.next_updates(k)
            ham, coupled_at, violation = kernels.coupled_steps(
                adjacency, h, upper, lower, ham, vs, us, p_lo, p_hi,
            )
            if violation >= 0:
                raise MonotonicityError(f"order violated at step {done + violation + 1}")
            if coupled_at >= 0:
                met_at = done + coupled_at + 1
            done += k
        if done == mark:  # the block that met the chains may end at a checkpoint
            if np.any(upper < lower):
                raise MonotonicityError(f"order violated at checkpoint {done}")
            recorded.append((done, int(ham)))
        if met_at >= 0:
            break
    if met_at >= 0:
        vs, us = stream.next_updates(POST_COUPLING_AUDIT)
        ham2, _, violation = kernels.coupled_steps(adjacency, h, upper, lower, 0, vs, us,
                                                   p_lo, p_hi)
        if violation >= 0 or ham2 != 0:
            raise MonotonicityError("met chains split during post-meeting audit")
        return CouplingResult(True, met_at, recorded)
    return CouplingResult(False, cap, recorded)


# ---------------------------------------------------------------------------
# block dynamics

def _check_blocks(m: IsingModel, blocks: list[list[int]]) -> list[np.ndarray]:
    free = set(int(v) for v in m.graph.free_vertices())
    covered: set[int] = set()
    out = []
    for bl in blocks:
        arr = np.array(sorted(int(v) for v in bl), dtype=np.int64)
        if arr.size == 0 or arr.size > BLOCK_SIZE_CAP:
            raise ValueError(f"block size must be in 1..{BLOCK_SIZE_CAP}")
        if len(set(arr.tolist())) != arr.size:
            raise ValueError("block repeats a vertex")
        if not set(arr.tolist()) <= free:
            raise ValueError("blocks may contain only free vertices")
        covered |= set(arr.tolist())
        out.append(arr)
    if covered != free:
        raise ValueError("blocks must cover every free vertex")
    return out


# ---------------------------------------------------------------------------
# exact spectra

@dataclass(frozen=True)
class TransitionMatrix:
    """Dense transition matrix over the model's free spins.

    States index the free vertices' spins as bits (free_vertices[i] is bit
    i, bit 1 = spin +1); clamped vertices stay at their pins inside every
    state.  ``stationary`` is the Boltzmann law restricted the same way.
    """

    matrix: np.ndarray
    stationary: np.ndarray
    free_vertices: np.ndarray
    reversible: bool


def _free_state_law(m: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """(log weight, Boltzmann probability) of each free-spin state.

    These are the clamp-consistent rows of the model's bitmask table.  In
    ascending order they are already in free-state order: clamped bits are
    fixed, and the free bits keep their relative order.
    """
    if m.n > MATRIX_VERTEX_CAP:
        raise SizeError(f"transition matrix capped at {MATRIX_VERTEX_CAP} vertices")
    if m.graph.free_vertices().size == 0:
        raise ValueError("model has no free vertices")
    ok = _allowed_states(m, m.graph.clamp)
    probs, _ = normalize_log_weights(m.log_weights, ok)
    return m.log_weights[ok], probs[ok]


def _transition_matrix(mat: np.ndarray, stationary: np.ndarray,
                       free: np.ndarray) -> TransitionMatrix:
    flux = stationary[:, None] * mat
    reversible = bool(np.abs(flux - flux.T).max() <= 1e-10)
    return TransitionMatrix(mat, stationary, free, reversible)


def build_transition_matrix(m: IsingModel) -> TransitionMatrix:
    """Exact single-site dynamics matrix; capped at MATRIX_VERTEX_CAP vertices."""
    logw, stationary = _free_state_law(m)
    free = m.graph.free_vertices()
    k = free.size
    size = 1 << k
    mat = np.zeros((size, size))
    states = np.arange(size)
    for i in range(k):
        target = states ^ (1 << i)
        # heat bath: P(target) / (P(state) + P(target)), a logistic of the
        # log-weight gap that neither overflows nor loses either tail
        mat[states, target] += np.exp(-np.logaddexp(0.0, logw - logw[target])) / k
    mat[states, states] += 1.0 - mat.sum(axis=1)
    return _transition_matrix(mat, stationary, free)


def build_block_transition_matrix(m: IsingModel, blocks: list[list[int]]) -> TransitionMatrix:
    """Exact matrix of uniform-random-block resampling dynamics."""
    _, stationary = _free_state_law(m)
    checked = _check_blocks(m, blocks)
    free = m.graph.free_vertices()
    states = np.arange(1 << free.size)
    mat = np.zeros((states.size, states.size))
    for block in checked:
        # states that agree outside the block share one conditional law;
        # each group's indices ascend, as the free-state order does
        outside = states & ~int((1 << np.searchsorted(free, block)).sum())
        for o in np.unique(outside):
            idx = np.flatnonzero(outside == o)
            pi = stationary[idx]
            total = pi.sum()
            if total <= 0.0:
                raise ValueError("degenerate conditional in block dynamics")
            mat[np.ix_(idx, idx)] += pi / total
    mat /= len(checked)
    return _transition_matrix(mat, stationary, free)


def relaxation_time(t: TransitionMatrix) -> float:
    """Relaxation time of a reversible transition matrix, in single transitions.

    It is the inverse of the spectral gap, min(1 - second eigenvalue,
    1 - |most negative eigenvalue|) of the similarity-symmetrized matrix;
    a model has a free vertex, so the matrix has at least two eigenvalues.
    """
    if not t.reversible:
        raise ValueError("spectral analysis requires a reversible matrix")
    root = np.sqrt(t.stationary)
    sym = t.matrix * (root[:, None] / root[None, :])
    sym = 0.5 * (sym + sym.T)
    ev = np.linalg.eigvalsh(sym)
    gap = min(1.0 - ev[-2], 1.0 - abs(ev[0]))
    if gap <= 0.0:
        raise ValueError("nonpositive spectral gap; chain too slow to resolve")
    return float(1.0 / gap)


def chain_tv_from_stationary(t: TransitionMatrix, power: np.ndarray) -> float:
    """Worst-start total variation between P^s rows and the stationary law."""
    return float(0.5 * np.abs(power - t.stationary).sum(axis=1).max())


def exact_mixing_time(t: TransitionMatrix) -> int:
    """Smallest s with worst-start TV(P^s, stationary) <= TV_THRESHOLD.

    Worst-start TV is nonincreasing in s.  Squaring finds the first power
    of two at or past the crossing; binary lifting then multiplies in the
    cached P^(2^j), largest first, wherever TV stays above the threshold,
    so the powers it keeps add up to s - 1.
    """
    squares = [t.matrix]  # squares[j] = P^(2^j)
    while chain_tv_from_stationary(t, squares[-1]) > TV_THRESHOLD:
        if 1 << len(squares) > MIXING_STEP_CAP:
            raise SizeError(f"mixing time exceeds step cap {MIXING_STEP_CAP}")
        squares.append(squares[-1] @ squares[-1])
    steps, power = 0, None  # the longest run found to stay above the threshold
    for j in reversed(range(len(squares) - 1)):
        nxt = squares[j] if power is None else power @ squares[j]
        if chain_tv_from_stationary(t, nxt) > TV_THRESHOLD:
            steps, power = steps + (1 << j), nxt
    return steps + 1
