"""Sequential exact-marginal sampling through truncated walk trees.

Free vertices are visited in ascending order; each one is drawn from its
walk-tree marginal conditioned on everything already assigned (clamps
included), with trees truncated at a radius L.  At L >= n the output law
is exactly the Boltzmann law; below that, each step's truncation error is
bracketed by the free-boundary pinning gap, so the output law is within

    sum_i |boundary(v_i, L)| * tanh(beta_max)^L

of the target in total variation.  When b * tanh(beta) < 1, b bounding
the per-level growth of walk-tree boundaries, that sum falls below
n^-gamma at L = (1 + gamma) log n / -log(b tanh beta): the radius grows
like a constant times log n, and :func:`radius_for` rounds it up.

A walk tree depends only on the graph, its root and L, so each free
vertex's tree is built once, all of them in one forest build over the
free vertices, and re-folded under every draw's or prefix's conditioning,
carried as a pins vector updated in place.  Every draw and prefix pins
the clamps and v_1..v_{i-1} when v_i is drawn, so tree i is built screened
at those vertices (see sawtree), which keeps the whole tree's bits.  The
``saw_sizes`` a run reports, and its ``max_nodes``, count whole trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import UpdateStream
from .errors import SizeError
from .model import ExactDistribution, IsingModel
from .sawtree import DEFAULT_NODE_BUDGET, build_saw_trees, saw_tree_sizes, tree_model
from .treecalc import root_marginal

OUTPUT_LAW_VERTEX_CAP = 14


@dataclass(frozen=True)
class SamplerRun:
    """One draw of the sequential sampler, with its per-step audit trail."""

    depth_limit: int
    order: np.ndarray  # visit order (the free vertices, ascending)
    p: np.ndarray  # marginal used at each step
    spins: np.ndarray  # full configuration including clamped vertices
    saw_sizes: np.ndarray  # whole walk-tree node count at each step

    def to_json_dict(self) -> dict:
        return {
            "L": int(self.depth_limit),
            "order": [int(v) for v in self.order],
            "p": [float(x) for x in self.p],
            "spins": [int(s) for s in self.spins],
            "saw_sizes": [int(s) for s in self.saw_sizes],
        }


def algorithm1_samples(m: IsingModel, depth_limit: int, streams: list[UpdateStream],
                       max_nodes: int = DEFAULT_NODE_BUDGET) -> list[SamplerRun]:
    """One draw per stream in lockstep, building each walk tree once.

    Draw k's pins vector is also its spins; draw k reads only ``streams[k]``.
    """
    free = m.graph.free_vertices()
    sizes = saw_tree_sizes(m.graph, free, depth_limit, max_nodes)
    us = [stream.next_updates(free.size)[1] for stream in streams]
    spins = [m.graph.clamp.copy() for _ in streams]
    ps = np.empty((len(streams), free.size))
    trees = build_saw_trees(m.graph, free, depth_limit, max_nodes, screened=True)
    for i, (v, st) in enumerate(zip(free, trees)):
        for k, pins in enumerate(spins):
            p = root_marginal(tree_model(st, pins))
            pins[v] = 1 if us[k][i] <= p else -1
            ps[k, i] = p
    return [SamplerRun(depth_limit, free.copy(), ps[k], spins[k], sizes.copy())
            for k in range(len(streams))]


def algorithm1_sample(m: IsingModel, depth_limit: int, stream: UpdateStream,
                      max_nodes: int = DEFAULT_NODE_BUDGET) -> SamplerRun:
    """Draw one configuration by sequential walk-tree marginals."""
    return algorithm1_samples(m, depth_limit, [stream], max_nodes)[0]


def algorithm1_output_law(m: IsingModel, depth_limit: int) -> ExactDistribution:
    """Exact distribution of the sampler's output, by prefix enumeration.

    Extends every prefix, a bitmask of + spins keyed to its weight, by one
    free vertex per step, multiplying in that step's marginal.  Each tree
    is built screened once, and a step's marginal depends only on the drawn
    spins that tree sees, so each step folds once per distinct pattern of
    them; the other prefixes reuse that fold.
    """
    free = m.graph.free_vertices()
    if m.n > OUTPUT_LAW_VERTEX_CAP:
        raise SizeError(f"output-law enumeration capped at {OUTPUT_LAW_VERTEX_CAP} vertices")
    pins = m.graph.clamp.copy()
    level = {sum(1 << int(v) for v in np.flatnonzero(pins > 0)): 1.0}
    for i, st in enumerate(build_saw_trees(m.graph, free, depth_limit, screened=True)):
        drawn, v = free[:i], 1 << int(free[i])
        sees = int(np.bitwise_or.reduce(1 << st.tree.label))  # the spins the tree sees
        folds, grown = {}, {}
        for mask, weight in level.items():
            p = folds.get(mask & sees)
            if p is None:
                pins[drawn] = np.where((mask >> drawn) & 1, 1, -1)
                p = folds[mask & sees] = root_marginal(tree_model(st, pins))
            grown[mask | v], grown[mask] = weight * p, weight * (1.0 - p)
        level = grown
    probs = np.zeros(1 << m.n)
    probs[list(level)] = list(level.values())
    return ExactDistribution(m.n, probs, None)


def truncation_tv_bound(m: IsingModel, depth_limit: int) -> float:
    """Chained truncation bound: sum of free depth-L node counts times tanh(beta)^L."""
    decay = math.tanh(m.beta_max) ** depth_limit
    total = 0.0
    for st in build_saw_trees(m.graph, m.graph.free_vertices(), depth_limit):
        total += np.count_nonzero((st.tree.depth == depth_limit) & (st.clamp == 0)) * decay
    return total


def radius_for(n: int, factor: float) -> int:
    """Integer truncation radius factor * log n, rounded up (at least 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < factor < math.inf:
        raise ValueError(f"radius factor must be finite and > 0, got {factor}")
    radius = factor * math.log(max(n, 2))
    if radius == math.inf:
        raise SizeError(f"radius factor {factor} times log n overflows")
    return max(1, math.ceil(radius))
