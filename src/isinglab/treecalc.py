"""Exact marginals on trees via the scalar field recursion.

On a tree the root's marginal reduces to a single number per node, the
effective field F.  Folding children into parents via

    F_u = h_u + sum_c atanh(tanh(beta_uc) * tanh(F_c))

gives P(root = +1) = logistic(2 F_root); a pinned child contributes its
coupling with the pin's sign exactly.  The fold runs in one descending
pass thanks to the parent[i] < i node order (see kernels.tree_root_field).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .graph import RootedTree, WeightedGraph, tree_as_graph
from .model import plus_prob


@dataclass(frozen=True)
class TreeModel:
    """A rooted tree with couplings on parent edges, fields and pins."""

    tree: RootedTree
    edge_beta: np.ndarray  # float64 per node, coupling to parent; entry 0 unused
    h: np.ndarray  # float64 per node
    clamp: np.ndarray  # int8 per node


def make_tree_model(tree: RootedTree, edge_beta, h=None, clamp=None) -> TreeModel:
    nn = tree.size
    eb = np.ascontiguousarray(np.broadcast_to(np.asarray(edge_beta, dtype=np.float64), (nn,)))
    hh = np.zeros(nn) if h is None else np.asarray(h, dtype=np.float64).copy()
    cc = np.zeros(nn, dtype=np.int8) if clamp is None else np.asarray(clamp, dtype=np.int8).copy()
    if hh.shape != (nn,) or cc.shape != (nn,):
        raise ValueError("per-node data must have one entry per node")
    if np.any(eb[1:] < 0.0):
        raise ValueError("couplings must be >= 0")
    if not np.all(np.isin(cc, (-1, 0, 1))):
        raise ValueError("clamp values must be -1, 0 or +1")
    return TreeModel(tree, eb, hh, cc)


def root_field(tm: TreeModel) -> float:
    """Effective field at the root (only meaningful when the root is free)."""
    return kernels.tree_root_field(tm.tree.parent, tm.edge_beta, tm.h, tm.clamp)


def root_marginal(tm: TreeModel) -> float:
    """P(root spin = +1), exact."""
    c = tm.clamp[0]
    if c != 0:
        return 1.0 if c > 0 else 0.0
    return plus_prob(root_field(tm))


def with_pins(tm: TreeModel, nodes, value: int) -> TreeModel:
    """Copy of the model with the given nodes pinned to value (+1/-1)."""
    clamp = tm.clamp.copy()
    clamp[np.asarray(nodes, dtype=np.int64)] = value
    return TreeModel(tm.tree, tm.edge_beta, tm.h, clamp)


def boundary_influence(tm: TreeModel, l: int) -> float:
    """Root marginal shift when the full depth-l sphere flips from - to +.

    Nodes already pinned keep their pin; only free sphere nodes are set.
    Returns P(root=+ | sphere +) - P(root=+ | sphere -), which is >= 0
    for cooperative couplings.
    """
    if l < 0:
        raise ValueError("depth must be >= 0")
    sphere = np.flatnonzero((tm.tree.depth == l) & (tm.clamp == 0))
    hi = root_marginal(with_pins(tm, sphere, 1))
    lo = root_marginal(with_pins(tm, sphere, -1))
    return hi - lo


def two_point_influence(tm: TreeModel, node: int) -> float:
    """Root marginal shift when one free node flips from - to +."""
    if tm.clamp[node] != 0:
        raise ValueError(f"node {node} is pinned")
    hi = root_marginal(with_pins(tm, [node], 1))
    lo = root_marginal(with_pins(tm, [node], -1))
    return hi - lo


def tree_model_as_graph(tm: TreeModel) -> WeightedGraph:
    """The same model as a WeightedGraph on vertex ids = node indices."""
    return tree_as_graph(tm.tree, edge_beta=tm.edge_beta, h=tm.h, clamp=tm.clamp)
