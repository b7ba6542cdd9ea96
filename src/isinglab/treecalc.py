"""Exact marginals on trees via the scalar field recursion.

On a tree the root's marginal reduces to a single number per node, the
effective field F.  Folding children into parents via

    F_u = h_u + sum_c atanh(tanh(beta_uc) * tanh(F_c))

gives P(root = +1) = logistic(2 F_root); a pinned child contributes its
coupling with the pin's sign exactly.  The fold runs in one descending
pass thanks to the level order of RootedTree (see kernels.tree_root_field).
Pinning the free depth-l sphere all minus and all plus brackets the root
marginal; both ends fold together one depth level at a time, each level
a slice of the tree's arrays (kernels.tree_bracket_levels).  The walk
trees sawtree builds are TreeModels too, so they are evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .graph import RootedTree
from .model import plus_prob


@dataclass(frozen=True)
class TreeModel:
    """A rooted tree with couplings on parent edges, fields and pins."""

    tree: RootedTree
    edge_beta: np.ndarray  # float64 per node, coupling to parent; entry 0 unused
    h: np.ndarray  # float64 per node
    clamp: np.ndarray  # int8 per node

    @property
    def size(self) -> int:
        return self.tree.size


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


def boundary_bracket(tm: TreeModel, l: int) -> tuple[float, float]:
    """Root marginal with the free depth-l sphere pinned all - and all +.

    Nodes already pinned keep their pin; only free sphere nodes are set.
    For cooperative couplings the pair (lower, upper) encloses the root
    marginal under any boundary condition on that sphere.  Level k is the
    slice first[k]:first[k + 1] of the level-ordered tree, and its parents
    index level k - 1 once first[k - 1] is subtracted.
    """
    if l < 0:
        raise ValueError("depth must be >= 0")
    if tm.clamp[0] != 0:  # a pinned root screens the sphere
        return root_marginal(tm), root_marginal(tm)
    first = np.searchsorted(tm.tree.depth, np.arange(min(l, tm.tree.height) + 2))
    levels = [(tm.tree.parent[a:b] - up, tm.edge_beta[a:b], tm.h[a:b], tm.clamp[a:b])
              for up, a, b in zip(np.r_[0, first[:-2]], first[:-1], first[1:])]
    return tuple(map(plus_prob, kernels.tree_bracket_levels(levels, l)))


def boundary_influence(tm: TreeModel, l: int) -> float:
    """Root marginal shift when the free depth-l sphere flips from - to +.

    Returns P(root=+ | sphere +) - P(root=+ | sphere -), which is >= 0
    for cooperative couplings.
    """
    lo, hi = boundary_bracket(tm, l)
    return hi - lo
