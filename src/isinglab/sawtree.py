"""Self-avoiding-walk trees and the marginals they compute.

The tree of self-avoiding walks from a vertex v turns a loopy marginal
into a tree marginal: nodes are walks, children extend the walk to every
neighbor of its endpoint except the vertex it just came from (ascending
vertex order), and a walk that closes a cycle becomes a leaf pinned by a
fixed local rule.  With conditioned spins copied onto every occurrence,
P_G(s_v = + | conditioning) equals the root marginal of the walk tree.
A walk tree truncated at depth L brackets the true marginal between its
all-minus-boundary and all-plus-boundary evaluations, with a gap
controlled by boundary size times tanh(beta_max)^L.

A built walk tree is a treecalc.TreeModel: the graph's fields copied
onto every occurrence of a vertex, the cycle closures as clamps, and the
free depth-L nodes its truncation boundary.  :func:`tree_model` copies a
pins vector over those clamps, and treecalc does every evaluation.

Pin rule at a cycle closure: when the walk w_0..w_m steps back onto an
earlier vertex w_j, the new leaf is pinned + exactly when the closing
edge ranks above the edge the walk originally left w_j by, comparing the
two neighbor endpoints w_m and w_{j+1} as integers.

Trees are built level by level in numpy, many roots per level pass.  A
walk's children come from its endpoint's CSR row less the reverse of the
half-edge it arrived by, and a child can close a cycle only if its
vertex's bit (vertex mod 64) is in the walk's mask of its vertices, so
only those children have their ancestors chased.  A screened tree also
stops each walk at a vertex that every fold of it pins; that node stays
a leaf with its label and cycle-closure pin, so it takes the fold's pin,
and as a pin screens its subtree the tree folds to the whole tree's bits.
Each tree keeps the order it was grown in: depth by depth, each level
grouped by parent with children in ascending neighbor order.
:func:`saw_brackets_at_radii` folds the levels without assembling a tree.
Per-root node counts are known before a level is built, so a node budget
is enforced without building the level that would pass it.  Roots share
passes in chunks of at most CHUNK_NODES nodes, so memory follows the
chunk, or the budget for a tree larger than a chunk.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import kernels
from .errors import BudgetError, ConditioningError
from .graph import WeightedGraph, csr_slots, make_rooted_tree, split_forest
from .model import IsingModel, merge_conditioning, plus_prob
from .treecalc import TreeModel, boundary_bracket, root_marginal

DEFAULT_NODE_BUDGET = 10**7

# Roots share level passes in chunks of at most this many nodes, which
# bounds the memory of a many-root build; a root whose tree alone is
# larger is built on its own, bounded by max_nodes only.
CHUNK_NODES = 1 << 13

_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)  # w's walk-mask bit: _BIT[w & 63]


def build_saw_trees(g: WeightedGraph, roots, depth_limit: int,
                    max_nodes: int = DEFAULT_NODE_BUDGET,
                    screened: bool = False) -> Iterator[TreeModel]:
    """Walk trees of several roots as tree models, yielded in root order.

    Trees are grown level by level, many roots per level pass, and laid
    out in the order they were grown: depth by depth, each depth grouped
    by parent with children in ascending neighbor order, so parent
    indices precede children.  With ``screened`` the roots must be
    distinct, and every walk of the tree of ``roots[i]`` stops, as a leaf,
    at a vertex that is clamped or one of ``roots[:i]``.
    Raises BudgetError when some root's tree, screened or not, has more
    than ``max_nodes`` nodes, after yielding the trees of earlier chunks;
    the level that would overflow is never built.
    """
    roots = _check_roots(g, roots, depth_limit)
    rank = np.full(g.n, roots.size) if screened else None  # index in roots, -1 if clamped
    if screened:
        rank[roots], rank[g.clamp != 0] = np.arange(roots.size), -1
    for levels, _ in _forests(g, roots, depth_limit, max_nodes, False, rank=rank):
        yield from _level_trees(levels, g)


def saw_brackets_at_radii(m: IsingModel, v: int, radii,
                          max_nodes: int) -> list[tuple[tuple[float, float], int] | None]:
    """v's walk-tree bracket and sphere size at each radius, from one growth.

    Entry i is ``(boundary_bracket(tree_model(st, m.graph.clamp), l), sphere)``
    for st = ``build_saw_tree(m.graph, v, l, max_nodes)`` at l = radii[i], where
    sphere counts st's nodes with depth l and clamp 0, or None where the
    build raises BudgetError; radius l folds the grown levels 0..l.  Raises
    ConditioningError when v is pinned and some radius fits.
    """
    g = m.graph
    radii = [int(l) for l in radii]
    roots = _check_roots(g, [v], min(radii, default=0))
    levels, _, reached = _grow_forest(g, roots, max(radii, default=0), max_nodes, False)
    if g.clamp[v] != 0 and any(l <= reached for l in radii):
        raise ConditioningError(f"query vertex {v} is pinned")
    top = max((l for l in radii if l <= reached), default=-1)  # the deepest level folded
    cols = [(par, g.weights[edge] if k else np.zeros(edge.size), g.h[vert],
             np.where(g.clamp[vert], g.clamp[vert], pin))
            for k, (par, vert, _, edge, pin) in enumerate(levels[:top + 1])]
    return [None if l > reached else
            (tuple(map(plus_prob, kernels.tree_bracket_levels(cols[:l + 1], l))),
             int(np.count_nonzero(levels[l][4] == 0)) if l < len(levels) else 0)
            for l in radii]


def saw_tree_sizes(g: WeightedGraph, roots, depth_limit: int,
                   max_nodes: int = DEFAULT_NODE_BUDGET) -> np.ndarray:
    """Node count of each root's walk tree (int64), assembling no tree."""
    roots = _check_roots(g, roots, depth_limit)
    counts = [c for _, c in _forests(g, roots, depth_limit, max_nodes, count_only=True)]
    return np.concatenate([np.zeros(0, dtype=np.int64), *counts])


def build_saw_tree(g: WeightedGraph, v: int, depth_limit: int,
                   max_nodes: int = DEFAULT_NODE_BUDGET) -> TreeModel:
    """Walk tree from v, built level by level as a forest of one root.

    Nodes are in level order, as :func:`build_saw_trees` lays them out.
    Raises BudgetError past ``max_nodes`` nodes.
    """
    return next(build_saw_trees(g, [v], depth_limit, max_nodes))


def saw_tree_size(g: WeightedGraph, v: int, depth_limit: int,
                  max_nodes: int = DEFAULT_NODE_BUDGET) -> int:
    """Node count of the walk tree from v without materializing it."""
    return int(saw_tree_sizes(g, [v], depth_limit, max_nodes)[0])


def _check_roots(g: WeightedGraph, roots, depth_limit: int) -> np.ndarray:
    roots = np.asarray(roots, dtype=np.int64)
    outside = roots[(roots < 0) | (roots >= g.n)]
    if outside.size:
        raise ValueError(f"root vertex {int(outside[0])} out of range")
    if depth_limit < 0:
        raise ValueError("depth limit must be >= 0")
    return roots


def _forests(g: WeightedGraph, roots: np.ndarray, depth_limit: int, max_nodes: int,
             count_only: bool, rank: np.ndarray | None = None):
    """(levels, counts) of successive root chunks, covering ``roots`` in order.

    The first chunk starts with up to CHUNK_NODES roots, each later one with
    as many as the previous chunk's mean tree size says will fit.  ``rank``
    screens as in :func:`_grow_forest`, ranked against the whole root list.
    """
    done = 0
    take = CHUNK_NODES
    while done < roots.size:
        levels, counts, reached = _grow_forest(g, roots[done:done + take], depth_limit,
                                               max_nodes, count_only,
                                               None if rank is None else rank - done)
        if reached < depth_limit:
            raise BudgetError(f"walk tree exceeded {max_nodes} nodes")
        done += counts.size
        take = max(1, CHUNK_NODES * counts.size // int(counts.sum()))
        yield levels, counts


def _grow_forest(g: WeightedGraph, roots: np.ndarray, depth_limit: int, max_nodes: int,
                 count_only: bool, rank: np.ndarray | None = None):
    """Grow the walk trees of ``roots``, or of the prefix that fits CHUNK_NODES.

    Returns ``(levels, counts, reached)``.  ``levels[k]`` is a tuple (parent, vertex,
    root, edge, pin) of arrays over the depth-k nodes of every tree:
    parent indexes ``levels[k - 1]``, root indexes the kept roots, edge is
    the CSR half-edge from the parent's vertex (-1 at a root), and pin is
    the cycle-closure pin.  A level is grouped by parent in parent order,
    with each parent's children in ascending neighbor order, so it is also
    grouped by root in root order.  ``counts[r]`` is root r's node count.
    Roots are dropped from the end while the forest would pass CHUNK_NODES
    nodes and more than one root is left.  With ``count_only`` the deepest
    level is counted, not built.  With ``rank``, a walk of root r's tree
    continues only from vertices u with rank[u] >= r.
    Growth stops at ``reached`` = k when some tree would pass ``max_nodes``
    nodes at depth k + 1; otherwise ``reached`` is ``depth_limit``.
    """
    indptr, indices = g.indptr, g.indices
    nroots = roots.size
    counts = np.ones(nroots, dtype=np.int64)
    levels = [(np.full(nroots, -1, dtype=np.int64), roots, np.arange(nroots),
               np.full(nroots, -1, dtype=np.int64), np.zeros(nroots, dtype=np.int8))]
    mask = _BIT[roots & 63] if depth_limit - count_only > 2 else None  # if a level is chased
    for k in range(depth_limit):
        _, vertex, root, edge, pin = levels[k]
        go = pin == 0 if rank is None else (pin == 0) & (rank[vertex] >= root)
        node = np.flatnonzero(go)  # walks that continue
        at = vertex[node]
        start = indptr[at]
        # each continues to every neighbor but the previous vertex, as the
        # graph is simple
        deg = indptr[at + 1] - start - (k > 0)
        grown = counts + np.bincount(root[node], weights=deg,
                                     minlength=nroots).astype(np.int64)
        if ((grown > max_nodes) & (grown > counts)).any():
            return levels, counts, k
        if nroots > 1:
            fits = np.cumsum(grown) <= CHUNK_NODES
            if not fits[-1]:
                nroots = max(1, int(np.count_nonzero(fits)))
                levels = [tuple(a[:np.searchsorted(lv[2], nroots)] for a in lv)
                          for lv in levels]
                grown = grown[:nroots]
                keep = root[node] < nroots
                node, start, deg = node[keep], start[keep], deg[keep]
        counts = grown
        if count_only and k + 1 == depth_limit:
            break
        parent = np.repeat(node, deg)
        child = csr_slots(start, deg)
        if k > 0:  # step over the reverse of the in-edge, back to the previous vertex
            child += child >= np.repeat(g.reverse[edge[node]], deg)
        vert = indices[child]
        if vert.size == 0:
            break
        new_pin = np.zeros(vert.size, dtype=np.int8)
        if mask is not None:
            bit, held = _BIT[vert & 63], mask[parent]
            mask = held | bit
        if k > 1:
            # A child closes a cycle when its vertex is on the walk already,
            # at some depth j <= k - 2, so only when its bit is in the
            # parent's mask.  Chase those children's ancestors one level up
            # at a time, keeping the walk's vertex at depth j + 1, which the
            # pin compares with the walk's vertex at depth k.
            cand = np.flatnonzero(held & bit)
            up, x = parent[cand], vert[cand]
            anc = levels[k][0][up]  # at depth k - 1
            after = levels[k - 1][1][anc]
            closed_after = np.full(cand.size, -1)
            for j in range(k - 2, -1, -1):
                anc = levels[j + 1][0][anc]
                on_walk = levels[j][1][anc]
                closed_after = np.where(on_walk == x, after, closed_after)
                after = on_walk
            closed = closed_after >= 0
            new_pin[cand[closed]] = np.where(vertex[up[closed]] > closed_after[closed], 1, -1)
        levels.append((parent, vert, root[parent], child, new_pin))
    return levels, counts, depth_limit


def _level_trees(levels, g: WeightedGraph) -> Iterator[TreeModel]:
    """Yield each tree of the forest with its nodes in the builder's level order.

    Every level is grouped by root in root order, as :func:`split_forest`
    takes it.  Couplings and fields are gathered from ``g`` and the clamps
    are the cycle-closure pins.
    """
    sizes = [lv[0].size for lv in levels]
    depth = np.repeat(np.arange(len(levels)), sizes)
    parent, vertex, root, edge, pin = (np.concatenate(a) for a in zip(*levels))
    beta = np.concatenate([np.zeros(sizes[0]), g.weights[edge[sizes[0]:]]])  # roots first
    parent[sizes[0]:] += (np.cumsum(sizes) - sizes)[depth[sizes[0]:] - 1]  # into the forest
    order, parent, first = split_forest(root, parent)
    depth, vertex, beta, pin = depth[order], vertex[order], beta[order], pin[order]
    field = g.h[vertex]
    for lo, hi in zip(first[:-1].tolist(), first[1:].tolist()):
        part = slice(lo, hi)
        tree = make_rooted_tree(parent[part], depth[part], vertex[part])
        yield TreeModel(tree, beta[part].copy(), field[part].copy(), pin[part].copy())


def tree_model(st: TreeModel, pins: np.ndarray) -> TreeModel:
    """The walk tree under a pins vector.

    ``pins`` is int8, +-1 at every clamped or conditioned vertex and 0
    elsewhere, as :func:`merge_conditioning` returns it, and is used
    unchecked.  Its spins are copied onto every occurrence of their
    vertex, over the cycle-closure pins there.  Raises ConditioningError
    when the root's vertex is pinned.
    """
    labels = st.tree.label
    node_pins = pins[labels]
    if node_pins[0] != 0:
        raise ConditioningError(f"query vertex {int(labels[0])} is pinned")
    return TreeModel(st.tree, st.edge_beta, st.h, np.where(node_pins, node_pins, st.clamp))


def saw_marginal_from_tree(st: TreeModel, m: IsingModel,
                           cond: dict[int, int] | None = None) -> float:
    """Root marginal of an already-built walk tree under a conditioning."""
    return root_marginal(tree_model(st, merge_conditioning(m, cond)))


def saw_marginal_bracket(m: IsingModel, v: int, depth_limit: int,
                         cond: dict[int, int] | None = None,
                         max_nodes: int = DEFAULT_NODE_BUDGET) -> tuple[float, float]:
    """(lower, upper) enclosure of the true marginal from one truncated tree.

    Pinning the free truncation surface all minus or all plus is monotone
    in the boundary, so the pair brackets the untruncated value.
    """
    st = build_saw_tree(m.graph, v, depth_limit, max_nodes=max_nodes)
    return boundary_bracket(tree_model(st, merge_conditioning(m, cond)), depth_limit)
