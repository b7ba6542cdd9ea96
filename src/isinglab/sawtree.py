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

Pin rule at a cycle closure: when the walk w_0..w_m steps back onto an
earlier vertex w_j, the new leaf is pinned + exactly when the closing
edge ranks above the edge the walk originally left w_j by, comparing the
two neighbor endpoints w_m and w_{j+1} as integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BudgetError, ConditioningError
from .graph import RootedTree, WeightedGraph, make_rooted_tree
from .model import IsingModel, merge_conditioning, plus_prob

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class SawTree:
    """Walk tree of a graph vertex, truncated below depth L.

    ``tree`` labels carry original vertex ids.  ``fixed`` holds the
    cycle-closure pins (+1/-1, 0 elsewhere); ``boundary`` lists the nodes
    at depth exactly L that are not cycle closures, i.e. the free
    truncation surface whose pinning brackets the true marginal.
    """

    tree: RootedTree
    edge_beta: np.ndarray  # coupling to parent per node, entry 0 unused
    fixed: np.ndarray  # int8 cycle-closure pins
    depth_limit: int
    boundary: np.ndarray  # node indices

    @property
    def size(self) -> int:
        return self.tree.size


def build_saw_tree(g: WeightedGraph, v: int, depth_limit: int,
                   max_nodes: int = DEFAULT_NODE_BUDGET) -> SawTree:
    """Depth-first construction of the walk tree from v.

    Children are emitted in ascending neighbor order and nodes are indexed
    in discovery order, so parent indices precede children and the layout
    is deterministic.  Raises BudgetError past ``max_nodes`` nodes.
    """
    nn = _expand(g, v, depth_limit, max_nodes, collect=True)
    parent, depth, label, ebeta, fixed = nn
    tree = make_rooted_tree(parent, depth, label)
    boundary = np.flatnonzero((tree.depth == depth_limit) & (fixed == 0))
    return SawTree(tree, ebeta, fixed, depth_limit, boundary.astype(np.int64))


def saw_tree_size(g: WeightedGraph, v: int, depth_limit: int,
                  max_nodes: int = DEFAULT_NODE_BUDGET) -> int:
    """Node count of the walk tree without materializing it."""
    return _expand(g, v, depth_limit, max_nodes, collect=False)


def _expand(g: WeightedGraph, v: int, depth_limit: int, max_nodes: int, collect: bool):
    if not 0 <= v < g.n:
        raise ValueError(f"root vertex {v} out of range")
    if depth_limit < 0:
        raise ValueError("depth limit must be >= 0")
    v = int(v)
    indptr, indices, weights = g.csr_lists
    on_walk = {v: 0}  # vertex -> its depth on the current walk
    walk = [v] + [-1] * depth_limit  # walk[j] = vertex at depth j

    parent = [-1]
    depth = [0]
    label = [v]
    ebeta = [0.0]
    fixed = [0]
    count = 1

    # stack entries: [tree node, vertex, next CSR pointer, walk depth]
    stack = [[0, v, indptr[v], 0]] if depth_limit > 0 else []
    while stack:
        top = stack[-1]
        node, u, ptr, dep = top
        end = indptr[u + 1]
        back = walk[dep - 1] if dep > 0 else -1
        while ptr < end:
            x = indices[ptr]
            ptr += 1
            if x != back:  # an immediate backtrack is not a walk extension
                break
        else:
            del on_walk[u]
            stack.pop()
            continue
        top[2] = ptr

        count += 1
        if count > max_nodes:
            raise BudgetError(f"walk tree exceeded {max_nodes} nodes")
        j = on_walk.get(x)
        if j is not None:
            # closes a cycle at the earlier visit of x
            pin = 1 if u > walk[j + 1] else -1
        else:
            pin = 0
            if dep + 1 < depth_limit:
                on_walk[x] = dep + 1
                walk[dep + 1] = x
                stack.append([count - 1, x, indptr[x], dep + 1])
        if collect:
            parent.append(node)
            depth.append(dep + 1)
            label.append(x)
            ebeta.append(weights[ptr - 1])
            fixed.append(pin)
    if collect:
        return (np.array(parent, dtype=np.int64), np.array(depth, dtype=np.int64),
                np.array(label, dtype=np.int64), np.array(ebeta, dtype=np.float64),
                np.array(fixed, dtype=np.int8))
    return count


def _node_pins(st: SawTree, m: IsingModel, pins: np.ndarray,
               boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (h, clamp) arrays for evaluating a walk-tree marginal.

    Spins pinned in ``pins`` are copied onto every occurrence of their
    vertex and override cycle-closure pins there; free truncation leaves
    are pinned per ``boundary`` ("free", "plus" or "minus").
    """
    labels = st.tree.label
    root_vertex = int(labels[0])
    if pins[root_vertex] != 0:
        raise ConditioningError(f"query vertex {root_vertex} is pinned")
    clamp = np.where(pins[labels] != 0, pins[labels], st.fixed).astype(np.int8)
    if boundary != "free":
        if boundary not in ("plus", "minus"):
            raise ValueError(f"boundary must be free/plus/minus, got {boundary}")
        val = 1 if boundary == "plus" else -1
        b = st.boundary[clamp[st.boundary] == 0]
        clamp[b] = val
    return m.graph.h[labels], clamp


def saw_marginal_from_pins(st: SawTree, m: IsingModel, pins: np.ndarray,
                           boundary: str = "free") -> float:
    """Root marginal of a built walk tree under a pins vector.

    ``pins`` is +-1 at every clamped or conditioned vertex and 0 elsewhere,
    as :func:`merge_conditioning` returns it, and is used unchecked.
    """
    h_node, clamp = _node_pins(st, m, pins, boundary)
    return plus_prob(kernels.tree_root_field(st.tree.parent, st.edge_beta, h_node, clamp))


def saw_marginal_from_tree(st: SawTree, m: IsingModel,
                           cond: dict[int, int] | None = None,
                           boundary: str = "free") -> float:
    """Root marginal of an already-built walk tree under a conditioning."""
    return saw_marginal_from_pins(st, m, merge_conditioning(m, cond), boundary)


def saw_marginal(m: IsingModel, v: int, depth_limit: int,
                 cond: dict[int, int] | None = None, boundary: str = "free",
                 max_nodes: int = DEFAULT_NODE_BUDGET) -> float:
    """P(s_v = + | cond) computed through the walk tree.

    Exact once ``depth_limit`` reaches the number of vertices (every
    self-avoiding walk has ended by then); below that the free boundary
    introduces a truncation error bounded by :func:`saw_marginal_bracket`.
    The tree is built fresh on every call.
    """
    st = build_saw_tree(m.graph, v, depth_limit, max_nodes=max_nodes)
    return saw_marginal_from_tree(st, m, cond=cond, boundary=boundary)


def saw_marginal_bracket(m: IsingModel, v: int, depth_limit: int,
                         cond: dict[int, int] | None = None,
                         max_nodes: int = DEFAULT_NODE_BUDGET) -> tuple[float, float]:
    """(lower, upper) enclosure of the true marginal from one truncated tree.

    Pinning the free truncation surface all minus or all plus is monotone
    in the boundary, so the pair brackets the untruncated value.
    """
    st = build_saw_tree(m.graph, v, depth_limit, max_nodes=max_nodes)
    lo = saw_marginal_from_tree(st, m, cond=cond, boundary="minus")
    hi = saw_marginal_from_tree(st, m, cond=cond, boundary="plus")
    return lo, hi


def saw_tree_dump(st: SawTree) -> str:
    """Indented one-node-per-line rendering for golden-file comparisons."""
    lines = []
    marks = {0: "", 1: " pin:+", -1: " pin:-"}
    on_boundary = np.zeros(st.size, dtype=bool)
    on_boundary[st.boundary] = True
    for i in range(st.size):
        tag = " boundary" if on_boundary[i] else marks[int(st.fixed[i])]
        lines.append(f"{'  ' * int(st.tree.depth[i])}v{int(st.tree.label[i])}{tag}")
    return "\n".join(lines) + "\n"
