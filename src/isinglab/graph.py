"""Sparse weighted graphs, rooted trees, balls and their structural statistics.

The central type is :class:`WeightedGraph`, a CSR adjacency over vertices
0..n-1 with one nonnegative coupling per edge, a field per vertex, and an
optional clamp (+1/-1) per vertex.  Arrays are frozen after construction.
Tables the hot paths read (``adjacency``, ``reverse``, ``plus_prob_bounds``)
are cached on first use; derived objects (balls, subgraphs) copy what they need.

Vertex sets here use plain sorted numpy arrays; neighbor lists are sorted
ascending, which the tree constructions below rely on for determinism.
The random generators and the ball-excess scan run a BFS level at a time
in numpy, with the draws and results of node-by-node loops.
"""

from __future__ import annotations

import contextlib
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetError
from .rng import POISSON_MEAN_CAP, poisson_by_inversion, substream

DEFAULT_VISIT_BUDGET = 10**7
BALL_CHUNK = 64  # centres per ball_excesses pass
GW_CHUNK_NODES = 1 << 11  # nodes a galton_watson_trees chunk aims at
PLUS_PROB_MARGIN = 1e-12  # far above the few-ulp error of a logistic in [0, 1]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def csr_slots(start: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Every index of the CSR rows that begin at ``start`` with ``deg`` entries, row by row."""
    ends = np.cumsum(deg)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(start - ends + deg, deg)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with couplings, fields and clamps in CSR form."""

    n: int
    indptr: np.ndarray  # int64, length n + 1
    indices: np.ndarray  # int64, neighbor ids, ascending within each row
    weights: np.ndarray  # float64, coupling per directed half-edge
    h: np.ndarray  # float64, field per vertex
    clamp: np.ndarray  # int8, 0 free / +1 / -1

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0] // 2

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """``adjacency[v]``: v's (neighbour, coupling) pairs, built on first use.

        Python loops read tuple items as plain ints and floats, much faster
        than numpy scalars, and one tuple per vertex walks a neighbourhood
        without indexing three lists.  The pairs keep the CSR order, so sums
        over them add the same terms in the same order as sums over the CSR
        rows.  The tuples are cached in the instance ``__dict__``, so
        fields, equality and frozenness are unaffected.
        """
        indptr = self.indptr.tolist()
        pairs = list(zip(self.indices.tolist(), self.weights.tolist()))
        return tuple(tuple(pairs[indptr[v]:indptr[v + 1]]) for v in range(self.n))

    @cached_property
    def reverse(self) -> np.ndarray:
        """``reverse[e]``: the index of half-edge e's reverse, built on first use.

        The CSR sorts half-edges by (row, neighbour), so sorting them by
        (neighbour, row) lists their reverses in CSR order.
        """
        return _freeze(np.lexsort((self.rows(), self.indices)))

    @cached_property
    def plus_prob_bounds(self) -> tuple[list[float], list[float]]:
        """(p_lo, p_hi): v's heat-bath probability of + lies in (p_lo[v], p_hi[v]).

        Built on first use.  The kernels sum v's local field as h[v] plus
        w * s over v's CSR row in row order; the bounds sum h[v] -+ |w| in
        that order, as ``ufunc.at`` applies the half-edges in index order,
        and round-to-nearest is monotone, so no neighbour state takes the
        field past them.  The margin covers ``np.exp`` here against the
        kernels' ``math.exp`` and the logistic's ulp-level non-monotonicity.
        """
        rows, mag = self.rows(), np.abs(self.weights)
        f = np.stack([self.h, self.h])  # the low and the high field
        with np.errstate(over="ignore"):  # a field past the float range is an infinite one
            np.subtract.at(f[0], rows, mag)
            np.add.at(f[1], rows, mag)
            e = np.exp(-2.0 * np.abs(f))
        p = np.where(f >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        p += [[-PLUS_PROB_MARGIN], [PLUS_PROB_MARGIN]]
        return p[0].tolist(), p[1].tolist()

    def rows(self) -> np.ndarray:
        """Source vertex of each directed half-edge, aligned with indices."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(the u < v pairs as an (m, 2) int64 array in lexicographic order, their couplings)."""
        rows = self.rows()
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]]), self.weights[keep]

    def beta_max(self) -> float:
        return float(self.weights.max()) if self.weights.size else 0.0

    def free_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.clamp == 0).astype(np.int64)

    def with_vertex_data(self, h=None, clamp=None) -> "WeightedGraph":
        """Same adjacency with replaced fields and/or clamps."""
        new_h = self.h if h is None else np.asarray(h, dtype=np.float64)
        new_c = self.clamp if clamp is None else np.asarray(clamp, dtype=np.int8)
        if new_h.shape != (self.n,) or new_c.shape != (self.n,):
            raise ValueError("vertex data must have shape (n,)")
        if not np.all(np.isfinite(new_h)):
            raise ValueError("fields must be finite")
        if not np.all(np.isin(new_c, (-1, 0, 1))):
            raise ValueError("clamp values must be -1, 0 or +1")
        return WeightedGraph(
            self.n, self.indptr, self.indices, self.weights,
            _freeze(new_h.copy()), _freeze(new_c.copy()),
        )


def graph_from_edges(n, edges, h=None, clamp=None) -> WeightedGraph:
    """Build a WeightedGraph from (u, v, coupling) triples.

    Rejects loops, duplicate edges, endpoints outside range and negative
    couplings (only cooperative interactions are supported).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    edges = list(edges)
    # zip checks that the edges have one length, the unpacking that it is 3
    us, vs, ws = zip(*edges, strict=True) if edges else ((), (), ())
    us = np.array(us, dtype=np.int64)
    vs = np.array(vs, dtype=np.int64)
    ws = np.array(ws, dtype=np.float64)
    if us.min(initial=n) < 0 or vs.min(initial=n) < 0 or us.max(initial=-1) >= n or vs.max(initial=-1) >= n:
        raise ValueError("edge endpoint out of range")
    if np.any(us == vs):
        raise ValueError("self-loops are not allowed")
    if np.any(ws < 0.0) or not np.all(np.isfinite(ws)):
        raise ValueError("couplings must be finite and >= 0")
    return _graph_from_arrays(n, us, vs, ws, h, clamp)


def _graph_from_arrays(n, us, vs, ws, h=None, clamp=None) -> WeightedGraph:
    """The CSR graph on n vertices with edges (us[i], vs[i]) of coupling ws[i]."""
    src, dst = np.concatenate([us, vs]), np.concatenate([vs, us])
    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], np.concatenate([ws, ws])[order]
    if np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])):  # one edge given twice
        raise ValueError("duplicate edge")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    g = WeightedGraph(int(n), _freeze(indptr), _freeze(dst), _freeze(wgt),
                      np.zeros(n), np.zeros(n, dtype=np.int8))
    return g.with_vertex_data(h=h, clamp=clamp)  # validates and freezes the vertex data


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree stored as a parent array in level order, root 0.

    Level order means parent[1:] is non-decreasing with parent[i] < i, so
    each depth level is a slice, grouped by parent in parent order, and a
    descending loop folds children before parents.  :func:`make_rooted_tree`
    checks it.  ``label`` is each node's original vertex id, or -1.
    """

    parent: np.ndarray  # int64, parent[0] == -1
    depth: np.ndarray  # int64
    label: np.ndarray  # int64, original vertex or -1

    @property
    def size(self) -> int:
        return self.parent.shape[0]

    @property
    def height(self) -> int:
        return int(self.depth[-1])

    def degrees(self) -> np.ndarray:
        """Degree of each node in the tree (children plus parent link)."""
        deg = np.bincount(self.parent[1:], minlength=self.size)
        deg[1:] += 1
        return deg


def make_rooted_tree(parent, depth=None, label=None) -> RootedTree:
    parent = np.asarray(parent, dtype=np.int64)
    nn = parent.shape[0]
    if nn < 1 or parent[0] != -1:
        raise ValueError("root must be node 0 with parent -1")
    if nn > 1 and not (parent[1] == 0 and np.all(  # non-decreasing from 0: none negative
            (parent[1:] >= parent[:-1]) & (parent[1:] < np.arange(1, nn)))):
        raise ValueError("parent[1:] must be non-decreasing from 0 with parent[i] < i")
    if depth is None:
        depth = np.zeros(nn, dtype=np.int64)
        for i in range(1, nn):
            depth[i] = depth[parent[i]] + 1
    depth = np.asarray(depth, dtype=np.int64)
    if label is None:
        label = np.full(nn, -1, dtype=np.int64)
    label = np.asarray(label, dtype=np.int64)
    return RootedTree(_freeze(parent.copy()), _freeze(depth.copy()), _freeze(label.copy()))


def split_forest(tree: np.ndarray, parent: np.ndarray):
    """(order, local parent, first) of a forest grown a level at a time.

    Node i, of tree ``tree[i]`` with parent ``parent[i]`` (-1 at a root), is
    numbered level by level, each level grouped by tree in tree order.
    ``order`` lists the nodes tree after tree, each tree's in level order;
    local parent j is node ``order[j]``'s parent as an index into its tree
    (-1 at a root); and tree t holds positions ``first[t]`` to ``first[t + 1]``.
    """
    order = np.argsort(tree, kind="stable")
    first = np.concatenate([[0], np.cumsum(np.bincount(tree))])
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - first[tree[order]]  # each node's index in its tree
    return order, np.where(parent < 0, -1, local[parent])[order], first


def tree_as_graph(tree: RootedTree, edge_beta=1.0, h=None, clamp=None) -> WeightedGraph:
    """The tree itself as a WeightedGraph on vertex ids = node indices.

    ``edge_beta`` is either a scalar or an array aligned with nodes giving
    the coupling of each node's parent edge (entry 0 unused).
    """
    nn = tree.size
    betas = np.broadcast_to(np.asarray(edge_beta, dtype=np.float64), (nn,))
    edges = [(int(tree.parent[i]), i, float(betas[i])) for i in range(1, nn)]
    return graph_from_edges(nn, edges, h=h, clamp=clamp)


def tree_excess(g: WeightedGraph) -> int:
    """Number of independent cycles assuming the graph is connected."""
    return g.num_edges - g.n + 1


# ---------------------------------------------------------------------------
# balls


@dataclass(frozen=True)
class Ball:
    """Induced subgraph on the vertices within a fixed hop radius of a center.

    ``vertices`` lists original ids in BFS discovery order (center first,
    level by level); ``subgraph`` is the induced graph on local indices
    aligned with that order.  ``dist`` gives the hop distance of each local
    vertex from the center.
    """

    center: int
    radius: int
    vertices: np.ndarray  # original ids, BFS order
    dist: np.ndarray  # per local vertex
    subgraph: WeightedGraph


def ball(g: WeightedGraph, v: int, radius: int) -> Ball:
    """Vertices within ``radius`` hops of v with the induced edges."""
    if not 0 <= v < g.n:
        raise ValueError(f"center {v} out of range")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist_of = {v: 0}
    order = [v]
    frontier = [v]
    for level in range(1, radius + 1):
        nxt = []
        for u in frontier:
            for w, _ in g.adjacency[u]:
                if w not in dist_of:
                    dist_of[w] = level
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    vertices = np.array(order, dtype=np.int64)
    local = {u: i for i, u in enumerate(order)}
    dist = np.array([dist_of[u] for u in order], dtype=np.int64)
    edges = []
    for u in order:
        for w, b in g.adjacency[u]:
            if w in local and u < w:
                edges.append((local[u], local[w], b))
    sub = graph_from_edges(
        len(order), edges,
        h=g.h[vertices], clamp=g.clamp[vertices],
    )
    return Ball(int(v), int(radius), _freeze(vertices), _freeze(dist), sub)


def ball_excesses(g: WeightedGraph, radius: int) -> np.ndarray:
    """Cycle excess of every vertex's radius-``radius`` ball, by counting.

    Entry v equals ``tree_excess(ball(g, v, radius).subgraph)``, but no
    subgraph is built: a level-synchronous BFS over the CSR arrays counts
    each ball's vertices and induced edges.  Every neighbour of a vertex at
    distance below ``radius`` lies in the ball, so the edge count is half
    of those vertices' degree sum plus the in-ball neighbours of the
    sphere.  ``BALL_CHUNK`` centres share a pass, which ends when no ball
    grows.  One dense array over keys ``slot * n + u`` marks u as in the
    slot-th centre's ball with the pass's tag.  A level writes each new
    key's candidates' negative ids there and keeps the one id that stays.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    n, indptr, indices = g.n, g.indptr, g.indices
    out = np.empty(n, dtype=np.int64)
    seen = np.zeros(min(BALL_CHUNK, n) * n, dtype=np.int32)

    def expand(slot, u):  # the (slot, neighbour) pair of every half-edge out of u
        deg = indptr[u + 1] - indptr[u]
        return np.repeat(slot, deg), indices[csr_slots(indptr[u], deg)]

    for tag, c in enumerate(range(0, n, BALL_CHUNK), 1):
        slot = np.arange(min(BALL_CHUNK, n - c))
        b, u = slot.size, slot + c
        seen[slot * n + u] = tag
        size = np.ones(b, dtype=np.int64)
        half_edges = np.zeros(b, dtype=np.int64)
        for _ in range(radius):
            if not u.size:
                break
            s, w = expand(slot, u)
            half_edges += np.bincount(s, minlength=b)
            key = s * n + w
            key = key[seen[key] != tag]
            owner = -1 - np.arange(key.size, dtype=np.int32)
            seen[key] = owner
            key = key[seen[key] == owner]
            seen[key] = tag
            slot, u = np.divmod(key, n)
            size += np.bincount(slot, minlength=b)
        s, w = expand(slot, u)
        half_edges += np.bincount(s[seen[s * n + w] == tag], minlength=b)
        out[c:c + b] = half_edges // 2 - size + 1
    return out


def tree_path_density(tree: RootedTree, max_depth: int | None = None) -> int:
    """Largest degree sum on a root-to-descendant path of a rooted tree.

    With ``max_depth`` set, only nodes at depth <= max_depth contribute and
    degrees are recomputed inside that truncation (children below the cut
    do not count).  The kept nodes are a prefix of the level order, and the
    path sums accumulate one level at a time.
    """
    top = tree.height if max_depth is None else min(max_depth, tree.height)
    first = np.searchsorted(tree.depth, np.arange(top + 2))
    deg = tree.degrees()[:first[-1]]
    if top == max_depth:  # the cut's sphere keeps only its parent links
        deg[first[top]:] = 1 if top else 0
    for a, b in zip(first[1:-1], first[2:]):
        deg[a:b] += deg[tree.parent[a:b]]
    return int(deg.max())


# ---------------------------------------------------------------------------
# generators


def star_graph(leaves: int, beta: float = 1.0) -> WeightedGraph:
    """Hub vertex 0 joined to ``leaves`` leaf vertices."""
    if leaves < 1:
        raise ValueError("need at least one leaf")
    return graph_from_edges(leaves + 1, [(0, j, beta) for j in range(1, leaves + 1)])


def path_graph(n: int, beta: float = 1.0) -> WeightedGraph:
    if n < 1:
        raise ValueError("n must be >= 1")
    return graph_from_edges(n, [(i, i + 1, beta) for i in range(n - 1)])


def cycle_graph(n: int, beta: float = 1.0) -> WeightedGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1, beta) for i in range(n - 1)] + [(0, n - 1, beta)]
    return graph_from_edges(n, edges)


def generate_erdos_renyi(n: int, d: float, seed: int, beta: float = 1.0) -> WeightedGraph:
    """Sparse random graph on n vertices with edge probability d/n.

    The edge count is drawn Binomial(n*(n-1)/2, d/n), then that many
    distinct pairs are placed uniformly (by rejection; the complement is
    sampled instead when more than half of all pairs are present).  The
    law matches independent d/n edges and the construction is a
    deterministic function of the seed.  Every edge gets coupling ``beta``
    and every vertex field 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= d <= n:
        raise ValueError(f"d must lie in [0, n], got {d}")
    if not 0.0 <= beta < np.inf:
        raise ValueError("beta must be finite and >= 0")
    rng = substream(seed, "erdos-renyi-graph")
    npairs = n * (n - 1) // 2
    m = int(rng.binomial(npairs, d / n)) if npairs else 0

    def draw_keys(count: int) -> np.ndarray:
        """``count`` distinct pair keys min * n + max: the first drawn, ascending."""
        chosen = np.empty(0, dtype=np.int64)
        while chosen.size < count:
            k = max(64, 2 * (count - chosen.size))
            a, b = rng.integers(0, n, size=k), rng.integers(0, n, size=k)
            pool = np.concatenate([chosen, (np.minimum(a, b) * n + np.maximum(a, b))[a != b]])
            order = pool.argsort(kind="stable")  # equal keys stay in the order drawn
            again = np.zeros(pool.size, dtype=bool)
            again[order[1:]] = pool[order[1:]] == pool[order[:-1]]
            fresh = pool[chosen.size:][~again[chosen.size:]]
            chosen = np.concatenate([chosen, fresh[:count - chosen.size]])
        return chosen[chosen.argsort(kind="stable")]

    if m <= npairs // 2:
        keys = draw_keys(m)
    else:  # every pair but the drawn ones, ascending
        keep = np.triu(np.ones((n, n), dtype=bool), 1)
        keep.flat[draw_keys(npairs - m)] = False
        keys = np.flatnonzero(keep)
    u, v = np.divmod(keys, n)
    return _graph_from_arrays(n, u, v, np.full(keys.size, beta, dtype=np.float64))


def galton_watson_trees(d: float, depth: int, seeds) -> Iterator[RootedTree]:
    """``generate_galton_watson(d, depth, seed)`` for each seed, in seed order.

    A chunk of seeds grows a level pass at a time, each tree drawing from
    its own substream; chunks hold about ``GW_CHUNK_NODES`` nodes.  A tree
    past ``DEFAULT_VISIT_BUDGET`` nodes raises BudgetError once every tree
    before it is yielded.
    """
    if not 0.0 < d <= POISSON_MEAN_CAP:
        raise ValueError(f"offspring mean must lie in (0, {POISSON_MEAN_CAP}], got {d}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seeds, width = iter(seeds), 1
    while rngs := [substream(s, "galton-watson-tree") for s in itertools.islice(seeds, width)]:
        t = len(rngs)
        tids, parents = [np.arange(t)], [np.full(t, -1)]  # each level's trees and parents
        wide, size, bad = [1] * t, [1] * t, t  # per tree: level width, size; first tree past budget
        for _ in range(depth):  # nodes are numbered across the chunk in the order they are made
            draws = [rngs[i].random(w) for i, w in enumerate(wide) if w]
            if not draws:
                break
            kids = poisson_by_inversion(np.concatenate(draws), d)
            made = sum(map(len, tids))
            tids.append(np.repeat(tids[-1], kids))
            parents.append(np.repeat(np.arange(made - kids.size, made), kids))
            wide = np.bincount(tids[-1], minlength=t).tolist()
            size = [a + b for a, b in zip(size, wide)]
            if made + tids[-1].size > DEFAULT_VISIT_BUDGET:  # a tree may be past the budget:
                bad = next((i for i in range(bad)  # grow neither the first such nor any after it
                            if wide[i] and size[i] > DEFAULT_VISIT_BUDGET), bad)
                cut = int(np.searchsorted(tids[-1], bad))
                tids[-1], parents[-1], wide = tids[-1][:cut], parents[-1][:cut], wide[:bad]
        order, parent, first = split_forest(np.concatenate(tids), np.concatenate(parents))
        depths = np.repeat(np.arange(len(tids)), list(map(len, tids)))[order]
        for i, (a, b) in enumerate(zip(first[:-1].tolist(), first[1:].tolist())):
            if i == bad:
                raise BudgetError(f"tree exceeded {DEFAULT_VISIT_BUDGET} nodes")
            yield make_rooted_tree(parent[a:b], depths[a:b])
        width = max(1, min(2 * width, width * GW_CHUNK_NODES // order.size))


def generate_galton_watson(d: float, depth: int, seed: int) -> RootedTree:
    """Branching tree with Poisson(d) offspring, truncated below ``depth``.

    Offspring counts are drawn by one-uniform inversion per node in
    breadth-first order, so the tree is a deterministic function of the
    seed.  Nodes at the truncation depth get no children.
    """
    return next(galton_watson_trees(d, depth, [seed]))


# ---------------------------------------------------------------------------
# file format


def _opened(path_or_file, mode: str):
    """``open(path_or_file, mode)`` for a path; a caller's open file as is, left open."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, mode)
    return contextlib.nullcontext(path_or_file)


def write_graph(g: WeightedGraph, path_or_file, comment: str | None = None) -> None:
    """Serialize a graph to the plain-text exchange format.

    Layout: optional '#' comment lines, a header line "n m", then m edge
    lines "u v coupling" with u < v in lexicographic order, then n field
    lines "v h".  Clamps are runtime state and are not stored.
    """
    with _opened(path_or_file, "w") as f:
        if comment:
            for line in comment.splitlines():
                f.write(f"# {line}\n")
        edges, wts = g.edges()
        f.write(f"{g.n} {g.num_edges}\n")
        for (u, v), w in zip(edges, wts):
            f.write(f"{u} {v} {float(w)!r}\n")
        for v in range(g.n):
            f.write(f"{v} {float(g.h[v])!r}\n")


def read_graph(path_or_file) -> WeightedGraph:
    """Parse the plain-text graph format written by :func:`write_graph`."""
    with _opened(path_or_file, "r") as f:
        tokens = []
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line.split())
    if not tokens:
        raise ValueError("empty graph file")
    if len(tokens[0]) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(tokens[0][0]), int(tokens[0][1])
    if n < 1 or m < 0:
        raise ValueError(f"header needs n >= 1 and m >= 0, got n={n} m={m}")
    if len(tokens) != 1 + m + n:
        raise ValueError(
            f"expected {1 + m + n} data lines for n={n} m={m}, got {len(tokens)}"
        )
    edges = []
    for row in tokens[1:1 + m]:
        if len(row) != 3:
            raise ValueError(f"bad edge line: {' '.join(row)}")
        edges.append((int(row[0]), int(row[1]), float(row[2])))
    h = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for row in tokens[1 + m:]:
        if len(row) != 2:
            raise ValueError(f"bad field line: {' '.join(row)}")
        v = int(row[0])
        if not 0 <= v < n or seen[v]:
            raise ValueError(f"bad or repeated field vertex {v}")
        seen[v] = True
        h[v] = float(row[1])
    return graph_from_edges(n, edges, h=h)
