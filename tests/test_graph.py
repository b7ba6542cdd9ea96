import dataclasses
import hashlib
import io
import itertools
from collections import Counter

import numpy as np
import pytest

from isinglab import graph
from isinglab.errors import BudgetError
from isinglab.graph import (
    BALL_CHUNK,
    DEFAULT_VISIT_BUDGET,
    Ball,
    ball,
    ball_excesses,
    cycle_graph,
    galton_watson_trees,
    generate_erdos_renyi,
    generate_galton_watson,
    graph_from_edges,
    make_rooted_tree,
    path_graph,
    read_graph,
    star_graph,
    tree_as_graph,
    tree_excess,
    tree_path_density,
    write_graph,
)
from isinglab.rng import substream
from isinglab.sawtree import build_saw_trees
from isinglab.verify import enumerate_tree_shapes
from test_rng import poisson_sequential


def test_graph_from_edges_validation():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1, -0.2)])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(0, 1, 1.0)], h=[0.0, bad, 0.0])
        with pytest.raises(ValueError):
            path_graph(3).with_vertex_data(h=[bad, 0.0, 0.0])


def test_csr_rows_sorted_and_symmetric():
    g = graph_from_edges(5, [(3, 4, 1.0), (0, 4, 2.0), (1, 3, 0.5), (0, 1, 0.25)])
    for v in range(g.n):
        row = g.indices[g.indptr[v]:g.indptr[v + 1]]
        assert np.all(np.diff(row) > 0)
    # half-edge weights agree in both directions
    w = {}
    for v in range(g.n):
        for j in range(g.indptr[v], g.indptr[v + 1]):
            w[(v, int(g.indices[j]))] = g.weights[j]
    for (u, v), weight in w.items():
        assert w[(v, u)] == weight


def _text(g):
    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()


def test_file_round_trip(tmp_path):
    rng = substream(5, "graph-test")
    g = generate_erdos_renyi(30, 2.0, seed=4, beta=0.8)
    g = g.with_vertex_data(h=rng.uniform(-2, 2, size=g.n))
    path = tmp_path / "g.graph"
    write_graph(g, str(path), comment="round trip\nsecond line")
    back = read_graph(str(path))
    assert back.n == g.n
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)
    assert np.array_equal(back.weights, g.weights)
    assert np.array_equal(back.h, g.h)
    # second serialization is byte-identical
    assert _text(back) == _text(g)
    # a caller's open buffer gets the same text and stays open both ways
    buf = io.StringIO()
    write_graph(g, buf, comment="round trip\nsecond line")
    assert not buf.closed and buf.getvalue() == path.read_text()
    buf.seek(0)
    assert _text(read_graph(buf)) == _text(g)
    assert not buf.closed


def test_text_round_trip_exact_floats():
    g = graph_from_edges(2, [(0, 1, 1 / 3)], h=[np.pi, -np.e])
    back = read_graph(io.StringIO(_text(g)))
    assert back.weights[0] == g.weights[0]
    assert np.array_equal(back.h, g.h)


def test_read_graph_rejects_garbage():
    with pytest.raises(ValueError):
        read_graph(io.StringIO("not a header\n"))
    with pytest.raises(ValueError):
        read_graph(io.StringIO("2 1\n0 1 1.0\n0 0.0\n"))  # missing a field line
    with pytest.raises(ValueError):
        read_graph(io.StringIO("2 1\n0 1 1.0\n0 0.0\n1 nan\n"))
    with pytest.raises(ValueError):
        read_graph(io.StringIO("3 -2\n0 0.5\n"))  # 1 + m + n lines, but m < 0


def test_small_topologies():
    s = star_graph(4, 0.5)
    assert s.n == 5 and s.num_edges == 4
    assert np.diff(s.indptr)[0] == 4
    p = path_graph(6)
    assert p.num_edges == 5
    c = cycle_graph(6)
    assert c.num_edges == 6
    assert np.diff(c.indptr).tolist() == [2] * 6


def test_er_graph_reproducible_and_sane():
    a = generate_erdos_renyi(500, 2.0, seed=9)
    b = generate_erdos_renyi(500, 2.0, seed=9)
    assert np.array_equal(a.indices, b.indices)
    assert a.num_edges != generate_erdos_renyi(500, 2.0, seed=10).num_edges
    # mean degree concentrates near d
    mean_deg = 2 * a.num_edges / a.n
    assert 1.6 < mean_deg < 2.4


# sha256 of (indptr, indices, weights) bytes; (30, 20.0) places the
# complement of its edge set, the others place edges by rejection
ER_DIGESTS = [
    ((1, 0.0, 0, 1.0), "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"),
    ((30, 20.0, 3, 1.0), "4fbac9dec2c6ac0823dec23074a161f63d7be9d0434b8ae00371bfe281687ab0"),
    ((200, 2.0, 1, 0.3), "54cf0549edecb96728ba237b710abd29bd119e0d69c4ff3eff926d7c32d4cc7f"),
    ((2000, 2.0, 7, 1.0), "d685537f2f610a7853e1ff59a86a8a05b0132deb79a0caa8e27cc10adb1f4e6e"),
    ((5000, 3.0, 11, 0.05), "6a6250c49ddb4f736703009681698006c399c510aad9234162609ee3b3d4a199"),
]


def test_er_graphs_pinned():
    for (n, d, seed, beta), digest in ER_DIGESTS:
        g = generate_erdos_renyi(n, d, seed, beta=beta)
        data = g.indptr.tobytes() + g.indices.tobytes() + g.weights.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, (n, d, seed, beta)


def erdos_renyi_by_sets(n: int, d: float, seed: int, beta: float = 1.0):
    """generate_erdos_renyi as a set of pair tuples and a list of triples gave it."""
    rng = substream(seed, "erdos-renyi-graph")
    npairs = n * (n - 1) // 2
    m = int(rng.binomial(npairs, d / n)) if npairs else 0

    def draw_pairs(count):
        chosen = set()
        while len(chosen) < count:
            k = max(64, 2 * (count - len(chosen)))
            a = rng.integers(0, n, size=k).tolist()
            b = rng.integers(0, n, size=k).tolist()
            for u, v in zip(a, b):
                if u == v:
                    continue
                chosen.add((u, v) if u < v else (v, u))
                if len(chosen) == count:
                    break
        return chosen

    if m <= npairs // 2:
        pairs = sorted(draw_pairs(m))
    else:
        excluded = draw_pairs(npairs - m)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in excluded]
    return graph_from_edges(n, [(u, v, beta) for u, v in pairs])


def test_er_arrays_match_the_set_oracle():
    # (12, 9.0) and (30, 20.0) place the complement of the drawn pairs;
    # n = 1 and d = 0 draw none
    cases = [(1, 0.0), (1, 1.0), (2, 2.0), (40, 0.0), (12, 9.0), (30, 20.0), (9, 9.0),
             (200, 1.0), (500, 30.0), (3000, 2.0)]
    for (n, d), seed in itertools.product(cases, range(4)):
        got = generate_erdos_renyi(n, d, seed, beta=0.3 + seed)
        want = erdos_renyi_by_sets(n, d, seed, beta=0.3 + seed)
        for name in ("indptr", "indices", "weights", "h", "clamp"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, d, seed, name)
            assert not a.flags.writeable
    with pytest.raises(ValueError):
        generate_erdos_renyi(10, 2.0, 1, beta=float("inf"))


def test_duplicate_edges_rejected_in_either_orientation():
    for dup in [(2, 4, 0.5), (4, 2, 0.5), (4, 2, 3.0)]:
        for edges in ([(2, 4, 0.5), (0, 1, 1.0), dup], [dup, (0, 1, 1.0), (2, 4, 0.5)]):
            with pytest.raises(ValueError, match="duplicate edge"):
                graph_from_edges(5, edges)
    for bad in ([(0, 1)], [(0, 1, 1.0), (1, 2, 1.0, 7)]):  # not all triples
        with pytest.raises(ValueError):
            graph_from_edges(3, bad)


def test_gw_tree_offspring_mean():
    sizes = []
    for k in range(300):
        t = generate_galton_watson(2.0, 3, seed=k)
        sizes.append(t.size)
    # E[size] = 1 + 2 + 4 + 8 = 15 at d=2, depth 3
    assert abs(np.mean(sizes) - 15.0) < 1.5


def galton_watson_by_nodes(d: float, depth: int, seed: int):
    """generate_galton_watson as one scalar inversion per node gave it."""
    rng = substream(seed, "galton-watson-tree")
    parent, depths, level = [-1], [0], [0]
    for r in range(depth):
        if not level:
            break
        us = rng.random(len(level))
        nxt = []
        for node, u in zip(level, us):
            for _ in range(poisson_sequential(float(u), d)):
                if len(parent) >= graph.DEFAULT_VISIT_BUDGET:
                    raise BudgetError(f"tree exceeded {graph.DEFAULT_VISIT_BUDGET} nodes")
                nxt.append(len(parent))
                parent.append(node)
                depths.append(r + 1)
        level = nxt
    return make_rooted_tree(np.array(parent), np.array(depths))


def _same_tree(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.parent, b.parent), (a.depth, b.depth), (a.label, b.label)))


def test_gw_level_passes_match_the_node_oracle():
    extinct = 0
    for d, depths in ((0.5, range(9)), (2.0, range(9)), (30.0, range(4))):
        for depth in depths:
            seeds = range(100 * depth, 100 * depth + (12 if d < 30 else 3))
            for seed, tree in zip(seeds, galton_watson_trees(d, depth, seeds), strict=True):
                want = galton_watson_by_nodes(d, depth, seed)
                assert _same_tree(tree, want), (d, depth, seed)
                assert _same_tree(generate_galton_watson(d, depth, seed), want)
                extinct += tree.height < depth
    assert extinct > 0


def test_gw_batches_match_one_seed_calls_across_chunk_splits(monkeypatch):
    seeds = [5, 3, 3, 70, 1, 2**40] + list(range(200, 240))
    want = [generate_galton_watson(1.5, 7, s) for s in seeds]
    for cap in (1, 7, 60, 1 << 14):  # chunks of one seed up to all of them
        monkeypatch.setattr(graph, "GW_CHUNK_NODES", cap)
        got = list(galton_watson_trees(1.5, 7, iter(seeds)))
        assert len(got) == len(want) and all(map(_same_tree, got, want)), cap
    assert list(galton_watson_trees(1.5, 7, [])) == []
    for d, depth in ((0.0, 3), (31.0, 3), (2.0, -1)):
        with pytest.raises(ValueError):
            next(galton_watson_trees(d, depth, [1]))


def test_gw_budget_error_at_the_node_oracle_point(monkeypatch):
    # trees past the budget raise where one node at a time would; a batch
    # yields every tree before the first such seed, then raises
    monkeypatch.setattr(graph, "DEFAULT_VISIT_BUDGET", 40)
    seeds = range(60)
    fits = []
    for seed in seeds:
        try:
            galton_watson_by_nodes(2.0, 5, seed)
        except BudgetError:
            fits.append(False)
            with pytest.raises(BudgetError, match="exceeded 40 nodes"):
                generate_galton_watson(2.0, 5, seed)
        else:
            fits.append(True)
            assert _same_tree(generate_galton_watson(2.0, 5, seed),
                              galton_watson_by_nodes(2.0, 5, seed))
    assert 0 < fits.index(False) and fits.count(False) > 1
    for cap in (1, 100, 1 << 14):
        monkeypatch.setattr(graph, "GW_CHUNK_NODES", cap)
        got = []
        with pytest.raises(BudgetError):
            got.extend(galton_watson_trees(2.0, 5, seeds))
        assert len(got) == fits.index(False), cap
    monkeypatch.setattr(graph, "DEFAULT_VISIT_BUDGET", 2000)  # d = 30 fits to depth 2
    for depth, seed in itertools.product(range(1, 9), range(3)):
        try:
            want = galton_watson_by_nodes(30.0, depth, seed)
        except BudgetError:
            assert depth > 2
            with pytest.raises(BudgetError):
                generate_galton_watson(30.0, depth, seed)
        else:
            assert depth <= 2 and _same_tree(generate_galton_watson(30.0, depth, seed), want)
    monkeypatch.setattr(graph, "DEFAULT_VISIT_BUDGET", 1)  # a root alone fits any budget
    assert generate_galton_watson(2.0, 0, 3).size == 1


def test_ball_contents():
    g = path_graph(7)
    b = ball(g, 3, 2)
    assert sorted(b.vertices.tolist()) == [1, 2, 3, 4, 5]
    assert b.vertices[0] == 3 and b.dist[0] == 0
    assert sorted(b.vertices[b.dist == 2].tolist()) == [1, 5]
    assert b.subgraph.num_edges == 4  # induced path 1-2-3-4-5


def test_ball_induced_includes_chords():
    # square with a diagonal: radius-1 ball at 0 sees the induced triangle
    g = graph_from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (1, 3, 1)])
    b = ball(g, 0, 1)
    assert sorted(b.vertices.tolist()) == [0, 1, 3]
    assert b.subgraph.num_edges == 3
    assert tree_excess(b.subgraph) == 1


def test_adjacency_cached_and_equal_to_arrays():
    g = generate_erdos_renyi(40, 2.5, seed=6, beta=0.3)
    adjacency = g.adjacency
    assert len(adjacency) == g.n
    for v, row in enumerate(adjacency):
        lo, hi = g.indptr[v], g.indptr[v + 1]
        assert row == tuple(zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist()))
    assert g.adjacency is adjacency
    assert g.with_vertex_data(h=np.ones(g.n)).adjacency == adjacency
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.indptr = g.indptr


def test_reverse_half_edges_on_edgeless_graphs_and_a_cycle():
    for g in (graph_from_edges(1, []), graph_from_edges(3, [])):
        assert g.reverse.dtype == np.int64 and g.reverse.size == 0
    g = cycle_graph(4, 0.5)  # rows 0: 1 3, 1: 0 2, 2: 1 3, 3: 0 2
    assert g.reverse.tolist() == [2, 6, 0, 4, 3, 7, 1, 5]


def test_ball_excesses_match_ball_subgraphs():
    # isolated vertices at both ends of a chunk of centres, and a graph
    # whose last chunk holds a single centre
    n = 2 * BALL_CHUNK + 1
    lonely = [0, BALL_CHUNK - 1, BALL_CHUNK, 2 * BALL_CHUNK - 1, n - 1]
    rest = sorted(set(range(n)) - set(lonely))  # a path with chords 5 apart, every 7
    edges = [(a, b, 1.0) for a, b in zip(rest, rest[1:])]
    edges += [(rest[i], rest[i + 5], 1.0) for i in range(0, len(rest) - 5, 7)]
    chunked = graph_from_edges(n, edges)
    assert np.all(np.diff(chunked.indptr)[lonely] == 0)
    graphs = [
        path_graph(1), path_graph(5), path_graph(9), cycle_graph(3),
        cycle_graph(7), star_graph(1), star_graph(6), chunked,
        generate_erdos_renyi(200, 1.0, seed=1),  # many isolated vertices
        generate_erdos_renyi(150, 3.0, seed=2),
        generate_erdos_renyi(60, 6.0, seed=3),
    ]
    assert any(np.any(np.diff(g.indptr) == 0) for g in graphs)
    assert any(g.n > BALL_CHUNK for g in graphs)
    for g in graphs:
        for r in range(6):  # reaches past the diameter of the small graphs
            got = ball_excesses(g, r)
            assert got.dtype == np.int64 and got.shape == (g.n,)
            want = [tree_excess(ball(g, v, r).subgraph) for v in range(g.n)]
            assert got.tolist() == want
        # far past every diameter here, each ball is its vertex's component
        whole = {}
        for v in range(g.n):
            if v not in whole:
                b = ball(g, v, g.n)
                whole.update(dict.fromkeys(b.vertices.tolist(), tree_excess(b.subgraph)))
        assert ball_excesses(g, 10**12).tolist() == [whole[v] for v in range(g.n)]
    # the radius-3 ball of a 7-cycle closes it through the edge between
    # its two sphere vertices
    assert ball_excesses(cycle_graph(7), 2).tolist() == [0] * 7
    assert ball_excesses(cycle_graph(7), 3).tolist() == [1] * 7
    with pytest.raises(ValueError):
        ball_excesses(path_graph(4), -1)


def path_density(b: Ball, l: int | None = None, budget: int = DEFAULT_VISIT_BUDGET) -> int:
    """Largest degree sum along a self-avoiding path from the ball's center.

    Paths start at the center, stay inside the ball, and use at most ``l``
    edges (default: the ball radius).  Degrees are taken inside the ball.
    Exhaustive depth-first search; raises BudgetError past ``budget`` path
    extensions.  On a tree ball it is the reference for
    ``tree_path_density``.
    """
    if l is None:
        l = b.radius
    if l < 0:
        raise ValueError("path length bound must be >= 0")
    sub = b.subgraph
    deg = np.diff(sub.indptr)
    visited = np.zeros(sub.n, dtype=bool)
    visited[0] = True
    best = total = int(deg[0])
    visits = 0
    # stack of (vertex, iterator position into its neighbor slice)
    stack = [(0, int(sub.indptr[0]))]
    while stack:
        u, ptr = stack[-1]
        end = int(sub.indptr[u + 1])
        advanced = False
        while ptr < end:
            w = int(sub.indices[ptr])
            ptr += 1
            if not visited[w] and len(stack) <= l:
                stack[-1] = (u, ptr)
                visited[w] = True
                total += int(deg[w])
                if total > best:
                    best = total
                visits += 1
                if visits > budget:
                    raise BudgetError(
                        f"path enumeration exceeded {budget} extensions"
                    )
                stack.append((w, int(sub.indptr[w])))
                advanced = True
                break
        if not advanced:
            visited[u] = False
            total -= int(deg[u])
            stack.pop()
    return best


def test_path_density_matches_tree_density_on_trees():
    for k in range(20):
        t = generate_galton_watson(2.0, 4, seed=40 + k)
        if t.size < 2:
            continue
        b = ball(tree_as_graph(t), 0, t.height)
        assert tree_excess(b.subgraph) == 0
        assert path_density(b) == tree_path_density(t)


def test_path_density_budget():
    g = generate_erdos_renyi(200, 3.0, seed=2)
    b = ball(g, 0, 4)
    with pytest.raises(BudgetError):
        path_density(b, budget=10)


def node_path_density(tree, max_depth: int | None = None) -> int:
    """tree_path_density one node at a time: the reference for its level-wise sums."""
    deg = tree.degrees()
    if max_depth is not None:
        kept = tree.depth <= max_depth
        boundary = tree.depth == max_depth
        deg[boundary] = np.where(tree.parent[boundary] >= 0, 1, 0)
    else:
        kept = np.ones(tree.size, dtype=bool)
    acc = np.zeros(tree.size, dtype=np.int64)
    acc[0] = deg[0]
    best = int(acc[0]) if kept[0] else 0
    for i in range(1, tree.size):
        if not kept[i]:
            continue
        acc[i] = acc[tree.parent[i]] + deg[i]
        if acc[i] > best:
            best = int(acc[i])
    return best


def _gw_and_walk_trees():
    for k in range(60):
        yield generate_galton_watson(1.0 + 0.05 * k, 2 + k % 6, seed=300 + k)
    for seed in (1, 2):
        g = generate_erdos_renyi(40, 2.5, seed=seed)
        yield from (st.tree for st in build_saw_trees(g, range(g.n), 5))


def test_tree_path_density_matches_node_loop():
    for tree in _gw_and_walk_trees():
        for cut in [None, *range(tree.height + 2)]:
            assert tree_path_density(tree, cut) == node_path_density(tree, cut), (tree, cut)


def test_make_rooted_tree_rejects_all_but_level_order():
    bad_root = ([], [0], [0, 0], [-1, -1])
    late_parent = ([-1, 1], [-1, 0, 2], [-1, 0, 0, 3])
    negative = ([-1, 0, -1], [-1, 0, -2, 1])
    not_level_order = ([-1, 0, 1, 0], [-1, 0, 0, 1, 0, 2])
    for parent in bad_root + late_parent + negative + not_level_order:
        with pytest.raises(ValueError):
            make_rooted_tree(parent)


def _assert_level_order(tree):
    make_rooted_tree(tree.parent)  # raises unless in level order
    assert np.all(np.diff(tree.parent[1:]) >= 0)
    assert tree.depth[0] == 0 and np.all(tree.depth[1:] == tree.depth[tree.parent[1:]] + 1)


def test_every_tree_builder_grows_level_order():
    for tree in _gw_and_walk_trees():  # Galton-Watson and walk trees
        _assert_level_order(tree)
    for length in range(1, 13):  # the path-decay paths
        _assert_level_order(make_rooted_tree(np.arange(-1, length)))
    for parent in enumerate_tree_shapes(8):
        _assert_level_order(make_rooted_tree(parent))


def all_order_tree_shapes(max_n: int) -> tuple[tuple[int, ...], ...]:
    """Free tree shapes first met over every parent[i] < i sequence, in lexicographic order.

    The reference for enumerate_tree_shapes, which runs over the level-ordered
    sequences only.  A shape's key is its least rooted form over all roots.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    for n in range(1, max_n + 1):
        for tail in itertools.product(*(range(i) for i in range(1, n))):
            adj: list[list[int]] = [[] for _ in range(n)]
            for c, p in enumerate(tail, 1):
                adj[p].append(c)
                adj[c].append(p)

            def rooted(u: int, up: int) -> str:
                return "(" + "".join(sorted(rooted(w, u) for w in adj[u] if w != up)) + ")"

            shapes.setdefault(min(rooted(r, -1) for r in range(n)), (-1, *tail))
    return tuple(shapes.values())


def test_enumerate_tree_shapes_counts_and_order():
    counts = Counter(len(parent) for parent in enumerate_tree_shapes(9))
    assert [counts[n] for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]  # OEIS A000055
    assert enumerate_tree_shapes(8) == all_order_tree_shapes(8)


def test_tree_path_density_star_vs_path():
    # hub-heavy tree: the hub degree dominates any path through it
    star = make_rooted_tree([-1, 0, 0, 0, 0])
    assert tree_path_density(star) == 4 + 1
    chain = make_rooted_tree([-1, 0, 1, 2])
    assert tree_path_density(chain) == 1 + 2 + 2 + 1


def test_sphere_growth_bound_on_paths():
    # on a path every sphere has <= 2 vertices and density is small
    g = path_graph(30)
    for r in (1, 3, 5):
        b = ball(g, 15, r)
        assert np.count_nonzero(b.dist == r) <= 2
