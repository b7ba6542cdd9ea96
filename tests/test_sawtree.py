import hashlib

import numpy as np
import pytest

from isinglab.errors import BudgetError, ConditioningError
from isinglab.graph import cycle_graph, generate_erdos_renyi, graph_from_edges, path_graph
from isinglab.model import exact_conditional_marginal, make_model
from isinglab.rng import substream
from isinglab.sawtree import (
    build_saw_tree,
    saw_marginal_bracket,
    saw_marginal_from_tree,
    saw_brackets_at_radii,
    saw_tree_size,
)
from isinglab.verify import random_connected_model


def saw_marginal(m, v, depth_limit, cond=None):
    """P(s_v = + | cond) through a walk tree built fresh on every call.

    The dict-conditioning reference: exact once ``depth_limit`` reaches the
    number of vertices, as every self-avoiding walk has ended by then.
    """
    return saw_marginal_from_tree(build_saw_tree(m.graph, v, depth_limit), m, cond=cond)


def boundary(st, depth_limit):
    """Free truncation surface of a walk tree built to ``depth_limit``.

    Its nodes at that depth that close no cycle, as int64 indices.
    """
    return np.flatnonzero((st.tree.depth == depth_limit) & (st.clamp == 0))


def saw_tree_dump(st, depth_limit):
    """Indented one-node-per-line rendering for golden-file comparisons.

    Nodes are rendered depth first from the root, each node's children in
    index order, whatever order the tree stores them in.
    """
    lines = []
    marks = {0: "", 1: " pin:+", -1: " pin:-"}
    on_boundary = np.zeros(st.size, dtype=bool)
    on_boundary[boundary(st, depth_limit)] = True
    children = [[] for _ in range(st.size)]
    for i in range(1, st.size):
        children[int(st.tree.parent[i])].append(i)

    def render(i):
        tag = " boundary" if on_boundary[i] else marks[int(st.clamp[i])]
        lines.append(f"{'  ' * int(st.tree.depth[i])}v{int(st.tree.label[i])}{tag}")
        for c in children[i]:
            render(c)

    render(0)
    return "\n".join(lines) + "\n"


TRIANGLE_DUMP = """\
v0
  v1
    v2
      v0 pin:+
  v2
    v1
      v0 pin:-
"""


def test_triangle_walk_tree_golden():
    # both orientations of the cycle appear; the closure pin depends on
    # whether the walk closes onto the higher or lower endpoint
    st = build_saw_tree(cycle_graph(3, 0.5), 0, 10)
    assert saw_tree_dump(st, 10) == TRIANGLE_DUMP


def test_tree_graph_walk_tree_is_the_tree():
    g = path_graph(5, 0.7)
    st = build_saw_tree(g, 2, 10)
    assert st.size == 5
    assert np.count_nonzero(st.clamp) == 0


def test_walk_tree_size_matches_build():
    g = cycle_graph(6, 0.4)
    for L in (1, 2, 4, 8):
        st = build_saw_tree(g, 0, L)
        assert saw_tree_size(g, 0, L) == st.size


# sha256 over every array of build_saw_tree on ER n=60, d=3, beta=0.37,
# seeds 0-4, roots 0, 7, ..., 56 and L in {0, 1, 3, 6}.  Recorded from the
# builder that numbered nodes in depth-first preorder, with each of its
# trees relabelled into level order: a stable sort by depth, with parents
# and boundary remapped through the inverse permutation
LAYOUT_SHA256 = "66629079a282491d3d9b3480cc7a55d08c035d4865b0237c4c2fd7e7c3643152"


def test_walk_tree_layout_pinned():
    h = hashlib.sha256()
    for seed in range(5):
        g = generate_erdos_renyi(60, 3.0, seed, beta=0.37)
        for root in range(0, 60, 7):
            for L in (0, 1, 3, 6):
                st = build_saw_tree(g, root, L)
                for a in (st.tree.parent, st.tree.depth, st.tree.label):
                    h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
                h.update(np.ascontiguousarray(st.edge_beta, dtype=np.float64).tobytes())
                h.update(np.ascontiguousarray(st.clamp, dtype=np.int8).tobytes())
                h.update(np.ascontiguousarray(boundary(st, L), dtype=np.int64).tobytes())
                assert saw_tree_size(g, root, L) == st.size
    assert h.hexdigest() == LAYOUT_SHA256


def test_numpy_integer_root_gives_same_tree():
    g = generate_erdos_renyi(60, 3.0, 2, beta=0.37)
    a = build_saw_tree(g, 14, 4)
    b = build_saw_tree(g, np.int64(14), 4)
    assert saw_tree_dump(a, 4) == saw_tree_dump(b, 4)
    assert np.array_equal(a.tree.parent, b.tree.parent)
    assert np.array_equal(a.edge_beta, b.edge_beta)
    assert b.tree.label.dtype == np.int64 and int(b.tree.label[0]) == 14
    assert saw_tree_size(g, np.int32(14), 4) == a.size


def test_depth_limit_creates_boundary():
    g = cycle_graph(8, 0.4)
    st = build_saw_tree(g, 0, 3)
    assert boundary(st, 3).size > 0
    assert not np.isin(boundary(st, 3), st.tree.parent).any()  # truncated: no children
    full = build_saw_tree(g, 0, 8 + 1)
    assert boundary(full, 8 + 1).size == 0


def test_marginal_equals_enumeration_on_loopy_graphs():
    rng = substream(61, "sawtree-test")
    for trial in range(40):
        m = random_connected_model(rng, min_n=2, max_n=7)
        v = int(rng.integers(m.n))
        got = saw_marginal(m, v, m.n + 1)
        want = exact_conditional_marginal(m, v)
        assert got == pytest.approx(want, abs=1e-10)


def test_marginal_with_conditioning():
    rng = substream(62, "sawtree-cond")
    for trial in range(25):
        m = random_connected_model(rng, min_n=3, max_n=7)
        free = m.graph.free_vertices()
        picks = rng.choice(free, size=min(3, free.size), replace=False)
        v = int(picks[0])
        cond = {int(u): int(rng.choice([-1, 1])) for u in picks[1:]}
        got = saw_marginal(m, v, m.n + 1, cond=cond)
        want = exact_conditional_marginal(m, v, cond)
        assert got == pytest.approx(want, abs=1e-10)


def test_conditioning_root_is_an_error():
    m = make_model(cycle_graph(4, 0.5))
    with pytest.raises(ConditioningError):
        saw_marginal(m, 0, 6, cond={0: 1})


def test_bracket_encloses_truth_and_tightens():
    m = make_model(cycle_graph(9, 0.5))
    truth = exact_conditional_marginal(m, 0)
    widths = []
    for L in (2, 4, 6, 10):
        lo, hi = saw_marginal_bracket(m, 0, L)
        assert lo - 1e-12 <= truth <= hi + 1e-12
        widths.append(hi - lo)
    assert widths[-1] == pytest.approx(0.0, abs=1e-12)
    assert all(widths[i + 1] <= widths[i] + 1e-12 for i in range(len(widths) - 1))


def test_node_budget_enforced():
    # dense-ish graph: the walk tree explodes, the budget must trip
    rng = substream(63, "sawtree-budget")
    edges = []
    n = 12
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, 0.2))
    g = graph_from_edges(n, edges)
    with pytest.raises(BudgetError):
        build_saw_tree(g, 0, 11, max_nodes=500)
    # one growth for several radii marks the radii past the budget instead
    m = make_model(g)
    small, big = saw_brackets_at_radii(m, 0, [2, 11], 500)
    assert small == (saw_marginal_bracket(m, 0, 2), boundary(build_saw_tree(g, 0, 2), 2).size)
    assert big is None


def test_brackets_at_radii_check_their_arguments():
    m = make_model(path_graph(4, 0.3))
    assert saw_brackets_at_radii(m, 1, [], 10) == []
    with pytest.raises(ValueError):
        saw_brackets_at_radii(m, 1, [2, -1], 10)
    with pytest.raises(ValueError):
        saw_brackets_at_radii(m, 4, [2], 10)


def test_clamped_vertex_copies_onto_every_occurrence():
    g = cycle_graph(5, 0.6).with_vertex_data(clamp=[0, 0, 1, 0, 0])
    m = make_model(g)
    got = saw_marginal(m, 0, m.n + 1)
    want = exact_conditional_marginal(m, 0)
    assert got == pytest.approx(want, abs=1e-11)
