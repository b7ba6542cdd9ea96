"""Property checks of invariants the module docstrings claim.

Hypothesis runs derandomized with its example database off, so every run
draws the same examples and the suite stays deterministic.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import io  # noqa: E402
import itertools  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from isinglab import dynamics, kernels, sawtree  # noqa: E402
from isinglab.dynamics import (  # noqa: E402
    TV_THRESHOLD,
    UpdateStream,
    _check_blocks,
    _free_state_law,
    _transition_matrix,
    build_block_transition_matrix,
    build_transition_matrix,
    chain_tv_from_stationary,
    exact_mixing_time,
)
from isinglab.errors import BudgetError, ConditioningError, SizeError  # noqa: E402
from isinglab.graph import (  # noqa: E402
    PLUS_PROB_MARGIN,
    ball,
    ball_excesses,
    generate_erdos_renyi,
    graph_from_edges,
    make_rooted_tree,
    path_graph,
    read_graph,
    star_graph,
    tree_excess,
    write_graph,
)
from isinglab.model import (  # noqa: E402
    _allowed_states,
    _shifted_mass,
    all_minus,
    all_plus,
    exact_conditional_marginal,
    exact_distribution,
    make_model,
    merge_conditioning,
    normalize_log_weights,
    respects_clamps,
)
from isinglab.sampler import algorithm1_output_law, algorithm1_samples  # noqa: E402
from isinglab.sawtree import (  # noqa: E402
    CHUNK_NODES,
    build_saw_tree,
    build_saw_trees,
    saw_brackets_at_radii,
    saw_marginal_bracket,
    saw_tree_size,
    saw_tree_sizes,
    tree_model,
)
from isinglab.treecalc import TreeModel, boundary_bracket, root_field  # noqa: E402
from test_dynamics import chain_steps_counted  # noqa: E402
from test_sawtree import boundary, saw_marginal  # noqa: E402
from test_treecalc import two_fold_bracket, with_pins  # noqa: E402

NODE_BUDGET = 5000


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    chosen = draw(st.lists(pairs, max_size=60, unique_by=lambda p: frozenset(p)))
    return n, [(u, v, 0.5) for u, v in chosen]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(edge_lists(), st.integers(0, 5), st.data())
def test_count_only_scans_agree_with_built_objects(graph, radius, data):
    n, edges = graph
    g = graph_from_edges(n, edges)
    excess = ball_excesses(g, radius)
    assert excess.tolist() == [tree_excess(ball(g, v, radius).subgraph) for v in range(n)]

    v = data.draw(st.integers(0, n - 1))
    try:
        built = build_saw_tree(g, v, radius, max_nodes=NODE_BUDGET).size
    except BudgetError:
        with pytest.raises(BudgetError):
            saw_tree_size(g, v, radius, max_nodes=NODE_BUDGET)
    else:
        assert saw_tree_size(g, v, radius, max_nodes=NODE_BUDGET) == built


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(edge_lists(), st.data())
def test_csr_is_symmetric_sorted_and_round_trips_through_text(graph, data):
    n, edges = graph
    weights = data.draw(st.lists(st.floats(0.0, 1e3), min_size=len(edges), max_size=len(edges)))
    h = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n, max_size=n))
    g = graph_from_edges(n, [(u, v, w) for (u, v, _), w in zip(edges, weights)], h=h)
    half = {}
    for u in range(n):
        row = g.indices[g.indptr[u]:g.indptr[u + 1]]
        assert np.all(np.diff(row) > 0)
        for j in range(g.indptr[u], g.indptr[u + 1]):
            half[(u, int(g.indices[j]))] = g.weights[j]
    assert len(half) == g.indices.size
    # every half-edge has its mirror with the same weight, and the pairs
    # are exactly the input edges
    assert all(half[(v, u)] == w for (u, v), w in half.items())
    assert half == {**{(u, v): w for (u, v, _), w in zip(edges, weights)},
                    **{(v, u): w for (u, v, _), w in zip(edges, weights)}}

    text = io.StringIO()
    write_graph(g, text)
    back = read_graph(io.StringIO(text.getvalue()))
    for a, b in ((back.indptr, g.indptr), (back.indices, g.indices),
                 (back.weights, g.weights), (back.h, g.h)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    again = io.StringIO()
    write_graph(back, again)
    assert again.getvalue() == text.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(edge_lists())
def test_reverse_pairs_each_half_edge_with_its_mirror(graph):
    n, edges = graph
    g = graph_from_edges(n, edges)
    rev = g.reverse
    assert rev.dtype == np.int64 and rev.shape == g.indices.shape
    assert np.array_equal(rev[rev], np.arange(rev.size))
    assert np.array_equal(g.indices[rev], g.rows())
    assert g.reverse is rev and not rev.flags.writeable


def _reference_expand(g, v, depth_limit, max_nodes):
    """Depth-first walk-tree construction, one node at a time.

    Returns the (parent, depth, label, edge_beta, fixed) arrays of the walk
    tree from v in discovery order, raising BudgetError on the node past
    ``max_nodes``.
    """
    adjacency = g.adjacency
    on_walk = {v: 0}  # vertex -> its depth on the current walk
    walk = [v] + [-1] * depth_limit  # walk[j] = vertex at depth j

    parent = [-1]
    depth = [0]
    label = [v]
    ebeta = [0.0]
    fixed = [0]
    count = 1

    # stack entries: [tree node, vertex, next row position, walk depth]
    stack = [[0, v, 0, 0]] if depth_limit > 0 else []
    while stack:
        top = stack[-1]
        node, u, ptr, dep = top
        row = adjacency[u]
        back = walk[dep - 1] if dep > 0 else -1
        while ptr < len(row):
            x, b = row[ptr]
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
                stack.append([count - 1, x, 0, dep + 1])
        parent.append(node)
        depth.append(dep + 1)
        label.append(x)
        ebeta.append(b)
        fixed.append(pin)
    return (np.array(parent, dtype=np.int64), np.array(depth, dtype=np.int64),
            np.array(label, dtype=np.int64), np.array(ebeta, dtype=np.float64),
            np.array(fixed, dtype=np.int8))


@st.composite
def forest_cases(draw):
    """(graph, roots, depth, max_nodes) for the forest builder.

    A third of the cases are sparse graphs on at most 30 vertices.  The
    others are dense on 6 to 9 vertices, deep enough that one walk tree
    has thousands of nodes, with root lists long enough to span several
    chunks.  In half of those the vertex ids are 64 i + c for one to three
    residues c, so vertices share a walk-mask bit and many children pass
    the mask without closing a cycle; the other vertices are isolated.
    """
    kind = draw(st.sampled_from(["sparse", "dense", "colliding"]))
    if kind == "sparse":
        n, edges = draw(edge_lists())
        depth = draw(st.integers(0, 6))
        roots = draw(st.lists(st.integers(0, n - 1), max_size=20))
    else:
        k = draw(st.integers(6, 9))
        ids = list(range(k))
        if kind == "colliding":
            residues = draw(st.lists(st.integers(0, 63), min_size=1, max_size=3, unique=True))
            ids = [64 * (i // len(residues)) + residues[i % len(residues)] for i in range(k)]
        n = max(ids) + 1
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = [(u, v, (u + 2 * v) / 16.0) for i, u in enumerate(ids) for v in ids[i + 1:]
                 if rng.random() < 0.55]
        depth = draw(st.integers(5, 8))
        roots = rng.choice(ids, size=draw(st.integers(8, 40))).tolist()
    max_nodes = draw(st.one_of(st.just(3 * CHUNK_NODES), st.integers(1, 3 * CHUNK_NODES)))
    return graph_from_edges(n, edges), roots, depth, max_nodes


def _level_order(parent, depth, label, edge_beta, fixed):
    """A depth-first tree's arrays relabelled into level order.

    A stable sort by depth keeps each level in depth-first order, which
    groups it by parent in parent order; parents are remapped through the
    inverse permutation.
    """
    order = np.argsort(depth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    parent = parent[order]
    parent[1:] = rank[parent[1:]]
    return parent, depth[order], label[order], edge_beta[order], fixed[order]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(forest_cases(), st.data())
def test_forest_builder_matches_depth_first_oracle(case, data):
    g, roots, depth, max_nodes = case
    want = {}
    try:
        for v in set(roots):
            want[v] = _reference_expand(g, v, depth, max_nodes)
    except BudgetError:
        with pytest.raises(BudgetError):
            list(build_saw_trees(g, roots, depth, max_nodes))
        with pytest.raises(BudgetError):
            saw_tree_sizes(g, roots, depth, max_nodes)
        return
    h = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=g.n, max_size=g.n)))
    g = g.with_vertex_data(h=h)
    got = list(build_saw_trees(g, roots, depth, max_nodes))
    assert len(got) == len(roots)
    for tm, v in zip(got, roots):
        # the fields are the graph's at each node's vertex, and the clamps
        # are the oracle's cycle-closure pins
        built = (tm.tree.parent, tm.tree.depth, tm.tree.label, tm.edge_beta, tm.clamp)
        want_level = _level_order(*want[v])
        for a, b in zip(built, want_level):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert tm.h.dtype == np.float64 and tm.h.tobytes() == h[want_level[2]].tobytes()
        assert np.all(np.diff(tm.tree.depth) >= 0)
        assert np.all(np.diff(tm.tree.parent) >= 0)
        # both layouts fold each child before its parent, and each parent's
        # children in descending sibling order, so the root field keeps its bits
        parent, _, label, edge_beta, fixed = want[v]
        field = kernels.tree_root_field(tm.tree.parent, tm.edge_beta, tm.h, tm.clamp)
        assert field.hex() == kernels.tree_root_field(parent, edge_beta, h[label], fixed).hex()
    sizes = saw_tree_sizes(g, roots, depth, max_nodes)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [tm.size for tm in got]


@st.composite
def radii_cases(draw):
    """(graph, vertex, radii, max_nodes) for one growth serving many radii.

    Radii come unsorted and repeated, 0 among them.  Half the graphs have
    at most 9 vertices, so every walk ends before the largest radius on
    many draws.  max_nodes is drawn up to NODE_BUDGET, often 1, or is the
    size of one requested radius's tree, which stops the growth between
    two radii.
    """
    if draw(st.booleans()):
        n, edges = draw(edge_lists())
        g = graph_from_edges(n, edges)
    else:
        g, _, _, _ = draw(forest_cases())
    v = draw(st.integers(0, g.n - 1))
    radii = draw(st.lists(st.integers(0, 11), max_size=6))
    max_nodes = draw(st.one_of(st.integers(1, NODE_BUDGET), st.just("cut")))
    if max_nodes == "cut":  # the size of one radius's tree, or a little more
        try:
            max_nodes = saw_tree_size(g, v, draw(st.sampled_from(radii or [0])), NODE_BUDGET)
        except BudgetError:
            max_nodes = NODE_BUDGET
        max_nodes += draw(st.integers(0, 2))
    return g, v, radii, max_nodes


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(radii_cases(), st.data())
def test_brackets_at_radii_match_one_build_per_radius(case, data):
    g, v, radii, max_nodes = case
    h = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=g.n, max_size=g.n))
    clamp = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=g.n, max_size=g.n))
    g = g.with_vertex_data(h=h, clamp=clamp)
    m = make_model(g)
    want = {}
    for l in radii:
        try:
            want[l] = build_saw_tree(g, v, l, max_nodes)
        except BudgetError:
            want[l] = None
    if g.clamp[v] != 0 and any(tree is not None for tree in want.values()):
        with pytest.raises(ConditioningError):
            saw_brackets_at_radii(m, v, radii, max_nodes)
        return
    got = saw_brackets_at_radii(m, v, radii, max_nodes)
    assert len(got) == len(radii)
    for l, row in zip(radii, got):
        if want[l] is None:
            assert row is None, l
            continue
        bracket, sphere = row
        expect = boundary_bracket(tree_model(want[l], g.clamp), l)
        assert [p.hex() for p in bracket] == [p.hex() for p in expect]
        assert type(sphere) is int and sphere == boundary(want[l], l).size


@st.composite
def clamped_models(draw, fields=st.floats(-4.0, 4.0), max_n=8, betas=st.floats(0.05, 1.5)):
    """Connected model on <= max_n vertices: a random tree, a few chords, clamps."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, i - 1)), i): draw(betas) for i in range(1, n)}
    for _ in range(draw(st.integers(0, 3)) if n > 2 else 0):
        u = draw(st.integers(0, n - 2))
        edges.setdefault((u, draw(st.integers(u + 1, n - 1))), draw(betas))
    h = draw(st.lists(fields, min_size=n, max_size=n))
    clamp = draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n, max_size=n))
    clamp[draw(st.integers(0, n - 1))] = 0  # at least one free vertex
    g = graph_from_edges(n, [(u, v, b) for (u, v), b in edges.items()], h=h, clamp=clamp)
    return make_model(g)


def _reference_tree_model(m, v, depth_limit, pins):
    """v's walk tree under ``pins`` as the oracle's arrays gave it, field and all.

    The tree is the depth-first oracle's in level order; the fields are
    gathered from the model at every node's vertex and the pins copied
    over the cycle-closure pins, rejecting a pinned root.
    """
    parent, depth, label, edge_beta, fixed = _level_order(
        *_reference_expand(m.graph, v, depth_limit, NODE_BUDGET))
    node_pins = pins[label]
    if node_pins[0] != 0:
        raise ConditioningError(f"query vertex {v} is pinned")
    clamp = np.where(node_pins, node_pins, fixed)
    return TreeModel(make_rooted_tree(parent, depth, label), edge_beta, m.graph.h[label], clamp)


def _tree_model_arrays(tm):
    return tm.tree.parent, tm.tree.depth, tm.tree.label, tm.edge_beta, tm.h, tm.clamp


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(clamped_models(), st.data())
def test_tree_model_matches_reference_construction(m, data):
    free = m.graph.free_vertices().tolist()
    # v itself may be clamped or conditioned, which tree_model must reject
    v = data.draw(st.one_of(st.sampled_from(free), st.integers(0, m.n - 1)))
    depth = data.draw(st.integers(0, m.n + 1))
    cond = data.draw(st.dictionaries(st.sampled_from(free), spin))
    pins = merge_conditioning(m, cond)
    walk = build_saw_tree(m.graph, v, depth)
    try:
        want = _reference_tree_model(m, v, depth, pins)
    except ConditioningError:
        with pytest.raises(ConditioningError):
            tree_model(walk, pins)
        return
    for a, b in zip(_tree_model_arrays(tree_model(walk, pins)), _tree_model_arrays(want)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _reference_draw(m, depth, stream):
    """One draw that rebuilds every walk tree and conditions through a dict."""
    free = m.graph.free_vertices()
    us = stream.next_updates(free.size)[1]
    spins = m.graph.clamp.copy()
    cond, ps = {}, []
    for i, v in enumerate(free):
        p = saw_marginal(m, int(v), depth, cond=cond)
        cond[int(v)] = spins[v] = 1 if us[i] <= p else -1
        ps.append(p)
    return ps, spins


def _reference_law(m, depth):
    """Output law by prefix enumeration, one fresh walk tree per prefix."""
    free = [int(v) for v in m.graph.free_vertices()]
    probs = np.zeros(1 << m.n)
    base = sum(1 << v for v in range(m.n) if m.graph.clamp[v] > 0)
    cond = {}

    def descend(i, mask, weight):
        if i == len(free):
            probs[mask] += weight
            return
        v = free[i]
        p = saw_marginal(m, v, depth, cond=cond)
        cond[v] = 1
        descend(i + 1, mask | (1 << v), weight * p)
        cond[v] = -1
        descend(i + 1, mask, weight * (1.0 - p))
        del cond[v]

    descend(0, base, 1.0)
    return probs


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(clamped_models(), st.data())
def test_reused_trees_match_rebuilt_trees(m, data):
    depth = data.draw(st.integers(0, m.n + 1))
    draws = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**31))
    reference = [_reference_draw(m, depth, UpdateStream(m, seed, chain_id=k))
                 for k in range(draws)]
    runs = algorithm1_samples(m, depth, [UpdateStream(m, seed, chain_id=k) for k in range(draws)])
    for run, (ps, spins) in zip(runs, reference, strict=True):
        assert run.p.tolist() == ps
        assert run.spins.tolist() == spins.tolist()
    law = algorithm1_output_law(m, depth)
    assert law.probs.tobytes() == _reference_law(m, depth).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(forest_cases(), st.data())
def test_screened_trees_are_the_whole_trees_below_no_pin(case, data):
    g, roots, depth, max_nodes = case
    roots = list(dict.fromkeys(roots))  # distinct, in first-seen order
    spread = data.draw(st.sampled_from([[0], [0] * 9 + [1], [0, 0, 0, 1, -1]]))
    clamp = np.array(data.draw(st.lists(st.sampled_from(spread), min_size=g.n, max_size=g.n)),
                     dtype=np.int8)
    h = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=g.n, max_size=g.n)))
    g = g.with_vertex_data(h=h, clamp=clamp)
    try:
        wholes = list(build_saw_trees(g, roots, depth, 3 * CHUNK_NODES))
    except BudgetError:
        return
    # tree i keeps the nodes of the whole tree below no node whose vertex is
    # clamped or one of roots[:i], and none below a cycle closure
    pinned, kept = clamp != 0, []
    for v, whole in zip(roots, wholes):
        par, label = whole.tree.parent, whole.tree.label
        opens = [not pinned[label[i]] and whole.clamp[i] == 0 for i in range(whole.size)]
        keep = [True]
        for i in range(1, whole.size):
            keep.append(keep[par[i]] and opens[par[i]])
        kept.append(np.flatnonzero(keep))
        pinned = pinned.copy()
        pinned[v] = True
    # a 64-node chunk spreads the roots over several chunks and evicts some mid-growth
    chunk = mock.patch.object(sawtree, "CHUNK_NODES", data.draw(st.sampled_from([CHUNK_NODES, 64])))
    if max((k.size for k in kept), default=0) > max_nodes:
        with chunk, pytest.raises(BudgetError):
            list(build_saw_trees(g, roots, depth, max_nodes, screened=True))
        return
    with chunk:
        got = list(build_saw_trees(g, roots, depth, max_nodes, screened=True))
    assert len(got) == len(roots)
    spins = np.array(data.draw(st.lists(spin, min_size=g.n, max_size=g.n)), dtype=np.int8)
    for i, (tm, whole, keep) in enumerate(zip(got, wholes, kept)):
        parent = np.concatenate([[-1], np.searchsorted(keep, whole.tree.parent[keep[1:]])])
        want = (parent, *(a[keep] for a in _tree_model_arrays(whole)[1:]))
        for a, b in zip(_tree_model_arrays(tm), want, strict=True):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        if clamp[roots[i]] == 0:  # pins on the clamps and the earlier roots
            pins = clamp.copy()
            pins[roots[:i]] = np.where(clamp[roots[:i]], clamp[roots[:i]], spins[roots[:i]])
            assert root_field(tree_model(tm, pins)).hex() == \
                root_field(tree_model(whole, pins)).hex()


# ---------------------------------------------------------------------------
# transition matrices against a spins-matrix reference


def _state_spins(m, free):
    """(2^k, n) array of full configurations, one per free-spin state."""
    k = free.size
    states = np.arange(1 << k, dtype=np.int64)
    s = np.tile(m.graph.clamp.astype(np.float64), (1 << k, 1))
    for i, v in enumerate(free):
        s[:, v] = 2.0 * ((states >> i) & 1) - 1.0
    return s


def _dense_couplings(m):
    g = m.graph
    w = np.zeros((g.n, g.n))
    w[g.rows(), g.indices] = g.weights
    return w


def _stationary_slice(m, spins):
    w = _dense_couplings(m)
    pair = 0.5 * np.einsum("si,ij,sj->s", spins, w, spins)
    logw = pair + spins @ m.graph.h
    logw -= logw.max()
    mass = np.exp(logw)
    return mass / mass.sum()


def _reference_transition_matrix(m):
    """(matrix, stationary, reversible) from local fields of every state."""
    free = m.graph.free_vertices()
    k = free.size
    spins = _state_spins(m, free)
    fields = spins @ _dense_couplings(m) + m.graph.h  # (2^k, n)
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * fields))
    size = 1 << k
    mat = np.zeros((size, size))
    states = np.arange(size)
    for i, v in enumerate(free):
        target = states ^ (1 << i)
        bit_up = ((states >> i) & 1) == 1
        flip_prob = np.where(bit_up, 1.0 - p_plus[:, v], p_plus[:, v])
        mat[states, target] += flip_prob / k
    mat[states, states] += 1.0 - mat.sum(axis=1)
    stationary = _stationary_slice(m, spins)
    flux = stationary[:, None] * mat
    return mat, stationary, bool(np.abs(flux - flux.T).max() <= 1e-10)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(clamped_models(st.floats(-3.0, 3.0)), st.data())
def test_transition_matrices_match_spins_matrix_reference(m, data):
    mat, stationary, reversible = _reference_transition_matrix(m)
    t = build_transition_matrix(m)
    assert np.abs(t.matrix - mat).max() <= 1e-12
    assert np.abs(t.stationary - stationary).max() <= 1e-12
    assert t.reversible == reversible

    free = m.graph.free_vertices().tolist()
    labels = data.draw(st.lists(st.integers(0, len(free) - 1),
                                min_size=len(free), max_size=len(free)))
    blocks = [[v for v, b in zip(free, labels) if b == j] for j in sorted(set(labels))]
    tb = build_block_transition_matrix(m, blocks)
    assert np.abs(tb.stationary - stationary).max() <= 1e-12


def _reference_block_transition_matrix(m, blocks):
    """build_block_transition_matrix grouping the states of each block in a dict of lists."""
    _, stationary = _free_state_law(m)
    checked = _check_blocks(m, blocks)
    free = m.graph.free_vertices()
    size = 1 << free.size
    pos_of = {int(v): i for i, v in enumerate(free)}
    mat = np.zeros((size, size))
    for block in checked:
        mask = 0
        for v in block:
            mask |= 1 << pos_of[int(v)]
        groups: dict[int, list[int]] = {}
        for s in range(size):
            groups.setdefault(s & ~mask, []).append(s)
        for members in groups.values():
            idx = np.array(members, dtype=np.int64)
            pi = stationary[idx]
            mat[np.ix_(idx, idx)] += pi / pi.sum()
    mat /= len(checked)
    return _transition_matrix(mat, stationary, free)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(clamped_models(st.floats(-3.0, 3.0)), st.data())
def test_block_matrices_keep_the_dict_grouping_bits(m, data):
    free = m.graph.free_vertices().tolist()
    k = data.draw(st.integers(1, len(free) + 2))
    # random blocks that may overlap, each free vertex in at least one
    blocks = [data.draw(st.sets(st.sampled_from(free), max_size=len(free))) for _ in range(k)]
    for v in free:
        blocks[data.draw(st.integers(0, k - 1))].add(v)
    blocks = [sorted(b) for b in blocks if b]
    got = build_block_transition_matrix(m, blocks)
    want = _reference_block_transition_matrix(m, blocks)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.stationary.tobytes() == want.stationary.tobytes()
    assert got.reversible == want.reversible


def _reference_mixing_time(t):
    """exact_mixing_time by doubling, then bisection over products of the cached powers."""
    powers = {1: t.matrix}
    s = 1
    while chain_tv_from_stationary(t, powers[s]) > TV_THRESHOLD:
        nxt = powers[s] @ powers[s]
        s *= 2
        powers[s] = nxt
        if s > dynamics.MIXING_STEP_CAP:
            raise SizeError(f"mixing time exceeds step cap {dynamics.MIXING_STEP_CAP}")
    lo, hi = s // 2, s  # tv(lo) > TV_THRESHOLD >= tv(hi)

    def power_of(e):
        out = None
        b = 1
        while e:
            if e & 1:
                out = powers[b] if out is None else out @ powers[b]
            e >>= 1
            b *= 2
        return out

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if chain_tv_from_stationary(t, power_of(mid)) > TV_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return hi


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(clamped_models(st.floats(-3.0, 3.0), betas=st.floats(0.0, 2.5)))
@example(make_model(star_graph(7, 2.5)))  # t_mix = 36,734,902
def test_mixing_time_matches_the_bisection_reference(m):
    t = build_transition_matrix(m)
    assert exact_mixing_time(t) == _reference_mixing_time(t)


def test_mixing_time_at_its_smallest_and_past_the_step_cap(monkeypatch):
    # one spin: P is the stationary law; two independent spins take two steps
    for g, want in ((path_graph(1), 1), (graph_from_edges(2, []), 2), (path_graph(4, 0.3), 9)):
        t = build_transition_matrix(make_model(g))
        assert exact_mixing_time(t) == _reference_mixing_time(t) == want
    monkeypatch.setattr(dynamics, "MIXING_STEP_CAP", 16)  # P^16 is the last power it squares to
    assert exact_mixing_time(t) == _reference_mixing_time(t) == 9
    for cap in (8, 15):  # P^8 is past neither the crossing nor the cap
        monkeypatch.setattr(dynamics, "MIXING_STEP_CAP", cap)
        for search in (exact_mixing_time, _reference_mixing_time):
            with pytest.raises(SizeError, match=f"step cap {cap}"):
                search(t)


# ---------------------------------------------------------------------------
# list-form kernels against numpy-indexing reference loops


def _ref_chain_steps(indptr, indices, weights, h, spins, v_arr, u_arr):
    for t in range(v_arr.shape[0]):
        v = v_arr[t]
        f = h[v]
        for j in range(indptr[v], indptr[v + 1]):
            f += weights[j] * spins[indices[j]]
        if f >= 0.0:
            p = 1.0 / (1.0 + math.exp(-2.0 * f))
        else:
            e = math.exp(2.0 * f)
            p = e / (1.0 + e)
        if u_arr[t] <= p:
            spins[v] = 1
        else:
            spins[v] = -1


def _ref_chain_steps_counted(indptr, indices, weights, h, spins, v_arr, u_arr, thin, counts):
    n = spins.shape[0]
    idx = 0
    for v in range(n):
        if spins[v] > 0:
            idx += 1 << v
    since = 0
    for t in range(v_arr.shape[0]):
        v = v_arr[t]
        f = h[v]
        for j in range(indptr[v], indptr[v + 1]):
            f += weights[j] * spins[indices[j]]
        if f >= 0.0:
            p = 1.0 / (1.0 + math.exp(-2.0 * f))
        else:
            e = math.exp(2.0 * f)
            p = e / (1.0 + e)
        old = spins[v]
        if u_arr[t] <= p:
            spins[v] = 1
            if old < 0:
                idx += 1 << v
        else:
            spins[v] = -1
            if old > 0:
                idx -= 1 << v
        since += 1
        if since == thin:
            counts[idx] += 1
            since = 0


def _ref_coupled_steps(indptr, indices, weights, h, upper, lower, ham_start, v_arr, u_arr):
    ham = ham_start
    for t in range(v_arr.shape[0]):
        v = v_arr[t]
        fu = h[v]
        fl = h[v]
        for j in range(indptr[v], indptr[v + 1]):
            s = indices[j]
            w = weights[j]
            fu += w * upper[s]
            fl += w * lower[s]
        if fu >= 0.0:
            pu = 1.0 / (1.0 + math.exp(-2.0 * fu))
        else:
            e = math.exp(2.0 * fu)
            pu = e / (1.0 + e)
        if fl >= 0.0:
            pl = 1.0 / (1.0 + math.exp(-2.0 * fl))
        else:
            e = math.exp(2.0 * fl)
            pl = e / (1.0 + e)
        u = u_arr[t]
        was_diff = upper[v] != lower[v]
        if u <= pu:
            nu = 1
        else:
            nu = -1
        if u <= pl:
            nl = 1
        else:
            nl = -1
        upper[v] = nu
        lower[v] = nl
        if nu != nl:
            if not was_diff:
                ham += 1
        else:
            if was_diff:
                ham -= 1
                if ham == 0:
                    return ham, t, -1
        if nu < nl:
            return ham, -1, t
    return ham, -1, -1


def _ref_tree_root_field(parent, edge_beta, h_node, clamp_node):
    nn = parent.shape[0]
    field = h_node.copy()
    for i in range(nn - 1, 0, -1):
        b = edge_beta[i]
        c = clamp_node[i]
        if c > 0:
            contrib = b
        elif c < 0:
            contrib = -b
        else:
            x = math.tanh(b) * math.tanh(field[i])
            if x > 1.0 - 1e-15:
                x = 1.0 - 1e-15
            elif x < -1.0 + 1e-15:
                x = -1.0 + 1e-15
            contrib = math.atanh(x)
        field[parent[i]] += contrib
    return field[0]


fields = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-800.0, 800.0]))
unit = st.floats(0.0, 1.0, exclude_max=True)
spin = st.sampled_from([-1, 1])


@st.composite
def signed_graphs(draw, fields=fields, couplings=st.floats(-1.5, 1.5), max_n=8, max_edges=12):
    """A graph on <= max_n vertices whose couplings may be negative.

    Negative couplings break the monotone order, so the coupled kernel
    takes its early violation return on some draws.
    """
    n = draw(st.integers(1, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
    coupling = st.dictionaries(pair.filter(lambda p: p[0] != p[1]), couplings,
                               max_size=max_edges)
    edges = draw(coupling) if n > 1 else {}
    h = draw(st.lists(fields, min_size=n, max_size=n))
    g = graph_from_edges(n, [(u, v, abs(w)) for (u, v), w in edges.items()], h=h)
    sign = [math.copysign(1.0, edges[min(a, b), max(a, b)])
            for a, b in zip(g.rows().tolist(), g.indices.tolist())]
    return replace(g, weights=g.weights * np.array(sign))


# fields and couplings far past the uniqueness regime, where a bound's
# field sums terms of very different sizes and the logistic saturates
strong_fields = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-800.0, -0.0, 0.0, 800.0]))
strong_couplings = st.floats(-40.0, 40.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(signed_graphs(), signed_graphs(strong_fields, strong_couplings)), st.data())
def test_list_kernels_match_numpy_reference(g, data):
    n = g.n
    clamp = data.draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n, max_size=n))
    g = g.with_vertex_data(clamp=clamp)
    indptr, indices, weights, h = g.indptr, g.indices, g.weights, g.h
    # sites are a uniform scaled to the free vertices, as UpdateStream
    # draws them, and clamped vertices start, and so stay, at their pins
    free = g.free_vertices().tolist() or list(range(n))
    pairs = data.draw(st.lists(st.tuples(unit, unit), max_size=60))
    v_arr = np.array([free[int(x * len(free))] for x, _ in pairs], dtype=np.int64)
    u_arr = np.array([u for _, u in pairs], dtype=np.float64)
    spin_pairs = data.draw(st.lists(st.tuples(spin, spin), min_size=n, max_size=n))
    a = np.where(g.clamp != 0, g.clamp, [x for x, _ in spin_pairs]).astype(np.int8)
    b = np.where(g.clamp != 0, g.clamp, [y for _, y in spin_pairs]).astype(np.int8)
    adjacency, h_list = g.adjacency, h.tolist()
    upper, lower = np.maximum(a, b), np.minimum(a, b)
    ham = int(np.count_nonzero(upper != lower))

    want = a.copy()
    _ref_chain_steps(indptr, indices, weights, h, want, v_arr, u_arr)
    want_up, want_lo = upper.copy(), lower.copy()
    want_ret = _ref_coupled_steps(indptr, indices, weights, h, want_up, want_lo, ham,
                                  v_arr, u_arr)
    trivial = ([-1.0] * n, [2.0] * n)  # decide no draw
    for bounds in (g.plus_prob_bounds, trivial):
        got = a.copy()
        kernels.chain_steps(adjacency, h_list, *bounds, got, v_arr, u_arr)
        assert got.tolist() == want.tolist()
        got_up, got_lo = upper.copy(), lower.copy()
        got_ret = kernels.coupled_steps(adjacency, h_list, got_up, got_lo, ham,
                                        v_arr, u_arr, *bounds)
        assert got_ret == want_ret
        assert got_up.tolist() == want_up.tolist()
        assert got_lo.tolist() == want_lo.tolist()

    thin = data.draw(st.integers(1, 4))
    got, want = a.copy(), a.copy()
    got_counts, want_counts = [0] * (1 << n), np.zeros(1 << n, dtype=np.int64)
    chain_steps_counted(adjacency, h_list, got, v_arr, u_arr, thin, got_counts)
    _ref_chain_steps_counted(indptr, indices, weights, h, want, v_arr, u_arr, thin, want_counts)
    assert got.tolist() == want.tolist()
    assert got_counts == want_counts.tolist()


def _kernel_plus_prob(h, row, spins):
    """The kernels' + probability: the field summed in row order, then their logistic."""
    f = h
    for s, w in row:
        f += w * spins[s]
    if f >= 0.0:
        return 1.0 / (1.0 + math.exp(-2.0 * f))
    e = math.exp(2.0 * f)
    return e / (1.0 + e)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(signed_graphs(strong_fields, strong_couplings, max_n=9, max_edges=36), st.data())
def test_bounds_hold_on_the_knife_edge(g, data):
    n = g.n
    h = g.h.tolist()
    p_lo, p_hi = g.plus_prob_bounds
    # every state of every neighbourhood (degree <= 8) gives a p strictly
    # inside the vertex's bounds
    for v in range(n):
        row = g.adjacency[v]
        for signs in itertools.product((-1, 1), repeat=len(row)):
            state = dict(zip((s for s, _ in row), signs))
            assert p_lo[v] < _kernel_plus_prob(h[v], row, state) < p_hi[v]

    # one-update calls with u at the kernel's own p and its float
    # neighbours, on every vertex, agree with the bound-free reference
    spin_pairs = data.draw(st.lists(st.tuples(spin, spin), min_size=n, max_size=n))
    upper = np.array([max(x, y) for x, y in spin_pairs], dtype=np.int8)
    lower = np.array([min(x, y) for x, y in spin_pairs], dtype=np.int8)
    ham = int(np.count_nonzero(upper != lower))
    for v in range(n):
        v_arr = np.array([v], dtype=np.int64)
        edges = set()
        for p in (_kernel_plus_prob(h[v], g.adjacency[v], upper),
                  _kernel_plus_prob(h[v], g.adjacency[v], lower)):
            edges |= {math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)}
        for u in sorted(edges):
            u_arr = np.array([u])
            for start in (upper, lower):
                got, want = start.copy(), start.copy()
                kernels.chain_steps(g.adjacency, h, p_lo, p_hi, got, v_arr, u_arr)
                _ref_chain_steps(g.indptr, g.indices, g.weights, g.h, want, v_arr, u_arr)
                assert got.tolist() == want.tolist(), (v, u.hex())
            got_up, got_lo, want_up, want_lo = upper.copy(), lower.copy(), upper.copy(), lower.copy()
            got = kernels.coupled_steps(g.adjacency, h, got_up, got_lo, ham, v_arr, u_arr,
                                        p_lo, p_hi)
            want = _ref_coupled_steps(g.indptr, g.indices, g.weights, g.h, want_up, want_lo,
                                      ham, v_arr, u_arr)
            assert got == want, (v, u.hex())
            assert got_up.tolist() == want_up.tolist() and got_lo.tolist() == want_lo.tolist()


def _reference_plus_prob_bounds(g):
    """The bounds by one vectorised pass per row slot over degree-sorted rows.

    Slot k of every row wider than k is added in one pass, so each row
    still sums its half-edges in CSR order.
    """
    deg = np.diff(g.indptr)
    order = np.argsort(-deg, kind="stable")  # the c widest rows lead
    start, mag = g.indptr[order], np.abs(g.weights)
    f = np.stack([g.h[order], g.h[order]])
    with np.errstate(over="ignore"):
        for k, c in enumerate(g.n - np.cumsum(np.bincount(deg))[:-1]):
            w = mag[start[:c] + k]
            f[0, :c] -= w
            f[1, :c] += w
        e = np.exp(-2.0 * np.abs(f))
    p = np.empty_like(f)
    p[:, order] = np.where(f >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    p += [[-PLUS_PROB_MARGIN], [PLUS_PROB_MARGIN]]
    return p[0].tolist(), p[1].tolist()


# fields up to the float range, where h[v] + sum |w| overflows to +-inf
huge_fields = st.one_of(
    st.floats(-4.0, 4.0), st.floats(-1e307, 1e307),
    st.sampled_from([-sys.float_info.max, -1e307, -0.0, 0.0, 1e307, sys.float_info.max]),
)
huge_couplings = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300),
                           st.sampled_from([-1e300, 0.0, 1e300]))


@st.composite
def hub_graphs(draw):
    """A graph on 1..40 vertices: vertex 0 joined to the first ``hub`` others,
    a few random edges, isolated vertices, couplings of either sign.

    Couplings and fields are drawn either from the strategies above or as
    random doubles from a drawn seed, whose sums round differently in
    different orders far more often than the strategies' simple values do.
    """
    n = draw(st.integers(1, 40))
    hub = draw(st.integers(0, n - 1))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
    extra = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=20)) if n > 1 else []
    pairs = sorted({(0, j) for j in range(1, hub + 1)} | set(extra))
    if draw(st.booleans()):
        w = draw(st.lists(huge_couplings, min_size=len(pairs), max_size=len(pairs)))
        h = draw(st.lists(huge_fields, min_size=n, max_size=n))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = rng.uniform(-1.5, 1.5, len(pairs)) * draw(st.sampled_from([1.0, 1e300]))
        h = rng.normal(0.0, 3.0, n)
    g = graph_from_edges(n, [(u, v, abs(x)) for (u, v), x in zip(pairs, w)], h=h)
    sign = dict(zip(pairs, np.copysign(1.0, w).tolist()))
    return replace(g, weights=g.weights * np.array(
        [sign[min(a, b), max(a, b)] for a, b in zip(g.rows().tolist(), g.indices.tolist())]))


# a hub whose fields pass the float range both ways, one vertex alone
_past_the_float_range = graph_from_edges(
    5, [(0, j, 1e300) for j in range(1, 4)],
    h=[sys.float_info.max, -sys.float_info.max, 1e307, -1e307, 0.0])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(hub_graphs())
@example(graph_from_edges(1, [], h=[-1e307]))
@example(_past_the_float_range)
def test_plus_prob_bounds_keep_the_slot_pass_bits(g):
    got, want = g.plus_prob_bounds, _reference_plus_prob_bounds(g)
    for side in range(2):
        assert [x.hex() for x in got[side]] == [x.hex() for x in want[side]]


def test_coupled_kernel_writes_back_on_violation():
    # an antiferromagnetic pair: updating site 0 with u between the two
    # chains' probabilities sends upper to -1 and lower to +1, and the
    # update after it is never applied
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    weights = np.array([-1.0, -1.0])
    h = np.zeros(2)
    v_arr = np.array([0, 1], dtype=np.int64)
    u_arr = np.array([0.5, 0.5])
    got_up, got_lo = np.ones(2, dtype=np.int8), -np.ones(2, dtype=np.int8)
    want_up, want_lo = got_up.copy(), got_lo.copy()
    adjacency = (((1, -1.0),), ((0, -1.0),))
    got = kernels.coupled_steps(adjacency, h.tolist(), got_up, got_lo, 2, v_arr, u_arr,
                                [-1.0] * 2, [2.0] * 2)
    want = _ref_coupled_steps(indptr, indices, weights, h, want_up, want_lo, 2, v_arr, u_arr)
    assert got == want == (2, -1, 0)
    assert got_up.tolist() == want_up.tolist() == [-1, 1]
    assert got_lo.tolist() == want_lo.tolist() == [1, -1]


def test_coupled_kernel_runs_a_block_from_equal_states_in_full():
    # the post-meeting audit's call: from distance 0 the distance never
    # falls to 0, so every pair is applied, as the single chain applies it
    m = make_model(generate_erdos_renyi(40, 2.0, 7, beta=0.4))
    h = m.graph.h.tolist()
    bounds = m.graph.plus_prob_bounds
    start = all_minus(m)
    start[::3] = 1
    vs, us = UpdateStream(m, 11).next_updates(1024)
    upper, lower, single = start.copy(), start.copy(), start.copy()
    got = kernels.coupled_steps(m.graph.adjacency, h, upper, lower, 0, vs, us, *bounds)
    kernels.chain_steps(m.graph.adjacency, h, *bounds, single, vs, us)
    assert got == (0, -1, -1)
    assert upper.tolist() == lower.tolist() == single.tolist() != start.tolist()


def test_coupled_kernel_leaves_pairs_after_the_meeting_unapplied():
    m = make_model(path_graph(8, 0.5))
    h = m.graph.h.tolist()
    bounds = m.graph.plus_prob_bounds
    vs, us = UpdateStream(m, 5).next_updates(1 << 14)
    upper, lower = all_plus(m), all_minus(m)
    ham, k, violation = kernels.coupled_steps(m.graph.adjacency, h, upper, lower, m.n, vs, us,
                                              *bounds)
    assert (ham, violation) == (0, -1)
    assert 0 <= k < vs.shape[0] - 1
    # both chains stand where pairs 0..k leave them, and nowhere later
    up_k, lo_k = all_plus(m), all_minus(m)
    kernels.chain_steps(m.graph.adjacency, h, *bounds, up_k, vs[:k + 1], us[:k + 1])
    kernels.chain_steps(m.graph.adjacency, h, *bounds, lo_k, vs[:k + 1], us[:k + 1])
    assert upper.tolist() == up_k.tolist() == lower.tolist() == lo_k.tolist()
    # k is the first agreement, and the pairs after it would have moved the state
    up_prev, lo_prev = all_plus(m), all_minus(m)
    kernels.chain_steps(m.graph.adjacency, h, *bounds, up_prev, vs[:k], us[:k])
    kernels.chain_steps(m.graph.adjacency, h, *bounds, lo_prev, vs[:k], us[:k])
    assert up_prev.tolist() != lo_prev.tolist()
    kernels.chain_steps(m.graph.adjacency, h, *bounds, up_k, vs[k + 1:], us[k + 1:])
    assert up_k.tolist() != upper.tolist()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(clamped_models(), st.integers(0, 2**31),
       st.lists(st.integers(1, 200), min_size=1, max_size=4))
def test_coupled_chains_keep_the_monotone_order(m, seed, blocks):
    # the order coupled_steps claims for ferromagnetic couplings, with fields
    # and pins, from the clamp-respecting extremes over one update stream
    upper, lower = all_plus(m), all_minus(m)
    h = m.graph.h.tolist()
    stream = UpdateStream(m, seed)
    ham = int(np.count_nonzero(upper != lower))
    for count in blocks:
        vs, us = stream.next_updates(count)
        ham, _, violation = kernels.coupled_steps(m.graph.adjacency, h, upper, lower, ham,
                                                  vs, us, *m.graph.plus_prob_bounds)
        assert violation == -1
        assert np.all(upper >= lower)
        assert ham == np.count_nonzero(upper != lower)
        assert respects_clamps(m, upper) and respects_clamps(m, lower)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(clamped_models(), st.integers(0, 2**31), st.integers(0, 50),
       st.lists(st.integers(0, 300), max_size=8))
def test_update_stream_pairs_do_not_depend_on_batching(m, seed, chain_id, batches):
    # a coupled run draws whole blocks and may apply only their heads, so
    # the pairs after a block must be the same however it was cut
    whole = UpdateStream(m, seed, chain_id)
    want_v, want_u = whole.next_updates(sum(batches))
    split = UpdateStream(m, seed, chain_id)
    parts = [split.next_updates(k) for k in batches]
    got_v = np.concatenate([np.empty(0, dtype=np.int64)] + [v for v, _ in parts])
    got_u = np.concatenate([np.empty(0)] + [u for _, u in parts])
    assert got_v.tolist() == want_v.tolist()
    assert got_u.tobytes() == want_u.tobytes()
    assert got_v.size == want_v.size == sum(batches)
    assert whole.next_updates(5)[1].tobytes() == split.next_updates(5)[1].tobytes()


# tanh(40) rounds to 1, so strong edges into +-800 fields reach the atanh clamp
tree_nodes = st.tuples(unit, st.one_of(st.floats(0.0, 3.0), st.just(40.0)), fields,
                       st.sampled_from([-1, 0, 0, 1]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(tree_nodes, min_size=1, max_size=30))
def test_tree_fold_matches_numpy_reference(nodes):
    # node i hangs below a uniformly placed earlier node, so parent[i] < i
    where, beta, h, pin = zip(*nodes)
    parent = np.array([-1] + [int(x * i) for i, x in enumerate(where) if i], dtype=np.int64)
    edge_beta = np.array(beta)
    h_node = np.array(h)
    clamp = np.array(pin, dtype=np.int8)
    before = h_node.copy()
    got = kernels.tree_root_field(parent, edge_beta, h_node, clamp)
    want = _ref_tree_root_field(parent, edge_beta, h_node, clamp)
    assert float(got).hex() == float(want).hex()
    assert h_node.tobytes() == before.tobytes()


@st.composite
def bracket_cases(draw):
    """(tree model, l) for the one-pass bracket.

    Half are random trees in which any node, the root too, may be pinned,
    their parents sorted into level order (every rooted shape has one);
    half are walk trees of a clamped model under a conditioning, so their
    pins are cycle closures and conditioned vertices.  l runs from 0 to
    two past the tree's depth, so free sphere nodes may have children.
    """
    if draw(st.booleans()):
        where, beta, h, pin = zip(*draw(st.lists(tree_nodes, min_size=1, max_size=30)))
        tree = make_rooted_tree([-1] + sorted(int(x * i) for i, x in enumerate(where) if i))
        tm = TreeModel(tree, np.array(beta), np.array(h), np.array(pin, dtype=np.int8))
    else:
        m = draw(clamped_models(fields))
        free = m.graph.free_vertices().tolist()
        v = draw(st.sampled_from(free))
        cond = draw(st.dictionaries(st.sampled_from(free).filter(lambda u: u != v), spin))
        walk = build_saw_tree(m.graph, v, draw(st.integers(0, m.n + 1)))
        tm = tree_model(walk, merge_conditioning(m, cond))
    return tm, draw(st.integers(0, int(tm.tree.depth.max()) + 2))


def _depth_levels(tm, l):
    """tm's depth levels 0..l laid out for kernels.tree_bracket_levels, node by node."""
    at, levels = {-1: -1}, []
    for d in range(min(l, tm.tree.height) + 1):
        nodes = [i for i in range(tm.tree.size) if tm.tree.depth[i] == d]
        at.update((i, k) for k, i in enumerate(nodes))
        parent = np.array([at[int(tm.tree.parent[i])] for i in nodes], dtype=np.int64)
        levels.append((parent, tm.edge_beta[nodes], tm.h[nodes], tm.clamp[nodes]))
    return levels


def _check_level_fold(tm, l):
    """The level fold's ends against two whole tree_root_field folds, by float.hex."""
    ends = kernels.tree_bracket_levels(_depth_levels(tm, l), l)
    if l == 0:  # the free root is the sphere
        want = [-math.inf, math.inf]
    else:
        sphere = np.flatnonzero((tm.tree.depth == l) & (tm.clamp == 0))
        want = [kernels.tree_root_field(tm.tree.parent, tm.edge_beta, tm.h,
                                        with_pins(tm, sphere, pin).clamp) for pin in (-1, 1)]
    assert [float(f).hex() for f in ends] == [float(f).hex() for f in want]
    got = boundary_bracket(tm, l)
    assert [float(p).hex() for p in got] == [float(p).hex() for p in two_fold_bracket(tm, l)]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(bracket_cases())
def test_one_pass_bracket_matches_two_folds(case):
    _check_level_fold(*case)


def _wide_tree():
    """Root with six children, the first of which has five; fields and couplings spread."""
    parent = [-1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 12]
    rng = np.random.default_rng(5)
    n = len(parent)
    clamp = np.zeros(n, dtype=np.int8)
    clamp[[4, 9, 13]] = [1, -1, 1]  # pinned at depths 1 and 2
    return TreeModel(make_rooted_tree(parent), rng.uniform(0.05, 2.5, n),
                     rng.normal(0.0, 2.0, n), clamp)


def _zero_chain(h, clamp=(0, 0, 0)):
    """The path 0-1-2 with couplings 0.7 and 0.0, so node 2 contributes a signed zero."""
    return TreeModel(make_rooted_tree([-1, 0, 1]), np.array([0.0, 0.7, 0.0]), np.array(h),
                     np.array(clamp, dtype=np.int8))


@pytest.mark.parametrize("tm, l", [
    (_wide_tree(), 1), (_wide_tree(), 2), (_wide_tree(), 3),  # five and six siblings
    (_zero_chain([-0.0, -0.0, 0.3]), 2),  # the middle node holds -0.0 and +0.0
    (_zero_chain([0.0, -0.0, 0.0]), 3),  # zero fields, equal at both ends
    (_zero_chain([-0.0, 0.0, -0.0]), 2),
    (_zero_chain([0.2, -0.4, 1.0], clamp=(0, 0, 1)), 2),  # a clamped sphere node
    (_zero_chain([0.2, -0.4, 1.0], clamp=(0, 0, -1)), 2),
    (_zero_chain([0.2, -0.4, 1.0]), 0),
    (_zero_chain([0.2, -0.4, 1.0]), 7),  # past the tree's height
    (_wide_tree(), 0), (_wide_tree(), 5),
])
def test_level_fold_explicit_cases(tm, l):
    _check_level_fold(tm, l)


# ---------------------------------------------------------------------------
# walk-tree marginals against enumeration


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(clamped_models(st.one_of(st.floats(-800.0, 800.0), st.sampled_from([-800.0, 800.0]))),
       st.data())
def test_walk_tree_marginal_and_bracket_match_enumeration(m, data):
    free = m.graph.free_vertices().tolist()
    v = data.draw(st.sampled_from(free))
    others = [u for u in free if u != v]
    cond = data.draw(st.dictionaries(st.sampled_from(others), spin)) if others else {}
    exact = exact_conditional_marginal(m, v, cond)
    # the weitz-identity suite's tolerance
    assert abs(saw_marginal(m, v, m.n + 1, cond=cond) - exact) <= 1e-9
    for depth in range(m.n + 2):
        lo, hi = saw_marginal_bracket(m, v, depth, cond=cond)
        assert lo - 1e-12 <= exact <= hi + 1e-12, depth


# ---------------------------------------------------------------------------
# state masks against a 2^n index-array reference


def _reference_allowed_states(m, pins):
    """Shift-and-compare mask over an index array of all 2^n states."""
    idx = np.arange(1 << m.n, dtype=np.int64)
    ok = np.ones(idx.size, dtype=bool)
    for v in np.flatnonzero(pins):
        ok &= ((idx >> v) & 1) == (pins[v] > 0)
    return ok


def _reference_conditional_marginal(m, v, cond):
    """P(s_v = +1 | cond) with the numerator's states picked by an index array."""
    mass, _ = _shifted_mass(m.log_weights, _reference_allowed_states(m, merge_conditioning(m, cond)))
    num = mass[((np.arange(1 << m.n) >> v) & 1) == 1].sum()
    return float(num / mass.sum())


def _assert_masks_match(m, pins, conds):
    """Masks, the clamped law and each (v, cond) conditional, bit for bit."""
    for p in (pins, m.graph.clamp):
        assert _allowed_states(m, p).tobytes() == _reference_allowed_states(m, p).tobytes()
    want, log_z = normalize_log_weights(m.log_weights, _reference_allowed_states(m, m.graph.clamp))
    got = exact_distribution(m)
    assert got.probs.tobytes() == want.tobytes()
    assert got.log_z.hex() == log_z.hex()
    for v, cond in conds:
        assert (exact_conditional_marginal(m, v, cond).hex()
                == _reference_conditional_marginal(m, v, cond).hex())


def _end_conditions(m, v, spins):
    """Bit 0 and bit n - 1 conditioned to ``spins``, where free and not v."""
    return {u: s for u, s in zip((0, m.n - 1), spins) if u != v and m.graph.clamp[u] == 0}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(clamped_models(max_n=12), st.data())
def test_state_masks_match_the_index_array_reference(m, data):
    signs = st.sampled_from([0, 1, -1])
    pins = np.array(data.draw(st.lists(signs, min_size=m.n, max_size=m.n)), dtype=np.int8)
    pins[[0, -1]] = data.draw(st.tuples(spin, spin))  # bit 0 and bit n - 1 pinned
    conds = []
    free = m.graph.free_vertices().tolist()
    for v in free:
        others = [u for u in free if u != v]
        conds.append((v, _end_conditions(m, v, data.draw(st.tuples(spin, spin)))))
        if others:
            conds.append((v, data.draw(st.dictionaries(st.sampled_from(others), spin,
                                                       max_size=3))))
    _assert_masks_match(m, pins, conds)


def test_state_masks_match_the_reference_past_numpys_reduction_buffer():
    # numpy sums a strided view in 8192-element buffers, which regroups the
    # numerator's terms from n = 16 on; the contiguous copy keeps them pairwise
    rng = np.random.default_rng(17)
    n = 17
    edges = [(i, i + 1, 0.3 + 0.05 * (i % 4)) for i in range(n - 1)] + [(0, 9, 0.4), (3, 14, 0.2)]
    clamp = np.zeros(n, dtype=np.int8)
    clamp[[5, 11]] = 1, -1
    m = make_model(graph_from_edges(n, edges, h=rng.normal(0.0, 1.0, n), clamp=clamp))
    pins = clamp.copy()
    pins[[0, -1]] = -1, 1
    conds = [(v, cond) for v in m.graph.free_vertices().tolist()
             for cond in ({}, _end_conditions(m, v, (1, -1)))]
    _assert_masks_match(m, pins, conds)
