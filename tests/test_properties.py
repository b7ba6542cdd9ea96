"""Property checks of invariants the module docstrings claim.

Hypothesis runs derandomized with its example database off, so every run
draws the same examples and the suite stays deterministic.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from isinglab.dynamics import UpdateStream  # noqa: E402
from isinglab.errors import BudgetError  # noqa: E402
from isinglab.graph import ball, ball_excesses, graph_from_edges, tree_excess  # noqa: E402
from isinglab.model import make_model  # noqa: E402
from isinglab.sampler import algorithm1_output_law, algorithm1_samples  # noqa: E402
from isinglab.sawtree import build_saw_tree, saw_marginal, saw_tree_size  # noqa: E402

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


@st.composite
def clamped_models(draw):
    """Connected model on <= 8 vertices: a random tree, a few chords, clamps."""
    n = draw(st.integers(1, 8))
    betas = st.floats(0.05, 1.5)
    edges = {(draw(st.integers(0, i - 1)), i): draw(betas) for i in range(1, n)}
    for _ in range(draw(st.integers(0, 3)) if n > 2 else 0):
        u = draw(st.integers(0, n - 2))
        edges.setdefault((u, draw(st.integers(u + 1, n - 1))), draw(betas))
    h = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    clamp = draw(st.lists(st.sampled_from([0, 0, 1, -1]), min_size=n, max_size=n))
    clamp[draw(st.integers(0, n - 1))] = 0  # at least one free vertex
    g = graph_from_edges(n, [(u, v, b) for (u, v), b in edges.items()], h=h, clamp=clamp)
    return make_model(g)


def _reference_draw(m, depth, stream):
    """One draw that rebuilds every walk tree and conditions through a dict."""
    free = m.graph.free_vertices()
    us = stream.next_uniforms(free.size)
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
