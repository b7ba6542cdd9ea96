"""Property checks of invariants the module docstrings claim.

Hypothesis runs derandomized with its example database off, so every run
draws the same examples and the suite stays deterministic.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from isinglab.errors import BudgetError  # noqa: E402
from isinglab.graph import ball, ball_excesses, graph_from_edges, tree_excess  # noqa: E402
from isinglab.sawtree import build_saw_tree, saw_tree_size  # noqa: E402

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
