"""Kernel behaviour at known conditionals and extreme fields.

Bit equality with numpy-indexing reference loops is a property test in
``tests/test_properties.py``.
"""

import numpy as np

from isinglab import kernels
from isinglab.graph import graph_from_edges


def test_chain_steps_respects_conditional():
    # one free site between two frozen +1 neighbors: flip prob is known
    g = graph_from_edges(3, [(0, 1, 0.7), (1, 2, 0.7)])
    spins = np.array([1, -1, 1], dtype=np.int8)
    v_arr = np.zeros(1, dtype=np.int64) + 1
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * 1.4))
    kernels.chain_steps(g.adjacency, g.h, *g.plus_prob_bounds, spins, v_arr,
                        np.array([p_plus - 1e-12]))
    assert spins[1] == 1
    kernels.chain_steps(g.adjacency, g.h, *g.plus_prob_bounds, spins, v_arr,
                        np.array([p_plus + 1e-12]))
    assert spins[1] == -1


def test_logistic_tails_are_stable():
    # huge fields must not overflow in either tail
    parent = np.array([-1, 0], dtype=np.int64)
    edge_beta = np.array([0.0, 3.0])
    for sign in (+1.0, -1.0):
        h_node = np.array([sign * 800.0, 0.0])
        clamp = np.zeros(2, dtype=np.int8)
        f = kernels.tree_root_field(parent, edge_beta, h_node, clamp)
        assert np.isfinite(f)
    g = graph_from_edges(2, [(0, 1, 1.0)], h=[900.0, -900.0])
    spins = np.array([1, -1], dtype=np.int8)
    kernels.chain_steps(g.adjacency, g.h, *g.plus_prob_bounds, spins,
                        np.array([0, 1], dtype=np.int64), np.array([0.5, 0.5]))
    assert spins[0] == 1 and spins[1] == -1
