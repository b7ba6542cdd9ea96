"""Compiled kernels and their uncompiled sources must agree bit for bit."""

import numpy as np
import pytest

from isinglab import kernels
from isinglab.graph import graph_from_edges
from isinglab.rng import substream


def _random_csr(rng, n=9, extra=6):
    edges = [(i, i + 1, 0.3 + 0.5 * rng.random()) for i in range(n - 1)]
    seen = {(u, v) for u, v, _ in edges}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.choice(n, size=2, replace=False))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((int(u), int(v), 0.3 + 0.5 * rng.random()))
    h = rng.uniform(-0.8, 0.8, size=n)
    g = graph_from_edges(n, edges, h=h)
    return g


pairs = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")


@pairs
def test_chain_steps_bit_equal():
    rng = substream(11, "kernel-test", 0)
    g = _random_csr(rng)
    for trial in range(5):
        spins_a = np.where(rng.random(g.n) < 0.5, 1, -1).astype(np.int8)
        spins_b = spins_a.copy()
        v_arr = rng.integers(0, g.n, size=400)
        u_arr = rng.random(400)
        kernels.chain_steps(g.indptr, g.indices, g.weights, g.h, spins_a, v_arr, u_arr)
        kernels.chain_steps.py_func(g.indptr, g.indices, g.weights, g.h, spins_b, v_arr, u_arr)
        assert np.array_equal(spins_a, spins_b)


@pairs
def test_chain_steps_counted_bit_equal():
    rng = substream(12, "kernel-test", 1)
    g = _random_csr(rng, n=6, extra=3)
    spins_a = np.ones(g.n, dtype=np.int8)
    spins_b = spins_a.copy()
    counts_a = np.zeros(2**g.n, dtype=np.int64)
    counts_b = np.zeros(2**g.n, dtype=np.int64)
    v_arr = rng.integers(0, g.n, size=2000)
    u_arr = rng.random(2000)
    kernels.chain_steps_counted(
        g.indptr, g.indices, g.weights, g.h, spins_a, v_arr, u_arr, 3, counts_a
    )
    kernels.chain_steps_counted.py_func(
        g.indptr, g.indices, g.weights, g.h, spins_b, v_arr, u_arr, 3, counts_b
    )
    assert np.array_equal(spins_a, spins_b)
    assert np.array_equal(counts_a, counts_b)
    assert counts_a.sum() == 2000 // 3


@pairs
def test_coupled_steps_bit_equal():
    rng = substream(13, "kernel-test", 2)
    g = _random_csr(rng)
    up_a = np.ones(g.n, dtype=np.int8)
    lo_a = -np.ones(g.n, dtype=np.int8)
    up_b, lo_b = up_a.copy(), lo_a.copy()
    v_arr = rng.integers(0, g.n, size=3000)
    u_arr = rng.random(3000)
    ra = kernels.coupled_steps(
        g.indptr, g.indices, g.weights, g.h, up_a, lo_a, v_arr, u_arr, g.n
    )
    rb = kernels.coupled_steps.py_func(
        g.indptr, g.indices, g.weights, g.h, up_b, lo_b, v_arr, u_arr, g.n
    )
    assert tuple(ra) == tuple(rb)
    assert np.array_equal(up_a, up_b)
    assert np.array_equal(lo_a, lo_b)


@pairs
def test_tree_root_field_bit_equal():
    rng = substream(14, "kernel-test", 3)
    for trial in range(20):
        nn = int(rng.integers(2, 40))
        parent = np.empty(nn, dtype=np.int64)
        parent[0] = -1
        for i in range(1, nn):
            parent[i] = int(rng.integers(0, i))
        edge_beta = rng.uniform(0.05, 1.5, size=nn)
        h_node = rng.uniform(-1.0, 1.0, size=nn)
        clamp = rng.choice(np.array([-1, 0, 0, 0, 1]), size=nn).astype(np.int8)
        clamp[0] = 0
        fa = kernels.tree_root_field(parent, edge_beta, h_node, clamp)
        fb = kernels.tree_root_field.py_func(parent, edge_beta, h_node, clamp)
        assert fa == fb


def test_chain_steps_respects_conditional():
    # one free site between two frozen +1 neighbors: flip prob is known
    g = graph_from_edges(3, [(0, 1, 0.7), (1, 2, 0.7)])
    spins = np.array([1, -1, 1], dtype=np.int8)
    v_arr = np.zeros(1, dtype=np.int64) + 1
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * 1.4))
    kernels.chain_steps(
        g.indptr, g.indices, g.weights, g.h, spins, v_arr,
        np.array([p_plus - 1e-12]),
    )
    assert spins[1] == 1
    kernels.chain_steps(
        g.indptr, g.indices, g.weights, g.h, spins, v_arr,
        np.array([p_plus + 1e-12]),
    )
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
    kernels.chain_steps(
        g.indptr, g.indices, g.weights, g.h, spins,
        np.array([0, 1], dtype=np.int64), np.array([0.5, 0.5]),
    )
    assert spins[0] == 1 and spins[1] == -1
