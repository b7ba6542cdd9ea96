import math

import numpy as np
import pytest

from isinglab.errors import ConditioningError, SizeError
from isinglab.graph import graph_from_edges, path_graph
from isinglab.model import (
    clamp_large_fields,
    exact_conditional_marginal,
    exact_distribution,
    make_model,
    merge_conditioning,
    plus_prob,
    tv_distance,
)
from isinglab.rng import substream
from isinglab.verify import random_connected_model


def test_log_weight_manual():
    g = graph_from_edges(3, [(0, 1, 0.4), (1, 2, 0.9)], h=[0.1, -0.2, 0.3])
    dist = exact_distribution(make_model(g))

    def hand(s0, s1, s2):
        return 0.4 * s0 * s1 + 0.9 * s1 * s2 + 0.1 * s0 - 0.2 * s1 + 0.3 * s2

    expect = 0.4 * (1 * -1) + 0.9 * (-1 * 1) + 0.1 * 1 + (-0.2) * -1 + 0.3 * 1
    # s = (+, -, +) is bitmask 0b101
    assert math.log(dist.probs[0b101]) + dist.log_z == pytest.approx(expect, abs=1e-14)
    for idx in range(8):
        s = [1 if (idx >> v) & 1 else -1 for v in range(3)]
        ratio = math.log(dist.probs[idx] / dist.probs[0b101])
        assert ratio == pytest.approx(hand(*s) - expect, abs=1e-14)


def test_single_edge_exact_distribution():
    # two spins, one coupling: P(agree) = e^b / (e^b + e^-b) per pair
    b = 0.7
    m = make_model(graph_from_edges(2, [(0, 1, b)]))
    dist = exact_distribution(m)
    z = 2 * math.exp(b) + 2 * math.exp(-b)
    agree = math.exp(b) / z
    disagree = math.exp(-b) / z
    # states indexed by bitmask: 00=(-,-), 01=(+,-), 10=(-,+), 11=(+,+)
    assert dist.probs[0b00] == pytest.approx(agree, rel=1e-12)
    assert dist.probs[0b11] == pytest.approx(agree, rel=1e-12)
    assert dist.probs[0b01] == pytest.approx(disagree, rel=1e-12)
    assert dist.probs[0b10] == pytest.approx(disagree, rel=1e-12)
    assert dist.log_z == pytest.approx(math.log(z), rel=1e-12)


def test_field_only_exact_distribution():
    h = 0.45
    m = make_model(graph_from_edges(1, [], h=[h]))
    dist = exact_distribution(m)
    assert dist.probs[1] == pytest.approx(1 / (1 + math.exp(-2 * h)), rel=1e-12)


def test_global_flip_symmetry_without_fields():
    rng = substream(31, "model-test")
    for _ in range(10):
        m = random_connected_model(rng, min_n=2, max_n=6, h_lo=0.0, h_hi=0.0)
        dist = exact_distribution(m)
        full = (1 << m.n) - 1
        for idx in range(dist.probs.size):
            assert dist.probs[idx] == pytest.approx(dist.probs[idx ^ full], rel=1e-10)


def test_clamped_states_have_zero_mass():
    g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)], clamp=[0, 0, -1])
    dist = exact_distribution(make_model(g))
    mask = 1 << 2
    for idx in range(dist.probs.size):
        if idx & mask:
            assert dist.probs[idx] == 0.0
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_plus_prob_matches_enumeration():
    rng = substream(37, "model-test-cond")
    for _ in range(10):
        m = random_connected_model(rng, min_n=2, max_n=6)
        g = m.graph
        s = np.where(rng.random(m.n) < 0.5, 1, -1).astype(np.int8)
        s[g.clamp != 0] = g.clamp[g.clamp != 0]
        free = g.free_vertices()
        v = int(free[rng.integers(free.size)])
        row = slice(g.indptr[v], g.indptr[v + 1])
        nbrs, wts = g.indices[row], g.weights[row]
        f = float(g.h[v] + wts @ s[nbrs])
        # the conditional from the two states that differ only at v
        probs = exact_distribution(m).probs
        up = sum(1 << u for u in range(m.n) if s[u] > 0 or u == v)
        down = up & ~(1 << v)
        p = plus_prob(f)
        assert type(p) is float
        assert p == pytest.approx(probs[up] / (probs[up] + probs[down]), rel=1e-12)
    # a Python float on both branches of the stable logistic
    for f in (0.5, 0.0, -0.5, -40.0):
        p = plus_prob(f)
        assert type(p) is float
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-2.0 * f)), rel=1e-12)


def test_exact_conditional_marginal_consistency():
    m = make_model(path_graph(4, 0.6))
    # conditioning on an endpoint shifts the neighbor marginal upward
    p_free = exact_conditional_marginal(m, 1)
    p_plus = exact_conditional_marginal(m, 1, {0: 1})
    p_minus = exact_conditional_marginal(m, 1, {0: -1})
    assert p_free == pytest.approx(0.5, abs=1e-12)
    assert p_plus > p_free > p_minus
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_merge_conditioning_conflict():
    g = graph_from_edges(2, [(0, 1, 1.0)], clamp=[1, 0])
    m = make_model(g)
    with pytest.raises(ConditioningError):
        merge_conditioning(m, {0: -1})
    merged = merge_conditioning(m, {1: -1})
    assert merged.tolist() == [1, -1]
    # a query vertex outside [0, n) is rejected as a conditioned one is
    path = make_model(path_graph(4, 0.5))
    for v in (-1, 4):
        with pytest.raises(ConditioningError, match="out of range"):
            exact_conditional_marginal(path, v)


def test_exact_distribution_size_cap():
    m = make_model(path_graph(25, 0.1))
    with pytest.raises(SizeError):
        exact_distribution(m)
    with pytest.raises(SizeError):
        exact_conditional_marginal(m, 0)


def test_log_weights_cached_and_read_only():
    m = make_model(path_graph(4, 0.6))
    table = m.log_weights
    assert m.log_weights is table and table.shape == (16,)
    with pytest.raises(ValueError):
        table[0] = 0.0


def test_tv_distance_bounds():
    m = make_model(path_graph(3, 0.5))
    d = exact_distribution(m)
    assert tv_distance(d, d) == 0.0
    m2 = make_model(path_graph(3, 1.5))
    d2 = exact_distribution(m2)
    assert 0.0 < tv_distance(d, d2) < 1.0


def test_clamp_large_fields_preserves_conditional_law():
    # a huge field behaves like a hard pin; detaching it must leave the
    # remaining free-spin law essentially unchanged
    rng = substream(41, "model-test-clamp")
    for trial in range(5):
        m = random_connected_model(rng, min_n=3, max_n=6)
        g = m.graph
        v = int(rng.integers(g.n))
        h = g.h.copy()
        h[v] = 60.0 * max(m.beta_max, 0.1) * g.n
        m_big = make_model(g.with_vertex_data(h=h))
        m_clamped = clamp_large_fields(m_big)
        assert m_clamped.graph.clamp[v] == 1
        # absorbed fields on free vertices stay below the clamp threshold
        # plus one coupling per other vertex
        out = m_clamped.graph
        bound = 10.0 * m.beta_max * g.n + (g.n - 1) * m.beta_max
        assert np.all(np.abs(out.h[out.clamp == 0]) <= bound)
        d_big = exact_distribution(m_big)
        d_cl = exact_distribution(make_model(m_clamped.graph))
        assert tv_distance(d_big, d_cl) <= 1e-9


def test_clamp_large_fields_noop_when_fields_small():
    m = make_model(path_graph(5, 0.5))
    out = clamp_large_fields(m)
    assert np.array_equal(out.graph.clamp, m.graph.clamp)
    assert np.array_equal(out.graph.h, m.graph.h)


def test_clamp_large_fields_pins_no_small_field_at_weak_coupling():
    # 10 * beta_max * n is 0.05 and 0 here; fields of 0.1 are not large
    h = [0.1, -0.1, 0.1, -0.1, 0.1]
    for beta in (0.001, 0.0):
        m = make_model(path_graph(5, beta).with_vertex_data(h=h))
        out = clamp_large_fields(m)
        assert not out.graph.clamp.any()
        assert np.array_equal(out.graph.h, m.graph.h)
