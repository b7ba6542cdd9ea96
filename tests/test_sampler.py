import hashlib
import json
import math

import numpy as np
import pytest

from isinglab.dynamics import UpdateStream
from isinglab.errors import SizeError
from isinglab.graph import cycle_graph, path_graph
from isinglab.model import ExactDistribution, exact_distribution, make_model, tv_distance
from isinglab.sampler import (
    algorithm1_output_law,
    algorithm1_sample,
    algorithm1_samples,
    radius_for,
    truncation_tv_bound,
)
from isinglab.sawtree import build_saw_trees, tree_model
from isinglab.treecalc import root_marginal
from isinglab.verify import DEFAULT_MASTER_SEED, random_connected_model
from isinglab.rng import substream


def test_output_law_exact_at_full_radius():
    m = make_model(cycle_graph(7, 0.5))
    law = algorithm1_output_law(m, m.n + 1)
    assert tv_distance(law, exact_distribution(m)) <= 1e-9


def test_output_law_respects_truncation_bound():
    m = make_model(cycle_graph(8, 0.45))
    L = 2
    law = algorithm1_output_law(m, L)
    tv = tv_distance(law, exact_distribution(m))
    assert tv <= truncation_tv_bound(m, L) + 1e-9


def test_output_law_cap():
    m = make_model(path_graph(15, 0.2))
    with pytest.raises(SizeError):
        algorithm1_output_law(m, 3)


def test_sample_deterministic_and_json_stable():
    m = make_model(cycle_graph(6, 0.5))
    r1 = algorithm1_sample(m, 7, UpdateStream(m, 321, chain_id=0))
    r2 = algorithm1_sample(m, 7, UpdateStream(m, 321, chain_id=0))
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
    r3 = algorithm1_sample(m, 7, UpdateStream(m, 321, chain_id=1))
    assert not np.array_equal(r1.spins, r3.spins) or not np.array_equal(r1.p, r3.p)


def test_sample_respects_clamps_and_order():
    g = cycle_graph(6, 0.5).with_vertex_data(clamp=[0, 1, 0, 0, -1, 0])
    m = make_model(g)
    run = algorithm1_sample(m, 7, UpdateStream(m, 8))
    assert run.spins[1] == 1 and run.spins[4] == -1
    assert run.order.tolist() == [0, 2, 3, 5]
    assert np.all(np.abs(run.spins) == 1)
    assert np.all((run.p > 0) & (run.p < 1))


def test_sample_frequencies_match_law():
    # empirical check on a tiny model: frequencies track the output law
    m = make_model(path_graph(3, 0.8))
    law = algorithm1_output_law(m, m.n + 1)
    counts = np.zeros(8)
    draws = 6000
    streams = [UpdateStream(m, 606, chain_id=k) for k in range(draws)]
    for run in algorithm1_samples(m, m.n + 1, streams):
        idx = sum(1 << v for v in range(3) if run.spins[v] > 0)
        counts[idx] += 1
    emp = counts / draws
    assert 0.5 * np.abs(emp - law.probs).sum() <= 0.035


def test_truncation_bound_decreases_with_radius():
    m = make_model(cycle_graph(9, 0.6))
    bounds = [truncation_tv_bound(m, L) for L in (2, 3, 5, 7)]
    assert all(b >= 0 for b in bounds)
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert truncation_tv_bound(m, m.n + 1) == 0.0


def sufficient_radius_factor(b: float, beta: float, gamma: float) -> float:
    """Radius-per-log-n factor giving an n^-gamma truncation error.

    Valid when b * tanh(beta) < 1, where b bounds the per-level growth of
    walk-tree boundaries; the walk-tree boundary term then decays like
    (b tanh beta)^L and L = factor * log n forces it below n^-gamma after
    the union over n chained steps.
    """
    if b < 1.0 or beta <= 0.0 or gamma <= 0.0:
        raise ValueError("need b >= 1, beta > 0, gamma > 0")
    rate = -math.log(b * math.tanh(beta))
    if rate <= 0.0:
        raise ValueError("b * tanh(beta) must be < 1 for radius to be sufficient")
    return (1.0 + gamma) / rate


def test_radius_factor_math():
    f = sufficient_radius_factor(2.0, 0.2, 1.0)
    assert f == pytest.approx(2.0 / -math.log(2.0 * math.tanh(0.2)), rel=1e-12)
    with pytest.raises(ValueError):
        sufficient_radius_factor(2.0, 1.5, 1.0)  # 2 tanh(1.5) > 1
    assert radius_for(1000, f) == max(1, math.ceil(f * math.log(1000)))
    assert radius_for(1, 0.5) == 1


def test_sampler_on_random_models_matches_enumeration():
    rng = substream(81, "sampler-test")
    for trial in range(5):
        m = random_connected_model(rng, min_n=3, max_n=7, beta_hi=0.5)
        law = algorithm1_output_law(m, m.n + 1)
        assert tv_distance(law, exact_distribution(m)) <= 1e-8


def test_output_law_bytes_pinned():
    # sha256 recorded when every prefix still rebuilt its walk tree
    rng = substream(5, "output-law-pin")
    h = hashlib.sha256()
    for _ in range(6):
        m = random_connected_model(rng, min_n=3, max_n=9, beta_hi=0.6, extra_edges=2)
        clamp = np.zeros(m.n, dtype=np.int8)
        clamp[0], clamp[m.n - 1] = 1, -1
        for mm in (m, make_model(m.graph.with_vertex_data(clamp=clamp))):
            for L in (1, 2, m.n + 1):
                h.update(algorithm1_output_law(mm, L).probs.tobytes())
    assert h.hexdigest() == "6075936bd377fc8c58acc9a08a4f1870520c421a7b377621587591666b239b26"


def whole_tree_output_law(m, depth_limit):
    """Output law by prefix enumeration, one whole-tree fold per prefix."""
    free = m.graph.free_vertices()
    trees = list(build_saw_trees(m.graph, free, depth_limit))
    probs = np.zeros(1 << m.n)
    pins = m.graph.clamp.copy()

    def descend(i, mask, weight):
        if i == free.size:
            probs[mask] += weight
            return
        v = int(free[i])
        p = root_marginal(tree_model(trees[i], pins))
        pins[v] = 1
        descend(i + 1, mask | (1 << v), weight * p)
        pins[v] = -1
        descend(i + 1, mask, weight * (1.0 - p))
        pins[v] = 0

    descend(0, sum(1 << v for v in range(m.n) if m.graph.clamp[v] > 0), 1.0)
    return ExactDistribution(m.n, probs, None)


def sampler_tv_models():
    """The sampler-tv suite's instances: cycles of 4..10 and 50 random models."""
    rng = substream(DEFAULT_MASTER_SEED, "verify-sampler")
    models = [make_model(cycle_graph(n, 0.45).with_vertex_data(h=rng.uniform(-0.3, 0.3, size=n)))
              for n in range(4, 11)]
    for _ in range(50):
        models.append(random_connected_model(
            rng, max_n=10, beta_lo=0.1, beta_hi=0.5, h_lo=-0.5, h_hi=0.5,
            extra_edges=int(rng.integers(0, 4))))
    return models


def test_output_law_matches_whole_tree_prefix_folds():
    # screened trees, folds shared between prefixes and the step-by-step
    # enumeration give the bits of one whole-tree fold per prefix
    clamped = cycle_graph(9, 0.6).with_vertex_data(
        h=np.linspace(-0.4, 0.4, 9), clamp=[0, 1, 0, 0, -1, 0, 0, 1, 0])
    every = cycle_graph(4, 0.6).with_vertex_data(clamp=[1, -1, 1, 1])  # no free vertex
    models = sampler_tv_models() + [make_model(clamped), make_model(every)]
    for m in models:
        for L in (m.n + 1, 2):
            law = algorithm1_output_law(m, L)
            assert np.array_equal(law.probs, whole_tree_output_law(m, L).probs), (m.n, L)
