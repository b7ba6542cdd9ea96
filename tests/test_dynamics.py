import hashlib
import math
import warnings

import numpy as np
import pytest

from isinglab.dynamics import (
    MATRIX_VERTEX_CAP,
    TV_THRESHOLD,
    UpdateStream,
    build_block_transition_matrix,
    build_transition_matrix,
    default_checkpoints,
    exact_mixing_time,
    monotone_coupled_run,
    relaxation_time,
    run_chain,
)
from isinglab.errors import SizeError
from isinglab.graph import generate_erdos_renyi, graph_from_edges, path_graph, star_graph
from isinglab.model import (
    ExactDistribution,
    all_minus,
    all_plus,
    exact_distribution,
    make_model,
    tv_distance,
)
from isinglab.rng import substream
from isinglab.verify import consistency_suite, random_connected_model


def test_update_stream_deterministic_and_batch_invariant():
    m = make_model(path_graph(6, 0.5))
    a = UpdateStream(m, 99, chain_id=3)
    b = UpdateStream(m, 99, chain_id=3)
    va, ua = a.next_updates(1000)
    # consume the same thousand pairs in ragged batches
    parts = [1, 7, 92, 400, 500]
    vs, us = [], []
    for k in parts:
        v, u = b.next_updates(k)
        vs.append(v)
        us.append(u)
    assert np.array_equal(va, np.concatenate(vs))
    assert np.array_equal(ua, np.concatenate(us))
    # a different chain id decorrelates
    c, uc = UpdateStream(m, 99, chain_id=4).next_updates(1000)
    assert not np.array_equal(ua, uc)


def test_update_stream_sites_are_free_vertices():
    g = path_graph(6, 0.5).with_vertex_data(clamp=[1, 0, 0, 0, 0, -1])
    m = make_model(g)
    stream = UpdateStream(m, 1)
    v, _ = stream.next_updates(500)
    assert set(np.unique(v)) <= {1, 2, 3, 4}


def chain_steps_counted(adjacency, h, spins, v_arr, u_arr, thin, counts):
    """``kernels.chain_steps`` plus an occupation count, over list-form state.

    Every ``thin``-th update the bitmask index of the current configuration
    (bit v set iff spins[v] == +1) increments the list ``counts``.
    """
    s = spins.tolist()
    idx = sum(1 << v for v, x in enumerate(s) if x > 0)
    since = 0
    for v, u in zip(memoryview(v_arr), memoryview(u_arr)):
        f = h[v]
        for x, w in adjacency[v]:
            f += w * s[x]
        if f >= 0.0:
            p = 1.0 / (1.0 + math.exp(-2.0 * f))
        else:
            e = math.exp(2.0 * f)
            p = e / (1.0 + e)
        new = 1 if u <= p else -1
        if new != s[v]:
            s[v] = new
            idx += new << v
        since += 1
        if since == thin:
            counts[idx] += 1
            since = 0
    spins[:] = s


def empirical_distribution(m, s0, steps, thin, stream):
    """Occupation frequencies of the chain, thinned, as a distribution.

    Updates come in blocks of 2^16; the thinning phase restarts with each
    block.
    """
    adjacency = m.graph.adjacency
    h = m.graph.h.tolist()
    s = np.array(s0, dtype=np.int8)
    counts = [0] * (1 << m.n)
    done = 0
    while done < steps:
        k = min(1 << 16, steps - done)
        vs, us = stream.next_updates(k)
        chain_steps_counted(adjacency, h, s, vs, us, thin, counts)
        done += k
    freq = np.array(counts, dtype=np.float64)
    return ExactDistribution(m.n, freq / freq.sum(), None)


def test_run_chain_reaches_stationarity():
    m = make_model(path_graph(5, 0.6))
    stream = UpdateStream(m, 7)
    emp = empirical_distribution(m, all_plus(m), steps=400_000, thin=5, stream=stream)
    exact = exact_distribution(m)
    assert tv_distance(emp, exact) <= 0.01


def test_detailed_balance_of_transition_matrix():
    rng = substream(71, "dynamics-test")
    for _ in range(10):
        m = random_connected_model(rng, min_n=2, max_n=7)
        t = build_transition_matrix(m)
        assert t.reversible
        p = t.matrix
        pi = t.stationary
        flux = pi[:, None] * p - (pi[:, None] * p).T
        assert np.abs(flux).max() <= 1e-10
        assert np.allclose(pi @ p, pi, atol=1e-12)


def test_transition_matrix_is_finite_under_huge_fields():
    # the heat-bath probabilities are logistics of log-weight gaps of
    # about 1600 here; none may overflow on the way to 0 or 1
    m = make_model(path_graph(4, 0.5).with_vertex_data(h=[800.0, -800.0, 0.3, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = build_transition_matrix(m)
    assert np.abs(t.matrix.sum(axis=1) - 1.0).max() <= 1e-12
    assert t.reversible


def test_singleton_blocks_equal_single_site_matrix():
    rng = substream(72, "dynamics-blocks")
    for _ in range(5):
        m = random_connected_model(rng, min_n=3, max_n=6)
        free = [int(v) for v in m.graph.free_vertices()]
        t1 = build_transition_matrix(m)
        t2 = build_block_transition_matrix(m, [[v] for v in free])
        assert np.abs(t1.matrix - t2.matrix).max() <= 1e-12


def test_matrices_of_a_model_without_free_vertices_raise():
    m = make_model(path_graph(3).with_vertex_data(clamp=[1, -1, 1]))
    with pytest.raises(ValueError, match="no free vertices"):
        build_transition_matrix(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no free vertices"):
            build_block_transition_matrix(m, [])


def test_block_matrix_mixes_faster_than_single_site():
    m = make_model(path_graph(6, 0.8))
    t1 = build_transition_matrix(m)
    t2 = build_block_transition_matrix(m, [[0, 1, 2], [3, 4, 5]])
    assert relaxation_time(t2) < relaxation_time(t1)


def test_matrix_vertex_cap():
    m = make_model(path_graph(MATRIX_VERTEX_CAP + 1, 0.2))
    with pytest.raises(SizeError):
        build_transition_matrix(m)


def test_exact_mixing_time_definition():
    m = make_model(star_graph(4, 0.7))
    t = build_transition_matrix(m)
    s = exact_mixing_time(t)
    from isinglab.dynamics import chain_tv_from_stationary

    assert chain_tv_from_stationary(t, np.linalg.matrix_power(t.matrix, s)) <= TV_THRESHOLD
    assert (
        chain_tv_from_stationary(t, np.linalg.matrix_power(t.matrix, s - 1))
        > TV_THRESHOLD
    )


def test_monotone_coupling_meets_and_audits():
    rng = substream(73, "dynamics-coupling")
    for trial in range(10):
        m = random_connected_model(rng, min_n=3, max_n=8, beta_hi=0.6)
        stream = UpdateStream(m, 500 + trial)
        res = monotone_coupled_run(m, 200_000, stream)
        assert res.coupled
        assert 1 <= res.steps <= 200_000
        assert res.checkpoints  # audit schedule was exercised


def test_coupling_result_reproducible():
    m = make_model(star_graph(6, 0.9))
    r1 = monotone_coupled_run(m, 100_000, UpdateStream(m, 12, chain_id=1))
    r2 = monotone_coupled_run(m, 100_000, UpdateStream(m, 12, chain_id=1))
    assert (r1.coupled, r1.steps) == (r2.coupled, r2.steps)


def test_run_chain_deterministic():
    m = make_model(path_graph(6, 0.4))
    s = run_chain(m, all_plus(m), 1000, UpdateStream(m, 44, chain_id=0))
    t = run_chain(m, all_plus(m), 1000, UpdateStream(m, 44, chain_id=0))
    assert np.array_equal(s, t)


# sha256 of the dynamics bytes below, recorded with the numpy-indexing
# kernels that tests/test_properties.py keeps as reference loops
DYNAMICS_DIGEST = "ce8e65987792dbd8347976a686fb98b14051243fffe6939e548a2080d643335e"


def test_dynamics_bytes_pinned():
    h = hashlib.sha256()
    m = make_model(generate_erdos_renyi(2000, 2.0, 17, beta=0.3))
    s = run_chain(m, all_minus(m), 200_000, UpdateStream(m, 23))
    h.update(s.tobytes())
    er = generate_erdos_renyi(300, 2.0, 29, beta=0.35)
    clamp = np.zeros(er.n, dtype=np.int8)
    clamp[::7] = 1
    clamp[3::11] = -1
    fields = substream(31, "pin-fields").uniform(-0.5, 0.5, size=40)
    models = [
        make_model(er),
        make_model(er.with_vertex_data(clamp=clamp)),
        make_model(star_graph(12, 1.6)),  # hits the cap
        make_model(path_graph(40, 0.7).with_vertex_data(h=fields)),
    ]
    for k, mm in enumerate(models):
        res = monotone_coupled_run(mm, 100_000, UpdateStream(mm, 37, chain_id=k))
        h.update(repr((res.coupled, res.steps, res.checkpoints)).encode())
    assert h.hexdigest() == DYNAMICS_DIGEST


def test_default_checkpoints_geometric():
    pts = default_checkpoints(1000)
    assert pts[0] == 1
    assert pts[-1] == 1000
    assert all(b == 2 * a for a, b in zip(pts[:-2], pts[1:-1]))


def test_ferromagnetic_requirement():
    g = graph_from_edges(2, [(0, 1, 0.5)])
    m = make_model(g)
    stream = UpdateStream(m, 5)
    res = monotone_coupled_run(m, 10_000, stream)
    assert res.coupled


def test_consistency_suite_passes_at_its_defaults():
    # detailed balance and singleton blocks on 10 models, 15 edge
    # removals and one block-product bound
    report = consistency_suite()
    assert report.passed and report.counts == (36, 36)
    kinds = [row.label.split("-")[0] for row in report.rows]
    assert [kinds.count(k) for k in ("balance", "single", "edge", "block")] == [10, 10, 15, 1]
