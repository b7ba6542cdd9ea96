import math

import numpy as np
import pytest

from isinglab import kernels
from isinglab.graph import generate_galton_watson, make_rooted_tree, tree_as_graph
from isinglab.model import exact_conditional_marginal, make_model
from isinglab.rng import substream
from isinglab.treecalc import (
    TreeModel,
    boundary_bracket,
    boundary_influence,
    make_tree_model,
    root_field,
    root_marginal,
)


def with_pins(tm, nodes, value):
    """Copy of the model with the given nodes pinned to value (+1/-1)."""
    clamp = tm.clamp.copy()
    clamp[np.asarray(nodes, dtype=np.int64)] = value
    return TreeModel(tm.tree, tm.edge_beta, tm.h, clamp)


def two_fold_bracket(tm, l):
    """boundary_bracket as two whole folds, the free depth-l sphere pinned - then +."""
    sphere = np.flatnonzero((tm.tree.depth == l) & (tm.clamp == 0))
    return root_marginal(with_pins(tm, sphere, -1)), root_marginal(with_pins(tm, sphere, 1))


def chain_model(betas, h=None, clamp=None):
    n = len(betas) + 1
    tree = make_rooted_tree([-1] + list(range(n - 1)))
    return make_tree_model(tree, [0.0] + list(betas), h=h, clamp=clamp)


def test_single_edge_field():
    # root field from one free child: atanh(tanh(b) tanh(h_child))
    tm = chain_model([0.8], h=[0.0, 0.5])
    expect = math.atanh(math.tanh(0.8) * math.tanh(0.5))
    assert root_field(tm) == pytest.approx(expect, rel=1e-14)


def test_pinned_child_contributes_exactly_beta():
    tm = chain_model([0.8], h=[0.0, 123.0], clamp=[0, 1])
    assert root_field(tm) == pytest.approx(0.8, abs=0)
    tm = chain_model([0.8], h=[0.0, 123.0], clamp=[0, -1])
    assert root_field(tm) == pytest.approx(-0.8, abs=0)


def test_root_marginal_matches_enumeration():
    rng = substream(51, "treecalc-test")
    for trial in range(25):
        t = generate_galton_watson(2.0, 3, seed=300 + trial)
        if not 2 <= t.size <= 12:
            continue
        nn = t.size
        eb = rng.uniform(0.1, 1.2, size=nn)
        h = rng.uniform(-0.7, 0.7, size=nn)
        clamp = np.where(rng.random(nn) < 0.15, rng.choice([-1, 1], size=nn), 0).astype(np.int8)
        clamp[0] = 0
        tm = make_tree_model(t, eb, h=h, clamp=clamp)
        m = make_model(tree_as_graph(t, edge_beta=eb, h=h, clamp=clamp))
        assert root_marginal(tm) == pytest.approx(
            exact_conditional_marginal(m, 0), abs=1e-11
        )


def test_path_decay_product_identity():
    # field-free chain: end-to-end influence is the product of tanh(beta_i)
    rng = substream(52, "treecalc-decay")
    for length in (1, 2, 5, 9):
        betas = rng.uniform(0.1, 1.3, size=length)
        tm = chain_model(betas)
        infl = boundary_influence(tm, length)
        expect = float(np.prod(np.tanh(betas)))
        assert infl == pytest.approx(expect, abs=1e-13)


def test_screening_pin_blocks_influence():
    # pinning an interior node makes everything below it irrelevant
    tm = chain_model([0.9, 0.9, 0.9], clamp=[0, 0, 1, 0])
    base = root_marginal(tm)
    flipped = root_marginal(with_pins(tm, [3], 1))
    assert flipped == pytest.approx(base, abs=0)


def test_boundary_influence_sign_and_bound():
    rng = substream(53, "treecalc-bound")
    for trial in range(20):
        t = generate_galton_watson(2.0, 4, seed=640 + trial)
        if t.size < 3 or t.depth.max() < 2:
            continue
        depth = int(t.depth.max())
        eb = rng.uniform(0.2, 1.0, size=t.size)
        tm = make_tree_model(t, eb)
        infl = boundary_influence(tm, depth)
        sphere = int(np.count_nonzero(t.depth == depth))
        bound = sphere * math.tanh(float(eb[1:].max())) ** depth
        assert 0.0 <= infl <= bound + 1e-12


def test_boundary_influence_keeps_pinned_sphere_node():
    # an already-pinned sphere node keeps its pin at both ends of the bracket
    tm = chain_model([0.5], clamp=[0, 1])
    assert boundary_bracket(tm, 1) == (root_marginal(tm), root_marginal(tm))
    assert boundary_influence(tm, 1) == 0.0
    with pytest.raises(ValueError):
        boundary_influence(tm, -1)


def test_one_pass_bracket_keeps_signed_zeros():
    # the zero-coupling sphere node adds -0.0 below and 0.0 above, so the
    # free node over it holds fields -0.0 and 0.0: equal, yet they add
    # zeros of opposite sign to the root's -0.0 field
    tm = chain_model([0.7, 0.0], h=[-0.0, -0.0, 0.3])
    levels = [(np.array([p]), tm.edge_beta[[i]], tm.h[[i]], tm.clamp[[i]])
              for i, p in enumerate([-1, 0, 0])]
    ends = kernels.tree_bracket_levels(levels, 2)
    folds = [root_field(with_pins(tm, [2], pin)) for pin in (-1, 1)]
    assert [f.hex() for f in ends] == [f.hex() for f in folds] == ["-0x0.0p+0", "0x0.0p+0"]
