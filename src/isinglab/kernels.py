"""Hot inner loops in plain Python over list-form state, and the bracket fold.

A Python loop reads list items and memoryview items as plain ints and
floats, while indexing a numpy array boxes a numpy scalar on every read.
So each kernel copies the state it rewrites into a list once per call,
walks its read-only arrays through memoryviews, and writes the state
back before it returns.  Both dynamics kernels read a vertex's
neighbourhood from the per-vertex (neighbour, coupling) tuples of
``WeightedGraph.adjacency``, in CSR order; the coupled kernel also stops
at the update where its two chains meet.  Both first test the uniform
against per-vertex bounds on the + probability
(``WeightedGraph.plus_prob_bounds``) and read no neighbour for a draw
the bounds decide.  Fields may be ``h.tolist()`` or an array.  Float and
int arithmetic on the same doubles gives the same bits in Python and in
numpy, and every kernel keeps ``math.exp``/``tanh``/``atanh`` in a fixed
order of operations, so results do not depend on the container.  The
bracket fold runs a tree level at a time and maps ``math.tanh``/``atanh``
over each level, leaving only products, clips and sums to numpy.
"""

from __future__ import annotations

import math
from itertools import count

import numpy as np

# perfbench/ records the backend of every run; pure Python is the only one
HAVE_NUMBA = False


def backend() -> str:
    """Name of the active kernel backend."""
    return "python"


def chain_steps(adjacency, h, p_lo, p_hi, spins, v_arr, u_arr):
    """Apply len(v_arr) single-site heat-bath updates to spins, in place.

    At update t the site v = v_arr[t] is redrawn from its conditional
    given the rest: + with probability p = logistic(2 * local field), the
    field being h[v] plus w * s over ``adjacency[v]``'s (neighbour,
    coupling) pairs (``WeightedGraph.adjacency``) in row order.
    ``p_lo``/``p_hi`` bound p over every state of v's neighbours
    (``WeightedGraph.plus_prob_bounds`` for these couplings and fields), so
    u <= p_lo[v] sets + and u > p_hi[v] sets - before any neighbour is
    read.  The bounds' fields are summed in this row order and rounding is
    monotone, and their 1e-12 margin covers ``np.exp`` against
    ``math.exp`` and the logistic's ulp-level non-monotonicity, so a draw
    they decide takes the spin the full path would.
    """
    exp = math.exp
    s = spins.tolist()
    for v, u in zip(memoryview(v_arr), memoryview(u_arr)):
        if u <= p_lo[v]:
            s[v] = 1
        elif u > p_hi[v]:
            s[v] = -1
        else:
            f = h[v]
            for x, w in adjacency[v]:
                f += w * s[x]
            if f >= 0.0:
                p = 1.0 / (1.0 + exp(-2.0 * f))
            else:
                e = exp(2.0 * f)
                p = e / (1.0 + e)
            s[v] = 1 if u <= p else -1
    spins[:] = s


def coupled_steps(adjacency, h, upper, lower, ham_start, v_arr, u_arr, p_lo, p_hi):
    """Advance two chains through the same (site, uniform) stream until they meet.

    Both chains update the same site with the same uniform, which preserves
    the coordinatewise order upper >= lower for ferromagnetic couplings.
    ``adjacency[v]`` holds v's (neighbour, coupling) pairs
    (``WeightedGraph.adjacency``) and ``ham_start`` is the Hamming distance
    between the chains on entry.  The walk stops early at the update where
    the distance falls to 0 and at an order violation at the updated site;
    otherwise it applies every pair.  A call that starts at distance 0
    never falls to it, so it runs its whole block.  Returns (Hamming
    distance at exit, in-block index of the update where the chains met,
    in-block index of the order violation); the last two are -1 when the
    event did not occur.  upper and lower hold the state at exit on every
    path.  Equal local fields give equal spins, so the second logistic is
    computed only when the chains' fields differ.  A draw that
    :func:`chain_steps`'s bounds ``p_lo``/``p_hi`` decide gives both chains
    its spin with no field: only the Hamming decrement and meeting remain.
    """
    exp = math.exp
    up = upper.tolist()
    lo = lower.tolist()
    ham = ham_start
    met = violation = -1
    for t, v, u in zip(count(), memoryview(v_arr), memoryview(u_arr)):
        if u <= p_lo[v]:
            nu = nl = 1
        elif u > p_hi[v]:
            nu = nl = -1
        else:
            fu = fl = h[v]
            for s, w in adjacency[v]:
                fu += w * up[s]
                fl += w * lo[s]
            if fu >= 0.0:
                pu = 1.0 / (1.0 + exp(-2.0 * fu))
            else:
                e = exp(2.0 * fu)
                pu = e / (1.0 + e)
            nu = 1 if u <= pu else -1
            if fl == fu:
                nl = nu
            else:
                if fl >= 0.0:
                    pl = 1.0 / (1.0 + exp(-2.0 * fl))
                else:
                    e = exp(2.0 * fl)
                    pl = e / (1.0 + e)
                nl = 1 if u <= pl else -1
        was_diff = up[v] != lo[v]
        up[v] = nu
        lo[v] = nl
        if nu != nl:
            if not was_diff:
                ham += 1
            if nu < nl:
                violation = t
                break
        elif was_diff:
            ham -= 1
            if ham == 0:
                met = t
                break
    upper[:] = up
    lower[:] = lo
    return ham, met, violation


def tree_root_field(parent, edge_beta, h_node, clamp_node):
    """Fold a rooted tree into the effective field at its root.

    Nodes are indexed so that parent[i] < i; a single descending pass
    therefore visits children before parents.  A pinned node contributes
    +-edge_beta exactly (and screens its own subtree, which was already
    folded into its field but is discarded here); a free node contributes
    atanh(tanh(edge_beta) * tanh(field)).  The product is clamped to
    [-1 + 1e-15, 1 - 1e-15] before atanh so pinned-boundary evaluations
    cannot overflow.  The fold reads memoryviews and writes a float64
    copy of ``h_node``, so no per-node Python list is built.
    """
    tanh = math.tanh
    atanh = math.atanh
    hi = 1.0 - 1e-15
    lo = -1.0 + 1e-15
    par = memoryview(parent)
    beta = memoryview(edge_beta)
    clamp = memoryview(clamp_node)
    field = memoryview(h_node.astype("float64"))
    for i in range(par.shape[0] - 1, 0, -1):
        b = beta[i]
        c = clamp[i]
        if c > 0:
            contrib = b
        elif c < 0:
            contrib = -b
        else:
            x = tanh(b) * tanh(field[i])
            if x > hi:
                x = hi
            elif x < lo:
                x = lo
            contrib = atanh(x)
        field[par[i]] += contrib
    return field[0]


def tree_bracket_levels(levels, l):
    """(lower, upper) root fields with the free depth-l nodes pinned - and +.

    ``levels[k]`` is (parent, edge_beta, h, clamp) over the depth-k nodes,
    parent indexing ``levels[k - 1]``, each parent's children ascending.
    Levels past l are screened and not read; with no level l nothing is
    pinned, and at l = 0 the free root is pinned by fields -inf and +inf.
    Each end gets the bits of its own :func:`tree_root_field` fold:
    ``np.add.at`` adds each parent's children in descending order, and the
    upper end reuses the lower end's contribution where their fields are
    equal and nonzero (-0.0 == 0.0, yet they contribute opposite zeros).
    """
    if l == 0:
        return -math.inf, math.inf
    tanh, atanh = math.tanh, math.atanh

    def fold(tb, f):  # atanh(tb * tanh(f)), clipped as in tree_root_field
        x = np.clip(tb * np.fromiter(map(tanh, f.tolist()), np.float64, f.size),
                    -1.0 + 1e-15, 1.0 - 1e-15)
        return np.fromiter(map(atanh, x.tolist()), np.float64, x.size)

    top = min(l, len(levels) - 1)
    low = up = np.asarray(levels[top][2], dtype=np.float64)
    for k in range(top, 0, -1):
        par, beta, _, clamp = levels[k]
        low_c = np.where(clamp > 0, beta, -beta)
        # pinned nodes give both ends their pin; free sphere nodes give - and +
        up_c = np.where(clamp >= 0 if k == l else clamp > 0, beta, -beta)
        if k < l:
            free = np.flatnonzero(clamp == 0)
            tb = np.fromiter(map(tanh, beta[free].tolist()), np.float64, free.size)
            f, g = low[free], up[free]
            low_c[free] = contrib = fold(tb, f)
            redo = np.flatnonzero((g != f) | (f == 0.0))
            contrib[redo] = fold(tb[redo], g[redo])
            up_c[free] = contrib
        low = np.array(levels[k - 1][2], dtype=np.float64)
        up = low.copy()
        np.add.at(low, par[::-1], low_c[::-1])
        np.add.at(up, par[::-1], up_c[::-1])
    return float(low[0]), float(up[0])
