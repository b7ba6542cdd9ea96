"""Hot inner loops, jitted when numba is importable.

Each kernel is written once as a plain Python function over numpy arrays
under a single ``_jit`` decorator: ``numba.njit(cache=True,
fastmath=False)`` when numba can be imported, the identity otherwise.
numba is optional (the ``jit`` extra); pure Python is the measured path.
With numba, ``kernel.py_func`` is the uncompiled source, and
``tests/test_kernels.py`` checks the two agree bit for bit, which is why
``fastmath`` stays off.
"""

from __future__ import annotations

import math

try:
    import numba

    HAVE_NUMBA = True
    _jit = numba.njit(cache=True, fastmath=False)
except ImportError:
    HAVE_NUMBA = False

    def _jit(fn):
        return fn


def backend() -> str:
    """Name of the active kernel backend."""
    return "numba" if HAVE_NUMBA else "python"


@_jit
def chain_steps(indptr, indices, weights, h, spins, v_arr, u_arr):
    """Apply len(v_arr) single-site heat-bath updates to spins, in place.

    At update t the site v = v_arr[t] is redrawn from its conditional
    given the rest: + with probability logistic(2 * local field).
    """
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
    return 0


@_jit
def chain_steps_counted(indptr, indices, weights, h, spins, v_arr, u_arr, thin, counts):
    """Chain updates plus an occupation count of the visited configurations.

    Every ``thin``-th update the bitmask index of the current configuration
    (bit v set iff spins[v] == +1) increments ``counts``.  Only valid for
    n <= 20; callers enforce the cap.
    """
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
    return 0


@_jit
def coupled_steps(indptr, indices, weights, h, upper, lower, v_arr, u_arr, ham_start):
    """Advance two chains through the same (site, uniform) stream.

    Both chains update the same site with the same uniform, which preserves
    the coordinatewise order upper >= lower for ferromagnetic couplings.
    Returns (hamming distance at exit, in-block index of first agreement,
    in-block index of an order violation at the updated site); the last two
    are -1 when the event did not occur.  The walk stops early on an order
    violation, never on agreement.
    """
    ham = ham_start
    coupled_at = -1
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
        if nu < nl:
            return ham, coupled_at, t
        if ham == 0 and coupled_at < 0:
            coupled_at = t
    return ham, coupled_at, -1


@_jit
def tree_root_field(parent, edge_beta, h_node, clamp_node):
    """Fold a rooted tree into the effective field at its root.

    Nodes are indexed so that parent[i] < i; a single descending pass
    therefore visits children before parents.  A pinned node contributes
    +-edge_beta exactly (and screens its own subtree, which was already
    folded into its field but is discarded here); a free node contributes
    atanh(tanh(edge_beta) * tanh(field)).  The product is clamped to
    [-1 + 1e-15, 1 - 1e-15] before atanh so pinned-boundary evaluations
    cannot overflow.
    """
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
