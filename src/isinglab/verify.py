"""Verification suites cross-checking every component against exact oracles.

Each suite builds a battery of seeded instances, measures a quantity whose
bound is known (an identity against brute-force enumeration, a proved
inequality, a structural gate), and reports one row per instance.  The
six named suites behind the command-line ``verify`` subcommand are
composed from the granular functions below; the acceptance tests call the
same functions with the same default parameters, so the gate and the CLI
can never drift apart.  One gate reads differently from the CLI: criterion
10 checks the ball-excess rows of ``structure_suite`` against a binomial
tail bound that the G(n, d/n) law implies for each ball, not against the
rows' own ``ok`` flag (see ``tests/test_acceptance.py``).

Every suite parameter is a scalar that ``cli`` reads from ``[verify]`` and
checks; the grids a suite runs over are module constants.

All randomness is drawn from named substreams of one master seed, making
every suite reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import (
    POST_COUPLING_AUDIT,
    UpdateStream,
    build_block_transition_matrix,
    build_transition_matrix,
    exact_mixing_time,
    monotone_coupled_run,
    relaxation_time,
)
from .errors import MonotonicityError
from .graph import (
    ball_excesses,
    cycle_graph,
    galton_watson_trees,
    generate_erdos_renyi,
    generate_galton_watson,
    graph_from_edges,
    make_rooted_tree,
    path_graph,
    star_graph,
    tree_as_graph,
    tree_path_density,
)
from .model import (
    IsingModel,
    exact_conditional_marginal,
    exact_distribution,
    make_model,
    tv_distance,
)
from .sampler import algorithm1_output_law, truncation_tv_bound
from .sawtree import build_saw_trees, saw_marginal_from_tree, saw_tree_sizes
from .treecalc import boundary_influence, make_tree_model
from .rng import substream

DEFAULT_MASTER_SEED = 20260822
REPORT_FAILURE_ROWS = 20  # format_report lists at most this many failing rows
RELAXATION_BETAS = (0.2, 0.5, 1.0)  # couplings of tree_relaxation_suite
TREND_SIZES = (250, 500, 1000, 2000)  # graph sizes of coupling_trend_suite
STAR_LEAVES = (4, 6, 8, 10)  # hub degrees of star_coupling_suite
SOUNDNESS_CAPS = (50_000, 50_000, 400_000, 100_000)  # step cap of coupling-soundness run i % 4


@dataclass(frozen=True)
class CheckRow:
    """One verified instance: measured value against its bound."""

    label: str
    measured: float
    bound: float
    ok: bool
    relation: str = "<="
    note: str = ""


@dataclass
class SuiteReport:
    """Outcome of one granular suite."""

    suite: str
    rows: list[CheckRow] = field(default_factory=list)
    elapsed: float = 0.0  # seconds, set by the caller that times the suite

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows) and bool(self.rows)

    @property
    def counts(self) -> tuple[int, int]:
        return sum(r.ok for r in self.rows), len(self.rows)

    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.ok]


def random_connected_model(rng: np.random.Generator, min_n: int = 2, max_n: int = 8,
                           beta_lo: float = 0.0, beta_hi: float = 1.0,
                           h_lo: float = -1.0, h_hi: float = 1.0,
                           extra_edges: int | None = None) -> IsingModel:
    """Random connected model: a random tree plus a few chord edges.

    With ``extra_edges`` set, exactly that many chords are added at random
    non-edges (when room allows); otherwise each non-edge appears with
    probability 0.18.
    """
    n = int(rng.integers(min_n, max_n + 1))
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, n):
        p = int(rng.integers(0, i))
        edges[(p, i)] = float(rng.uniform(beta_lo, beta_hi))
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    if extra_edges is not None:
        take = min(extra_edges, len(non_edges))
        if take:
            for k in rng.choice(len(non_edges), size=take, replace=False):
                edges[non_edges[k]] = float(rng.uniform(beta_lo, beta_hi))
    else:
        for uv in non_edges:
            if rng.random() < 0.18:
                edges[uv] = float(rng.uniform(beta_lo, beta_hi))
    h = rng.uniform(h_lo, h_hi, size=n)
    return make_model(
        graph_from_edges(n, [(u, v, b) for (u, v), b in edges.items()], h=h)
    )


def _random_pins(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """int8 pins: each vertex pinned with probability ``rate``, to +1 or -1 evenly."""
    return np.where(rng.random(n) < rate, np.where(rng.random(n) < 0.5, 1, -1), 0).astype(np.int8)


def _relaxation_per_site(m: IsingModel) -> float:
    """Relaxation time of the single-site chain per free site: its continuous-time scale."""
    t = build_transition_matrix(m)
    return relaxation_time(t) / t.free_vertices.size


# ---------------------------------------------------------------------------
# walk-tree marginal identity


def weitz_identity_suite(models: int = 200, max_n: int = 8, tol: float = 1e-9,
                         master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Walk-tree marginal equals the brute-force conditional marginal.

    Random connected loopy models; every vertex is queried under the empty
    conditioning and under random conditionings of sizes 1..3.  The tree
    radius is n + 1, past the depth where walks must end, so agreement
    should be exact to rounding.  Each vertex's tree is built once and
    folded under every conditioning.
    """
    report = SuiteReport("weitz-identity")
    rng = substream(master_seed, "verify-weitz")
    for k in range(models):
        m = random_connected_model(rng, max_n=max_n)
        n = m.n
        worst = 0.0
        for v, st in enumerate(build_saw_trees(m.graph, range(n), n + 1)):
            others = [x for x in range(n) if x != v]
            conds: list[dict[int, int] | None] = [None]
            for size in (1, 2, 3):
                if len(others) >= size:
                    picked = rng.choice(others, size=size, replace=False)
                    conds.append({
                        int(x): (1 if rng.random() < 0.5 else -1) for x in picked
                    })
            for cond in conds:
                got = saw_marginal_from_tree(st, m, cond=cond)
                want = exact_conditional_marginal(m, v, cond=cond)
                worst = max(worst, abs(got - want))
        report.rows.append(CheckRow(f"model-{k}(n={n})", worst, tol, worst <= tol))
    return report


# ---------------------------------------------------------------------------
# tree influence bounds


def path_decay_suite(max_len: int = 12, tol: float = 1e-12,
                     master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """End-to-end influence on a field-free path is the product of tanh(beta_i)."""
    report = SuiteReport("path-decay")
    rng = substream(master_seed, "verify-path-decay")
    for length in range(1, max_len + 1):
        betas = rng.uniform(0.1, 1.2, size=length)
        parent = np.arange(-1, length)
        tree = make_rooted_tree(parent)
        tm = make_tree_model(tree, np.concatenate([[0.0], betas]))
        got = boundary_influence(tm, length)
        want = float(np.prod(np.tanh(betas)))
        err = abs(got - want)
        report.rows.append(CheckRow(f"path-{length}", err, tol, err <= tol,
                                    note=f"influence={want:.3e}"))
    return report


def tree_boundary_suite(trees: int = 1000, offspring: float = 2.0, max_depth: int = 8,
                        master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Boundary influence on branching trees obeys |sphere| * tanh(beta)^depth.

    Trees carry random couplings, fields and interior pins; the influence
    of flipping the deepest full sphere is compared against the decay
    bound at the tree's own largest coupling.
    """
    report = SuiteReport("tree-boundary")
    rng = substream(master_seed, "verify-tree-boundary")
    made = 0
    attempt = 0
    while made < trees:
        attempt += 1
        depth = int(rng.integers(2, max_depth + 1))
        tree = generate_galton_watson(offspring, depth, master_seed * 1000 + attempt)
        if tree.height < 1:
            continue
        made += 1
        nn = tree.size
        ebeta = np.concatenate([[0.0], rng.uniform(0.2, 1.0, size=nn - 1)])
        h = rng.uniform(-1.0, 1.0, size=nn)
        clamp = _random_pins(rng, nn, 0.1)
        clamp[0] = 0
        tm = make_tree_model(tree, ebeta, h=h, clamp=clamp)
        level = tree.height
        sphere = int(np.count_nonzero(tree.depth == level))
        influence = boundary_influence(tm, level)
        bound = sphere * math.tanh(float(ebeta[1:].max())) ** level
        ok = influence <= bound * (1.0 + 1e-12)
        report.rows.append(CheckRow(
            f"gw-{made}(nodes={nn},depth={level})", influence, bound, ok,
        ))
    return report


# ---------------------------------------------------------------------------
# exhaustive small-tree shapes


def _free_tree_canonical(adj: list[list[int]]) -> str:
    """Isomorphism-invariant string of a free tree: its least rooted form over all roots."""
    def rooted(u: int, p: int) -> str:
        return "(" + "".join(sorted(rooted(w, u) for w in adj[u] if w != p)) + ")"

    return min(rooted(r, -1) for r in range(len(adj)))


@lru_cache(maxsize=None)
def enumerate_tree_shapes(max_n: int) -> tuple[tuple[int, ...], ...]:
    """All free tree shapes on 1..max_n vertices, one parent array each.

    Runs over every level-ordered parent sequence (non-decreasing with
    parent[i] < i; each shape occurs there) and deduplicates by the least
    rooted form over all roots.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    for n in range(1, max_n + 1):
        def rec(parent: list[int]) -> None:
            i = len(parent)
            if i == n:
                adj: list[list[int]] = [[] for _ in range(n)]
                for c in range(1, n):
                    adj[parent[c]].append(c)
                    adj[c].append(parent[c])
                key = _free_tree_canonical(adj)
                if key not in shapes:
                    shapes[key] = tuple(parent)
                return
            for p in range(max(parent[-1], 0), i):
                rec(parent + [p])
        rec([-1])
    return tuple(shapes.values())


def tree_relaxation_suite(draws: int = 2, max_n: int = 8, tol: float = 1e-9,
                          master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Continuous-time relaxation on every small tree is at most exp(4 beta m).

    Exhausts all free tree shapes up to max_n vertices; each shape is
    dressed with random fields and pins at each of RELAXATION_BETAS.  m is
    the degree-sum path density minimized over roots, a structural
    quantity of the bare shape.
    """
    report = SuiteReport("tree-relaxation")
    rng = substream(master_seed, "verify-tree-relax")
    shapes = enumerate_tree_shapes(max_n)
    for si, parent in enumerate(shapes):
        tree = make_rooted_tree(np.array(parent))
        n = tree.size
        # the least over roots r of the largest degree sum on a path from r:
        # on a tree the walk tree from r is the tree rooted at r
        density = min(tree_path_density(st.tree)
                      for st in build_saw_trees(tree_as_graph(tree), range(n), n))
        for beta in RELAXATION_BETAS:
            for draw in range(draws):
                h = rng.uniform(-1.0, 1.0, size=n)
                while True:
                    clamp = _random_pins(rng, n, 0.2)
                    if np.count_nonzero(clamp == 0) >= 1:
                        break
                g = tree_as_graph(tree, edge_beta=beta, h=h, clamp=clamp)
                relax_cont = _relaxation_per_site(make_model(g))
                bound = math.exp(4.0 * beta * density)
                ok = relax_cont <= bound * (1.0 + tol)
                report.rows.append(CheckRow(
                    f"shape-{si}(n={n})-b{beta}-d{draw}", relax_cont, bound, ok,
                    note=f"m={density},free={np.count_nonzero(clamp == 0)}",
                ))
    return report


def mixing_sandwich_suite(models: int = 50, max_n: int = 8,
                          master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Exact mixing time sits between relaxation and its log-weighted stretch."""
    report = SuiteReport("mixing-sandwich")
    rng = substream(master_seed, "verify-sandwich")
    slack = 1.0 + 1e-9
    for k in range(models):
        m = random_connected_model(rng, max_n=max_n, beta_lo=0.1)
        t = build_transition_matrix(m)
        relax = relaxation_time(t)
        tmix = exact_mixing_time(t)
        upper = relax * (1.0 + 0.5 * math.log(1.0 / float(t.stationary.min())))
        report.rows.append(CheckRow(
            f"model-{k}(n={m.n})-lower", relax, tmix * slack, relax <= tmix * slack,
            note=f"tmix={tmix}",
        ))
        report.rows.append(CheckRow(
            f"model-{k}(n={m.n})-upper", float(tmix), upper * slack,
            tmix <= upper * slack,
        ))
    return report


def consistency_suite(models: int = 10, removals: int = 15,
                      master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Cross-checks tying the dynamics implementations together.

    Detailed balance of the exact matrix, equality of singleton-block
    dynamics with the single-site matrix, the edge-removal comparison
    factor exp(4 beta k), and the block-product relaxation bound.
    """
    report = SuiteReport("dynamics-consistency")
    rng = substream(master_seed, "verify-consistency")
    for k in range(models):
        m = random_connected_model(rng, max_n=6, beta_lo=0.1)
        if k % 2 == 1:
            clamp = _random_pins(rng, m.n, 0.25)
            if np.count_nonzero(clamp == 0) == 0:
                clamp[0] = 0
            m = make_model(m.graph.with_vertex_data(clamp=clamp))
        t = build_transition_matrix(m)
        report.rows.append(CheckRow(
            f"balance-{k}(n={m.n})", 0.0 if t.reversible else 1.0, 0.0,
            t.reversible, relation="==",
        ))
        singles = [[int(v)] for v in t.free_vertices]
        tb = build_block_transition_matrix(m, singles)
        diff = float(np.abs(tb.matrix - t.matrix).max())
        report.rows.append(CheckRow(
            f"single-block-{k}(n={m.n})", diff, 1e-12, diff <= 1e-12,
        ))

    for k in range(removals):
        n = int(rng.integers(3, 8))
        parent = [int(rng.integers(0, i)) for i in range(1, n)]
        beta = float(rng.uniform(0.2, 1.0))
        h = rng.uniform(-1.0, 1.0, size=n)
        edges = [(p, i, beta) for i, p in enumerate(parent, start=1)]
        root_edges = [e for e in edges if 0 in e[:2]]
        take = min(int(rng.integers(1, 3)), len(root_edges))
        removed = root_edges[:take]
        g1 = graph_from_edges(n, edges, h=h)
        g2 = graph_from_edges(n, [e for e in edges if e not in removed], h=h)
        r1 = _relaxation_per_site(make_model(g1))
        r2 = _relaxation_per_site(make_model(g2))
        ratio = max(r1 / r2, r2 / r1)
        bound = math.exp(4.0 * beta * take)
        report.rows.append(CheckRow(
            f"edge-removal-{k}(n={n},k={take})", ratio, bound,
            ratio <= bound * (1.0 + 1e-9),
        ))

    # block-product bound on a six-path with overlapping blocks
    n = 6
    beta = 0.6
    g = path_graph(n, beta).with_vertex_data(h=rng.uniform(-0.5, 0.5, size=n))
    m = make_model(g)
    full = _relaxation_per_site(m)
    blocks = [[0, 1, 2], [2, 3, 4], [4, 5]]
    relax_b = relaxation_time(build_block_transition_matrix(m, blocks)) / len(blocks)
    worst_inner = 0.0
    for block in blocks:
        outside = np.setdiff1d(np.arange(n), block)
        for bits in range(1 << outside.size):  # bit j of bits pins outside[j] to +1
            clamp = np.zeros(n, dtype=np.int8)
            clamp[outside] = np.where((bits >> np.arange(outside.size)) & 1, 1, -1)
            worst_inner = max(
                worst_inner, _relaxation_per_site(make_model(g.with_vertex_data(clamp=clamp)))
            )
    cover = max(sum(v in b for b in blocks) for v in range(n))
    bound = relax_b * worst_inner * cover
    report.rows.append(CheckRow(
        "block-product-path6", full, bound, full <= bound * (1.0 + 1e-9),
        note=f"block={relax_b:.3f},inner={worst_inner:.3f},cover={cover}",
    ))
    return report


# ---------------------------------------------------------------------------
# sampler output law


def sampler_tv_suite(random_models: int = 50, max_n: int = 10,
                     exact_tol: float = 1e-8, trunc_depth: int = 2,
                     master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Sequential sampler output law: exact at full radius, bounded truncated.

    Cycles of length 4..10 plus random sparse connected models.  At radius
    n + 1 the output law must match brute force to exact_tol; at the small
    radius the distance must respect the chained boundary bound, plus the
    same exact_tol allowance for enumeration rounding (the bound is exactly
    zero on instances small enough that no truncation happens).
    """
    report = SuiteReport("sampler-tv")
    rng = substream(master_seed, "verify-sampler")
    instances: list[tuple[str, IsingModel]] = []
    for n in range(4, 11):
        h = rng.uniform(-0.3, 0.3, size=n)
        instances.append((f"cycle-{n}", make_model(cycle_graph(n, 0.45).with_vertex_data(h=h))))
    for k in range(random_models):
        m = random_connected_model(
            rng, max_n=max_n, beta_lo=0.1, beta_hi=0.5,
            h_lo=-0.5, h_hi=0.5, extra_edges=int(rng.integers(0, 4)),
        )
        instances.append((f"random-{k}", m))
    for name, m in instances:
        exact = exact_distribution(m)
        full = algorithm1_output_law(m, m.n + 1)
        tv = tv_distance(full, exact)
        report.rows.append(CheckRow(
            f"{name}(n={m.n})-exact", tv, exact_tol, tv <= exact_tol,
        ))
        trunc = algorithm1_output_law(m, trunc_depth)
        bound = truncation_tv_bound(m, trunc_depth)
        tv_t = tv_distance(trunc, exact)
        report.rows.append(CheckRow(
            f"{name}(n={m.n})-trunc", tv_t, bound, tv_t <= bound + exact_tol,
        ))
    return report


# ---------------------------------------------------------------------------
# coupling suites


def er_coupling_run(n: int, d: float, beta: float, seed_index: int, cap: int,
                    master_seed: int = DEFAULT_MASTER_SEED):
    """One coupled run on a fresh sparse random graph; the scan cell unit.

    Seed derivation is shared by the verification suite and the scan
    command so their rows agree exactly.
    """
    g = generate_erdos_renyi(n, d, master_seed + 7919 * n + seed_index, beta=beta)
    m = make_model(g)
    stream = UpdateStream(m, master_seed, chain_id=n * 10_000 + seed_index)
    return monotone_coupled_run(m, cap, stream)


def star_coupling_run(leaves: int, beta: float, seed_index: int, cap: int,
                      master_seed: int = DEFAULT_MASTER_SEED):
    """One coupled run on a hub graph; the star scan cell unit."""
    m = make_model(star_graph(leaves, beta))
    stream = UpdateStream(m, master_seed, chain_id=leaves * 1000 + seed_index)
    return monotone_coupled_run(m, cap, stream)


def soundness_audit_bound(max_runs: int) -> int:
    """Most updates max_runs coupling-soundness runs audit: each its cap + the post-audit."""
    laps, rest = divmod(max_runs, len(SOUNDNESS_CAPS))
    return laps * sum(SOUNDNESS_CAPS) + sum(SOUNDNESS_CAPS[:rest]) + max_runs * POST_COUPLING_AUDIT


def coupling_soundness_suite(min_runs: int = 100, min_steps: int = 10**6,
                             max_runs: int = 2000,
                             master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Monotone coupled runs never violate the coordinatewise order.

    Cycles through model families (sparse random graphs with and without
    clamps, a hub, a path with fields) until at least min_runs runs and
    min_steps audited updates have accumulated.  Every update is audited
    at the rewritten site inside the kernel; checkpoints audit the full
    order; met chains are run on to confirm they never split.
    """
    report = SuiteReport("coupling-soundness")

    def family(i: int) -> tuple[str, IsingModel]:
        kind = i % len(SOUNDNESS_CAPS)
        if kind == 0:
            g = generate_erdos_renyi(60, 2.5, master_seed + i, beta=0.3)
            return "er60", make_model(g)
        if kind == 1:
            g = generate_erdos_renyi(80, 2.0, master_seed + i, beta=0.2)
            rng = substream(master_seed, "verify-coupling-clamps", i)
            clamp = _random_pins(rng, 80, 0.12)
            clamp[0] = 0
            return "er80-clamped", make_model(g.with_vertex_data(clamp=clamp))
        if kind == 2:
            return "hub12", make_model(star_graph(12, 1.2))
        rng = substream(master_seed, "verify-coupling-path", i)
        g = path_graph(40, 0.8).with_vertex_data(h=rng.uniform(-0.2, 0.2, size=40))
        return "path40", make_model(g)

    audited = 0
    runs = 0
    while (runs < min_runs or audited < min_steps) and runs < max_runs:
        name, m = family(runs)
        stream = UpdateStream(m, master_seed, chain_id=runs)
        try:
            res = monotone_coupled_run(m, SOUNDNESS_CAPS[runs % len(SOUNDNESS_CAPS)], stream)
            ok = True
            note = f"coupled={res.coupled},steps={res.steps}"
            audited += res.steps + (POST_COUPLING_AUDIT if res.coupled else 0)
        except MonotonicityError as e:
            ok = False
            note = str(e)
        report.rows.append(CheckRow(
            f"run-{runs}-{name}", 0.0 if ok else 1.0, 0.0, ok,
            relation="==", note=note,
        ))
        runs += 1
    report.rows.append(CheckRow(
        "audited-step-volume", float(audited), float(min_steps),
        audited >= min_steps, relation=">=",
    ))
    return report


def coupling_trend_suite(seeds: int = 20, d: float = 2.0, beta: float = 0.05,
                         cap: int = 10**7, slope_bound: float = 2.0,
                         master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Low-coupling sparse graphs: everyone meets, near-linear growth in n.

    Fresh graph and update stream per (n, seed) cell, n in TREND_SIZES;
    the gate is that every run meets under the cap and that the log-log
    slope of the median meeting time stays at most slope_bound.
    """
    report = SuiteReport("coupling-trend")
    medians = {}
    for n in TREND_SIZES:
        times = []
        met = 0
        for s in range(seeds):
            res = er_coupling_run(n, d, beta, s, cap, master_seed)
            met += res.coupled
            times.append(res.steps)
        medians[n] = float(np.median(times))
        report.rows.append(CheckRow(
            f"n{n}-all-met", float(met), float(seeds), met == seeds,
            relation=">=", note=f"median={medians[n]:.0f}",
        ))
    xs = np.log(np.array(sorted(medians)))
    ys = np.log(np.array([medians[n] for n in sorted(medians)]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    report.rows.append(CheckRow(
        "median-log-log-slope", slope, slope_bound, slope <= slope_bound,
    ))
    return report


def star_coupling_suite(seeds: int = 33, beta: float = 1.0, cap: int = 10**7,
                        growth: float = 1.5,
                        master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Hub graphs at strong coupling: median meeting time grows fast in degree."""
    report = SuiteReport("star-coupling")
    # an uncoupled run's steps is its cap
    medians = {s: float(np.median([star_coupling_run(s, beta, k, cap, master_seed).steps
                                   for k in range(seeds)])) for s in STAR_LEAVES}
    ordered = sorted(medians)
    for a, b in zip(ordered, ordered[1:]):
        ratio = medians[b] / medians[a]
        report.rows.append(CheckRow(
            f"growth-{a}to{b}", ratio, growth, ratio >= growth, relation=">=",
            note=f"median[{a}]={medians[a]:.0f},median[{b}]={medians[b]:.0f}",
        ))
    return report


# ---------------------------------------------------------------------------
# structural statistics at scale


def structure_suite(n: int = 5000, graphs: int = 10, d: float = 2.0,
                    excess_bound: int = 5, radius: int | None = None,
                    sphere_trees: int = 1000, sample_vertices: int = 25,
                    master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Locally tree-like structure of sparse random graphs, at scale.

    Per graph: the largest cycle excess over all radius-r balls, compared
    with ``excess_bound``, and walk-tree sizes, which must be
    submultiplicative in the radius.  On branching trees, sphere sizes
    respect the path-density bound.

    ``excess_bound`` is a fixed reference value that the CLI reports, not a
    derived bound: the locally tree-like hypothesis allows O(log n) excess
    with no constant, and at the defaults six of the ten graphs exceed 5,
    so ``isinglab verify structure`` prints those rows as FAIL and exits 1.
    """
    report = SuiteReport("structure")
    if radius is None:
        radius = math.ceil(0.3 * math.log2(n))
    rng = substream(master_seed, "verify-structure")

    for gi in range(graphs):
        g = generate_erdos_renyi(n, d, master_seed + 104729 * gi)
        worst = int(ball_excesses(g, radius).max())
        report.rows.append(CheckRow(
            f"graph-{gi}-excess(r={radius})", float(worst), float(excess_bound),
            worst <= excess_bound,
        ))
        base = int(saw_tree_sizes(g, np.arange(n), 2).max())
        worst_ratio = 0.0
        picks = rng.choice(n, size=sample_vertices, replace=False)
        for j in (2, 3):
            size_j = int(saw_tree_sizes(g, picks, 2 * j).max(initial=0))
            worst_ratio = max(worst_ratio, size_j / base**j)
        report.rows.append(CheckRow(
            f"graph-{gi}-submultiplicative", worst_ratio, 1.0,
            worst_ratio <= 1.0, note=f"base={base}",
        ))
        del g  # with its cached neighbour tables, before the next graph is generated

    violations = 0
    checked = 0
    first = master_seed + 15485863
    for tree in galton_watson_trees(d, 6, range(first, first + sphere_trees)):
        for a in (2, 3, 4):
            if tree.height < a:
                continue
            checked += 1
            sphere = int(np.count_nonzero(tree.depth == a))
            density = tree_path_density(tree, max_depth=a)
            bound = ((density - a + 1) / a) ** a
            if sphere > bound * (1.0 + 1e-12):
                violations += 1
    report.rows.append(CheckRow(
        f"gw-sphere-bound({checked} spheres)", float(violations), 0.0,
        violations == 0, relation="==",
    ))
    return report


# ---------------------------------------------------------------------------
# named suites


SUITES: dict[str, list] = {
    "weitz-identity": [weitz_identity_suite],
    "tree-bounds": [path_decay_suite, tree_boundary_suite],
    "spectral": [tree_relaxation_suite, mixing_sandwich_suite, consistency_suite],
    "coupling": [coupling_soundness_suite, coupling_trend_suite, star_coupling_suite],
    "sampler-tv": [sampler_tv_suite],
    "structure": [structure_suite],
}


def format_report(report: SuiteReport) -> str:
    """Human-readable summary with failing rows enumerated."""
    ok, total = report.counts
    status = "PASS" if report.passed else "FAIL"
    lines = [f"[{report.suite}] {ok}/{total} checks pass ({report.elapsed:.1f}s)  {status}"]
    for row in report.failures()[:REPORT_FAILURE_ROWS]:
        lines.append(
            f"  FAIL {row.label}: {row.measured:.6g} {row.relation} {row.bound:.6g}"
            + (f"  ({row.note})" if row.note else "")
        )
    extra = len(report.failures()) - REPORT_FAILURE_ROWS
    if extra > 0:
        lines.append(f"  ... and {extra} more failures")
    return "\n".join(lines)
