"""Command-line harness: verification suites, sweeps and samplers.

Commands take an INI-style config file (sections of key = value pairs)
plus flags only for the output path and verbosity; every output file
echoes the config it was produced from as '#' comments, so re-running
with that config reproduces the data rows byte for byte.  Numbers are
written with nine significant digits.

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error.  The worker count for process-parallel sweeps comes from the
ISINGLAB_WORKERS environment variable (default and cap: all cores).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import multiprocessing
import os
import sys

import numpy as np

from . import verify
from .dynamics import UpdateStream
from .errors import BudgetError, IsinglabError
from .graph import (
    WeightedGraph,
    cycle_graph,
    generate_erdos_renyi,
    generate_galton_watson,
    path_graph,
    read_graph,
    star_graph,
    tree_path_density,
    write_graph,
)
from .model import clamp_large_fields, make_model
from .rng import substream
from .sampler import algorithm1_samples, radius_for
from .sawtree import build_saw_tree, tree_model
from .treecalc import boundary_influence
from .verify import DEFAULT_MASTER_SEED, er_coupling_run, star_coupling_run


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def worker_count() -> int:
    raw = os.environ.get("ISINGLAB_WORKERS", "").strip()
    if raw:
        try:
            count = int(raw)
        except ValueError as e:
            raise ConfigError(f"ISINGLAB_WORKERS must be an integer, got {raw!r}") from e
        if count < 1:
            raise ConfigError("ISINGLAB_WORKERS must be >= 1")
        return min(count, os.cpu_count() or 1)
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config {path}: {e}") from e
    return parser


def config_echo_lines(cfg: configparser.ConfigParser) -> list[str]:
    lines = []
    for section in cfg.sections():
        for key, value in sorted(cfg.items(section)):
            lines.append(f"# {section}.{key} = {value}")
    return lines


class Section:
    """Typed access to one config section with command-scoped errors."""

    def __init__(self, cfg: configparser.ConfigParser, name: str):
        if not cfg.has_section(name):
            raise ConfigError(f"config is missing the [{name}] section")
        self.name = name
        self._items = dict(cfg.items(name))

    def raw(self, key: str, default: str | None = None) -> str:
        if key in self._items:
            return self._items[key].strip()
        if default is None:
            raise ConfigError(f"[{self.name}] is missing key {key!r}")
        return default

    def has(self, key: str) -> bool:
        return key in self._items

    def get_int(self, key: str, default: int | None = None, minimum: int | None = None) -> int:
        raw = self.raw(key, None if default is None else str(default))
        try:
            value = int(raw)
        except ValueError as e:
            raise ConfigError(f"[{self.name}] {key} must be an integer, got {raw!r}") from e
        if minimum is not None and value < minimum:
            raise ConfigError(f"[{self.name}] {key} must be >= {minimum}, got {value}")
        return value

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.raw(key, None if default is None else repr(default))
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"[{self.name}] {key} must be a number, got {raw!r}") from e

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.raw(key, "true" if default else "false").lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key} must be a boolean, got {raw!r}")

    def get_ints(self, key: str, default: str | None = None) -> list[int]:
        raw = self.raw(key, default)
        try:
            return [int(tok) for tok in raw.split()]
        except ValueError as e:
            raise ConfigError(f"[{self.name}] {key} must be integers, got {raw!r}") from e

    def get_floats(self, key: str, default: str | None = None) -> list[float]:
        raw = self.raw(key, default)
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError as e:
            raise ConfigError(f"[{self.name}] {key} must be numbers, got {raw!r}") from e


def model_from_section(sec: Section) -> tuple[WeightedGraph, str]:
    """Graph from a [model] section: a file path or generator settings."""
    if sec.has("file"):
        path = sec.raw("file")
        try:
            g = read_graph(path)
        except OSError as e:
            raise ConfigError(f"cannot read graph file {path}: {e}") from e
        except ValueError as e:
            raise ConfigError(f"bad graph file {path}: {e}") from e
        return g, f"file:{path}"
    kind = sec.raw("kind", "er")
    beta = sec.get_float("beta", 1.0)
    try:
        if kind == "er":
            n = sec.get_int("n")
            d = sec.get_float("d")
            seed = sec.get_int("seed", 0)
            g = generate_erdos_renyi(n, d, seed, beta=beta)
            tag = f"er:n={n},d={_fmt(d)},seed={seed}"
        elif kind == "star":
            leaves = sec.get_int("leaves")
            g = star_graph(leaves, beta)
            tag = f"star:leaves={leaves}"
        elif kind == "path":
            g = path_graph(sec.get_int("n"), beta)
            tag = f"path:n={g.n}"
        elif kind == "cycle":
            g = cycle_graph(sec.get_int("n"), beta)
            tag = f"cycle:n={g.n}"
        else:
            raise ConfigError(f"unknown model kind {kind!r}")
    except ValueError as e:
        raise ConfigError(f"[{sec.name}] {e}") from e
    if sec.has("h"):
        raw = sec.raw("h")
        tokens = raw.split()
        try:
            if tokens[:1] == ["uniform"]:
                if len(tokens) != 3:
                    raise ConfigError("h = uniform needs two bounds")
                lo, hi = float(tokens[1]), float(tokens[2])
                rng = substream(sec.get_int("seed", 0), "graph-fields")
                h = rng.uniform(lo, hi, size=g.n)
            elif len(tokens) == 1:
                h = np.full(g.n, float(tokens[0]))
            else:
                raise ConfigError(f"bad h value {raw!r}")
            g = g.with_vertex_data(h=h)
        except (ValueError, OverflowError) as e:  # numpy overflows on non-finite bounds
            raise ConfigError(f"bad h value {raw!r}: {e}") from e
    return g, tag


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w"), True
    except OSError as e:
        raise ConfigError(f"cannot write output {path}: {e}") from e


def _emit(path: str | None, lines: list[str]) -> None:
    out, close = _open_output(path)
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    overrides: dict = {}
    if args.config:
        cfg = load_config(args.config)
        if cfg.has_section("verify"):
            for key, value in cfg.items("verify"):
                try:
                    overrides[key] = int(value)
                except ValueError:
                    try:
                        overrides[key] = float(value)
                    except ValueError:
                        raise ConfigError(
                            f"[verify] {key} must be numeric, got {value!r}"
                        )
    try:
        verify.check_overrides(args.suite, overrides)
    except (KeyError, ValueError) as e:
        raise ConfigError(e.args[0]) from e
    reports = verify.run_suite(args.suite, overrides)
    failed = False
    lines = []
    for report in reports:
        failed |= not report.passed
        lines.append(verify.format_report(report))
        if args.verbose:
            for row in report.rows:
                mark = "ok  " if row.ok else "FAIL"
                lines.append(
                    f"  {mark} {row.label}: {_fmt(row.measured)} {row.relation} "
                    f"{_fmt(row.bound)}" + (f"  ({row.note})" if row.note else "")
                )
    _emit(args.output, lines)
    return 1 if failed else 0


def _coupling_task(task):
    kind, n_or_leaves, d, beta, seed, cap, master = task
    if kind == "star":
        res = star_coupling_run(n_or_leaves, beta, seed, cap, master)
        n = n_or_leaves + 1
        dd = float(n_or_leaves)
    else:
        res = er_coupling_run(n_or_leaves, d, beta, seed, cap, master)
        n = n_or_leaves
        dd = d
    return n, dd, beta, seed, res.coupled, res.steps


def cmd_coupling_scan(args) -> int:
    cfg = load_config(args.config)
    sec = Section(cfg, "scan")
    kind = sec.raw("kind", "er")
    if kind not in ("er", "star"):
        raise ConfigError(f"scan kind must be er or star, got {kind!r}")
    size_key = "n" if kind == "er" else "leaves"
    sizes = sec.get_ints(size_key)
    if not sizes or min(sizes) < 1:
        raise ConfigError(
            f"[scan] {size_key} must be one or more values >= 1, got {sec.raw(size_key)!r}"
        )
    betas = sec.get_floats("beta")
    if not betas or not all(0.0 <= b < math.inf for b in betas):
        raise ConfigError(f"[scan] beta must be one or more values >= 0, got {sec.raw('beta')!r}")
    d = sec.get_float("d", 0.0) if kind == "er" else 0.0
    if kind == "er" and not sec.has("d"):
        raise ConfigError("[scan] needs d for kind = er")
    if not 0.0 <= d <= min(sizes):
        raise ConfigError(f"[scan] d must lie in [0, n] for every n, got {d}")
    seeds = sec.get_int("seeds", 20, minimum=1)
    cap = sec.get_int("cap", 10_000_000, minimum=1)
    master = sec.get_int("master_seed", DEFAULT_MASTER_SEED)
    tasks = sorted(
        (kind, size, d, beta, seed, cap, master)
        for size in sizes for beta in betas for seed in range(seeds)
    )
    workers = min(worker_count(), len(tasks)) or 1
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_coupling_task, tasks)
    else:
        rows = [_coupling_task(t) for t in tasks]
    lines = config_echo_lines(cfg)
    lines.append("n,d,beta,seed,coupled,steps")
    for n, dd, beta, seed, coupled, steps in rows:
        lines.append(
            f"{n},{_fmt(dd)},{_fmt(beta)},{seed},{1 if coupled else 0},{steps}"
        )
    _emit(args.output, lines)
    return 0


def cmd_decay_scan(args) -> int:
    cfg = load_config(args.config)
    g, _ = model_from_section(Section(cfg, "model"))
    sec = Section(cfg, "scan")
    radii = sec.get_ints("radii", "2 3 4 5 6 7 8 9 10")
    if any(l < 0 for l in radii):
        raise ConfigError(f"[scan] radii must be >= 0, got {sec.raw('radii')!r}")
    max_nodes = sec.get_int("max_nodes", 10**6, minimum=1)
    master = sec.get_int("master_seed", DEFAULT_MASTER_SEED)
    m = make_model(g)
    beta_max = m.beta_max
    raw_vertices = sec.raw("vertices", "12")
    if raw_vertices == "all":
        vertices = list(range(g.n))
    else:
        try:
            count = int(raw_vertices)
        except ValueError as e:
            raise ConfigError("[scan] vertices must be a count or 'all'") from e
        if count < 0:
            raise ConfigError(f"[scan] vertices must be >= 0, got {count}")
        count = min(count, g.n)
        rng = substream(master, "decay-scan-vertices")
        vertices = sorted(int(v) for v in rng.choice(g.n, size=count, replace=False))
    lines = config_echo_lines(cfg)
    lines.append("v,l,influence,sphere_size,bound,status")
    for v in vertices:
        for l in radii:
            try:
                st = build_saw_tree(g, v, l, max_nodes=max_nodes)
                influence = boundary_influence(tree_model(st, m, g.clamp), l)
                sphere = int(st.boundary.size)
                bound = sphere * math.tanh(beta_max) ** l
                lines.append(
                    f"{v},{l},{_fmt(influence)},{sphere},{_fmt(bound)},ok"
                )
            except BudgetError:
                lines.append(f"{v},{l},nan,0,nan,budget")
    _emit(args.output, lines)
    return 0


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    g, model_tag = model_from_section(Section(cfg, "model"))
    sec = Section(cfg, "sample")
    m = make_model(g)
    clamped = sec.get_bool("clamp", False)
    if clamped:
        m = clamp_large_fields(m)
    if m.graph.free_vertices().size == 0:
        raise ConfigError("every vertex is clamped; there is nothing to sample")
    if sec.has("L"):
        depth = sec.get_int("L", minimum=0)
    elif sec.has("r"):
        try:
            depth = radius_for(m.n, sec.get_float("r"))
        except ValueError as e:
            raise ConfigError(f"[sample] r: {e}") from e
    else:
        raise ConfigError("[sample] needs L (radius) or r (radius factor)")
    draws = sec.get_int("draws", 1, minimum=1)
    master = sec.get_int("master_seed", DEFAULT_MASTER_SEED)
    max_nodes = sec.get_int("max_nodes", 10**7, minimum=1)
    streams = [UpdateStream(m, master, chain_id=k) for k in range(draws)]
    try:
        runs = algorithm1_samples(m, depth, streams, max_nodes=max_nodes)
    except IsinglabError as e:
        # the walk trees do not depend on the draw, so draw 0 fails first
        print(f"sampling draw 0 failed: {e}", file=sys.stderr)
        return 2
    doc = {
        "config": {s: dict(cfg.items(s)) for s in cfg.sections()},
        "model": model_tag,
        "clamped": clamped,
        "master_seed": master,
        "runs": [run.to_json_dict() for run in runs],
    }
    _emit(args.output, [json.dumps(doc, indent=2, sort_keys=True)])
    return 0


def cmd_graph_gen(args) -> int:
    cfg = load_config(args.config)
    g, tag = model_from_section(Section(cfg, "graph"))
    out, close = _open_output(args.output)
    try:
        comment = "\n".join(
            [f"generated {tag}"] + [l[2:] for l in config_echo_lines(cfg)]
        )
        write_graph(g, out, comment=comment)
    finally:
        if close:
            out.close()
    return 0


def cmd_gw_stats(args) -> int:
    cfg = load_config(args.config)
    sec = Section(cfg, "gw")
    d = sec.get_float("d", 2.0)
    radii = sec.get_ints("radii", "4 6 8")
    if not radii or min(radii) < 0:
        raise ConfigError(f"[gw] radii must be one or more values >= 0, got {sec.raw('radii')!r}")
    seeds = sec.get_int("seeds", 10000, minimum=1)
    t_scale = sec.get_float("t", 1.0)
    if not math.isfinite(t_scale):
        raise ConfigError(f"[gw] t must be finite, got {sec.raw('t')!r}")
    master = sec.get_int("master_seed", DEFAULT_MASTER_SEED)
    depth = max(radii)
    spheres = {r: np.empty(seeds) for r in radii}
    densities = np.empty(seeds, dtype=np.int64)
    for k in range(seeds):
        try:
            tree = generate_galton_watson(d, depth, master + k)
        except ValueError as e:
            raise ConfigError(f"[gw] d: {e}") from e
        for r in radii:
            spheres[r][k] = np.count_nonzero(tree.depth == r)
        densities[k] = tree_path_density(tree)
    lines = config_echo_lines(cfg)
    lines.append("r,seeds,mean_sphere,d_pow_r,mean_exp_scaled,mean_density,max_density")
    for r in radii:
        z = spheres[r]
        try:
            d_pow_r = d**r
        except OverflowError as e:
            raise ConfigError(f"[gw] d = {d!r} to the power r = {r} overflows") from e
        with np.errstate(all="ignore"):
            mean_exp = float(np.mean(np.exp(t_scale * z / d_pow_r)))
        if not math.isfinite(mean_exp):
            raise ConfigError(
                f"[gw] t = {t_scale!r} and d = {d!r} give a non-finite mean_exp_scaled at r = {r}"
            )
        lines.append(
            f"{r},{seeds},{_fmt(z.mean())},{_fmt(d_pow_r)},{_fmt(mean_exp)},"
            f"{_fmt(densities.mean())},{densities.max()}"
        )
    _emit(args.output, lines)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isinglab",
        description="Heat-bath dynamics, walk-tree sampling and verification "
                    "for sparse-graph spin models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="one of: " + ", ".join(sorted(verify.SUITES)))
    p.add_argument("-c", "--config", help="INI config with a [verify] override section")
    p.add_argument("-o", "--output", help="report path (default stdout)")
    p.add_argument("-v", "--verbose", action="store_true", help="print every check row")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("coupling-scan", help="coupled-run sweep over (n, beta, seed)")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_coupling_scan)

    p = sub.add_parser("decay-scan", help="walk-tree boundary influence vs radius")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_decay_scan)

    p = sub.add_parser("sample", help="draw configurations by sequential walk-tree sampling")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", help="JSON path (default stdout)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("graph-gen", help="generate a graph file from config settings")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", help="graph file path (default stdout)")
    p.set_defaults(fn=cmd_graph_gen)

    p = sub.add_parser("gw-stats", help="branching-tree growth statistics")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_gw_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IsinglabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
