"""Command-line harness: verification suites, sweeps and samplers.

Commands take an INI-style config file (sections of key = value pairs)
plus flags only for the output path and verbosity.  Every output but a
verify report carries the config it was produced from ('#' comments, the
graph file's header or sample's "config" key), so re-running with that
config reproduces the data byte for byte.  Numbers are written with nine
significant digits.

Each command declares, once per section, every key it reads with its
parser, default and domain (the *_KEYS tables).  A section or key the
command does not declare, a value that does not parse and a value outside
its key's domain are configuration errors.  A [model] given by file takes
no generator key and no h, and [sample] takes exactly one of L and r.
[verify] takes the chosen suite's parameters, and checks each part's
arguments, defaults included, against VERIFY_DOMAINS.

Exit codes: 0 success, 1 verification failure, 2 configuration or usage
error.  The worker count for process-parallel sweeps comes from the
ISINGLAB_WORKERS environment variable (default and cap: all cores).
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import sys
import time
from collections.abc import Iterable

import numpy as np

from . import verify
from .dynamics import UpdateStream
from .errors import IsinglabError
from .graph import (
    WeightedGraph,
    cycle_graph,
    galton_watson_trees,
    generate_erdos_renyi,
    path_graph,
    read_graph,
    star_graph,
    tree_path_density,
    write_graph,
)
from .model import clamp_large_fields, make_model
from .rng import POISSON_MEAN_CAP, substream
from .sampler import algorithm1_samples, radius_for
from .sawtree import saw_brackets_at_radii
from .verify import DEFAULT_MASTER_SEED, TREND_SIZES, er_coupling_run, star_coupling_run


class ConfigError(IsinglabError):
    """Bad or missing configuration; maps to exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):  # bool too; a numpy bool prints as 1.0 does
        return str(int(x))
    return f"{float(x):.9g}"


def worker_count() -> int:
    cores = os.cpu_count() or 1
    raw = os.environ.get("ISINGLAB_WORKERS", "").strip()
    return min(_checked("ISINGLAB_WORKERS", raw, int, at_least(1), {}), cores) if raw else cores


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        with open(path) as f:
            parser.read_file(f)
    except (OSError, configparser.Error) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parser


def config_echo_lines(cfg: configparser.ConfigParser) -> list[str]:
    return [f"# {section}.{key} = {value}"
            for section in cfg.sections() for key, value in sorted(cfg.items(section))]


# A key table holds key: (parser, default, domain) for every key of a
# section.  A parser maps the raw text to a value or raises ValueError or
# KeyError; REQUIRED marks a key without a default.  A domain maps (value,
# the values of the keys declared before it) to what the value must be, or
# None when it is valid.  List items are checked one by one; defaults are
# not checked.  Where the key set depends on what the section holds, a
# command passes (a function naming the variant of the section's raw
# items, the table of each variant): _MODEL, _COUPLING_SCAN and _SAMPLE.
REQUIRED = object()


def _finite(raw) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(raw)
    return x


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _words(parse):
    def parse_words(raw: str) -> list:
        values = [parse(tok) for tok in raw.split()]
        if not values:
            raise ValueError(raw)
        return values
    return parse_words


def _count_or_all(raw: str) -> float:
    return math.inf if raw == "all" else int(raw)


def _fields(raw: str) -> list[float]:
    """A constant field as [h], or 'uniform lo hi' as the bounds [lo, hi]."""
    tokens = raw.split()
    if len(tokens) == 3 and tokens[0] == "uniform":
        tokens = tokens[1:]
    elif len(tokens) != 1:
        raise ValueError(raw)
    bounds = [_finite(tok) for tok in tokens]
    _finite(bounds[-1] - bounds[0])  # numpy draws uniform fields over a finite width only
    return bounds


def _number(raw: str) -> int | float:
    try:
        return int(raw)
    except ValueError:
        return _finite(raw)


def at_least(lo: int | float):
    return lambda x, args: None if x >= lo else f">= {lo}"


def poisson_mean(x: float, args: dict) -> str | None:  # where Poisson inversion is exact
    return None if 0 < x <= POISSON_MEAN_CAP else f"in (0, {POISSON_MEAN_CAP:g}]"


def degree_within(key: str):
    """Domain of an Erdos-Renyi mean degree: in [0, n] for each n in args[key]."""
    def need(x: float, args: dict) -> str | None:
        hi = min(args[key]) if isinstance(args[key], (list, tuple)) else args[key]
        return None if 0 <= x <= hi else f"in [0, {hi}]"
    return need


_INTS, _FLOATS = _words(int), _words(_finite)
_WHAT = {
    int: "an integer", _finite: "a finite number", _bool: "a boolean",
    _INTS: "one or more integers", _FLOATS: "one or more finite numbers",
    _count_or_all: "a count or 'all'",
    _fields: "a finite number, or 'uniform lo hi' with a finite hi - lo",
    _number: "a finite number",
}
_MASTER_SEED = (int, DEFAULT_MASTER_SEED, None)
_GENERATOR = {  # seed draws the er graph, and the fields of h = uniform lo hi
    "kind": (str, "er", None), "beta": (_finite, 1.0, at_least(0)), "h": (_fields, None, None),
    "seed": (int, 0, lambda seed, args: None if args["kind"] == "er" or len(args["h"] or ()) == 2
             else "set only with kind = er or h = uniform lo hi"),
}
MODEL_KEYS = {  # [model], and [graph] of graph-gen
    "er": {"n": (int, REQUIRED, at_least(1)), "d": (_finite, REQUIRED, degree_within("n")),
           **_GENERATOR},
    "star": {"leaves": (int, REQUIRED, at_least(1)), **_GENERATOR},
    "path": {"n": (int, REQUIRED, at_least(1)), **_GENERATOR},
    "cycle": {"n": (int, REQUIRED, at_least(3)), **_GENERATOR},
    "file": {"file": (str, REQUIRED, None)},
}
_MODEL = (lambda items: "file" if "file" in items else items.get("kind", "er"), MODEL_KEYS)
_RUNS = {
    "kind": (str, "er", None), "beta": (_FLOATS, REQUIRED, at_least(0)),
    "seeds": (int, 20, at_least(1)), "cap": (int, 10_000_000, at_least(1)),
    "master_seed": _MASTER_SEED,
}
COUPLING_SCAN_KEYS = {  # [scan] of coupling-scan
    "er": {"n": (_INTS, REQUIRED, at_least(1)), "d": (_finite, REQUIRED, degree_within("n")),
           **_RUNS},
    "star": {"leaves": (_INTS, REQUIRED, at_least(1)), **_RUNS},
}
_COUPLING_SCAN = (lambda items: items.get("kind", "er"), COUPLING_SCAN_KEYS)
DECAY_SCAN_KEYS = {  # [scan] of decay-scan
    "radii": (_INTS, list(range(2, 11)), at_least(0)),
    "vertices": (_count_or_all, 12, at_least(0)),
    "max_nodes": (int, 10**6, at_least(1)), "master_seed": _MASTER_SEED,
}
_DRAWS = {
    "draws": (int, 1, at_least(1)), "max_nodes": (int, 10**7, at_least(1)),
    "clamp": (_bool, False, None), "master_seed": _MASTER_SEED,
}
SAMPLE_KEYS = {  # [sample]: the radius L, or the radius factor r of radius_for
    "L": {"L": (int, REQUIRED, at_least(0)), **_DRAWS},
    "r": {"r": (_finite, REQUIRED, lambda r, args: None if r > 0 else "> 0"), **_DRAWS},
}
_SAMPLE = (lambda items: " and ".join(k for k in SAMPLE_KEYS if k in items) or "neither",
           SAMPLE_KEYS)


def _scale_of_radius(r: int, args: dict) -> str | None:  # gw-stats divides spheres by d ** r
    try:
        ok = r >= 0 and 0.0 < args["d"] ** r < math.inf
    except OverflowError:
        ok = False
    return None if ok else f">= 0 with d ** r finite and nonzero at d = {args['d']!r}"


GW_KEYS = {  # [gw]
    "d": (_finite, 2.0, poisson_mean), "radii": (_INTS, [4, 6, 8], _scale_of_radius),
    "seeds": (int, 10000, at_least(1)), "t": (_finite, 1.0, None),
    "master_seed": _MASTER_SEED,
}


def _mean_degree(x: float, args: dict) -> str | None:
    # Erdos-Renyi graphs on n vertices, or on each of TREND_SIZES for
    # coupling-trend; structure also grows Poisson(d) branching trees
    need = "n" in args and poisson_mean(x, args)
    return need or degree_within("n")(x, {"n": TREND_SIZES, **args})


def _auditable(x: int, args: dict) -> str | None:
    most = verify.soundness_audit_bound(args["max_runs"])
    return None if 0 <= x <= most else f"in [0, {most}], the most max_runs = {args['max_runs']} runs audit"


# Domain of each [verify] key, a suite parameter of the same kind in every
# suite that takes it.  Instance counts start at 1, as a run with no
# instance reads as a failed check, and max_runs at the min_runs it would
# cut short; means follow the generators' own domains.
VERIFY_DOMAINS = {
    **{key: at_least(1) for key in (
        "models", "trees", "draws", "seeds", "graphs", "max_len", "cap", "n",
        "min_runs", "sphere_trees")},
    **{key: at_least(2) for key in ("max_n", "max_depth")},
    **{key: at_least(0) for key in (
        "removals", "random_models", "trunc_depth", "excess_bound",
        "radius", "tol", "exact_tol", "beta")},
    "offspring": poisson_mean,
    "d": _mean_degree,
    "sample_vertices": lambda x, args: None if 1 <= x <= args["n"] else "in [1, n]",
    "min_steps": _auditable,
    "max_runs": lambda x, args: at_least(args["min_runs"])(x, args),
}


def _checked(where: str, raw: str, parse, domain, args: dict):
    """raw parsed, and checked against a domain that sees the values in args."""
    try:
        value = parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where} must be {_WHAT[parse]}, got {raw!r}") from None
    for x in value if isinstance(value, list) else [value]:
        need = domain and domain(x, args)
        if need:
            raise ConfigError(f"{where} must be {need}, got {raw!r}")
    return value


def read_section(cfg: configparser.ConfigParser, name: str, table) -> dict:
    """Values of one section, each parsed and checked against its key table."""
    if not cfg.has_section(name):
        raise ConfigError(f"config is missing the [{name}] section")
    items = {key: value.strip() for key, value in cfg.items(name)}
    if isinstance(table, tuple):  # (variant of the items, key table of each variant)
        choose, variants = table
        table = variants.get(choose(items))
        if table is None:
            raise ConfigError(f"[{name}] must give one of {', '.join(variants)}; "
                              f"it gives {choose(items)}")
    unknown = sorted(set(items) - set(table))
    if unknown:
        raise ConfigError(f"[{name}] accepts no key {', '.join(unknown)}; "
                          f"it accepts {', '.join(sorted(table))}")
    values: dict = {}
    for key, (parse, default, domain) in table.items():
        if key in items:
            values[key] = _checked(f"[{name}] {key}", items[key], parse, domain, values)
        elif default is REQUIRED:
            raise ConfigError(f"[{name}] is missing key {key!r}")
        else:
            values[key] = default
    return values


def read_config(path: str, tables: dict) -> tuple:
    """(config, values of each section) of a command that reads these sections.

    A section the command does not declare is an error, and so is one it
    declares but the config leaves out.
    """
    cfg = load_config(path)
    unknown = sorted(set(cfg.sections()) - set(tables))
    if unknown:
        raise ConfigError(f"this command reads no section [{'], ['.join(unknown)}]; "
                          f"it reads [{'], ['.join(tables)}]")
    return cfg, {name: read_section(cfg, name, table) for name, table in tables.items()}


def model_from_section(sec: dict) -> tuple[WeightedGraph, str]:
    """Graph from read [model] values: a file path or generator settings."""
    if "file" in sec:
        path = sec["file"]
        try:
            g = read_graph(path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read graph file {path}: {e}") from e
        return g, f"file:{path}"
    kind, beta, h = sec["kind"], sec["beta"], sec["h"]
    if kind == "er":
        g = generate_erdos_renyi(sec["n"], sec["d"], sec["seed"], beta=beta)
        tag = f"er:n={sec['n']},d={_fmt(sec['d'])},seed={sec['seed']}"
    elif kind == "star":
        g = star_graph(sec["leaves"], beta)
        tag = f"star:leaves={sec['leaves']}"
    else:
        g = (path_graph if kind == "path" else cycle_graph)(sec["n"], beta)
        tag = f"{kind}:n={g.n}"
    if h is not None and len(h) == 1:
        g = g.with_vertex_data(h=np.full(g.n, h[0]))
    elif h is not None:
        g = g.with_vertex_data(h=substream(sec["seed"], "graph-fields").uniform(*h, size=g.n))
    return g, tag


def _emit(path: str | None, lines: Iterable[str], end: str = "\n") -> None:
    """Write each of ``lines`` and ``end`` to ``path``, or to stdout for None or "-"."""
    text = (line + end for line in lines)
    if path is None or path == "-":
        sys.stdout.writelines(text)
        return
    try:
        with open(path, "w") as out:
            out.writelines(text)
    except OSError as e:
        raise ConfigError(f"cannot write output {path}: {e}") from e


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    parts = verify.SUITES.get(args.suite)  # looked up now: tracers replace the entries
    if parts is None:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}")
    params = [inspect.signature(fn).parameters for fn in parts]
    table = {key: (_number if isinstance(p.default, float) else int, None, None)
             for ps in params for key, p in ps.items()}  # an int or None default: int
    given = read_config(args.config, {"verify": table})[1]["verify"] if args.config else {}
    calls = [{key: p.default if given.get(key) is None else given[key] for key, p in ps.items()}
             for ps in params]
    for kwargs in calls:  # values already parsed, so each parses as itself
        for key, value in kwargs.items():
            if value is not None and key in VERIFY_DOMAINS:
                _checked(f"[verify] {key}", value, type(value), VERIFY_DOMAINS[key], kwargs)
    reports = []
    for fn, kwargs in zip(parts, calls):
        t0 = time.perf_counter()
        report = fn(**kwargs)
        report.elapsed = time.perf_counter() - t0
        reports.append(report)
    lines = []
    for report in reports:
        lines.append(verify.format_report(report))
        if args.verbose:
            for row in report.rows:
                mark = "ok  " if row.ok else "FAIL"
                lines.append(
                    f"  {mark} {row.label}: {_fmt(row.measured)} {row.relation} "
                    f"{_fmt(row.bound)}" + (f"  ({row.note})" if row.note else "")
                )
    _emit(args.output, lines)
    return 0 if all(report.passed for report in reports) else 1


def _coupling_task(task):
    kind, size, d, beta, seed, cap, master = task
    if kind == "star":  # a hub of degree size among size + 1 vertices
        res = star_coupling_run(size, beta, seed, cap, master)
        return size + 1, float(size), beta, seed, res.coupled, res.steps
    res = er_coupling_run(size, d, beta, seed, cap, master)
    return size, d, beta, seed, res.coupled, res.steps


def cmd_coupling_scan(args) -> int:
    cfg, sections = read_config(args.config, {"scan": _COUPLING_SCAN})
    sec = sections["scan"]
    kind, d = sec["kind"], sec.get("d", 0.0)
    tasks = sorted(
        (kind, size, d, beta, seed, sec["cap"], sec["master_seed"])
        for size in sec["n" if kind == "er" else "leaves"]
        for beta in sec["beta"] for seed in range(sec["seeds"])
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
    cfg, sections = read_config(args.config, {"model": _MODEL, "scan": DECAY_SCAN_KEYS})
    g, _ = model_from_section(sections["model"])
    sec = sections["scan"]
    m = make_model(g)
    rng = substream(sec["master_seed"], "decay-scan-vertices")
    size = min(sec["vertices"], g.n)  # vertices = all, or any count >= n, takes every vertex
    vertices = sorted(int(v) for v in rng.choice(g.n, size=size, replace=False))
    lines = config_echo_lines(cfg)
    lines.append("v,l,influence,sphere_size,bound,status")
    for v in vertices:
        rows = saw_brackets_at_radii(m, v, sec["radii"], sec["max_nodes"])
        for l, row in zip(sec["radii"], rows):
            if row is None:
                lines.append(f"{v},{l},nan,0,nan,budget")
                continue
            (lo, hi), sphere = row
            bound = sphere * math.tanh(m.beta_max) ** l
            lines.append(f"{v},{l},{_fmt(hi - lo)},{sphere},{_fmt(bound)},ok")
    _emit(args.output, lines)
    return 0


def cmd_sample(args) -> int:
    cfg, sections = read_config(args.config, {"model": _MODEL, "sample": _SAMPLE})
    g, model_tag = model_from_section(sections["model"])
    sec = sections["sample"]
    clamped, master = sec["clamp"], sec["master_seed"]
    m = make_model(g)
    if clamped:
        m = clamp_large_fields(m)
    if m.graph.free_vertices().size == 0:
        raise ConfigError("every vertex is clamped; there is nothing to sample")
    depth = sec["L"] if "L" in sec else radius_for(m.n, sec["r"])
    streams = [UpdateStream(m, master, chain_id=k) for k in range(sec["draws"])]
    try:
        runs = algorithm1_samples(m, depth, streams, max_nodes=sec["max_nodes"])
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
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    _emit(args.output, itertools.chain(chunks, ["\n"]), end="")  # streamed, never joined
    return 0


def cmd_graph_gen(args) -> int:
    cfg, sections = read_config(args.config, {"graph": _MODEL})
    g, tag = model_from_section(sections["graph"])
    out = io.StringIO()
    comment = "\n".join([f"generated {tag}"] + [l[2:] for l in config_echo_lines(cfg)])
    write_graph(g, out, comment=comment)
    _emit(args.output, out.getvalue().splitlines())
    return 0


def cmd_gw_stats(args) -> int:
    cfg, sections = read_config(args.config, {"gw": GW_KEYS})
    d, radii, seeds, t_scale, master = (
        sections["gw"][key] for key in ("d", "radii", "seeds", "t", "master_seed"))
    depth = max(radii)
    spheres = {r: np.empty(seeds) for r in radii}
    densities = np.empty(seeds, dtype=np.int64)
    for k, tree in enumerate(galton_watson_trees(d, depth, range(master, master + seeds))):
        for r in radii:
            spheres[r][k] = np.count_nonzero(tree.depth == r)
        densities[k] = tree_path_density(tree)
    lines = config_echo_lines(cfg)
    lines.append("r,seeds,mean_sphere,d_pow_r,mean_exp_scaled,mean_density,max_density")
    for r in radii:
        z = spheres[r]
        d_pow_r = d**r
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

    for name, fn, what, output in [
        ("coupling-scan", cmd_coupling_scan, "coupled-run sweep over (n, beta, seed)", "CSV"),
        ("decay-scan", cmd_decay_scan, "walk-tree boundary influence vs radius", "CSV"),
        ("sample", cmd_sample, "draw configurations by sequential walk-tree sampling", "JSON"),
        ("graph-gen", cmd_graph_gen, "generate a graph file from config settings", "graph file"),
        ("gw-stats", cmd_gw_stats, "branching-tree growth statistics", "CSV"),
    ]:
        p = sub.add_parser(name, help=what)
        p.add_argument("-c", "--config", required=True)
        p.add_argument("-o", "--output", help=f"{output} path (default stdout)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    # The parser is a web of reference cycles.  Dropped here, it would be
    # freed by whichever collection the command's allocations set off, and
    # where its blocks came free moved decay-scan's peak RSS by up to 0.6 MB
    # with the length of the output path; held, it lives until main returns.
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except IsinglabError as e:  # ConfigError included
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
