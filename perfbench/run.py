"""End-to-end and per-layer benchmark of isinglab.

Usage (from the repository root):

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --write-golden            # refresh golden.json

Each workload is a fixed list of user tasks (CLI invocations with fixed
configs, plus one library call), each run in its own Python process with
ISINGLAB_WORKERS=1.  A pass runs the tasks one after another, each
starting when the previous one has exited (a closed loop with one
client); passes repeat until the next one would end past ``--seconds``.
The workload seed feeds only the ``seed``/``master_seed`` keys of the
generated configs; the verify tasks run their suites at default scale and
do not depend on it.  Why each workload exists is in NOTES.md.

Every task's output is digested (verify reports with their wall-clock
token masked) and must match golden.json for seed-independent tasks and
at the default seed, and must be identical across all passes of a run.
The exit code must match golden.json and the output must pass a
plausibility check.  ``--trace 1`` alternates untraced and traced
passes: the traced ones wrap each layer's public functions (spans.py) and
give the per-layer metrics, the untraced ones give the tracing overhead.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; a full result with the environment block is also written to
.perfbench_out/ for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
WORKLOADS = ("dynamics", "walktree", "sampler", "structure")
SETUP_PROBES = 5
TASK_TIMEOUT_S = 150

SCAN_INI = """\
[scan]
kind = er
n = 250 500 1000
d = 2.0
beta = 0.05
seeds = 20
cap = 10000000
master_seed = {seed}
"""

# n = 20000 keeps graph-to-graph variation of walk-tree sizes small; the
# radius-12 rows mostly end at the node budget (wasted budget work).
DECAY_INI = """\
[model]
kind = er
n = 20000
d = 3.0
beta = 0.3
seed = {seed}

[scan]
radii = 6 9 12
vertices = 50
max_nodes = 100000
master_seed = {seed}
"""

# The graph is fixed: walk-tree sizes, and so the cost of a draw, vary by
# about 12% between n = 1000 graphs.  The workload seed picks the draws.
SAMPLE_INI = """\
[model]
kind = er
n = 1000
d = 2.0
beta = 0.3
seed = 1

[sample]
L = 6
draws = 4
master_seed = {seed}
"""

CHAIN = {"n": 2000, "d": 2.0, "beta": 0.3, "steps": 10**6}

# Per-layer metrics: name, unit, better, the workload/end-to-end metric it
# should move.  BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("graph.ball.calls", "count", "lower", "structure/wall_s"),
    ("graph.ball.self_s", "s", "lower", "structure/wall_s"),
    ("graph.ball.us_per_call", "us", "lower", "structure/wall_s"),
    ("graph.tree_excess.self_s", "s", "lower", "structure/wall_s"),
    ("graph.generate_galton_watson.self_s", "s", "lower", "structure/wall_s"),
    ("graph.tree_path_density.self_s", "s", "lower", "structure/wall_s"),
    ("graph.generate_erdos_renyi.self_s", "s", "lower", "dynamics,structure/wall_s"),
    ("model.merge_conditioning.calls", "count", "lower", "sampler/wall_s"),
    ("model.merge_conditioning.self_s", "s", "lower", "sampler/wall_s"),
    ("model.exact_distribution.self_s", "s", "lower", "sampler/wall_s"),
    ("kernels.coupled_steps.updates", "count", "lower", "dynamics/wall_s"),
    ("kernels.coupled_steps.ns_per_update", "ns", "lower", "dynamics/wall_s"),
    ("kernels.chain_steps.updates", "count", "lower", "dynamics/wall_s"),
    ("kernels.chain_steps.ns_per_update", "ns", "lower", "dynamics/wall_s"),
    ("kernels.tree_root_field.nodes", "count", "lower", "walktree,sampler/wall_s"),
    ("kernels.tree_root_field.ns_per_node", "ns", "lower", "walktree,sampler/wall_s"),
    ("sawtree.build_saw_tree.calls", "count", "lower", "walktree,sampler/wall_s"),
    ("sawtree.build_saw_tree.nodes", "count", "lower", "walktree/wall_s,peak_rss_mb; sampler/wall_s"),
    ("sawtree.build_saw_tree.ns_per_node", "ns", "lower", "walktree,sampler/wall_s"),
    ("sawtree.root_reuse_ratio", "ratio", "higher", "sampler,walktree/wall_s"),
    ("sawtree.budget_waste", "ratio", "lower", "walktree/wall_s"),
    ("sawtree.saw_tree_size.nodes", "count", "lower", "structure/wall_s"),
    ("sawtree.saw_tree_size.ns_per_node", "ns", "lower", "structure/wall_s"),
    ("sawtree.saw_marginal_from_tree.self_s", "s", "lower", "sampler,walktree/wall_s"),
    ("dynamics.next_updates.pairs", "count", "lower", "dynamics/wall_s"),
    ("dynamics.next_updates.ns_per_pair", "ns", "lower", "dynamics/wall_s"),
    ("dynamics.monotone_coupled_run.self_s", "s", "lower", "dynamics/wall_s"),
    ("dynamics.monotone_coupled_run.cap_hit_ratio", "ratio", "lower", "dynamics/wall_s"),
    ("dynamics.run_chain.self_s", "s", "lower", "dynamics/wall_s"),
    ("sampler.algorithm1_sample.s_per_draw", "s", "lower", "sampler/wall_s"),
    ("sampler.algorithm1_output_law.self_s", "s", "lower", "sampler/wall_s"),
    ("sampler.truncation_tv_bound.self_s", "s", "lower", "sampler/wall_s"),
    ("verify.coupling-soundness.s", "s", "lower", "dynamics/wall_s"),
    ("verify.coupling-trend.s", "s", "lower", "dynamics/wall_s"),
    ("verify.star-coupling.s", "s", "lower", "dynamics/wall_s"),
    ("verify.sampler-tv.s", "s", "lower", "sampler/wall_s"),
    ("verify.structure.s", "s", "lower", "structure/wall_s"),
    ("cli.verify.s", "s", "lower", "dynamics,sampler,structure/wall_s"),
    ("cli.coupling-scan.s", "s", "lower", "dynamics/wall_s"),
    ("cli.decay-scan.s", "s", "lower", "walktree/wall_s"),
    ("cli.sample.s", "s", "lower", "sampler/wall_s"),
    ("trace.overhead_s", "s", "lower", "(traced minus untraced pass wall time)"),
]

# Re-anchor figures from ROADMAP item 1 (pure Python, 2 cores), beside the
# traced rate each one corresponds to.
ROADMAP_BASELINE = [
    ("coupled update", "kernels.coupled_steps.ns_per_update", 1500.0, "ns"),
    ("walk-tree build", "sawtree.build_saw_tree.ns_per_node", 760.0, "ns"),
    ("tree fold", "kernels.tree_root_field.ns_per_node", 252.0, "ns"),
    ("ball + excess", "ball_excess_us_per_vertex", 92.0, "us"),
    ("sampler draw", "sampler.algorithm1_sample.s_per_draw", 0.244, "s"),
]


# ---------------------------------------------------------------------------
# tasks


@dataclass
class Task:
    name: str
    kind: str  # "cli" or "chain"
    seeded: bool  # output depends on the workload seed
    argv: list[str] = field(default_factory=list)
    config: str | None = None
    params: dict = field(default_factory=dict)


def workload_tasks(workload: str, seed: int) -> list[Task]:
    if workload == "dynamics":
        return [
            Task("verify-coupling", "cli", False, ["verify", "coupling"]),
            Task("coupling-scan", "cli", True, ["coupling-scan"], SCAN_INI.format(seed=seed)),
            Task("run-chain", "chain", True,
                 params=dict(CHAIN, seed=seed, master_seed=seed)),
        ]
    if workload == "walktree":
        return [Task("decay-scan", "cli", True, ["decay-scan"], DECAY_INI.format(seed=seed))]
    if workload == "sampler":
        return [
            Task("verify-sampler-tv", "cli", False, ["verify", "sampler-tv"]),
            Task("sample", "cli", True, ["sample"], SAMPLE_INI.format(seed=seed)),
        ]
    if workload == "structure":
        return [Task("verify-structure", "cli", False, ["verify", "structure"])]
    raise ValueError(f"unknown workload {workload!r}")


_VERIFY_TIMING = re.compile(r"^(\[[^\]]+\] \d+/\d+ checks pass )\(\d+\.\ds\)", re.M)


def output_digest(text: str) -> str:
    """sha256 of an output with only the verify wall-clock token masked."""
    return hashlib.sha256(_VERIFY_TIMING.sub(r"\1(*s)", text).encode()).hexdigest()


def _data_rows(text: str, header: str) -> list[list[str]]:
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    return [l.split(",") for l in lines[1:]]


def plausibility_problems(task: Task, text: str) -> list[str]:
    """Checks that hold for every seed; verify reports are pinned by golden.json."""
    try:
        if task.name == "coupling-scan":
            rows = _data_rows(text, "n,d,beta,seed,coupled,steps")
            if len(rows) != 60:
                return [f"{len(rows)} rows, want 60"]
            if any(r[4] != "1" or int(r[5]) < 1 for r in rows):
                return ["a run did not couple under the cap"]
        elif task.name == "decay-scan":
            rows = _data_rows(text, "v,l,influence,sphere_size,bound,status")
            if len(rows) != 150:
                return [f"{len(rows)} rows, want 150"]
            for v, l, infl, sphere, bound, status in rows:
                if status == "budget":
                    if (infl, sphere, bound) != ("nan", "0", "nan"):
                        return [f"bad budget row for v={v}"]
                elif status != "ok" or not 0.0 <= float(infl) <= float(bound) * (1 + 1e-9) + 1e-12:
                    return [f"influence {infl} above its decay bound {bound} (v={v}, l={l})"]
        elif task.name == "sample":
            runs = json.loads(text)["runs"]
            if len(runs) != 4:
                return [f"{len(runs)} draws, want 4"]
            for r in runs:
                if len(r["spins"]) != 1000 or any(s not in (-1, 1) for s in r["spins"]):
                    return ["spins are not a +-1 configuration of 1000 vertices"]
                if any(not 0.0 <= p <= 1.0 for p in r["p"]) or min(r["saw_sizes"]) < 1:
                    return ["a marginal or walk-tree size is out of range"]
        elif task.name == "run-chain":
            spins = text.splitlines()[1]
            if len(spins) != CHAIN["n"] or set(spins) - {"+", "-"}:
                return ["final state is not a +-1 configuration"]
    except (ValueError, KeyError, IndexError) as e:
        return [f"unparseable output: {e}"]
    return []


@dataclass
class TaskResult:
    name: str
    exit: int | None
    digest: str | None
    wall_s: float  # spawn to exit
    setup_s: float | None  # spawn to isinglab.cli imported
    maxrss_kb: int
    trace: dict | None
    problems: list[str]


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ISINGLAB_WORKERS"] = str(workers)
    return env


def spawn(spec: dict, work: Path, tag: str,
          workers: int = 1) -> tuple[int, dict | None, float, float, str]:
    """Run perfbench/task.py on one spec; (returncode, meta, spawn time, exit time, stderr)."""
    spec_path, meta_path = work / f"{tag}.spec.json", work / f"{tag}.meta.json"
    spec_path.write_text(json.dumps(spec))
    meta_path.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "task.py"), str(spec_path), str(meta_path)],
        env=child_env(workers), cwd=work, capture_output=True, text=True,
        timeout=TASK_TIMEOUT_S,
    )
    t_exit = time.monotonic()
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else None
    return proc.returncode, meta, t_spawn, t_exit, proc.stderr


def run_task(task: Task, work: Path, trace: bool, golden: dict, workers: int = 1) -> TaskResult:
    out = work / f"{task.name}.out"
    out.unlink(missing_ok=True)
    spec = {"kind": task.kind, "trace": trace}
    if task.kind == "cli":
        argv = list(task.argv)
        if task.config is not None:
            cfg = work / f"{task.name}.ini"
            cfg.write_text(task.config)
            argv += ["-c", str(cfg)]
        spec["argv"] = argv + ["-o", str(out)]
    else:
        spec.update(task.params, output=str(out))
    code, meta, t_spawn, t_exit, stderr = spawn(spec, work, task.name, workers)
    problems = []
    expect = golden["tasks"].get(task.name, {}).get("exit")
    if meta is None or meta["exit"] != code:
        problems.append(f"task process failed (exit {code}): {stderr.strip()[-400:]}")
    elif expect is not None and code != expect:
        problems.append(f"exit {code}, expected {expect}: {stderr.strip()[-400:]}")
    digest = None
    if out.exists():
        text = out.read_text()
        digest = output_digest(text)
        problems += plausibility_problems(task, text)
    else:
        problems.append("no output written")
    if meta is not None and not Path(meta["isinglab_file"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"imported isinglab from {meta['isinglab_file']}, not this checkout")
    return TaskResult(
        task.name, code, digest, t_exit - t_spawn,
        None if meta is None else meta["ready"] - t_spawn,
        0 if meta is None else meta["maxrss_kb"],
        None if meta is None else meta.get("trace"), problems,
    )


# ---------------------------------------------------------------------------
# passes and metrics


@dataclass
class Pass:
    traced: bool
    wall_s: float
    tasks: list[TaskResult]


def run_pass(tasks: list[Task], work: Path, traced: bool, golden: dict) -> Pass:
    """One closed-loop pass; its wall time counts the task processes, not the checks."""
    results = [run_task(t, work, traced, golden) for t in tasks]
    return Pass(traced, sum(r.wall_s for r in results), results)


def merge_traces(results: list[TaskResult]) -> dict:
    merged: dict[str, dict] = {}
    for r in results:
        for name, agg in (r.trace or {}).items():
            m = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            m["calls"] += agg["calls"]
            m["total_s"] += agg["total_s"]
            m["self_s"] += agg["self_s"]
            for k, v in agg["counts"].items():
                m["counts"][k] = m["counts"].get(k, 0) + v
    return merged


def layer_values(aggs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 for layers the pass never calls)."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}

    def get(name):
        return aggs.get(name, empty)

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    v: dict[str, float] = {}
    for name in ("graph.ball", "model.merge_conditioning", "sawtree.build_saw_tree"):
        v[f"{name}.calls"] = get(name)["calls"]
    for name in ("graph.ball", "graph.tree_excess", "graph.generate_galton_watson",
                 "graph.tree_path_density", "graph.generate_erdos_renyi",
                 "model.merge_conditioning", "model.exact_distribution",
                 "sawtree.saw_marginal_from_tree", "dynamics.monotone_coupled_run",
                 "dynamics.run_chain", "sampler.algorithm1_output_law",
                 "sampler.truncation_tv_bound"):
        v[f"{name}.self_s"] = get(name)["self_s"]
    v["graph.ball.us_per_call"] = per(get("graph.ball")["self_s"], get("graph.ball")["calls"], 1e6)
    for name, work, rate in (
        ("kernels.coupled_steps", "updates", "ns_per_update"),
        ("kernels.chain_steps", "updates", "ns_per_update"),
        ("kernels.tree_root_field", "nodes", "ns_per_node"),
        ("sawtree.build_saw_tree", "nodes", "ns_per_node"),
        ("sawtree.saw_tree_size", "nodes", "ns_per_node"),
        ("dynamics.next_updates", "pairs", "ns_per_pair"),
    ):
        count = get(name)["counts"].get(work, 0)
        v[f"{name}.{work}"] = count
        v[f"{name}.{rate}"] = per(get(name)["self_s"], count, 1e9)
    build = get("sawtree.build_saw_tree")
    v["sawtree.root_reuse_ratio"] = per(build["counts"].get("distinct_roots", 0), build["calls"])
    v["sawtree.budget_waste"] = per(build["counts"].get("budget_nodes", 0), build["counts"].get("nodes", 0))
    coupled = get("dynamics.monotone_coupled_run")
    v["dynamics.monotone_coupled_run.cap_hit_ratio"] = per(coupled["counts"].get("cap_hits", 0), coupled["calls"])
    draws = get("sampler.algorithm1_sample")
    v["sampler.algorithm1_sample.s_per_draw"] = per(draws["total_s"], draws["calls"])
    for name, *_ in LAYER_METRICS:
        if name.startswith(("verify.", "cli.")):
            v[name] = get(name.removesuffix(".s"))["total_s"]
    ball_excess = get("graph.ball")["self_s"] + get("graph.tree_excess")["self_s"]
    v["ball_excess_us_per_vertex"] = per(ball_excess, get("graph.ball")["calls"], 1e6)
    return v


def high_percentile(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with `beyond` samples above it."""
    n = len(values)
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n, sorted(values)[n - beyond - 1]


# ---------------------------------------------------------------------------
# environment


def tree_digest(top: Path) -> str:
    """Short sha256 over the Python files under ``top``."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# one workload run


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict, probe_env: dict, work: Path) -> dict:
    tasks = workload_tasks(workload, seed)
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(tasks, work, traced, golden))
        elapsed = time.monotonic() - start
        need_both = trace and not any(p.traced for p in passes)
        if not need_both and elapsed + passes[-1].wall_s > seconds:
            break

    attempted = sum(len(p.tasks) for p in passes)
    problems = [f"{r.name} (pass {i}): {msg}"
                for i, p in enumerate(passes) for r in p.tasks for msg in r.problems]
    digests: dict[str, str | None] = {}
    for t in tasks:
        seen = {r.digest for p in passes for r in p.tasks if r.name == t.name}
        digests[t.name] = next(iter(seen)) if len(seen) == 1 else None
        want = golden["tasks"].get(t.name, {}).get("sha256")
        if len(seen) != 1:
            problems.append(f"{t.name}: output differs between passes")
        elif (not t.seeded or seed == DEFAULT_SEED) and digests[t.name] != want:
            problems.append(f"{t.name}: digest differs from golden.json")
    # a digest problem fails every attempt of that task
    bad = {t.name for t in tasks if any(m.startswith(f"{t.name}: ") for m in problems)}
    failed = sum(1 for p in passes for r in p.tasks if r.problems or r.name in bad)

    if workload == "dynamics":
        # worker-count invariance, outside the timed passes
        scan = next(t for t in tasks if t.name == "coupling-scan")
        two = run_task(scan, work, False, golden, workers=2)
        attempted += 1
        if two.problems or two.digest != digests["coupling-scan"]:
            failed += 1
            problems.append("coupling-scan: ISINGLAB_WORKERS=2 output differs from 1 worker"
                            + "".join(f"; {m}" for m in two.problems))

    # every earlier run of this source and benchmark at this seed must have
    # produced the same bytes
    for earlier in OUT_DIR.glob(f"{workload}-seed{seed}-trace*.json"):
        prev = json.loads(earlier.read_text())
        if any(prev["env"].get(k) != probe_env["env"][k] for k in ("src_sha256", "bench_sha256")):
            continue
        for name, digest in prev["digests"].items():
            if digest is not None and digest != digests.get(name):
                failed += 1
                problems.append(f"{name}: digest differs from the earlier run in {earlier.name}")

    untraced = [p for p in passes if not p.traced]
    setups = probe_env["setup_samples"] + [r.setup_s for p in untraced for r in p.tasks
                                           if r.setup_s is not None]
    walls = [p.wall_s for p in untraced]
    peaks = [max(r.maxrss_kb for r in p.tasks) / 1024.0 for p in untraced]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": dict(probe_env["env"], seed=seed),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "tasks": {r.name: {"exit": r.exit, "wall_s": r.wall_s, "setup_s": r.setup_s,
                                       "maxrss_kb": r.maxrss_kb} for r in p.tasks}}
                   for p in passes],
        "end_to_end": {
            "wall_s": {"value": statistics.median(walls), "unit": "s", "n": len(walls),
                       "high": high_percentile(walls)},
            "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB", "n": len(peaks)},
            "error_rate": {"value": failed / attempted, "unit": "ratio", "n": attempted},
        },
    }
    traced = [p for p in passes if p.traced]
    if traced:
        per_pass = [layer_values(merge_traces(p.tasks)) for p in traced]
        layers = {k: statistics.median_low(v[k] for v in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - statistics.median(walls))
        result["layers"] = layers
        result["traced_passes"] = len(traced)
    return result


def print_report(res: dict) -> None:
    env = res["env"]
    print(f"== {res['workload']}  seed={res['seed']}  trace={int(res['trace'])}  "
          f"passes={len(res['passes'])}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'metric':<14}{'value':>14}  {'unit':<6}{'n':>4}  detail")
    e2e = res["end_to_end"]
    for name, m in e2e.items():
        detail = "median"
        if name == "wall_s":
            high = m["high"]
            detail += (f"; p{high[0]:.0f} = {high[1]:.4f}" if high else
                       "; no percentile has >= 10 samples beyond it")
        elif name == "peak_rss_mb":
            detail = "median over passes of the largest task max-RSS"
        elif name == "error_rate":
            detail = f"{res['failed']} failed of {res['attempted']} attempted"
        print(f"  {name:<14}{m['value']:>14.6g}  {m['unit']:<6}{m['n']:>4}  {detail}")
    print("  task digests (sha256 of output, verify timing masked):")
    for name, digest in res["digests"].items():
        print(f"    {name:<20}{digest or 'UNSTABLE'}")
    for msg in res["problems"]:
        print(f"  PROBLEM: {msg}")
    if "layers" in res:
        layers = res["layers"]
        print(f"  per-layer (median of {res['traced_passes']} traced passes):")
        for name, unit, _, target in LAYER_METRICS:
            value = layers[name]
            shown = f"{value:>16.0f}" if unit == "count" else f"{value:>16.6g}"
            print(f"    {name:<44}{shown} {unit:<6} -> {target}")
        print("  baseline cross-check against the ROADMAP re-anchor figures:")
        for label, key, ref, unit in ROADMAP_BASELINE:
            got = layers[key]
            if got == 0:
                print(f"    {label:<16} not exercised by this workload (ROADMAP {ref:g} {unit})")
                continue
            ratio = got / ref
            flag = "  > 2x apart, see NOTES.md" if not 0.5 <= ratio <= 2.0 else ""
            print(f"    {label:<16}{got:>12.4g} {unit:<3} vs ROADMAP {ref:g} {unit}"
                  f"  (x{ratio:.2f}){flag}")


def contract_metrics(res: dict, spec: dict) -> dict:
    if res["trace"]:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        return {n: {"value": res["layers"][n], "unit": u} for n, u in names}
    names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    return {n: {"value": res["end_to_end"][n]["value"], "unit": u} for n, u in names}


def probe(work: Path) -> dict:
    """Spawn the import-only task a few times: setup samples and the environment."""
    samples, env = [], None
    for i in range(SETUP_PROBES):
        code, meta, t_spawn, _, stderr = spawn({"kind": "probe"}, work, f"probe{i}")
        if code != 0 or meta is None:
            raise RuntimeError(f"isinglab does not import from {ROOT / 'src'}: {stderr.strip()[-400:]}")
        samples.append(meta["ready"] - t_spawn)
        env = meta["env"]
    env.update(rev=git_rev(), src_sha256=tree_digest(ROOT / "src"),
               bench_sha256=tree_digest(HERE))
    return {"setup_samples": samples, "env": env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="run one pass of every workload at the default seed and "
                             "record exit codes and digests in golden.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "isinglab" / "cli.py").is_file():
        print(f"error: no isinglab sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != {name for name, *_ in LAYER_METRICS}:
        print("error: BENCHMARK.json per_layer names differ from LAYER_METRICS", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        try:
            probe_env = probe(work)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if args.write_golden:
            return write_golden(work)
        golden = json.loads(GOLDEN.read_text())
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), golden,
                                probe_env, work) for w in workloads]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {"correct": all(not r["problems"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": {}}
    for res in results:
        print_report(res)
        path = OUT_DIR / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1))
        print(f"  result: {path.relative_to(ROOT)}")
        metrics = contract_metrics(res, spec)
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


def write_golden(work: Path) -> int:
    golden = {"seed": DEFAULT_SEED, "tasks": {}}
    for w in WORKLOADS:
        for r in run_pass(workload_tasks(w, DEFAULT_SEED), work, False, {"tasks": {}}).tasks:
            golden["tasks"][r.name] = {"exit": r.exit, "sha256": r.digest}
            print(f"{r.name:<20} exit {r.exit}  {r.digest}  {'; '.join(r.problems)}")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
