"""The benchmark tracer still wraps and counts the package's functions.

``perfbench/spans.py`` wraps each (module, attribute) in its ``TARGETS``
list and reads work counts from some calls' arguments by position; a
refactor that renames one of them, or moves an argument the tracer
reads, would break ``perfbench/run.py --trace 1`` without any other test
failing.  The first test reads the list from the source with ``ast``;
the second installs the tracer in a child process, since installation
rebinds module attributes for the rest of the process.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from isinglab.cli import main
from isinglab.dynamics import UpdateStream, monotone_coupled_run, run_chain
from isinglab.graph import generate_erdos_renyi, star_graph
from isinglab.model import all_minus, make_model
from isinglab.sawtree import build_saw_tree, tree_model
from isinglab.treecalc import boundary_bracket

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PACKAGE_ROOT = Path(importlib.import_module("isinglab").__file__).resolve().parent.parent


def _targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {SPANS}")


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    for module, attr in targets:
        mod = importlib.import_module(f"isinglab.{module}")
        assert callable(getattr(mod, attr, None)), f"isinglab.{module}.{attr}"


# Installs the tracer, then runs small coupled runs, a chain, a walk-tree
# fold, a bracket and a decay-scan whose config is the last argument.
# Functions are looked up on their modules after installation, as
# perfbench/task.py does, so every call goes through a wrapper.  A counter
# that cannot read its call's arguments raises inside the wrapper and ends
# the process with a traceback.
TRACED_RUN = """
import io
import json
import sys
from contextlib import redirect_stdout

sys.path[:0] = sys.argv[1:3]  # perfbench/, then the package under test
import numpy as np
import isinglab.cli
from spans import Tracer

tracer = Tracer()
tracer.install()
from isinglab import dynamics, graph, model, sawtree, treecalc

star = model.make_model(graph.star_graph(6, 0.9))
runs = [dynamics.monotone_coupled_run(star, 100_000, dynamics.UpdateStream(star, 12, chain_id=1))]
er = graph.generate_erdos_renyi(80, 2.0, 5, beta=0.2)
clamp = np.zeros(80, dtype=np.int8)
clamp[1::9] = 1
clamp[4::13] = -1
clamped = model.make_model(er.with_vertex_data(clamp=clamp))
runs.append(dynamics.monotone_coupled_run(clamped, 50_000,
                                          dynamics.UpdateStream(clamped, 3, chain_id=2)))
m = model.make_model(er)
chain = dynamics.run_chain(m, model.all_minus(m), 1000, dynamics.UpdateStream(m, 4))
st = sawtree.build_saw_tree(er, 0, 4)
tm = sawtree.tree_model(st, m.graph.clamp)
treecalc.root_field(tm)
bracket = [p.hex() for p in treecalc.boundary_bracket(tm, 3)]
decay = io.StringIO()
with redirect_stdout(decay):
    isinglab.cli.main(["decay-scan", "-c", sys.argv[3]])
print(json.dumps({"trace": tracer.to_json(), "tree_nodes": int(st.tree.parent.shape[0]),
                  "bracket": bracket, "decay": decay.getvalue(),
                  "coupled": [[r.coupled, r.steps, r.checkpoints] for r in runs],
                  "chain": chain.tolist()}))
"""

# one row of five ends in status=budget: vertex 14's radius-5 tree has 181
# nodes
DECAY_INI = """\
[model]
kind = er
n = 80
d = 2.0
beta = 0.2
seed = 5

[scan]
radii = 2 5
vertices = 3
max_nodes = 100
"""


def test_tracer_counts_a_traced_run(tmp_path, capsys):
    config = tmp_path / "decay.ini"
    config.write_text(DECAY_INI)
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS.parent), str(PACKAGE_ROOT), str(config)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    out = json.loads(done.stdout.splitlines()[-1])

    # traced outputs are the untraced ones, byte for byte: the decay-scan,
    # the bracket, both coupled runs (steps and checkpoints) and the chain
    capsys.readouterr()
    assert main(["decay-scan", "-c", str(config)]) == 0
    untraced = capsys.readouterr().out
    assert untraced.count(",budget") == 1
    assert out["decay"] == untraced
    er = generate_erdos_renyi(80, 2.0, 5, beta=0.2)
    tm = tree_model(build_saw_tree(er, 0, 4), er.clamp)
    assert out["bracket"] == [p.hex() for p in boundary_bracket(tm, 3)]
    star = make_model(star_graph(6, 0.9))
    runs = [monotone_coupled_run(star, 100_000, UpdateStream(star, 12, chain_id=1))]
    clamp = np.zeros(80, dtype=np.int8)
    clamp[1::9] = 1
    clamp[4::13] = -1
    clamped = make_model(er.with_vertex_data(clamp=clamp))
    runs.append(monotone_coupled_run(clamped, 50_000, UpdateStream(clamped, 3, chain_id=2)))
    assert all(r.coupled for r in runs)
    assert out["coupled"] == [[r.coupled, r.steps, [list(c) for c in r.checkpoints]]
                              for r in runs]
    m = make_model(er)
    chain = run_chain(m, all_minus(m), 1000, UpdateStream(m, 4))
    assert out["chain"] == chain.tolist()

    trace = out["trace"]
    assert trace["cli.decay-scan"]["calls"] == 1
    coupled = trace["kernels.coupled_steps"]["counts"]["updates"]
    chain = trace["kernels.chain_steps"]["counts"]["updates"]
    assert chain == 1000
    # each kernel counts the pairs handed to it, so together they account
    # for every pair the update streams drew
    assert coupled + chain == trace["dynamics.next_updates"]["counts"]["pairs"]
    assert trace["dynamics.monotone_coupled_run"]["calls"] == 2
    assert trace["kernels.tree_root_field"]["counts"]["nodes"] == out["tree_nodes"]
    assert trace["sawtree.build_saw_tree"]["counts"]["nodes"] == out["tree_nodes"]
