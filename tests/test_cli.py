"""End-to-end checks of the command-line harness.

Commands run in-process through ``main(argv)``; outputs are compared as
raw bytes to pin the reproducibility contract: same config, same rows.
"""

import functools
import hashlib
import inspect
import json
import math
import os

from isinglab import cli, verify
from isinglab.cli import config_echo_lines, load_config, main, worker_count
from isinglab.errors import BudgetError
from isinglab.graph import generate_erdos_renyi, read_graph, write_graph
from isinglab.model import make_model
from isinglab.rng import substream
from isinglab.sawtree import build_saw_tree, tree_model
from isinglab.verify import CheckRow, SuiteReport
from test_sawtree import boundary
from test_treecalc import two_fold_bracket

SCAN_INI = """\
[scan]
kind = er
n = 60 90
beta = 0.2
d = 1.5
seeds = 3
cap = 500000
"""

DECAY_INI = """\
[model]
kind = er
n = 120
d = 1.8
beta = 0.4
seed = 3

[scan]
radii = 2 3
vertices = 4
"""

SAMPLE_INI = """\
[model]
kind = cycle
n = 7
beta = 0.4

[sample]
L = 8
draws = 2
"""

GEN_INI = """\
[graph]
kind = er
n = 25
d = 2.0
beta = 0.6
seed = 5
h = uniform -0.5 0.5
"""

STAR_INI = """\
[scan]
kind = star
leaves = 3
beta = 0.2
seeds = 2
cap = 5000
"""

GW_INI = """\
[gw]
d = 2.0
radii = 3 4
seeds = 60
"""

VERIFY_INI = """\
[verify]
trees = 40
max_len = 4
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(argv):
    return main(argv)


def test_coupling_scan_round_trip(tmp_path, monkeypatch):
    cfg = write(tmp_path, "scan.ini", SCAN_INI)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("ISINGLAB_WORKERS", "1")
    assert run(["coupling-scan", "-c", cfg, "-o", str(out1)]) == 0
    monkeypatch.setenv("ISINGLAB_WORKERS", "2")
    assert run(["coupling-scan", "-c", cfg, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("scan.beta" in c for c in comments)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "n,d,beta,seed,coupled,steps"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 2 * 1 * 3  # sizes x betas x seeds
    for row in data:
        n, d, beta, seed, coupled, steps = row.split(",")
        assert int(n) in (60, 90)
        assert coupled in ("0", "1")
        assert int(steps) >= 1


def test_decay_scan_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("ISINGLAB_WORKERS", "1")
    cfg = write(tmp_path, "decay.ini", DECAY_INI)
    out = tmp_path / "decay.csv"
    assert run(["decay-scan", "-c", cfg, "-o", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "v,l,influence,sphere_size,bound,status"
    assert len(lines[1:]) == 4 * 2  # vertices x radii
    for row in lines[1:]:
        v, l, infl, sphere, bound, status = row.split(",")
        assert status == "ok"
        assert 0.0 <= float(infl) <= 1.0


def test_decay_scan_budget_rows_continue(tmp_path, monkeypatch):
    monkeypatch.setenv("ISINGLAB_WORKERS", "1")
    text = DECAY_INI.replace("radii = 2 3", "radii = 2 9").replace(
        "[scan]", "[scan]\nmax_nodes = 40"
    )
    cfg = write(tmp_path, "decay2.ini", text)
    out = tmp_path / "decay2.csv"
    assert run(["decay-scan", "-c", cfg, "-o", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    statuses = [r.split(",")[-1] for r in rows]
    assert "budget" in statuses
    assert len(rows) == 4 * 2  # flagged rows do not abort the scan


DECAY_PIN_INI = """\
[model]
kind = er
n = 300
d = 2.5
beta = 0.4
seed = 7
h = uniform -0.6 0.6

[scan]
radii = 0 1 2 3 4 5 6 7 8
vertices = 10
max_nodes = 2000
"""


def test_decay_scan_bytes_pinned(tmp_path, monkeypatch):
    # sha256 recorded when decay-scan still pinned the walk-tree boundary
    # in sawtree; fields, radius 0 and budget rows are all covered
    monkeypatch.setenv("ISINGLAB_WORKERS", "1")
    cfg = write(tmp_path, "decay-pin.ini", DECAY_PIN_INI)
    out = tmp_path / "decay-pin.csv"
    assert run(["decay-scan", "-c", cfg, "-o", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert any(r.endswith(",budget") for r in rows)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "73063e826c2f89baf0f7d56d32bff5ff1bbd4ef230cd308282846a0b0ba5cef9"
    )


DECAY_REF_INI = """\
[model]
file = {graph}

[scan]
radii = 9 0 6 6 3
vertices = all
max_nodes = 200
"""


def _reference_decay_scan(cfg_path):
    """decay-scan's output as one build and two whole folds per row gave it."""
    cfg = load_config(cfg_path)
    g = read_graph(cfg["model"]["file"])
    m = make_model(g)
    radii = [int(l) for l in cfg["scan"]["radii"].split()]
    max_nodes = int(cfg["scan"]["max_nodes"])
    lines = config_echo_lines(cfg) + ["v,l,influence,sphere_size,bound,status"]
    for v in range(g.n):
        for l in radii:
            try:
                st = build_saw_tree(g, v, l, max_nodes=max_nodes)
            except BudgetError:
                lines.append(f"{v},{l},nan,0,nan,budget")
                continue
            lo, hi = two_fold_bracket(tree_model(st, g.clamp), l)
            sphere = int(boundary(st, l).size)
            bound = sphere * math.tanh(m.beta_max) ** l
            lines.append(f"{v},{l},{hi - lo:.9g},{sphere},{bound:.9g},ok")
    return "".join(line + "\n" for line in lines)


def test_decay_scan_matches_one_build_per_row(tmp_path):
    # one growth per vertex serves radii given unsorted and repeated, and
    # the 200-node budget stops it between radii 3 and 6 for some vertices
    # and between 6 and 9 for others
    g = generate_erdos_renyi(80, 2.5, 7, beta=0.4)
    g = g.with_vertex_data(h=substream(7, "decay-reference").uniform(-0.6, 0.6, size=g.n))
    write_graph(g, str(tmp_path / "g.txt"))
    cfg = write(tmp_path, "decay-ref.ini", DECAY_REF_INI.format(graph=tmp_path / "g.txt"))
    out = tmp_path / "decay-ref.csv"
    assert run(["decay-scan", "-c", cfg, "-o", str(out)]) == 0
    status = {}
    for row in out.read_text().splitlines()[-5 * g.n:]:
        v, l, *_, flag = row.split(",")
        status.setdefault(int(v), {})[int(l)] = flag
    assert any(s[3] == "ok" and s[6] == "budget" for s in status.values())
    assert any(s[6] == "ok" and s[9] == "budget" for s in status.values())
    assert any(s[9] == "ok" for s in status.values())
    assert out.read_text() == _reference_decay_scan(cfg)


def test_sample_json(tmp_path):
    cfg = write(tmp_path, "sample.ini", SAMPLE_INI)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run(["sample", "-c", cfg, "-o", str(out1)]) == 0
    assert run(["sample", "-c", cfg, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["model"] == "cycle:n=7"
    assert len(doc["runs"]) == 2
    run0 = doc["runs"][0]
    assert set(run0) == {"L", "order", "p", "spins", "saw_sizes"}
    assert run0["L"] == 8
    assert len(run0["spins"]) == 7
    assert all(s in (-1, 1) for s in run0["spins"])
    # distinct draws use distinct streams
    assert doc["runs"][0] != doc["runs"][1]


SAMPLE_PIN_INI = """\
[model]
kind = er
n = 200
d = 2.0
beta = 0.3
seed = 4

[sample]
L = 5
draws = 3
"""


def test_sample_bytes_pinned(tmp_path):
    # sha256 recorded when each draw still rebuilt every walk tree
    cfg = write(tmp_path, "pin.ini", SAMPLE_PIN_INI)
    out = tmp_path / "pin.json"
    assert run(["sample", "-c", cfg, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "cec1978559e991b287ee818d10ee787cfd690d20b83d30866e7208d5c09dadff"
    )


def test_sample_budget_failure_writes_nothing(tmp_path, capsys):
    cfg = write(tmp_path, "tiny.ini", SAMPLE_INI.replace("draws = 2", "draws = 3\nmax_nodes = 2"))
    out = tmp_path / "tiny.json"
    assert run(["sample", "-c", cfg, "-o", str(out)]) == 2
    assert "sampling draw 0 failed" in capsys.readouterr().err
    assert not out.exists()


def test_sample_budget_counts_whole_trees(tmp_path, capsys):
    # on a path at L = 3 every screened tree has at most 5 nodes, but the
    # whole tree of an inner vertex has 7, and the budget counts whole trees
    cfg = write(tmp_path, "path.ini", "[model]\nkind = path\nn = 10\nbeta = 0.4\n\n"
                "[sample]\nL = 3\nmax_nodes = 5\n")
    out = tmp_path / "path.json"
    assert run(["sample", "-c", cfg, "-o", str(out)]) == 2
    assert "sampling draw 0 failed" in capsys.readouterr().err
    assert not out.exists()


def test_sample_to_stdout_matches_the_file(tmp_path, capsys):
    cfg = write(tmp_path, "pin.ini", SAMPLE_PIN_INI)
    out = tmp_path / "pin.json"
    assert run(["sample", "-c", cfg, "-o", str(out)]) == 0
    assert run(["sample", "-c", cfg, "-o", "-"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_sample_into_a_missing_directory_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "sample.ini", SAMPLE_INI)
    out = tmp_path / "no-such-dir" / "s.json"
    assert run(["sample", "-c", cfg, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output {out}") and "Traceback" not in err
    assert not out.parent.exists()


def test_graph_gen_output_parses(tmp_path):
    cfg = write(tmp_path, "gen.ini", GEN_INI)
    out = tmp_path / "g.graph"
    assert run(["graph-gen", "-c", cfg, "-o", str(out)]) == 0
    g = read_graph(str(out))
    assert g.n == 25
    assert g.h.min() >= -0.5 and g.h.max() <= 0.5
    assert g.h.std() > 0  # uniform fields actually applied
    out2 = tmp_path / "g2.graph"
    assert run(["graph-gen", "-c", cfg, "-o", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_gw_stats_csv(tmp_path):
    cfg = write(tmp_path, "gw.ini", GW_INI)
    out = tmp_path / "gw.csv"
    assert run(["gw-stats", "-c", cfg, "-o", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("r,seeds,mean_sphere,d_pow_r")
    assert len(lines) == 3
    r3 = lines[1].split(",")
    assert r3[0] == "3" and r3[1] == "60"
    # mean sphere size should be within a factor ~2 of d^r at d=2
    assert 0.4 * 8 <= float(r3[2]) <= 2.5 * 8


def test_gw_stats_checks_the_radius_scale_before_any_tree(tmp_path, capsys, monkeypatch):
    def no_tree(*args, **kwargs):
        raise AssertionError("a branching tree was built for a bad config")

    monkeypatch.setattr(cli, "galton_watson_trees", no_tree)
    # d ** r overflows, or underflows to 0 (which once ended as a non-finite
    # mean_exp_scaled after every tree was built)
    for d, radii in [("1.01", "80000"), ("30", "3 300"), ("0.5", "2000"), ("0.01", "4 170")]:
        cfg = write(tmp_path, "gw.ini", f"[gw]\nd = {d}\nradii = {radii}\nseeds = 5\n")
        assert run(["gw-stats", "-c", cfg, "-o", "/dev/null"]) == 2, (d, radii)
        err = capsys.readouterr().err
        assert err.startswith("error: [gw] radii must be >= 0 with d ** r finite and nonzero")
        assert "Traceback" not in err


def test_verify_structure_radius_far_past_the_diameter_ends(tmp_path):
    # the ball scan stops once no ball grows, so a radius of 10**9 costs what
    # the graph's diameter costs and gives the rows that radius 50 gives
    rows = []
    for radius in (50, 10**9):
        cfg = write(tmp_path, "structure.ini",
                    f"[verify]\nn = 50\ngraphs = 1\nradius = {radius}\nsphere_trees = 10\n")
        out = tmp_path / "structure.txt"
        assert run(["verify", "structure", "-v", "-c", cfg, "-o", str(out)]) == 1
        lines = out.read_text().replace(f"(r={radius})", "(r=R)").splitlines()
        rows.append(lines[1:])  # the header line holds the elapsed time
    assert rows[0] == rows[1]
    assert rows[0][-3].startswith("  FAIL graph-0-excess(r=R): ")  # -v lists all 3 checks last


def test_verify_command(tmp_path):
    cfg = write(tmp_path, "verify.ini", VERIFY_INI)
    out = tmp_path / "report.txt"
    code = run(["verify", "tree-bounds", "-c", cfg, "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert "PASS" in text


def test_every_suite_parameter_can_be_set(tmp_path, monkeypatch):
    # each part becomes a stub with the part's signature that records its
    # arguments; a [verify] section giving each of a part's defaults as text
    # must reach that part unchanged, types included
    for suite, parts in list(verify.SUITES.items()):
        received = {}

        def stub_of(fn):
            @functools.wraps(fn)
            def stub(**kwargs):
                received[fn.__name__] = kwargs
                return SuiteReport(fn.__name__, [CheckRow("stub", 0.0, 0.0, True)])
            return stub

        monkeypatch.setitem(verify.SUITES, suite, [stub_of(fn) for fn in parts])
        for fn in parts:
            defaults = {key: p.default for key, p in inspect.signature(fn).parameters.items()}
            text = "".join(f"{key} = {value!r}\n" for key, value in defaults.items()
                           if value is not None)
            cfg = write(tmp_path, "defaults.ini", "[verify]\n" + text)
            assert run(["verify", suite, "-c", cfg, "-o", "/dev/null"]) == 0, (suite, text)
            got = received[fn.__name__]
            assert got == defaults and all(type(got[k]) is type(v) for k, v in defaults.items())


def test_exit_codes(tmp_path, capsys):
    assert run(["verify", "no-such-suite"]) == 2
    bad = write(tmp_path, "bad.ini", "[scan]\nkind = er\n")
    assert run(["coupling-scan", "-c", bad, "-o", "/dev/null"]) == 2
    assert run(["coupling-scan", "-c", str(tmp_path / "missing.ini"), "-o", "/dev/null"]) == 2
    nonsense = write(tmp_path, "nonsense.ini", "[model]\nkind = blob\n\n[scan]\n")
    assert run(["decay-scan", "-c", nonsense, "-o", "/dev/null"]) == 2
    capsys.readouterr()
    no_scan = write(tmp_path, "no-scan.ini", DECAY_INI.split("[scan]")[0])
    assert run(["decay-scan", "-c", no_scan, "-o", "/dev/null"]) == 2
    assert "config is missing the [scan] section" in capsys.readouterr().err
    typo = write(tmp_path, "typo.ini", "[verify]\nmodles = 3\n")
    assert run(["verify", "tree-bounds", "-c", typo, "-o", "/dev/null"]) == 2
    err = capsys.readouterr().err
    assert "modles" in err and "max_len" in err
    # override values are checked before any part of the suite runs: none
    # may end in a traceback or read as an empty, failed run.  Defaults are
    # checked too, against the overrides: structure's sample_vertices = 25
    # does not fit n = 10, max_runs = 50 stops coupling-soundness short of
    # its min_runs, max_runs = 1 also of the default min_steps, and 200 runs
    # cannot audit 10^8 updates; each would read as a failed
    # audited-step-volume row
    for suite, override, culprit in [
        ("weitz-identity", "max_n = 0", "max_n"),
        ("coupling", "cap = 0", "cap"),
        ("weitz-identity", "models = -3", "models"),
        ("tree-bounds", "trees = -1", "trees"),
        ("coupling", "seeds = 0", "seeds"),
        ("coupling", "max_runs = 1", "max_runs"),
        ("coupling", "min_steps = 0\nmax_runs = 50", "max_runs must be >= 100"),
        ("coupling", "min_steps = 100000000\nmax_runs = 200", "min_steps"),
        ("structure", "n = 10", "sample_vertices"),
    ]:
        cfg = write(tmp_path, "bad-verify.ini", f"[verify]\n{override}\n")
        assert run(["verify", suite, "-c", cfg, "-o", "/dev/null"]) == 2, override
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, override
        assert culprit in err, (override, err)
    # bad model or scan values end with a message, not a traceback
    for old, new in [
        ("seed = 3", "seed = 3\nh = uniform a b"),
        ("seed = 3", "seed = 3\nh ="),
        ("n = 120", "n = 0"),
        ("beta = 0.4", "beta = -1"),
        ("radii = 2 3", "radii = -1 2"),
        ("vertices = 4", "vertices = -3"),
        ("seed = 3", "seed = 3\nh = nan"),
        ("seed = 3", "seed = 3\nh = -inf"),
        ("seed = 3", "seed = 3\nh = uniform 0 inf"),
    ]:
        cfg = write(tmp_path, "bad-decay.ini", DECAY_INI.replace(old, new))
        assert run(["decay-scan", "-c", cfg, "-o", "/dev/null"]) == 2, new
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, new
    for command, ini, old, new in [
        ("sample", SAMPLE_INI, "L = 8", "L = -1"),
        ("sample", SAMPLE_INI, "draws = 2", "draws = 0"),
        ("sample", SAMPLE_INI, "draws = 2", "draws = -1"),
        ("sample", SAMPLE_INI, "L = 8", "L = 0\nmax_nodes = 0"),
        ("sample", SAMPLE_INI, "L = 8", "r = nan"),
        ("sample", SAMPLE_INI, "L = 8", "r = inf"),
        ("sample", SAMPLE_INI, "L = 8", "r = -2"),
        ("sample", SAMPLE_INI, "L = 8", "r = 1e308"),  # r * log n overflows
        ("sample", SAMPLE_INI, "beta = 0.4", "beta = 0.4\nh = nan"),
        ("gw-stats", GW_INI, "d = 2.0", "d = 0"),
        ("gw-stats", GW_INI, "d = 2.0", "d = 31"),
        ("gw-stats", GW_INI, "d = 2.0", "d = nan"),
        ("gw-stats", GW_INI, "d = 2.0", "d = 2.0\nt = nan"),
        ("gw-stats", GW_INI, "d = 2.0", "d = 2.0\nt = inf"),
        ("gw-stats", GW_INI, "d = 2.0", "d = 2.0\nt = 1e6"),
        ("gw-stats", GW_INI, "d = 2.0\nradii = 3 4\nseeds = 60", "d = 1.01\nradii = 80000\nseeds = 3"),
        ("gw-stats", GW_INI, "seeds = 60", "seeds = 0"),
        ("gw-stats", GW_INI, "seeds = 60", "seeds = -5"),
        ("gw-stats", GW_INI, "radii = 3 4", "radii = -1 3"),
        ("gw-stats", GW_INI, "radii = 3 4", "radii ="),
        ("coupling-scan", SCAN_INI, "n = 60 90", "n = 0 90"),
        ("coupling-scan", SCAN_INI, "n = 60 90", "n = 60 -2"),
        ("coupling-scan", SCAN_INI, "n = 60 90", "n ="),
        ("coupling-scan", SCAN_INI, "kind = er\nn = 60 90", "kind = star\nleaves = 0"),
        ("coupling-scan", SCAN_INI, "cap = 500000", "cap = 0"),
        ("coupling-scan", SCAN_INI, "seeds = 3", "seeds = 0"),
        ("coupling-scan", SCAN_INI, "seeds = 3", "seeds = -2"),
        ("coupling-scan", SCAN_INI, "beta = 0.2", "beta = -1"),
        ("coupling-scan", SCAN_INI, "beta = 0.2", "beta = nan"),
        ("coupling-scan", SCAN_INI, "beta = 0.2", "beta ="),
        ("coupling-scan", SCAN_INI, "d = 1.5", "d = -1"),
        ("coupling-scan", SCAN_INI, "d = 1.5", "d = 70"),
        ("decay-scan", DECAY_INI, "vertices = 4", "vertices = 4\nmax_nodes = 0"),
        ("decay-scan", DECAY_INI, "vertices = 4", "vertices = 4\nmax_nodes = -1"),
    ]:
        cfg = write(tmp_path, "bad.ini", ini.replace(old, new))
        assert run([command, "-c", cfg, "-o", "/dev/null"]) == 2, new
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, new
    # a key or section the command does not declare is an error, never
    # dropped: each of these configs once ran on the parameters left over
    graph = tmp_path / "g.graph"
    assert run(["graph-gen", "-c", write(tmp_path, "gen.ini", GEN_INI), "-o", str(graph)]) == 0
    file_ini = f"[model]\nfile = {graph}\n\n[sample]\nL = 3\n"
    for command, ini, old, new, culprit in [
        ("sample", SAMPLE_INI, "draws = 2", "draw = 50", "draw"),
        ("sample", SAMPLE_INI, "beta = 0.4", "bta = 7", "bta"),
        ("sample", file_ini, "\n\n[sample]", "\nbeta = 9\n\n[sample]", "beta"),
        ("sample", file_ini, "\n\n[sample]", "\nh = 3\n\n[sample]", "h"),
        ("sample", file_ini, "\n\n[sample]", "\nkind = blob\n\n[sample]", "kind"),
        ("coupling-scan", STAR_INI, "leaves = 3", "leaves = 3\nd = 999", "d"),
        ("coupling-scan", STAR_INI, "leaves = 3", "leaves = 3\nn = 0", "n"),
        ("coupling-scan", STAR_INI, "cap = 5000", "cap = 5000\n\n[extra]\nd = 999", "[extra]"),
        ("sample", SAMPLE_INI, "L = 8", "L = 3\nr = nan", "L and r"),
        ("gw-stats", GW_INI, "seeds = 60", "seeds = 60\nseed = 9", "seed"),
        ("sample", SAMPLE_INI, "beta = 0.4", "beta = 0.4\nseed = 4", "seed"),
    ]:
        cfg = write(tmp_path, "undeclared.ini", ini.replace(old, new))
        assert run([command, "-c", cfg, "-o", "/dev/null"]) == 2, new
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, new
        assert culprit in err, (new, err)
    # the star scan itself is valid, and its leaves are checked
    cfg = write(tmp_path, "star.ini", STAR_INI)
    assert run(["coupling-scan", "-c", cfg, "-o", "/dev/null"]) == 0
    cfg = write(tmp_path, "star.ini", STAR_INI.replace("leaves = 3", "leaves = 0"))
    assert run(["coupling-scan", "-c", cfg, "-o", "/dev/null"]) == 2
    assert "leaves" in capsys.readouterr().err
    # every field is past the clamping threshold, so no vertex is left free
    all_clamped = SAMPLE_INI.replace("n = 7\nbeta = 0.4", "n = 4\nbeta = 0.4\nh = 100")
    cfg = write(tmp_path, "clamped.ini", all_clamped.replace("draws = 2", "draws = 2\nclamp = true"))
    assert run(["sample", "-c", cfg, "-o", "/dev/null"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_worker_count_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ISINGLAB_WORKERS", "1000000")
    assert worker_count() == 2
    monkeypatch.setenv("ISINGLAB_WORKERS", "1")
    assert worker_count() == 1


def test_config_keys_are_case_sensitive(tmp_path):
    cfg = write(tmp_path, "lcase.ini", SAMPLE_INI.replace("L = 8", "l = 8"))
    assert run(["sample", "-c", cfg, "-o", "/dev/null"]) == 2
