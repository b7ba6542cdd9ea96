"""Child process for one benchmark task.

Usage: python3 perfbench/task.py SPEC.json META.json

SPEC holds {"kind": "probe" | "cli" | "chain", "trace": bool, ...}.  The
process imports ``isinglab.cli`` first and records the moment it is ready
(CLOCK_MONOTONIC, comparable with the parent's spawn time), then runs the
task and writes META: ready time, exit code, max RSS and, when traced,
the span aggregates.  A probe stops after the import and reports the
environment instead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    import isinglab.cli as cli

    ready = time.monotonic()
    spec_path, meta_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    meta: dict = {"ready": ready, "exit": None, "isinglab_file": cli.__file__}
    try:
        if spec["kind"] == "probe":
            meta["env"] = environment()
            meta["exit"] = 0
            return 0
        tracer = None
        if spec["trace"]:
            from spans import Tracer  # perfbench/ is first on sys.path

            tracer = Tracer()
            tracer.install()
        if spec["kind"] == "cli":
            meta["exit"] = cli.main(spec["argv"])
        else:
            meta["exit"] = run_chain(spec)
        if tracer is not None:
            meta["trace"] = tracer.to_json()
        return meta["exit"]
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        meta["maxrss_kb"] = usage.ru_maxrss
        with open(meta_path, "w") as f:
            json.dump(meta, f)


def run_chain(spec: dict) -> int:
    """Library task: heat-bath chain from all-minus on a sparse random graph.

    Functions are looked up on their modules at call time so that traced
    runs see the wrapped versions.
    """
    from isinglab import dynamics, graph, model

    g = graph.generate_erdos_renyi(spec["n"], spec["d"], spec["seed"], beta=spec["beta"])
    m = model.make_model(g)
    stream = dynamics.UpdateStream(m, spec["master_seed"])
    s = dynamics.run_chain(m, model.all_minus(m), spec["steps"], stream)
    with open(spec["output"], "w") as f:
        f.write(f"n={m.n} steps={spec['steps']} seed={spec['seed']} "
                f"master_seed={spec['master_seed']}\n")
        f.write("".join("+" if x > 0 else "-" for x in s.tolist()) + "\n")
    return 0


def environment() -> dict:
    import numpy
    from isinglab import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.backend(),
        "numba": kernels.HAVE_NUMBA,
        "cpu_count": os.cpu_count(),
    }


if __name__ == "__main__":
    sys.exit(main())
