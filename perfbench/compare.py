"""Compare two benchmark results, for example a parent commit and a change.

Usage: python3 perfbench/compare.py OLD.json NEW.json

The inputs are result files that run.py writes to .perfbench_out/.  The
comparison is refused (exit 2) when the two ran different workloads or on
different kernel backends, since their timings would then measure
different programs.  Otherwise each metric is printed old -> new with the
change as a share of the old value, followed by the task output digests
side by side.  At equal seeds the digests must agree, because outputs are
byte-stable for a given config; exit 1 when they do not.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.load(open(path)) for path in argv)
    if old["workload"] != new["workload"]:
        print(f"refused: workloads differ ({old['workload']} vs {new['workload']})",
              file=sys.stderr)
        return 2
    for key in ("backend", "numba"):
        if old["env"][key] != new["env"][key]:
            print(f"refused: results come from different backends "
                  f"({key} {old['env'][key]} vs {new['env'][key]})", file=sys.stderr)
            return 2
    print(f"{old['workload']}: seed {old['seed']} -> {new['seed']}, "
          f"rev {old['env']['rev'][:12]} -> {new['env']['rev'][:12]}, "
          f"src {old['env']['src_sha256']} -> {new['env']['src_sha256']}")
    rows = [(name, m["value"], new["end_to_end"][name]["value"], m["unit"])
            for name, m in old["end_to_end"].items()]
    if "layers" in old and "layers" in new:
        rows += [(name, value, new["layers"][name], "") for name, value in old["layers"].items()]
    for name, a, b, unit in rows:
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name:<44}{a:>14.6g} -> {b:<14.6g}{unit:<6}{change}")
    same_seed = old["seed"] == new["seed"]
    differ = False
    for task, digest in old["digests"].items():
        other = new["digests"].get(task)
        mark = "" if digest == other else ("  DIFFERS" if same_seed else "  (other seed)")
        differ |= same_seed and digest != other
        print(f"  {task:<20}{digest} {other}{mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
