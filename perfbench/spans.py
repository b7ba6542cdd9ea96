"""Span tracing of isinglab's layers from outside the package.

A Tracer replaces each traced function at every place its callers look
it up (module globals of every ``isinglab`` module that imported it, the
kernel module attribute, the ``UpdateStream`` class, the suite table in
``verify`` and the command functions in ``cli``) with a wrapper that
records one span per call.  Spans are folded into per-name aggregates as
they close: call count, total time, self time (the span minus the time
covered by its child spans) and work counts read from the call's own
arguments or result.  Nothing inside ``src/`` is edited; the wrappers
leave arguments and results untouched, so traced outputs stay
byte-identical.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute) for every traced function; the span is named
# "<module>.<attribute>" without the package prefix.
TARGETS = [
    ("graph", "ball"),
    ("graph", "tree_excess"),
    ("graph", "generate_erdos_renyi"),
    ("graph", "generate_galton_watson"),
    ("graph", "tree_path_density"),
    ("model", "merge_conditioning"),
    ("model", "exact_distribution"),
    ("kernels", "coupled_steps"),
    ("kernels", "chain_steps"),
    ("kernels", "tree_root_field"),
    ("sawtree", "build_saw_tree"),
    ("sawtree", "saw_tree_size"),
    ("sawtree", "saw_marginal_from_tree"),
    ("dynamics", "monotone_coupled_run"),
    ("dynamics", "run_chain"),
    ("sampler", "algorithm1_sample"),
    ("sampler", "algorithm1_output_law"),
    ("sampler", "truncation_tv_bound"),
]


class Aggregate:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "counts": self.counts}


class Tracer:
    """Installs span wrappers and holds the aggregates of one process."""

    def __init__(self):
        self.aggs: dict[str, Aggregate] = {}
        self._child_time: list[float] = []  # one slot per open span
        self._roots: dict[int, object] = {}  # id -> graph, kept alive so ids stay unique
        self._root_pairs: set[tuple[int, int]] = set()

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        agg = self.aggs.setdefault(name, Aggregate())
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            result = None
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                dt = clock() - t0
                covered = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                agg.calls += 1
                agg.total_s += dt
                agg.self_s += dt - covered
                if count is not None:
                    count(agg, args, kwargs, result, error)

        return wrapper

    # -- work counts -------------------------------------------------------

    def _count_build(self, fn):
        from isinglab.errors import BudgetError

        sig = inspect.signature(fn)

        def count(agg, args, kwargs, result, error):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            g, v = bound.arguments["g"], int(bound.arguments["v"])
            self._roots.setdefault(id(g), g)
            self._root_pairs.add((id(g), v))
            agg.counts["distinct_roots"] = len(self._root_pairs)
            if result is not None:
                agg.add("nodes", result.size)
            elif isinstance(error, BudgetError):
                # _expand raises on the node past the budget, so exactly
                # max_nodes nodes were built and then thrown away.
                agg.add("nodes", bound.arguments["max_nodes"])
                agg.add("budget_nodes", bound.arguments["max_nodes"])
        return count

    @staticmethod
    def _count_arg_len(key: str, index: int):
        def count(agg, args, kwargs, result, error):
            agg.add(key, args[index].shape[0])
        return count

    @staticmethod
    def _count_result(key: str):
        def count(agg, args, kwargs, result, error):
            if result is not None:
                agg.add(key, result)
        return count

    @staticmethod
    def _count_cap_hits(agg, args, kwargs, result, error):
        if result is not None and not result.coupled:
            agg.add("cap_hits", 1)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call after ``isinglab.cli`` is imported."""
        from isinglab import cli, dynamics, verify

        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("isinglab.") and mod is not None}
        counters = {
            "sawtree.build_saw_tree": self._count_build(mods["sawtree"].build_saw_tree),
            "kernels.coupled_steps": self._count_arg_len("updates", 6),
            "kernels.chain_steps": self._count_arg_len("updates", 5),
            "kernels.tree_root_field": self._count_arg_len("nodes", 0),
            "sawtree.saw_tree_size": self._count_result("nodes"),
            "dynamics.monotone_coupled_run": self._count_cap_hits,
        }
        for mod_name, attr in TARGETS:
            original = getattr(mods[mod_name], attr)
            name = f"{mod_name}.{attr}"
            wrapped = self._wrap(name, original, counters.get(name))
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

        dynamics.UpdateStream.next_updates = self._wrap(
            "dynamics.next_updates", dynamics.UpdateStream.next_updates,
            lambda agg, args, kwargs, result, error: agg.add("pairs", args[1]),
        )
        for fns in verify.SUITES.values():
            for i, fn in enumerate(fns):
                suite = fn.__name__.removesuffix("_suite").replace("_", "-")
                fns[i] = self._wrap(f"verify.{suite}", fn)
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            command = attr[4:].replace("_", "-")
            setattr(cli, attr, self._wrap(f"cli.{command}", getattr(cli, attr)))

    def to_json(self) -> dict:
        return {name: agg.to_json() for name, agg in self.aggs.items() if agg.calls}

