"""The benchmark tracer's targets still name public attributes of the package.

``perfbench/spans.py`` wraps each (module, attribute) in its ``TARGETS``
list; a refactor that renames or removes one of them would break
``perfbench/run.py --trace 1`` without any other test failing.  The list
is read from the source with ``ast``, so the tracer is not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
