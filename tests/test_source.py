"""Static checks over the package source, for want of an installed linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its types inside a string
    annotations = [getattr(node, key, None) for node in ast.walk(tree)
                   for key in ("annotation", "returns")]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _files_with_unused_imports(directory: Path) -> dict[str, list[str]]:
    found = {}
    for path in sorted(directory.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    return found


def test_src_has_no_unused_imports():
    assert _files_with_unused_imports(ROOT / "src" / "isinglab") == {}


def test_tests_have_no_unused_imports():
    assert _files_with_unused_imports(ROOT / "tests") == {}
