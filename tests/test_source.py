"""Static checks over the package source, for want of an installed linter."""

import ast
import re
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


# Public names, methods and properties included, that no module of the
# package loads, each with the file outside ``src/`` that looks it up.
KEPT = {
    "ball": "perfbench/spans.py",
    "tree_excess": "perfbench/spans.py",
    "saw_tree_size": "perfbench/spans.py",
    "algorithm1_sample": "perfbench/spans.py",
    "run_chain": "perfbench/task.py",
    "HAVE_NUMBA": "perfbench/task.py",
    "backend": "perfbench/task.py",
    "saw_marginal_bracket": "README.md",
}


def _loaded_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_public_name_in_src_has_a_caller():
    # top-level statements of every module, each with the names it loads
    statements = []
    for path in sorted((ROOT / "src" / "isinglab").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((node, _loaded_names(node)))
    unused = set()
    for node, _ in statements:
        for name in _defined_names(node):
            if not name.startswith("_") and not any(
                name in loads for other, loads in statements if other is not node
            ):
                unused.add(name)
    # Public methods and properties of classes, each loaded outside its own
    # definition: by another method, by a function or by a module constant.
    # They are checked by name only, so a name that two classes share, such
    # as ``size``, counts as loaded wherever either is.
    members = [(sub, _loaded_names(sub)) for node, _ in statements
               if isinstance(node, ast.ClassDef) for sub in node.body]
    units = [(node, loads) for node, loads in statements
             if not isinstance(node, ast.ClassDef)] + members
    for sub, _ in members:
        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_") and not any(
            sub.name in loads for other, loads in units if other is not sub
        ):
            unused.add(sub.name)
    assert unused == set(KEPT)
    for name, holder in KEPT.items():
        assert re.search(rf"\b{name}\b", (ROOT / holder).read_text()), (name, holder)


def _callers(name: str, node: ast.AST, where: str | None = None):
    """The innermost function around each call to ``name`` under node (None at module level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _callers(name, child, child.name)
            continue
        if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                    getattr(child.func, "attr", None)):
            yield where
        yield from _callers(name, child, where)


def test_rooted_trees_are_built_only_by_make_rooted_tree():
    # make_rooted_tree checks the level order that every tree reader relies on
    found = [(path.name, caller)
             for directory in ("src/isinglab", "tests", "perfbench")
             for path in sorted((ROOT / directory).glob("*.py"))
             for caller in _callers("RootedTree", ast.parse(path.read_text(), filename=str(path)))]
    assert found == [("graph.py", "make_rooted_tree")]


def _unread_tuple_positions(trees: list[ast.Module], names: set[str]) -> dict[str, set[int]]:
    """Result positions of each function in ``names`` that every call binds only to ``_``.

    A call counts when it is the whole value of an assignment to one tuple
    of targets; any other call keeps the whole value and reads every
    position.  A function without a call is left to the caller check.
    """
    unread: dict[str, set[int]] = {}
    for tree in trees:
        unpacked = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Tuple)
                    and not any(isinstance(t, ast.Starred) for t in node.targets[0].elts)):
                unpacked[id(node.value)] = {i for i, t in enumerate(node.targets[0].elts)
                                            if isinstance(t, ast.Name) and t.id == "_"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in names:
                    blanks = unpacked.get(id(node), set())
                    unread[name] = unread.get(name, blanks) & blanks
    return {name: positions for name, positions in unread.items() if positions}


def test_every_returned_tuple_position_is_read():
    src = [ast.parse(p.read_text(), filename=str(p))
           for p in sorted((ROOT / "src" / "isinglab").glob("*.py"))]
    tests = [ast.parse(p.read_text(), filename=str(p)) for p in sorted((ROOT / "tests").glob("*.py"))]
    functions = {node.name for tree in src for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert _unread_tuple_positions(src + tests, functions) == {}


def test_unread_tuple_positions_are_found():
    tree = ast.parse(
        "def pair(): return 1, 2\n"
        "def trio(): return 1, 2, 3\n"
        "_, b = pair()\n_, c = pair()\n"
        "_, y, _ = trio()\nx, _, _ = trio()\n"
        "whole = trio()\n_, *rest = trio()\n"
    )
    assert _unread_tuple_positions([tree], {"pair"}) == {"pair": {0}}
    assert _unread_tuple_positions([tree], {"trio"}) == {}
    partial = ast.parse("_, y, _ = trio()\nx, _, _ = trio()\n")
    assert _unread_tuple_positions([partial], {"trio"}) == {"trio": {2}}
