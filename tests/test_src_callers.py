"""Every library definition has a caller outside the tests: code that only
tests reach belongs in tests/, not in src/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "dinoclip"
CALLERS = (LIBRARY, ROOT / "perfbench")

# definition -> why it may have no reference in the library or the benchmark
ALLOWED = {
    "recall_at_k": "perfbench/tracer.py traces it by name (a string, not a reference); "
                   "it moves to tests/ when the benchmark drops that span",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) for each top-level function or class and each
    method whose name is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (item.name.startswith("__")
                                                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(referenced name, node) for each Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node


def unreferenced_definitions() -> list[str]:
    """Library definitions that nothing in the library or the benchmark
    names outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for directory in CALLERS for path in sorted(directory.glob("*.py"))}
    references = [(name, node) for tree in trees.values() for name, node in _references(tree)]
    missing = []
    for path, tree in trees.items():
        if path.parent != LIBRARY:
            continue
        for qualified, definition in _definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            name = qualified.rsplit(".", 1)[-1]
            if not any(ref == name and id(node) not in own for ref, node in references):
                missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_library_definition_has_a_non_test_caller():
    """Only the allowed names lack a caller; an allowed name that gains one,
    or whose definition is gone, leaves ALLOWED."""
    unreferenced = unreferenced_definitions()
    assert {m.rsplit(".", 1)[-1] for m in unreferenced} == set(ALLOWED), unreferenced
