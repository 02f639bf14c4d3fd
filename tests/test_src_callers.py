"""Every library definition has a caller outside the tests: code that only
tests reach belongs in tests/, not in src/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "dinoclip"
PACKAGE = LIBRARY.name
CALLERS = (LIBRARY, ROOT / "perfbench")

# Engine ops that acceptance criterion 1 gradient-checks by name and that no
# library code calls; tests/test_acceptance.py may change only its import
# lines, so they stay.
ACCEPTANCE_ONLY = ["autodiff.log", "autodiff.log_softmax", "autodiff.mean", "autodiff.neg",
                   "autodiff.sqrt", "autodiff.sub"]


def _definitions(tree: ast.Module):
    """(qualified name, node, whether it is module-level) for each top-level
    function or class and each method whose name is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.name, node, True
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (item.name.startswith("__")
                                                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item, False


def _library_module(node: ast.ImportFrom):
    """The library module a ``from`` import names (relative, or as
    ``dinoclip.<module>``), "" for the package itself, else None."""
    if node.level:
        return node.module or ""
    if node.module == PACKAGE:
        return ""
    prefix = PACKAGE + "."
    return node.module[len(prefix):] if (node.module or "").startswith(prefix) else None


def _references(tree: ast.Module, stem: str, in_library: bool):
    """(module, referenced name, node) for each Name, Attribute and ``from``
    import alias.  ``module`` is the library module the reference resolves
    to: its own for a bare name inside the library, the imported module for
    an attribute of a name bound by ``from . import module``, the source
    module for a ``from`` import out of one; None for any other reference."""
    modules = {}                                # local name -> library module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _library_module(node) == "":
            modules.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield (stem if in_library else None), node.id, node
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield modules.get(owner), node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield _library_module(node) or None, alias.name, alias


def unreferenced_definitions() -> list[str]:
    """Library definitions that nothing in the library or the benchmark
    references outside the definition itself.  A module-level function or
    class counts as referenced only where the reference resolves to its
    module; a method, wherever its name is referenced."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for directory in CALLERS for path in sorted(directory.glob("*.py"))}
    references = [ref for path, tree in trees.items()
                  for ref in _references(tree, path.stem, path.parent == LIBRARY)]
    missing = []
    for path, tree in trees.items():
        if path.parent != LIBRARY:
            continue
        for qualified, definition, module_level in _definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            name = qualified.rsplit(".", 1)[-1]
            if not any(ref == name and (module == path.stem or not module_level)
                       and id(node) not in own for module, ref, node in references):
                missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_library_definition_has_a_non_test_caller():
    assert sorted(unreferenced_definitions()) == ACCEPTANCE_ONLY
