"""Source hygiene checked without a linter: every name a module
imports at module level is used somewhere in that module, every public
function or class of the package is used by the package or the benchmark,
and every attribute the package sets on ``self`` is read by one of them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "docknav").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# public definitions that only the tests call, each with its reason
TEST_ONLY = {
    "reporting.episodes_to_sustained_success": "acceptance criteria 7 and 8 measure with it",
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the names it lists in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads, every attribute it looks up, and every
    part of each string that is a (dotted) identifier, such as an ``__all__``
    entry or a ``catalog.SPANS`` attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


def test_every_public_definition_is_used():
    users = [*PACKAGE, *(ROOT / "perfbench").rglob("*.py")]
    refs = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8"))) for p in users))
    unused = [f"{path.stem}.{node.name}" for path in PACKAGE
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in refs]
    unused = [name for name in unused if name not in TEST_ONLY]
    assert not unused, f"no code in src/docknav or perfbench uses: {', '.join(unused)}"


def _self_attributes_set(tree: ast.Module) -> dict[str, int]:
    """Attributes the module assigns on ``self`` (plainly, augmented, annotated
    or unpacked), with the first line of each."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.setdefault(node.attr, node.lineno)
    return names


def test_every_attribute_set_on_self_is_read():
    """An attribute only written, or only saved and restored through a dotted
    string, is state kept for nothing: only an attribute load counts as a read."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in [*PACKAGE, *(ROOT / "perfbench").rglob("*.py")]}
    loads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{name} (line {line})" for path in PACKAGE
              for name, line in _self_attributes_set(trees[path]).items() if name not in loads]
    assert not unread, f"no code in src/docknav or perfbench reads: {', '.join(unread)}"
