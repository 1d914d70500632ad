"""Architecture guards over the package source, read with ``ast`` only.

* no module imports another module's private name;
* only ``kernels`` knows the concrete weight classes: everyone else reads a
  variant's facts off the instance;
* every imported name is used (a name listed in ``__all__`` counts);
* every top-level function and class is referenced somewhere in ``src/``,
  ``tests/`` or ``perfbench/`` outside its own definition (``__all__`` does
  not count).
"""

import ast
import collections
import functools
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ambitlab"
MODULES = sorted(SRC.glob("*.py"))
READERS = (SRC, SRC.parents[1] / "tests", SRC.parents[1] / "perfbench")
WEIGHT_CLASSES = {"UniformWeight", "SingularWeight", "TriangleWeight", "GridWeight"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(tree):
    """(local name, imported name, node) for every import from this package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "ambitlab"):
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    tree = _tree(path)
    modules = set()
    bad = []
    for local, name, node in _package_imports(tree):
        if name.startswith("_"):
            bad.append(f"line {node.lineno}: imports {name}")
        elif node.module is None:  # ``from . import kernels``
            modules.add(local)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            bad.append(f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    assert not bad, bad


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernels.py"],
                         ids=lambda p: p.name)
def test_only_kernels_names_a_concrete_weight_class(path):
    tree = _tree(path)
    bad = [f"line {node.lineno}: imports {name}"
           for _, name, node in _package_imports(tree) if name in WEIGHT_CLASSES]
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in WEIGHT_CLASSES:
            bad.append(f"line {node.lineno}: names {name}")
    assert not bad, bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = sorted(f"line {line}: {name}" for name, line in imported.items()
                    if name not in used)
    assert not unused, unused


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@functools.cache
def _reads_everywhere():
    return collections.Counter(name for folder in READERS
                               for path in folder.glob("*.py")
                               for name in _names_read(_tree(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_definition_is_referenced(path):
    reads = _reads_everywhere()
    dead = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = sum(name == node.name for name in _names_read(node))
            if reads[node.name] == own:
                dead.append(f"line {node.lineno}: {node.name}")
    assert not dead, dead
