"""Every module-level import in ``blockmc`` is used by its module, and
every function and class is named somewhere in the package.

No linter runs on this package, so a deletion that leaves an import, a
function or a class behind would go unnoticed; these tests parse each
module and name any such import, function or class. A package's
``__init__.py`` is skipped by the import check: its imports are its
exports, and they count as names of what they export.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import blockmc

SOURCES = sorted(Path(blockmc.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]

# functions and classes no code in the package names, each with the reason it stays
UNNAMED_BUT_KEPT = {
    "idx.write_idx_images": "the benchmark workloads write their synthetic digits with it",
    "idx.write_idx_labels": "the benchmark workloads write their synthetic digits with it",
    "made.ConditionalMadeModel.sample": "the bench tracer hooks it; it moves to the tests once the tracer does not",
}


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that no
    name or attribute base in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nprint(system.argv, loads)\n"
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def identifiers(node):
    """Every name, attribute and imported name under ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes and the methods of module-level
    classes in ``sources`` (module name -> source) whose name occurs nowhere
    outside their own body, as a name, an attribute or an imported name.
    Python calls dunder methods itself, so they are not checked."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = Counter(i for tree in trees.values() for i in identifiers(tree))
    unnamed = []
    for module, tree in trees.items():
        defs = [(f"{module}.{n.name}", n) for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs.append((f"{module}.{cls.name}", cls))
            defs += [(f"{module}.{cls.name}.{n.name}", n) for n in cls.body if isinstance(n, ast.FunctionDef)]
        for qualname, node in defs:
            own = sum(i == node.name for stmt in node.body for i in identifiers(stmt))
            if not node.name.startswith("__") and counts[node.name] == own:
                unnamed.append(qualname)
    return unnamed


def test_the_check_finds_an_unnamed_function():
    a = (
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) + helper()\n"
        "def exported():\n    pass\n"
        "class Model:\n"
        "    def __init__(self):\n        pass\n"
        "    def method(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "class Orphan:\n"
        "    def make(self):\n        return Orphan()\n"
    )
    b = "from a import Model, exported\nModel().method()\n"
    assert unnamed_definitions({"a": a, "b": b}) == [
        "a.recursive", "a.Model.unused", "a.Orphan", "a.Orphan.make"
    ]


def test_every_function_is_named_outside_its_body():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert sorted(unnamed_definitions(sources)) == sorted(UNNAMED_BUT_KEPT)
