"""Every module-level import in ``blockmc`` is used by its module.

No linter runs on this package, so a deletion that leaves an import behind
would go unnoticed; this test parses each module and names any such import.
A package's ``__init__.py`` is skipped: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

import blockmc

MODULES = sorted(p for p in Path(blockmc.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
