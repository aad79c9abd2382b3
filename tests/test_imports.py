"""Static check over the package sources: every imported name is used.

No linter is a dependency, so the check parses each module with ``ast``.
``__init__.py`` is skipped because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "memnet"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_unused_import_detector():
    src = ("from __future__ import annotations\nimport math\nimport os.path\n"
           "from x import a, b as c\n__all__ = ['a']\nos.path.join()\n")
    assert unused_imports(src) == ["c", "math"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
