"""Static checks over the package sources: every imported name is used, and
every module-level ``_private`` function or class is referenced somewhere in
the package.

No linter is a dependency, so the checks parse each module with ``ast``.
``__init__.py`` is skipped by the import check because its imports are the
package's exports.
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


def orphan_privates(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``_private`` function or class that
    no module of ``sources`` refers to by name or attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_orphan_private_detector():
    sources = {
        "a": ("def _used():\n    pass\ndef _orphan():\n    pass\n"
              "class _Gone:\n    def _method(self):\n        pass\n"
              "def __getattr__(name):\n    pass\ndef public():\n    return _used()\n"
              "def _by_attr():\n    pass\n"),
        "b": "from a import _orphan\nimport a\na._by_attr()\n",
    }
    assert orphan_privates(sources) == ["a._Gone", "a._orphan"]


def test_no_orphan_privates():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert orphan_privates(sources) == []
