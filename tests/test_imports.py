"""Static checks over the package sources: every imported name is used (in
the tests too), every module-level ``_private`` function or class is
referenced somewhere in the package, every public one is reached from
outside the tests, so is every public method and field of a package class,
and every name the benchmark tracer wraps exists.  One check runs code: a
tiny traced fit of each workload kind calls every layer the tracer requires.

No linter is a dependency, so the checks parse each module with ``ast``.
"""

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from memnet import constructive, harmonic, ntk
from memnet.data import rademacher_labels, sample_sphere

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "memnet"
# package modules by file name, test modules as tests/<file name>
MODULES = {p.name: p for p in SRC.glob("*.py")}
MODULES.update({f"tests/{p.name}": p for p in (ROOT / "tests").glob("*.py")})


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    src = ("from __future__ import annotations\nimport math\nimport os.path\n"
           "from x import a, b as c\na()\nos.path.join()\n")
    assert unused_imports(src) == ["c", "math"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module].read_text()) == []


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


def unreached_publics(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """``module.name`` of each public module-level function or class of the
    package ``sources`` that no other code refers to by name or attribute:
    no other package module, no code of its own module outside its own body,
    and no module of ``users``."""
    def names(nodes) -> set[str]:
        return {sub.id if isinstance(sub, ast.Name) else sub.attr
                for node in nodes for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute))}

    trees = {module: ast.parse(source) for module, source in sources.items()}
    outside = names(ast.parse(source) for source in users.values())
    flagged = []
    for module, tree in trees.items():
        used = outside | names(t for m, t in trees.items() if m != module)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used
                    and node.name not in names(n for n in tree.body if n is not node)):
                flagged.append(f"{module}.{node.name}")
    return sorted(flagged)


def test_unreached_public_detector():
    sources = {
        "a": ("def used_by_b():\n    pass\ndef probe():\n    return probe()\n"
              "def helper():\n    pass\ndef caller():\n    return helper()\n"
              "class Report:\n    def make(self):\n        return Report()\n"
              "def _private():\n    pass\n"),
        "b": "from .a import used_by_b\nused_by_b()\ndef for_bench():\n    pass\n",
    }
    users = {"worker.py": "import b\nb.for_bench()\n"}
    assert unreached_publics(sources, users) == ["a.Report", "a.caller", "a.probe"]


def test_no_test_only_publics():
    """Every public function or class of the package is reached from the
    package itself or from bench/; what only tests reach lives in tests/."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    users = {p.name: p.read_text() for p in (ROOT / "bench").glob("*.py")}
    assert unreached_publics(sources, users) == []


def attribute_reads(nodes) -> Counter:
    """How often each name is read as an attribute (``obj.name``, load
    context), except as the container of a subscript store such as
    ``obj.name[key] = value``, which writes it."""
    subs = [sub for node in nodes for sub in ast.walk(node)]
    stored = {id(sub.value) for sub in subs
              if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store)}
    return Counter(sub.attr for sub in subs
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                   and id(sub) not in stored)


def unread_members(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """``module.Class.name`` of each public method or annotated field of a
    module-level class of the package ``sources`` that no module of
    ``sources`` or ``users`` reads as an attribute, a method's reads inside
    its own body aside.  Keyword arguments and assignments are not reads,
    and reads match by name, whatever the object.  ``fields(Class)`` reads
    every field of that class."""
    trees = [ast.parse(source) for source in (*sources.values(), *users.values())]
    reads = attribute_reads(trees)
    enumerated = {arg.id for tree in trees for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  and getattr(call.func, "id", getattr(call.func, "attr", None)) == "fields"
                  for arg in call.args if isinstance(arg, ast.Name)}
    flagged = []
    for module, source in sources.items():
        for cls in ast.parse(source).body:
            for node in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(node, ast.FunctionDef):
                    name, own = node.name, attribute_reads([node])[node.name]
                elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                      and cls.name not in enumerated):
                    name, own = node.target.id, 0
                else:
                    continue
                if not name.startswith("_") and reads[name] <= own:
                    flagged.append(f"{module}.{cls.name}.{name}")
    return sorted(flagged)


def test_unread_member_detector():
    sources = {
        "a": ("from dataclasses import dataclass\n"
              "@dataclass\nclass Rec:\n    kept: int\n    gone: int\n    _private: int\n"
              "    def used(self):\n        return self.kept\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    def by_bench(self):\n        pass\n"
              "    def __repr__(self):\n        return ''\n"
              "@dataclass\nclass Log:\n    entries: dict\n"
              "@dataclass\nclass Row:\n    col: int\n"
              "def header():\n    return [f.name for f in dataclasses.fields(Row)]\n"
              "def make():\n    r = Rec(kept=1, gone=2, _private=3)\n"
              "    r.gone = 4\n    Log({}).entries['k'] = 1\n    return r.used()\n"),
        "b": "class Plain:\n    label: str\n    def show(self):\n        return self.label\n",
    }
    users = {"worker.py": "import a\na.make().by_bench()\n"}
    assert unread_members(sources, users) == ["a.Log.entries", "a.Rec.gone",
                                              "a.Rec.recursive", "b.Plain.show"]


def test_no_test_only_members():
    """Every public method and field of a package class is read by the
    package itself or by bench/; what only tests read lives in tests/."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    users = {p.name: p.read_text() for p in (ROOT / "bench").glob("*.py")}
    assert unread_members(sources, users) == []


def missing_targets(targets) -> list[str]:
    """``module.name`` of each (module, name, label) target whose name is not a
    callable attribute of that module."""
    return [f"{module}.{name}" for module, name, _label in targets
            if not callable(getattr(importlib.import_module(module), name, None))]


def test_missing_target_detector():
    targets = (("memnet.harmonic", "relu_mixture", "a"),
               ("memnet.harmonic", "no_such_layer", "b"),
               ("memnet.harmonic", "CONSTANTS", "c"))
    assert missing_targets(targets) == ["memnet.harmonic.no_such_layer",
                                        "memnet.harmonic.CONSTANTS"]


def _load_tracing(monkeypatch):
    """bench/tracing.py, loaded from its path without writing a bytecode
    cache next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_exist(monkeypatch):
    """The benchmark's ``--trace 1`` wraps the names in bench/tracing.py's
    TARGETS; a refactor that drops or renames one fails here, not only in a
    benchmark run."""
    tracing = _load_tracing(monkeypatch)
    assert len(tracing.TARGETS) > 0
    assert missing_targets(tracing.TARGETS) == []


def test_traced_layers_are_called(monkeypatch):
    """Every layer bench/tracing.py requires records a span in a tiny traced
    run of its workload kind, so a refactor that keeps a name but stops
    calling it fails here.  The fits are called through their module
    attributes, as the benchmark's worker calls them, and every wrapped name
    is restored afterwards."""
    tracing = _load_tracing(monkeypatch)
    for module_name, name, _label in tracing.TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, name, getattr(module, name))
    tracer = tracing.Tracer()
    tracer.install()
    harmonic.harmonic_fit(rademacher_labels(sample_sphere(50, 100, 0), 1), 0.25)
    harmonic_spans, tracer.spans = tracer.spans, []
    for n in (10, 20):
        ds = rademacher_labels(sample_sphere(n, 5, n), n + 1)
        constructive.exact_fit_generic(ds)
        constructive.baum_relu_fit(ds)
        constructive.baum_threshold_fit(ds.with_labels((ds.labels + 1.0) / 2.0))
        ntk.ntk_fit(ds, 0.25)
    assert tracing.missing_layers("harmonic", [{"spans": harmonic_spans}]) == []
    assert tracing.missing_layers("combinatorial", [{"spans": tracer.spans}]) == []


def test_import_leaves_scipy_unloaded():
    """Importing the CLI, which imports every fit, and ``bounds`` does not
    import scipy: only ``exact_fit_generic`` needs it and imports it inside,
    so a process that never runs the exact fit (a harmonic fit) pays neither
    its import time nor its memory.  Nor does it import numpy.polynomial,
    which ``hermite.gl_grid`` and the mixture table builder load on first
    use."""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            "import memnet.cli, memnet.bounds; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
