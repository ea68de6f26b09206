"""Every module-level import in ``src/locale_forge`` is used by its module,
every private top-level function or class is read somewhere in the
package, and every top-level function or class is named somewhere else in
it, exported from its root or reached by the benchmark in ``perfbench/``.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports."""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "locale_forge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no
    expression in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport x.y\nprint(e, x)\n") == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level functions and classes of the modules (name to
    source) that no top-level statement of any module reads, other than
    their own definition."""
    defined, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = (module, getattr(node, "name", None))
            name = owner[1] or ""
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name.startswith("_") and not name.startswith("__"):
                defined.append(owner)
            names = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.alias):
                    names.add(n.name)
            reads.append((owner, names))
    return [
        f"{module}.{name}"
        for module, name in defined
        if not any(name in names for owner, names in reads if owner != (module, name))
    ]


def test_the_guard_sees_a_dead_private_name():
    sources = {
        "a": "def _rec():\n    return _rec()\ndef _g(): pass\nclass _C: pass\nx = _C()\ndef __h(): pass\n",
        "b": "from a import _g\n",
    }
    assert dead_private_names(sources) == ["a._rec"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def unnamed_names(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the modules (name to source),
    dunders aside, whose name occurs as a word nowhere in the package but
    in their own definition: in no code, comment or docstring."""
    out = []
    for module, source in sources.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            name = getattr(node, "name", "")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("__"):
                rest = lines[: node.lineno - 1] + lines[node.end_lineno :]
                text = "\n".join([*rest, *(text for other, text in sources.items() if other != module)])
                if not re.search(rf"\b{re.escape(name)}\b", text):
                    out.append(f"{module}.{name}")
    return out


def test_the_scan_sees_an_unnamed_name():
    sources = {"a": "def f(): pass\ndef g():\n    return g()\n# f\n", "b": "class C: pass\nclass __D: pass\n"}
    assert unnamed_names(sources) == ["a.g", "b.C"]


def test_every_public_name_is_named_exported_or_benchmarked(monkeypatch):
    """A name that nothing else in the package names is kept only as the
    package's interface: exported from the root, or named by the
    benchmark's tracer (``TARGETS``, ``SERIALIZE_PUBLIC``) or its oracle
    workload (``Recorder.NAMES``), read as ``test_bench_names`` reads them."""
    import locale_forge
    from test_bench_names import BENCH, load_bench

    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling ``outside``
    tracing, workloads = load_bench("tracing"), load_bench("workloads")
    kept = {*locale_forge.__all__, *tracing.SERIALIZE_PUBLIC, *workloads.Recorder.NAMES}
    kept |= {part for _module, path, _layer in tracing.TARGETS for part in path.split(".")}
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name in unnamed_names(sources) if name.split(".")[-1] not in kept] == []
