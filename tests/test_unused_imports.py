"""Every name a module under ``src/repro`` imports is used there.

The CI lint selection leaves unused imports out, and ten had gathered in
``src/`` before this check. A package ``__init__`` re-exports by design and
is skipped; elsewhere a name counts as used when the module reads it, lists
it in ``__all__``, or names it in a string annotation (the
``TYPE_CHECKING`` imports). An import kept for its side effect says so with
``# noqa: F401`` on its line.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _annotation_names(tree: ast.AST):
    """Names read inside annotations, quoted ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in (
                *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                node.args.vararg, node.args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in filter(None, notes):
            for part in ast.walk(note):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    part = ast.parse(part.value, mode="eval")
                yield from (n.id for n in ast.walk(part)
                            if isinstance(n, ast.Name))


def unused_imports(path: pathlib.Path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in ("*", "annotations"):
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['os']\n"
        "def f(x: 'OrderedDict') -> Optional[int]:\n"
        "    return None\n")
    assert unused_imports(probe) == ["line 1: List"]
