"""Every name a module of the package imports is read in that module, and
every top-level private name a module defines is read by some module.

``__init__.py`` is exempt from the first check (its imports are the package's
re-exports), and so is ``from __future__``. A name read only inside a string
annotation counts as read. A private name is one with a single leading
underscore; it counts as read where a module loads it, imports it or reads it
as an attribute (``training._STEPS``).
"""

import ast
from pathlib import Path

import pytest

import magnetdml

MODULES = sorted(p for p in Path(magnetdml.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                read.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def unread_private_names(sources: dict) -> list:
    """``(module, line, name)`` for each top-level ``_name`` that a module of
    ``sources`` (module name -> source) defines and none reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never reads: " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


@pytest.mark.parametrize("source, unused", [
    ("from .data import Dataset\n", [(1, "Dataset")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nx: 'np.ndarray'\n", []),
    ("from __future__ import annotations\n", []),
    ("from typing import List, Tuple\ndef f() -> 'List[int]': pass\n", [(1, "Tuple")]),
])
def test_scan_finds_unread_names(source, unused):
    assert unused_imports(source) == unused


def test_no_unread_private_names():
    package = Path(magnetdml.__file__).parent
    unread = unread_private_names({p.name: p.read_text(encoding="utf-8")
                                   for p in sorted(package.glob("*.py"))})
    assert not unread, "private names that no module reads: " + ", ".join(
        f"{name} ({module}:{line})" for module, line, name in unread)


@pytest.mark.parametrize("sources, unread", [
    ({"a": "def _f(): pass\n"}, [("a", 1, "_f")]),
    ({"a": "_X = 1\nclass _C: pass\ndef f(): return _X\n"}, [("a", 2, "_C")]),
    ({"a": "def _f(): pass\n", "b": "from .a import _f\n"}, []),
    ({"a": "def _f(): pass\n", "b": "from . import a\na._f()\n"}, []),
    ({"a": "_X: int = 1\n_X = 2\n"}, [("a", 1, "_X"), ("a", 2, "_X")]),
    ({"a": "__all__ = []\ndef f(_y): return _y\n"}, []),
])
def test_scan_finds_unread_private_names(sources, unread):
    assert unread_private_names(sources) == unread
