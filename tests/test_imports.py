"""Every name a module of the package imports is read in that module.

``__init__.py`` is exempt (its imports are the package's re-exports), and so
is ``from __future__``. A name read only inside a string annotation counts as
read.
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
