"""Every name a `moscal` module imports is used in that module.

Standard library only: each module is parsed with `ast`, never imported.
`from __future__` imports and names listed in `__all__` are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "moscal"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "engine.py", "scalarizing.py", "tspwp.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Sequence, Iterable\n"
        "from .a import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: Iterable[int]) -> int:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Sequence"]
