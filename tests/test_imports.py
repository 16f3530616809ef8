import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "chaosco"


def _unused_imports(text):
    """Names bound by module-level imports that the module never reads.

    A name counts as read where it appears as an ``ast.Name`` (an attribute
    access ``mi.f`` reads ``mi``).  Names in ``__all__``, lines marked
    ``# noqa: F401`` and ``__future__`` imports are exempt.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_catches_leftovers():
    text = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import operator\n"
        "import os.path\n"
        "from . import multiindex as mi\n"
        "from typing import Dict, Tuple  # noqa: F401\n"
        "from .chaos import GridSpec\n"
        "__all__ = ['GridSpec']\n"
        "x: Dict = mi.f(itertools.count())\n"
    )
    assert _unused_imports(text) == [(3, "operator"), (4, "os")]
