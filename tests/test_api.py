"""The package's public names: every one resolves, and `__all__` lists
exactly the names `downup/__init__.py` imports."""

import ast
from pathlib import Path

import downup


def test_all_matches_the_imports():
    tree = ast.parse(Path(downup.__file__).read_text())
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(downup.__all__) == sorted(imported)
    for name in downup.__all__:
        assert hasattr(downup, name), name
