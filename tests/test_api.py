"""The package's public names: every one resolves, and `__all__` lists
exactly the names `downup/__init__.py` imports.  The runtime imports
nothing outside the standard library."""

import ast
import sys
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


def test_runtime_is_stdlib_only():
    sources = sorted(Path(downup.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    "%s imports %s" % (path.name, name)
