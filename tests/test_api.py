"""The package's public names: `__all__` is exactly the export table in
`downup/__init__.py`, every name resolves to the object its submodule
defines, and a layer is imported only when something reads it.  The
runtime imports nothing outside the standard library."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import downup

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_all_matches_the_imports():
    table = [(module, name) for module, names in downup._EXPORTS.items()
             for name in names.split()]
    names = [name for module, name in table]
    assert len(set(names)) == len(names)
    assert downup.__all__ == names
    for module, name in table:
        owner = importlib.import_module("downup." + module)
        value = getattr(downup, name)
        assert value is getattr(owner, name), name
        assert value.__module__ == owner.__name__, name
        assert name in dir(downup)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        downup.no_such_name


def test_star_import_and_submodules_resolve():
    namespace = {}
    exec("from downup import *", namespace)
    assert set(downup.__all__) <= set(namespace)
    for module in downup._EXPORTS:
        assert getattr(downup, module) is sys.modules["downup." + module]


def loaded_by(code):
    """The downup submodules a fresh interpreter holds after running code."""
    probe = code + ("\nimport sys\nprint(' '.join(sorted(name[7:] for name "
                    "in sys.modules if name.startswith('downup.'))))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_layer():
    assert loaded_by("import downup") == set()


def test_building_an_algebra_loads_only_its_layers():
    code = ("import downup\n"
            "spec = downup.validate_param_spec(1, 3, 2)\n"
            "downup.gwa_algebra(downup.DownUpPresentation.from_coefficients("
            "spec, [0, 1]))")
    assert loaded_by(code) == {"scalars", "bipoly", "gwa", "presentation"}


def test_a_dense_gcd_loads_the_cyclotomic_layer():
    # set-up above meets no dense gcd; the first one imports the layer
    code = ("from downup import Scalar\n"
            "Scalar({2: 1, 0: -1}) * (Scalar({1: 1}) / Scalar({3: 1, 0: -1}))")
    assert loaded_by(code) == {"scalars", "cyclotomic"}


@pytest.mark.parametrize("command, loads_suites", [
    (["indices"], False), (["verify", "field"], True),
], ids=["indices", "verify"])
def test_cli_loads_suites_only_for_verify(command, loads_suites):
    code = ("from downup import cli\n"
            "cli.main(['--d', '1', '--n1', '3', '--n2', '2'] + %r)" % command)
    loaded = loaded_by(code)
    assert ("suites" in loaded, "sampling" in loaded) == (loads_suites,) * 2


def test_cli_import_loads_every_traced_layer():
    # bench/tracer.py reads the modules it wraps from sys.modules once
    # downup.cli is imported
    tree = ast.parse(TRACER.read_text())
    functions = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and node.targets[0].id == "_FUNCTIONS")
    assert {module for module, _, _ in functions} <= \
        loaded_by("import downup.cli")


def test_cli_import_defers_argparse_and_json():
    # argparse loads only in build_parser and json only for structured
    # output, so a bare import of downup.cli loads neither; it still loads
    # each layer bench/tracer.py wraps
    tree = ast.parse(TRACER.read_text())
    functions = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and node.targets[0].id == "_FUNCTIONS")
    probe = "import sys, downup.cli\nprint(*sys.modules)"
    loaded = set(subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True,
                                check=True).stdout.split())
    assert not {"argparse", "json"} & loaded
    assert {"downup." + module for module, _, _ in functions} <= loaded


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
