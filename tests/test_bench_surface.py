"""What the scripts under bench/ read from diffdim must exist.

The scripts run outside the test suite, so a name they import that diffdim
no longer has would fail only when a script is next run.  Every name that
bench/*.py imports from diffdim, and every (module, attribute) pair that the
tracer in bench/layers.py rebinds, is looked up here.  layers.py is loaded
from its path and only read; the bench files are parsed, not run.
"""

import ast
import importlib
import pathlib

import pytest

from corpus import bench_module

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _imports_from_diffdim():
    """(file, module, name or None) for each diffdim import in bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "diffdim":
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from (
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "diffdim"
                )


def test_bench_imports_names_that_diffdim_has():
    found = list(_imports_from_diffdim())
    # make_cones_pool.py's janet_complete and test_bench.py's parse_system at least
    assert {("make_cones_pool.py", "diffdim", "janet_complete"),
            ("test_bench.py", "diffdim", "parse_system")} <= set(found)
    for filename, module, name in found:
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), f"{filename}: {module}.{name}"


@pytest.mark.parametrize("span, module, attr", bench_module("layers").SPANS)
def test_every_traced_span_resolves(span, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {module}.{attr}"
        owner = getattr(owner, part)
    assert callable(owner), span
