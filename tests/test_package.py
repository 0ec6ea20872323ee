"""The package's import cost and its value types.

``import mclusters.cli`` must not load the module witness or
``dataclasses`` (with its ``inspect``, ``ast`` and ``dis``): both cost
every ``mcluster`` process far more than a one-pair query does.  The
witness names stay reachable from the package root, loaded on first
access."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mclusters
from mclusters import ColouredRoot, DerivedObject, DynkinType, TiltingSet, quiver_rep

UNUSED_BY_CLI = ["dataclasses", "inspect", "fractions", "decimal",
                 "mclusters.quiver_rep", "mclusters.linalg"]


def test_cli_import_is_lean():
    """A fresh interpreter without ``site``, so that nothing but the
    package decides what is loaded."""
    code = ("import sys, mclusters.cli; "
            f"print(sorted(set({UNUSED_BY_CLI!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(mclusters.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cli_import_builds_no_parser():
    """Parsers are built on a command's first call, never at import."""
    code = "import mclusters.cli as cli; print(cli._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(mclusters.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


class TestLazyWitness:
    def test_every_exported_name_resolves(self):
        for name in mclusters.__all__:
            assert getattr(mclusters, name) is not None, name

    def test_same_objects_as_the_witness(self):
        assert mclusters.hom_dim is quiver_rep.hom_dim
        assert mclusters.BipartiteQuiver is quiver_rep.BipartiteQuiver

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            mclusters.no_such_name
        assert not hasattr(mclusters, "quiver")


VALUES = [
    (ColouredRoot((1, 0), 1), ColouredRoot((1, 0), 2), "colour",
     "ColouredRoot(root=(1, 0), colour=1)", "(1,0)^1"),
    (DerivedObject((0, 1), -1), DerivedObject((1, 0), -1), "shift",
     "DerivedObject(beta=(0, 1), shift=-1)", "V(0,1)[-1]"),
    (TiltingSet((0, 2)), TiltingSet((1, 2)), "indices",
     "TiltingSet(indices=(0, 2))", "TiltingSet(indices=(0, 2))"),
    (DynkinType("D", 4), DynkinType("E", 6), "rank",
     "DynkinType(family='D', rank=4)", "D4"),
]


@pytest.mark.parametrize("low,high,field,text,shown", VALUES,
                         ids=[type(case[0]).__name__ for case in VALUES])
class TestValueTypes:
    def test_hashable(self, low, high, field, text, shown):
        again = type(low)(*low)
        assert again == low and hash(again) == hash(low)
        assert len({low, again, high}) == 2

    def test_ordered(self, low, high, field, text, shown):
        assert low < high and sorted([high, low]) == [low, high]

    def test_immutable(self, low, high, field, text, shown):
        with pytest.raises(AttributeError):
            setattr(low, field, getattr(high, field))
        assert low != high

    def test_text(self, low, high, field, text, shown):
        assert (repr(low), str(low)) == (text, shown)


def test_colour_defaults_to_1():
    assert ColouredRoot((1, 0)) == ColouredRoot((1, 0), 1)


def test_dynkin_type_is_checked():
    with pytest.raises(ValueError, match="E rank must be 6, 7 or 8, got 9"):
        DynkinType("E", 9)


def test_ci_console_script_parses():
    """CI runs ``tests/ci_console.sh``; ``bash -n`` shows a syntax error in
    it without running a line."""
    script = Path(__file__).with_name("ci_console.sh")
    subprocess.run(["bash", "-n", str(script)], check=True)


def test_python_310_syntax():
    """``pyproject.toml`` admits Python 3.10: every source file parses with
    3.10's grammar, which refuses 3.11 syntax such as ``except*``.  This
    checks syntax only; a library call new in 3.11 would pass."""
    root = Path(__file__).resolve().parent.parent
    files = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (root / top).rglob("*.py"))
    assert root / "src" / "mclusters" / "cli.py" in files
    assert root / "perfbench" / "worker.py" in files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
