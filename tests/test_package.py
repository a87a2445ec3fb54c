"""Package-wide rules: where the library imports, which modules load
which, and that the README's references to library names resolve."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pauliforge

SRC = Path(pauliforge.__file__).parent
README = Path(__file__).parents[1] / "README.md"

# (module, function) pairs allowed an import in their body: results
# formats a layout without loading the engine for the other records.
_LOCAL_IMPORTS = {("results", "engineered_result_to_dict")}


def _function_imports(path: Path):
    """(function name, line) of every import statement inside a function
    body of the module at ``path``, nested functions and methods included."""
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield fn.name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_library_imports_sit_at_the_top(path):
    found = [(name, line) for name, line in _function_imports(path)
             if (path.stem, name) not in _LOCAL_IMPORTS]
    assert found == []


# The tests for bool or an integer type outside paulis, as the number of
# them in each (module, function), with the reason they are not an integer
# check on an argument; every integer argument goes to paulis._checked_int.
_TYPE_DISPATCHES = {
    ("results", "_format_value"): (2, "formats a document value by its type"),
    ("dynamics", "_entropy_words.words"): (1, "reads a seed's words as SeedSequence does"),
    ("optimize", "OptimizerConfig.__post_init__"): (1, "refuses a bool as the real learning rate"),
}
_INTEGER_TYPES = {"bool", "int", "integer", "Integral"}  # np.integer, numbers.Integral


def _names(node) -> set[str]:
    """The names and attribute names a type expression mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _integer_tests(path: Path):
    """The dotted function name of every ``type(...) is int`` and every
    isinstance test against bool or an integer type in the module at
    ``path``, once per test."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
                if len(child.args) == 2 and _names(child.args[1]) & _INTEGER_TYPES:
                    yield scope
            if (isinstance(child, ast.Compare) and isinstance(child.left, ast.Call)
                    and getattr(child.left.func, "id", None) == "type"
                    and any(_names(c) & _INTEGER_TYPES for c in child.comparators)):
                yield scope
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(), str(path)), "")


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "paulis"),
                         ids=lambda p: p.stem)
def test_integer_checks_live_in_paulis(path):
    found = Counter(_integer_tests(path))
    assert found == {name: count for (module, name), (count, _) in _TYPE_DISPATCHES.items()
                     if module == path.stem}


def test_paulis_holds_the_integer_check():
    assert Counter(_integer_tests(SRC / "paulis.py")) == {"_checked_int": 2}


def test_dense_paths_load_neither_engine_nor_verification():
    code = ("import sys, pauliforge.dense, pauliforge.dynamics, pauliforge.grouping\n"
            "print(*sorted(m for m in sys.modules if m.startswith('pauliforge')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "pauliforge.dense" in loaded
    assert "pauliforge.ansatz" not in loaded
    assert "pauliforge.verification" not in loaded


def _readme_references() -> list[str]:
    """Every name a README import line takes from the package, and every
    dotted ``pauliforge.<...>`` path quoted inline, as dotted paths."""
    text = README.read_text()
    refs = []
    for module, names in re.findall(r"^from (pauliforge[\w.]*) import (.+)$", text, re.M):
        refs += [f"{module}.{name.strip()}" for name in names.split(",")]
    refs += re.findall(r"`(pauliforge(?:\.\w+)+)", text)
    return sorted(set(refs))


def test_readme_has_references():
    assert any(ref.startswith("pauliforge.verification.") for ref in _readme_references())


@pytest.mark.parametrize("ref", _readme_references())
def test_readme_reference_resolves(ref):
    """The longest importable module prefix, then attributes for the rest;
    a name that is not an identifier (a wrapped import list) fails too."""
    parts = ref.split(".")
    assert all(part.isidentifier() for part in parts), ref
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return
    pytest.fail(f"no module in {ref}")
