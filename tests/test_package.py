"""Package-wide rules: where the library imports, which modules load
which, and that the README's references to library names resolve."""

import ast
import importlib
import os
import re
import subprocess
import sys
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
