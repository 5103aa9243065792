"""The runtime dependencies: the package imports only the standard library,
numpy and requests, and declares exactly numpy and requests.  scipy and
hypothesis are installed for the tests, so an import of either from the
package would pass every other test."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = {"numpy", "requests"}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_stdlib_and_its_dependencies():
    sources = sorted((ROOT / "src" / "specdraft").glob("*.py"))
    assert sources
    foreign = {f"{path.name}: {name}" for path in sources for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | RUNTIME}
    assert not foreign


def test_pyproject_declares_exactly_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert sorted(names) == sorted(RUNTIME)
