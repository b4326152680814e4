"""The package keeps zero runtime dependencies: the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nambu").glob("*.py"))


def _foreign_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports outside the standard library."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_package_imports_only_the_standard_library(path):
    assert _foreign_imports(path) == []


def test_foreign_imports_are_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport numpy.linalg\nfrom sympy import QQ\n"
                     "from . import algebra\nfrom fractions import Fraction\n")
    assert _foreign_imports(probe) == ["numpy.linalg", "sympy"]


def test_project_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
