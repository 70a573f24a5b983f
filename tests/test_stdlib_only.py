import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "commdir").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_stdlib(path):
    """The package runs on the standard library alone (numpy is not a dependency)."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = sorted(name for name in imported
                     if name.split(".")[0] not in sys.stdlib_module_names | {"commdir"})
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_parses_as_python_3_10(path):
    """pyproject.toml says ``requires-python = ">=3.10"``, so no newer syntax (``except*``)."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_module_is_checked():
    assert len(SOURCES) >= 9
