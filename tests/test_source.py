"""Static checks on the package source that need only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "qlattice").glob("*.py"))
TEST_SOURCES = sorted((ROOT / "tests").glob("*.py"))
# Every Python file of the checkout; perfbench/ is only read here.
ALL_PYTHON = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A name counts as read where it occurs as a ``Name`` or as the root of
    an ``Attribute`` chain, or where ``__all__`` lists it; ``__future__``
    imports are exempt.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}  # bound name -> line of its import
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    # an Attribute chain's root is a Name, which the walk has already seen
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _source_id(path: Path) -> str:
    """Package modules by bare name, test modules by their path."""
    return path.name if path in SOURCES else str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES, ids=_source_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_names_attributes_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Any, Sequence\n"
        "from . import terms\n"
        "__all__ = ['Sequence']\n"
        "x = os.path.join(terms.TOP, j)\n"
    )
    assert unused_imports(source) == ["Any (line 4)"]


@pytest.mark.parametrize("path", ALL_PYTHON, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # pyproject.toml promises Python >= 3.10; only the grammar is checked
    # here, not the standard library each file uses.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
