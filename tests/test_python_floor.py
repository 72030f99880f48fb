"""Every module of the package parses at the Python floor pyproject.toml declares.

This checks syntax only: ``ast.parse(..., feature_version=(3, 10))`` refuses
grammar newer than 3.10, but a standard-library function, module or keyword
argument added after 3.10 passes unnoticed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
MODULES = sorted((ROOT / "src" / "restartfom").glob("*.py"))


def test_the_floor_is_the_one_pyproject_declares():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_the_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
