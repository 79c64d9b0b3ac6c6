import ast
import importlib
import re
from pathlib import Path

import pytest

import plumbcap


def test_every_exported_name_exists():
    # A stale __all__ entry breaks only `from plumbcap import *`.
    missing = [name for name in plumbcap.__all__ if not hasattr(plumbcap, name)]
    assert plumbcap.__all__ and not missing, missing
    assert len(set(plumbcap.__all__)) == len(plumbcap.__all__)


def test_removed_helpers_stay_out_of_the_package():
    for name in ("DualString", "TwistCurve", "gram_to_json", "is_negative_definite"):
        assert name not in plumbcap.__all__
        assert not hasattr(plumbcap, name)


def test_open_book_lives_in_dualcap():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("plumbcap.openbook")


def test_sources_parse_at_the_declared_python_floor():
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    for path in sorted((root / "src" / "plumbcap").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=tuple(map(int, floor)))
