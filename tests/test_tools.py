"""The source-size counter in ``tools/src_size.py``."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"
_SPEC = importlib.util.spec_from_file_location("src_size", _PATH)
src_size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_size)

_SOURCE = '''"""A module."""

from dataclasses import dataclass, field
from typing import ClassVar


@dataclass
class Knobs:
    """Three fields with a default; a caller can set only one."""

    kind: ClassVar[str] = "knobs"
    size: int = 3
    members: frozenset = field(init=False, repr=False, default=frozenset())
    # a comment


def scaled(size, *, scale=2.0, name):
    """One keyword-only parameter with a default and one without."""
    return size * scale
'''


def test_count_skips_class_vars_and_init_false_fields():
    # 19 lines: 9 of code, 3 of docstrings, 1 comment and 2 settable values
    assert src_size.count(_SOURCE) == (19, 9, 3, 1, 2)


def test_options_lists_each_settable_value_by_line_and_name():
    assert src_size.options(ast.parse(_SOURCE)) == [(12, "Knobs.size"), (17, "scaled.scale")]
