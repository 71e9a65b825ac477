"""The source-size counter in ``tools/src_size.py``."""

import ast
import importlib.util
from pathlib import Path

import pytest

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


def test_against_reports_deltas_and_one_sided_values_without_line_numbers(tmp_path):
    here, other = tmp_path / "here", tmp_path / "other"
    here.mkdir()
    other.mkdir()
    # the same two functions in another order, and one default renamed
    (other / "a.py").write_text("def f(x=1):\n    return x\n\n\ndef g(y=2):\n    return y\n")
    (here / "a.py").write_text("def g(y=2):\n    return y\n\n\ndef f(z=1):\n    return z\n")
    (other / "gone.py").write_text("def h(w=0):\n    pass\n")
    (here / "new.py").write_text("X = 1\n")
    assert src_size.compare(here, other) == [
        f"{'file':<20}  total   code  options",
        f"{'a.py':<20}     +0     +0       +0",
        f"{'gone.py':<20}     -2     -2       -1",
        f"{'new.py':<20}     +1     +1       +0",
        f"{'total':<20}     -1     -1       -1",
        "",
        "+ a.py f.z",
        "- a.py f.x",
        "- gone.py h.w",
    ]
    with pytest.raises(SystemExit):  # a directory with no .py files is a wrong path
        src_size.main(["--against", str(tmp_path)])
