"""Print the size of the package source: total, code, docstring and comment lines.

Usage: python tools/src_size.py

Counts every ``src/preference_chain/*.py`` file, one row per file and a
total row. Docstrings are the string statements that open a module, class
or function body (found with ``ast``); a code line holds a token outside
them, and a comment line holds nothing but a comment (found with
``tokenize``). Blank lines count only toward the total.

The ``options`` column counts settable values: parameters with a default
(of any function, method or lambda) plus dataclass fields with a default
whose annotation is not ``ClassVar``, found by an ``ast`` walk. A field
made with ``field(..., init=False)`` is skipped: no caller can set it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "preference_chain"
_LAYOUT = {
    tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def option_count(tree: ast.AST) -> int:
    """Defaulted parameters plus defaulted, settable non-``ClassVar`` dataclass fields."""
    options = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            options += len(node.args.defaults)
            options += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            options += sum(
                isinstance(item, ast.AnnAssign)
                and item.value is not None
                and "ClassVar" not in ast.unparse(item.annotation)
                and "init=False" not in ast.unparse(item.value)
                for item in node.body
            )
    return options


def count(text: str) -> tuple[int, int, int, int, int]:
    """(total, code, docstring, comment, option) counts of one Python source text."""
    tree = ast.parse(text)
    docs = docstring_lines(tree)
    code: set[int] = set()
    comments: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT and token.start[0] not in docs:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code), len(docs), len(comments - code), option_count(tree)


def main() -> None:
    rows = [(path.name, count(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    print(f"{'file':<20} {'total':>6} {'code':>6} {'doc':>6} {'comment':>8} {'options':>8}")
    for name, (total, code, docs, comments, options) in rows:
        print(f"{name:<20} {total:>6} {code:>6} {docs:>6} {comments:>8} {options:>8}")


if __name__ == "__main__":
    main()
