"""Print the size of the package source: total, code, docstring and comment lines.

Usage: python tools/src_size.py

Counts every ``src/preference_chain/*.py`` file, one row per file and a
total row. Docstrings are the string statements that open a module, class
or function body (found with ``ast``); a code line holds a token outside
them, and a comment line holds nothing but a comment (found with
``tokenize``). Blank lines count only toward the total.
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


def count(text: str) -> tuple[int, int, int, int]:
    """(total, code, docstring, comment) lines of one Python source text."""
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    comments: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT and token.start[0] not in docs:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code), len(docs), len(comments - code)


def main() -> None:
    rows = [(path.name, count(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    print(f"{'file':<20} {'total':>6} {'code':>6} {'doc':>6} {'comment':>8}")
    for name, (total, code, docs, comments) in rows:
        print(f"{name:<20} {total:>6} {code:>6} {docs:>6} {comments:>8}")


if __name__ == "__main__":
    main()
