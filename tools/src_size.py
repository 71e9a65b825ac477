"""Print the size of the package source: total, code, docstring and comment lines.

Usage: python tools/src_size.py [--against DIR]

Counts every ``src/preference_chain/*.py`` file, one row per file and a
total row. Docstrings are the string statements that open a module, class
or function body (found with ``ast``); a code line holds a token outside
them, and a comment line holds nothing but a comment (found with
``tokenize``). Blank lines count only toward the total.

The ``options`` column counts settable values: parameters with a default
(of any function, method or lambda) plus dataclass fields with a default
whose annotation is not ``ClassVar``, found by an ``ast`` walk. A field
made with ``field(..., init=False)`` is skipped: no caller can set it.
Under the table, each settable value is listed as ``file:line owner.name``.

With ``--against DIR``, where DIR is another copy of ``src/preference_chain``,
it prints instead the total, code and option delta of each file (this
tree minus DIR; a file missing on one side counts as empty there), then
each settable value found on one side only, as ``+ file owner.name``
(here) or ``- file owner.name`` (in DIR). Line numbers are left out, so a
moved line shows no change.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from collections import Counter
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


def options(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, owner.name) of each defaulted parameter and each defaulted,
    settable non-``ClassVar`` dataclass field, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner, args = getattr(node, "name", "<lambda>"), node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.extend((arg.lineno, f"{owner}.{arg.arg}") for arg in defaulted)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found.extend(
                (item.lineno, f"{node.name}.{item.target.id}")
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and item.value is not None
                and "ClassVar" not in ast.unparse(item.annotation)
                and "init=False" not in ast.unparse(item.value)
            )
    return sorted(found)


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
    return len(text.splitlines()), len(code), len(docs), len(comments - code), len(options(tree))


def _texts(directory: Path) -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(directory.glob("*.py"))}


def _sizes(text: str) -> tuple[tuple[int, int, int], Counter]:
    """((total, code, option) counts, settable-value names) of one source text."""
    total, code, _docs, _comments, option_count = count(text)
    return (total, code, option_count), Counter(name for _, name in options(ast.parse(text)))


def compare(here: Path, other: Path) -> list[str]:
    """The ``--against`` report of ``here`` against ``other``, one string per line."""
    texts, other_texts = _texts(here), _texts(other)
    rows, one_side = [], []
    for name in sorted(texts.keys() | other_texts.keys()):
        sizes, values = _sizes(texts.get(name, ""))
        other_sizes, other_values = _sizes(other_texts.get(name, ""))
        rows.append((name, [a - b for a, b in zip(sizes, other_sizes)]))
        one_side += [f"+ {name} {value}" for value in sorted((values - other_values).elements())]
        one_side += [f"- {name} {value}" for value in sorted((other_values - values).elements())]
    rows.append(("total", [sum(column) for column in zip(*(delta for _, delta in rows))]))
    lines = [f"{'file':<20} {'total':>6} {'code':>6} {'options':>8}"]
    lines += [f"{name:<20} {total:>+6} {code:>+6} {option:>+8}" for name, (total, code, option) in rows]
    return lines + [""] + one_side


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="DIR", help="another copy of src/preference_chain")
    args = parser.parse_args(argv)
    if args.against is not None:
        if not any(args.against.glob("*.py")):
            parser.error(f"--against {args.against} holds no .py files")
        print("\n".join(compare(SRC, args.against)))
        return
    texts = _texts(SRC)
    rows = [(name, count(text)) for name, text in texts.items()]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    print(f"{'file':<20} {'total':>6} {'code':>6} {'doc':>6} {'comment':>8} {'options':>8}")
    for name, (total, code, docs, comments, option_count) in rows:
        print(f"{name:<20} {total:>6} {code:>6} {docs:>6} {comments:>8} {option_count:>8}")
    print()
    for name, text in texts.items():
        for line, option in options(ast.parse(text)):
            print(f"{name}:{line} {option}")


if __name__ == "__main__":
    main()
