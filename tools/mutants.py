"""Statement-deletion mutation probe: which statements does no test notice?

Usage: python tools/mutants.py MODULE --tests FILE...

For example::

    python tools/mutants.py src/preference_chain/city.py \\
        --tests tests/test_city.py tests/test_mobility.py

Each statement inside a function body (docstrings and ``pass`` aside),
nested ones included, is replaced with ``pass``, one at a time, in a copy
of the module's source tree under a temporary directory: the directory
above MODULE's outermost package, or MODULE's own directory when it is
not in a package. The named test files run against each copy with
``pytest -x``, the copy first on ``PYTHONPATH`` and no plugin autoloaded. A mutant whose run passes
survived and is printed as ``file:line statement``; a run that fails,
times out or exceeds the memory cap killed it. The counts go to stderr.
A survivor is unneeded code or an untested rule. This is not a CI gate:
each mutant costs one test run.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_MEMORY = 2 << 30  # address-space cap per test run: a mutant that allocates in a loop fails fast


def statements(source: str) -> list[tuple[int, int, int, int]]:
    """(line, column, end line, end column) of each mutable statement, in source order.

    Columns are UTF-8 byte offsets, as ``ast`` gives them. A decorated
    definition starts at its first decorator.
    """
    spans = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if node is func or not isinstance(node, ast.stmt) or isinstance(node, ast.Pass):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # a docstring or a bare constant does nothing
            line = min(n.lineno for n in [node, *getattr(node, "decorator_list", [])])
            spans.add((line, node.col_offset, node.end_lineno, node.end_col_offset))
    return sorted(spans)


def mutate(source: str, span: tuple[int, int, int, int]) -> str:
    """``source`` with the statement at ``span`` replaced by ``pass``."""
    line, col, end_line, end_col = span
    lines = source.encode().splitlines(keepends=True)
    head = b"".join(lines[: line - 1]) + lines[line - 1][:col]
    tail = lines[end_line - 1][end_col:] + b"".join(lines[end_line:])
    return (head + b"pass" + tail).decode()


def source_root(module: Path) -> Path:
    """The directory above the module's outermost package."""
    root = module.resolve().parent
    while (root / "__init__.py").exists():
        root = root.parent
    return root


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY, _MEMORY))


def passes(tests: list[str], copy: Path, timeout: float) -> bool:
    """Whether the test files pass with ``copy`` first on the import path."""
    path = os.pathsep.join(filter(None, [str(copy), os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
        PYTEST_DISABLE_PLUGIN_AUTOLOAD="1",  # installed plugins cost a second per run
    )
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout, preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, metavar="MODULE", help="the .py file to mutate")
    parser.add_argument("--tests", nargs="+", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    source = args.module.read_text(encoding="utf-8")
    root = source_root(args.module)
    tests = [str(Path(t).resolve()) for t in args.tests]
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / args.module.resolve().relative_to(root)
        start = time.perf_counter()
        if not passes(tests, copy, timeout=None):
            parser.error("the tests fail on the unmutated source")
        timeout = 5 * (time.perf_counter() - start) + 5
        spans = statements(source)
        survivors = invalid = 0
        for span in spans:
            mutant = mutate(source, span)
            try:
                compile(mutant, str(target), "exec")
            except SyntaxError:
                invalid += 1
                continue
            target.write_text(mutant, encoding="utf-8")
            if passes(tests, copy, timeout):
                survivors += 1
                text = source.encode().splitlines()[span[0] - 1][span[1]:].decode().strip()
                print(f"{args.module}:{span[0]} {text}", flush=True)
    killed = len(spans) - invalid - survivors
    print(
        f"{len(spans)} mutants: {killed} killed, {survivors} survived, {invalid} not valid Python",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
