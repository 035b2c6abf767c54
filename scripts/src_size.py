#!/usr/bin/env python3
"""Print the size of the library source: lines, statements and tokens.

Usage: src_size.py [DIR]

Counts every ``*.py`` file under DIR (default: this checkout's ``src/``).  A DIR that
does not exist or holds no ``*.py`` file is a usage error (exit 2), not a size of zero.

- lines: newline characters, as ``cat src/beamtrack/*.py | wc -l`` counts them;
- statements: the statement nodes of the syntax tree, without docstrings;
- tokens: the tokens of Python's tokenizer, without comments, docstrings and
  layout (newlines, indents, dedents, end markers).

Reformatting moves the line count but neither of the other two.  The tokenizer of
Python 3.12 and later splits an f-string into several tokens, so compare token
counts made with the same Python version.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set:
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def measure(source: str) -> dict:
    """Lines, statements and tokens of one file's source."""
    tree = ast.parse(source)
    docs = docstring_starts(tree)
    statements = sum(isinstance(node, ast.stmt) and (node.lineno, node.col_offset) not in docs
                     for node in ast.walk(tree))
    tokens = sum(t.type not in LAYOUT and not (t.type == tokenize.STRING and t.start in docs)
                 for t in tokenize.generate_tokens(io.StringIO(source).readline))
    return {"lines": source.count("\n"), "statements": statements, "tokens": tokens}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    paths = sorted(args.dir.rglob("*.py"))
    if not paths:
        parser.error(f"no *.py file under {args.dir}")
    total = {"lines": 0, "statements": 0, "tokens": 0}
    for path in paths:
        for key, value in measure(path.read_text()).items():
            total[key] += value
    for key, value in total.items():
        print(f"{key} {value}")


if __name__ == "__main__":
    main()
