#!/usr/bin/env python3
"""Print the code lines of every module of the tieset package, then their total.

Usage: scripts/code_lines.py [checkout]

A code line is a line of <checkout>/src/tieset/*.py (default: the checkout
holding this script) that is not blank, not a comment only, and not inside
a module, class or function docstring.  A line inside any other string,
such as a multi-line message or an attribute's docstring, counts unless it
is blank.  Prints one "count  name" line per module in name order, then
"count  total".

Compare two commits by running it on a second copy of the tree, e.g.
  git archive <commit> | tar -x -C /tmp/old && scripts/code_lines.py /tmp/old
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code, as the module docstring says."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(argv: list[str]) -> int:
    checkout = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    total = 0
    for module in sorted((checkout / "src" / "tieset").glob("*.py")):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d}  {module.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
