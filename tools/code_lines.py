"""Print the code lines of each module of src/equiloc and their total: the
lines that are not blank, not comments and not module, class or function
docstrings.  Run from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equiloc"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6} {path.name}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main()
