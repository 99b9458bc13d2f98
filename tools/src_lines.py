"""Count the lines of the package's modules: total lines and code lines.

Code lines are the non-blank lines that are not comments and lie outside
docstrings (module, class and function docstrings, found with ``ast``).
Prints one line per module and a total for the whole directory.

Usage: python tools/src_lines.py [DIRECTORY]   (default: src/)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total lines, code lines)`` of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    docstrings = _docstring_lines(ast.parse(text))
    code = sum(
        1 for number, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path)
        total, code = total + lines, code + code_lines
        print(f"{lines:6d} {code_lines:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {code:6d}  total ({root})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
