"""Print the physical and code lines of the calmeasures package.

Usage: python scripts/line_count.py

Physical lines are every line of every .py file.  Code lines exclude blank
lines, comment lines and the lines of docstrings (the string that opens a
module, class or function body).  Prints one line per file, then the
totals; the package's size goal is stated in these two numbers.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "calmeasures"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The numbers of the lines that docstrings span in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """The physical and code lines of one module's source."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main() -> int:
    total = [0, 0]
    for path in sorted(PACKAGE.rglob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{path.relative_to(PACKAGE)}: {physical} physical, "
              f"{code} code")
    print(f"{PACKAGE.name}: {total[0]} physical lines, {total[1]} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
