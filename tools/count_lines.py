"""Line counts of the privexp modules, standard library only.

For each module of the package, prints its total lines and its code lines:
the lines that hold a token outside comments and docstrings, so blank
lines, comment lines and docstrings (module, class and function) are not
code. The last row sums the columns.

    python3 tools/count_lines.py [PACKAGE_DIR]   # default: src/privexp
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "privexp"
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<18}{'lines':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<18}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
