"""Line counts of the privexp modules, standard library only.

For each module of the package, prints its total lines and its code lines:
the lines that hold a token outside comments and docstrings, so blank
lines, comment lines and docstrings (module, class and function) are not
code. The last row sums the columns.

    python3 tools/count_lines.py [PACKAGE_DIR]   # default: src/privexp
    python3 tools/count_lines.py [PACKAGE_DIR] --against REV

With --against, each row gives the module's lines and code at the git
revision REV first (read with git show; '-' where the module is absent
there), then its current counts, then the difference in code lines.
"""

import argparse
import ast
import io
import subprocess
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


def counts(source: str) -> tuple:
    """(lines, code lines) of source."""
    return len(source.splitlines()), code_lines(source)


def counts_at(package: Path, rev: str) -> dict:
    """Module name -> counts of the modules of package at git revision rev."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=package, capture_output=True,
                              text=True, check=True).stdout
    names = [n for n in git("ls-tree", "--name-only", rev, "./").splitlines()
             if n.endswith(".py")]
    return {n: counts(git("show", f"{rev}:./{n}")) for n in names}


def _sums(rows: dict) -> tuple:
    return sum(r[0] for r in rows.values()), sum(r[1] for r in rows.values())


def main(argv: list) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "privexp")
    parser.add_argument("--against", metavar="REV")
    args = parser.parse_args(argv)
    now = {p.name: counts(p.read_text()) for p in args.package.glob("*.py")}
    if args.against is None:
        print(f"{'module':<18}{'lines':>7}{'code':>7}")
        for name, (total, code) in [*sorted(now.items()), ("total", _sums(now))]:
            print(f"{name:<18}{total:>7}{code:>7}")
        return 0
    try:
        was = counts_at(args.package, args.against)
    except subprocess.CalledProcessError as exc:
        sys.exit(f"count_lines: {exc.stderr.strip()}")
    print(f"{'':<18}{'at ' + args.against:>14}{'now':>14}")
    print(f"{'module':<18}{'lines':>7}{'code':>7}{'lines':>7}{'code':>7}{'diff':>7}")
    rows = [(n, was.get(n), now.get(n)) for n in sorted(was.keys() | now.keys())]
    for name, old, new in [*rows, ("total", _sums(was), _sums(now))]:
        diff = (new or (0, 0))[1] - (old or (0, 0))[1]
        cells = [*(old or ("-", "-")), *(new or ("-", "-"))]
        print(f"{name:<18}" + "".join(f"{c:>7}" for c in cells) + f"{diff:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
