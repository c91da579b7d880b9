"""The statements of the privexp functions that no test runs.

Runs pytest in this process with a line tracer set by sys.settrace and
threading.settrace, so trials run on pool threads are seen too, then prints
`module:line: source` for each statement inside a function of the package
that never ran. Docstrings, `global` statements and functions whose def line
carries `# pragma: no cover` are not counted; statements outside functions
run at import and are not counted either. Tests that run the package in a
subprocess (the demos, the console entry) are not seen, so what only they
run is printed as not run. Standard library and pytest only.

    python3 tools/uncovered.py [PACKAGE_DIR [PYTEST_ARGS...]]

PACKAGE_DIR defaults to src/privexp, and its parent directory goes first on
sys.path; pytest reads its arguments and configuration as usual. The exit
status is 1 when a statement is printed, else 0.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

_PRAGMA = "# pragma: no cover"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def function_statements(source: str) -> list:
    """The statements inside the functions of source, as nodes, without
    docstrings, global statements and functions marked no cover."""
    lines = source.splitlines()
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS) and _PRAGMA in lines[child.lineno - 1]:
                continue
            docstring = (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if in_function and isinstance(child, ast.stmt) and not (
                    docstring or isinstance(child, ast.Global)):
                found.append(child)
            visit(child, in_function or isinstance(child, _FUNCTIONS))

    visit(ast.parse(source), False)
    return found


def run_traced(package: Path, pytest_args: list) -> set:
    """Run pytest with pytest_args; return the (file, line) pairs run in the
    files of package, file names absolute."""
    prefix = str(package.resolve()) + os.sep
    inside = {}  # co_filename -> its absolute name, or None outside package
    hits = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((inside[frame.f_code.co_filename], frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.abspath(name)
            inside[name] = path if path.startswith(prefix) else None
        return trace_lines if inside[name] else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return hits


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "privexp"
    sys.path.insert(0, str(package.resolve().parent))
    hits = run_traced(package, argv[1:])
    missed = []
    for path in sorted(package.resolve().glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = {line for name, line in hits if name == str(path)}
        for node in function_statements(source):
            if ran.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                missed.append(f"{path.name}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print("\n".join(missed) if missed else "every function statement ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
