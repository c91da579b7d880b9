"""tools/uncovered.py prints the function statements no test ran."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"
spec = importlib.util.spec_from_file_location("uncovered", TOOL)
uncovered = importlib.util.module_from_spec(spec)
spec.loader.exec_module(uncovered)

MODULE = '''"""A fixture module."""

import threading

CALLS = 0


def used(x):
    """Counts its calls."""
    global CALLS
    CALLS += 1
    if x > 0:
        return x
    return -x


def helper():
    return 1


def in_thread():
    result = []
    thread = threading.Thread(target=lambda: result.append(helper()))
    thread.start()
    thread.join()
    return result


def never(x):
    total = (x
             + 1)
    return total


def skipped():  # pragma: no cover
    return 3
'''

TESTS = '''from uncovered_fixture import mod


def test_used():
    assert mod.used(2) == 2
    assert mod.in_thread() == [1]
'''


def test_statements_are_those_inside_functions():
    lines = [node.lineno for node in uncovered.function_statements(MODULE)]
    # not the docstrings, the global statement or the function marked no cover
    assert lines == [11, 12, 13, 14, 18, 22, 23, 24, 25, 26, 30, 32]


def test_prints_the_statements_no_test_ran(capsys, tmp_path, monkeypatch):
    package = tmp_path / "uncovered_fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "test_uncovered_fixture.py").write_text(TESTS)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "uncovered_fixture", raising=False)
    monkeypatch.delitem(sys.modules, "uncovered_fixture.mod", raising=False)
    previous = sys.gettrace()
    # helper runs on a thread only, and the global statement never as a line
    assert uncovered.main([str(package), "-q", "-p", "no:cacheprovider",
                           str(tmp_path / "test_uncovered_fixture.py")]) == 1
    assert sys.gettrace() is previous
    out = capsys.readouterr().out.splitlines()
    assert "1 passed" in out[-4]
    assert out[-3:] == ["mod.py:14: return -x", "mod.py:30: total = (x",
                        "mod.py:32: return total"]
