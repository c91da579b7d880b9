"""tools/count_lines.py counts code lines without docstrings, comments and
blank lines."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps the line


class A:
    """Class docstring."""

    # a comment line
    x = ("a string that is not a docstring,"
         "on two lines")

    def f(self):
        """Function
        docstring."""
        return math.pi
'''


def test_counts_code_lines_only():
    # import, class, the two lines of x, def, return
    assert count_lines.code_lines(SOURCE) == 6


def test_prints_a_row_per_module_and_the_totals(capsys, tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "17", "6"],
                    ["b.py", "3", "1"], ["total", "20", "7"]]


def test_against_prints_both_revisions_and_the_code_difference(capsys, tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").write_text("# gone later\ny = 2\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").unlink()
    (package / "c.py").write_text("z = 3\n\n")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    assert count_lines.main([str(package), "--against", "HEAD~1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["at", "HEAD~1", "now"],
                    ["module", "lines", "code", "lines", "code", "diff"],
                    ["a.py", "1", "1", "17", "6", "+5"],
                    ["b.py", "2", "1", "-", "-", "-1"],
                    ["c.py", "-", "-", "2", "1", "+1"],
                    ["total", "3", "2", "19", "7", "+5"]]
