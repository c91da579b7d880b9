"""tools/count_lines.py counts code lines without docstrings, comments and
blank lines."""

import importlib.util
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
