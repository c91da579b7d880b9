"""tools/same_outputs.py reports each CLI argv whose results differ between
a git revision and the working tree."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

# A stand-in privexp.cli: prints its arguments and writes them to out.txt.
CLI = '''import sys
with open("out.txt", "w") as fh:
    fh.write(" ".join(sys.argv[1:]){change})
print(sys.argv[1:])
'''


def test_reports_the_one_argv_that_differs(capsys, tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)
    package = tmp_path / "src" / "privexp"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(CLI.format(change=""))
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    # the second writes another file for "b" and prints the same
    (package / "cli.py").write_text(CLI.format(change=' + ("!" if "b" in sys.argv else "")'))
    git("commit", "-q", "-am", "second")
    battery = [["a"], ["b"]]
    assert same_outputs.main(["HEAD~1", "--repo", str(tmp_path)], battery=battery) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs (written files): privexp b", "1 of 2 commands differ from HEAD~1"]
    assert same_outputs.main(["HEAD", "--repo", str(tmp_path)], battery=battery) == 0
