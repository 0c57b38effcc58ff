"""tools/code_lines.py on a small fixture module."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return (1 +
                2)
'''


def test_counts_fixture():
    # code: import, class, x = (2 lines), def, return (2 lines)
    assert code_lines.count(FIXTURE) == (17, 7)


def test_main_prints_modules_and_totals(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["module", "lines", "code"], ["a.py", "2", "1"], ["b.py", "17", "7"],
        ["total", "19", "8"]]


def test_empty_directory_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="no"):
        code_lines.main([str(tmp_path)])
