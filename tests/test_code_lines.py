"""tools/code_lines.py, the code-line count quoted for every simplification:
docstrings, comment-only and blank lines do not count, and a token spanning
several lines counts on each of them."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
import os  # a trailing comment does not hide the code before it


class Point:
    'A class docstring.'
    origin = (0,
              0)


def describe():
    """A function docstring."""

    text = """a string
spanning three
lines"""
    return os.sep + text
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import 1, class 1, origin 2, def 1, text 3, return 1
    assert code_lines.code_lines(path) == 9


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["9", "1", "10"]
