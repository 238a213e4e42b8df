"""`tools/code_lines.py` counts the lines that hold code: not comments,
blank lines or docstrings."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
X = 1  # a trailing comment


def f(a):
    """Function docstring."""
    return (a +
            X)


class C:
    """Class docstring."""
    text = """a string that is
not a docstring"""
'''


def test_counts_code_not_comments_blanks_or_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # X = 1, def f, the two lines of return, class C, the two lines of text
    assert code_lines.code_lines(path) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    # code lines, then source bytes: the sample's 242 bytes, docstrings,
    # comments and blank lines included
    path = tmp_path / "sample.py"
    path.write_bytes(SAMPLE.encode())
    assert len(SAMPLE.encode()) == 242
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sample.py      7      242",
        "sample.py      7      242",
        "total         14      484"]
