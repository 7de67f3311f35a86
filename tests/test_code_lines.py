"""tools/code_lines.py on a canned source and canned counts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    def area(self, a,
             b):
        """Function docstring
        over two lines.
        """
        text = """a string that is no docstring
        counts on each line"""
        return (a *
                b)

    def side(self): """A docstring after the colon leaves the def line."""
'''


def test_counts_statement_lines_only():
    # import, class, two lines of def, two of the string, two of the
    # return, and the def before its one-line docstring
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_table_with_and_without_a_parent():
    change, parent = {"a.py": 10, "b.py": 5}, {"a.py": 12, "c.py": 3}
    assert [line.split() for line in code_lines.table(change, None)] == [
        ["module", "lines"], ["a.py", "10"], ["b.py", "5"], ["total", "15"]]
    assert [line.split() for line in code_lines.table(change, parent)] == [
        ["module", "parent", "change", "delta"], ["a.py", "12", "10", "-2"], ["b.py", "0", "5", "+5"],
        ["c.py", "3", "0", "-3"], ["total", "15", "15", "+0"]]


def test_working_tree_counts_every_module():
    counts = code_lines.working_tree_counts()
    assert {"_mat2.py", "jack.py", "verify.py"} <= counts.keys()
    assert all(count > 0 for count in counts.values())
