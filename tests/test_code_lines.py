"""The code-line counter that CI quotes: docstrings, comments and blank lines do not count."""

from pathlib import Path

from code_lines import code_lines, report

_MODULE = '''"""Module docstring,
over two lines."""

# a comment
X = (1,
     2)  # a trailing comment


def f():
    """One line."""
    return """a string
that is code"""
'''


def test_a_code_line_holds_a_token_outside_every_docstring(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(_MODULE)
    assert code_lines(path) == 5  # X's two lines, def, and the return's two
    assert code_lines(tmp_path / "missing.py") == 0


def test_a_tree_against_itself_moves_no_line():
    root = Path(__file__).resolve().parents[1]
    text = report(root, root)
    assert text.startswith("Net `src/protoselect/*.py` code-line delta")
    assert ": +0." in text and "| `kernel.py` |" in text
    assert all(line.endswith("| +0 |") for line in text.splitlines()[4:])
