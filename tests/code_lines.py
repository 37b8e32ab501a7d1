"""Code lines of `src/protoselect/*.py` in two trees, per file and in total.

    python tests/code_lines.py BASE_ROOT HEAD_ROOT

prints a Markdown table of each module's code lines in both trees and their
difference, then the net delta. A code line is a physical line that holds a
token other than a comment, outside every module, class and function
docstring, so blank lines, comments and docstrings do not count. A module
missing from one tree counts 0 lines there.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The code lines of the module at path; 0 if it does not exist."""
    if not path.exists():
        return 0
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def report(base_root: Path, head_root: Path) -> str:
    """The Markdown table of every module of either tree, and the net delta."""
    base, head = (Path(root, "src", "protoselect") for root in (base_root, head_root))
    names = sorted({p.name for p in [*base.glob("*.py"), *head.glob("*.py")]})
    counts = {name: (code_lines(base / name), code_lines(head / name)) for name in names}
    total = sum(h - b for b, h in counts.values())
    rows = "".join(f"| `{name}` | {b} | {h} | {h - b:+d} |\n" for name, (b, h) in counts.items())
    return (f"Net `src/protoselect/*.py` code-line delta (no docstrings, comments or blank "
            f"lines): {total:+d}.\n\n| module | base | head | delta |\n|---|---|---|---|\n"
            + rows)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/code_lines.py BASE_ROOT HEAD_ROOT")
    print(report(Path(sys.argv[1]), Path(sys.argv[2])), end="")
