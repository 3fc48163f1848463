"""Print the two sizes of ``src/`` that ROADMAP.md tracks.

Run from anywhere:

    python3 tools/src_lines.py

The first number is the physical line count of every ``.py`` file under
``src/``.  The second counts code lines: distinct lines on which a token
starts, leaving out comments, docstrings and the layout tokens (line ends,
indents).  It prints both totals first, then both counts of each file,
and sets no threshold.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            string = node.body[0].value
            starts.add((string.lineno, string.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(ast.parse(source))
    return len({tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type not in _LAYOUT and tok.start not in docstrings})


def main() -> None:
    paths = sorted(SRC.rglob("*.py"))
    counts = [(len(source.splitlines()), code_lines(source))
              for source in (path.read_text(encoding="utf-8") for path in paths)]
    print(f"src/ lines: {sum(lines for lines, _ in counts)}")
    print(f"src/ code lines: {sum(code for _, code in counts)}")
    for path, (lines, code) in zip(paths, counts):
        print(f"{path.relative_to(SRC.parent)}: {lines} lines, {code} code lines")


if __name__ == "__main__":
    main()
