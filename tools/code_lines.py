"""Count the code lines of the emseg package, per module and in total.

A code line is a line that holds a token of code: comments, blank lines
and docstrings (a string that is a statement of its own at the start of a
module, class or function body) are left out.  Run from anywhere:

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/emseg beside this file's directory.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source):
    """The line numbers the docstrings of source span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source text."""
    docstrings = _docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(n for n in range(token.start[0], token.end[0] + 1)
                         if n not in docstrings)
    return len(lines)


def main(argv):
    package = (Path(argv[0]) if argv else
               Path(__file__).resolve().parents[1] / "src" / "emseg")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%-12s %5d" % (path.stem, n))
    print("%-12s %5d" % ("total", total))


if __name__ == "__main__":
    main(sys.argv[1:])
