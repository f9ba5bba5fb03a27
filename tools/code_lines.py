"""Count the code lines of the `vriwae` package, per module and in total.

A code line is a non-blank line that holds a token other than a comment and
lies outside every docstring (of a module, class or function).  Tokens come
from `tokenize`, docstrings from `ast`; a token that spans lines, such as a
multi-line string, counts on each non-blank line it covers.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/vriwae next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

# tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if text[n - 1].strip())
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0]) if args else (
        pathlib.Path(__file__).resolve().parents[1] / "src" / "vriwae")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<20} {n:>6}")
    print(f"{'total':<20} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
