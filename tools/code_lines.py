"""Count each module's lines and its code lines.

    python3 tools/code_lines.py [SRC]

SRC is a directory (default: the repository's `src/semvb`). For every
`*.py` file under it, in sorted order, one line gives the path relative to
SRC, the file's total lines and its code lines; a last line gives the
totals. A code line holds some token other than a comment; blank lines,
comment lines and the lines of docstrings (the string that opens a module,
class or function body) are not code.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", nargs="?", default=str(ROOT / "src" / "semvb"))
    src = Path(p.parse_args(argv).src)
    files = sorted(src.rglob("*.py"))
    if not files:
        raise SystemExit(f"error: no *.py files under {src}")
    rows = [(str(f.relative_to(src)), *count(f.read_text())) for f in files]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
