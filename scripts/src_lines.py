"""Count the lines of each module of src/hessmc: total, code, docs, blank.

Usage: python3 scripts/src_lines.py [SRC_DIR]

SRC_DIR defaults to src/hessmc beside this script's directory. Each line of
a module falls in one class:

- code: it holds a token (``tokenize``) other than a comment, a docstring or
  a newline; a line inside a string that is not a docstring is code;
- docs: otherwise, it holds a comment or is part of a docstring, that is a
  string statement that opens a module, class or function body (``ast``);
- blank: any other line.

The columns add up to the total, so a refactor's change of size is counted
the same way each time it is measured.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the module begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def classify(source: str) -> dict[str, int]:
    """Count a module's total, code, docs and blank lines."""
    lines = source.splitlines()
    code, docs = set(), set()
    docstrings = docstring_starts(ast.parse(source))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING
                                            and tok.start in docstrings):
            docs.update(span)
        elif tok.type not in SKIP:
            code.update(span)
    docs -= code
    return {"total": len(lines), "code": len(code), "docs": len(docs),
            "blank": len(lines) - len(code) - len(docs)}


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "hessmc"
    root = Path(argv[1]) if len(argv) > 1 else default
    columns = ("total", "code", "docs", "blank")
    print(f"{'module':<16}" + "".join(f"{c:>8}" for c in columns))
    totals = dict.fromkeys(columns, 0)
    for path in sorted(root.glob("*.py")):
        counts = classify(path.read_text())
        for c in columns:
            totals[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>8,}" for c in columns))
    print(f"{'total':<16}" + "".join(f"{totals[c]:>8,}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
