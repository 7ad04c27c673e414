"""Print the lines and code lines of each module under a source directory.

A code line is one that holds a token of code: blank lines, comment-only
lines and the lines of docstrings (the leading string of a module, class
or function) are not counted.  The output is a Markdown table, one row per
module and a total row, so CI can append it to its job summary:

    python tools/src_lines.py src/sle_dyson >> "$GITHUB_STEP_SUMMARY"
"""

import ast
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: pathlib.Path) -> tuple[int, int]:
    """(lines, code lines) of the Python file at ``path``."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(root: str) -> None:
    rows = [(p.name, *count(p))
            for p in sorted(pathlib.Path(root).glob("*.py"))]
    print(f"| `{root}` module | lines | code lines |")
    print("|---|---:|---:|")
    for name, lines, code in rows:
        print(f"| {name} | {lines:,} | {code:,} |")
    print(f"| total | {sum(r[1] for r in rows):,} | "
          f"{sum(r[2] for r in rows):,} |")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/sle_dyson")
