"""Count the code lines of each module of ``src/jackdiv``.

    python3 tools/code_lines.py [--parent REF]

Run it from anywhere inside the repository.  A code line holds part of a
statement: blank lines, lines holding only a comment and the lines of a
docstring (of a module, class or function) do not count, and every line of
a statement written over several lines does.  It prints one line per module
and the total for the working tree; with ``--parent`` also the counts of
that commit's modules (read with ``git show``) and the change.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/jackdiv"

# tokens that lay out a file without being part of a statement
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of a statement
    other than a docstring."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def working_tree_counts() -> dict[str, int]:
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def parent_counts(ref: str) -> dict[str, int]:
    names = [Path(p).name for p in _git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
             if p.endswith(".py")]
    return {name: code_lines(_git("show", f"{ref}:{PACKAGE}/{name}")) for name in sorted(names)}


def table(change: dict[str, int], parent: dict[str, int] | None) -> list[str]:
    """One line per module and a total line: the count, or with ``parent``
    the parent's count, the change's and the difference (a module absent on
    one side counts 0 there)."""
    names = sorted(set(change) | set(parent or {}))
    rows = [(name, [change.get(name, 0)] if parent is None else
             [parent.get(name, 0), change.get(name, 0), change.get(name, 0) - parent.get(name, 0)])
            for name in names]
    rows.append(("total", [sum(column) for column in zip(*(values for _, values in rows))]))
    head = ["module", "lines"] if parent is None else ["module", "parent", "change", "delta"]
    width = max(len(name) for name, _ in rows + [(head[0], None)])
    lines = [head[0].ljust(width) + "".join(h.rjust(8) for h in head[1:])]
    for name, values in rows:
        cells = [f"{v:+d}" if parent is not None and i == 2 else str(v) for i, v in enumerate(values)]
        lines.append(name.ljust(width) + "".join(c.rjust(8) for c in cells))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="also count this commit's modules, with the change")
    args = parser.parse_args()
    print("\n".join(table(working_tree_counts(), parent_counts(args.parent) if args.parent else None)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
