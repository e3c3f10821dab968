#!/usr/bin/env python3
"""Print the line counts of each ``src/`` module of a checkout.

    python3 tools/line_counts.py CHECKOUT [BASE_CHECKOUT]

One line per module under ``CHECKOUT/src`` gives its total lines (what
``wc -l`` counts) and its code lines: the lines that hold a token other
than a comment, with docstrings and blank lines left out.  A docstring is
the string that opens a module, class or function body.  The last line,
``all``, gives the sums.  With a base checkout, each module of either
checkout is printed with both counts, base first, as ``total base -> head,
code base -> head``; a module that one checkout lacks reads 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def modules(checkout: Path) -> dict[str, tuple[int, int]]:
    """{path under src: (total lines, code lines)} for each module of a checkout."""
    src = checkout / "src"
    return {str(path.relative_to(src)): counts(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("base", type=Path, nargs="?")
    args = parser.parse_args(argv)
    head = modules(args.checkout)
    if args.base is None:
        for name, (total, code) in [*head.items(), ("all", tuple(map(sum, zip(*head.values()))))]:
            print(f"{name} total={total} code={code}")
        return 0
    base = modules(args.base)
    names = sorted(base.keys() | head.keys())
    rows = [(name, base.get(name, (0, 0)), head.get(name, (0, 0))) for name in names]
    rows.append(("all", tuple(map(sum, zip(*base.values()))), tuple(map(sum, zip(*head.values())))))
    for name, (bt, bc), (ht, hc) in rows:
        print(f"{name} total {bt} -> {ht}, code {bc} -> {hc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
