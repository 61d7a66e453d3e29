"""Print the size figures of a checkout's package: the line count of
src/vectorhost/*.py (as `wc -l` counts them) and its parameters with
defaults (positional and keyword-only, of every def and lambda, by `ast`),
then its three longest functions with their lines, `def` to last line.

    python tools/size.py ROOT

ROOT is the checkout's root directory.  The figures are informational: the
script exits 0 whenever it can read and parse the files.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

LONGEST = 3


def _functions(node, prefix: str):
    """(qualified name, lines) of each function under node, methods and
    nested functions named after what holds them."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child.end_lineno - child.lineno + 1
        yield from _functions(child, name)


def size(root: Path) -> tuple[int, int, list[tuple[str, int]]]:
    """(lines, parameters with defaults, the LONGEST longest functions) of
    root/src/vectorhost/*.py."""
    lines = defaults = 0
    functions = []
    for path in sorted((root / "src" / "vectorhost").glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        tree = ast.parse(text)
        functions += _functions(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                defaults += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
    return lines, defaults, sorted(functions, key=lambda f: (-f[1], f[0]))[:LONGEST]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    lines, defaults, longest = size(Path(argv[0]))
    print(f"{argv[0]}: {lines} lines in src/vectorhost, {defaults} parameters with defaults")
    print(f"{argv[0]}: longest functions " + ", ".join(f"{name} {n}" for name, n in longest))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
