"""Print the two size figures of a checkout's package: the line count of
src/vectorhost/*.py (as `wc -l` counts them) and its parameters with
defaults (positional and keyword-only, of every def and lambda, by `ast`).

    python tools/size.py ROOT

ROOT is the checkout's root directory.  The figures are informational: the
script exits 0 whenever it can read and parse the files.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def size(root: Path) -> tuple[int, int]:
    """(lines, parameters with defaults) of root/src/vectorhost/*.py."""
    lines = defaults = 0
    for path in sorted((root / "src" / "vectorhost").glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.arguments):
                defaults += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
    return lines, defaults


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    lines, defaults = size(Path(argv[0]))
    print(f"{argv[0]}: {lines} lines in src/vectorhost, {defaults} parameters with defaults")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
