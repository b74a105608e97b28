"""Print the size of the ``docnmt`` package: source lines and settable values.

Settable values are the parameters with defaults (functions, methods and
lambdas, keyword-only ones included) plus the dataclass fields with
defaults.  Run from anywhere:

    python tools/src_size.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "docnmt"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else PACKAGE
    lines = values = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        values += settable_values(ast.parse(text, filename=str(path)))
    print(f"src_lines\t{lines}")
    print(f"settable_values\t{values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
