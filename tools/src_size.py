"""Print the size of the ``docnmt`` package: source lines, code lines,
settable values and command line options.

Code lines are the lines that hold code: not blank, not comment-only and
not inside a docstring (the first statement of a module, class or function
when it is a string).  Settable values are the parameters with defaults
(functions, methods and lambdas, keyword-only ones included) plus the
dataclass fields with defaults.  Command line options are the
(subcommand, option) pairs the parser from the package's
``cli.build_parser()`` accepts, ``-h`` excluded.  Run from anywhere:

    python tools/src_size.py [package_dir]

A directory without a ``cli.py`` is refused (exit 2) before anything is
counted.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import io
import sys
import tokenize
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


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str, tree: ast.AST) -> int:
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def cli_options(root: Path) -> int:
    sys.path.insert(0, str(root.parent))
    parser = importlib.import_module(f"{root.name}.cli").build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sum(bool(a.option_strings)
               and not isinstance(a, argparse._HelpAction)
               for p in sub.choices.values() for a in p._actions)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Print the size of a package like docnmt.")
    parser.add_argument("package_dir", nargs="?", type=Path, default=PACKAGE,
                        help=f"the package directory (default: {PACKAGE})")
    root = parser.parse_args(argv).package_dir
    if not (root / "cli.py").is_file():
        parser.error(f"{root} has no cli.py: not a package directory")
    lines = code = values = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        lines += len(text.splitlines())
        code += code_lines(text, tree)
        values += settable_values(tree)
    print(f"src_lines\t{lines}")
    print(f"code_lines\t{code}")
    print(f"settable_values\t{values}")
    print(f"cli_options\t{cli_options(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
