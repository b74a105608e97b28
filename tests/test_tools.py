"""The repository tools, run as scripts on small inputs with known answers."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# code lines and settable values are marked per line: C for a code line,
# S<n> for n settable values on it
PACKAGE = {
    "a.py": '''"""Module docstring
over two lines."""

import os  # a trailing comment                                C


# a comment-only line
def f(x, y=1, *, z=2):  #                                      C S2
    """One-line docstring."""
    text = """a multi-line                                     C
string that is no docstring"""  #                              C
    return (x + y + z  #                                       C
            + len(text))  #                                    C


class C:  #                                                    C
    """Class docstring
    over two lines."""
    value: int = 3  # not a dataclass field                    C
''',
    "sub/b.py": '''from dataclasses import dataclass  # C


@dataclass  #                                                  C
class D:  #                                                    C
    a: int  #                                                  C
    b: int = 0  #                                              C S1
    c = lambda self, k=1: k  #                                 C S1
''',
}


def test_src_size_counts_lines_code_lines_and_settable_values(tmp_path):
    for name, text in PACKAGE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOLS / "src_size.py"),
                          str(tmp_path)], capture_output=True, text=True,
                         check=True).stdout
    counts = dict(line.split("\t") for line in out.splitlines())
    assert counts == {"src_lines": "27", "code_lines": "14",
                      "settable_values": "4"}
