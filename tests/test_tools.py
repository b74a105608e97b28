"""The repository tools, run as scripts on small inputs with known answers."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# code lines, settable values and command line options are marked per line:
# C for a code line, S<n> for n settable values on it, O<n> for n (subcommand,
# option) pairs
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
    "cli.py": '''import argparse  # C


def build_parser():  #                                         C
    parser = argparse.ArgumentParser()  # -h and a top-level   C
    parser.add_argument("--top")  # option are no pairs        C
    sub = parser.add_subparsers()  #                           C
    one = sub.add_parser("one")  # its -h is no pair           C
    one.add_argument("--a", "-a")  #                           C O1
    one.add_argument("--b")  #                                 C O1
    one.add_argument("name")  # a positional is no option      C
    sub.add_parser("two").add_argument("--a")  #               C O1
    return parser  #                                           C
''',
}


def test_src_size_counts_lines_code_lines_and_settable_values(tmp_path):
    package = tmp_path / "pkg"
    for name, text in PACKAGE.items():
        (package / name).parent.mkdir(parents=True, exist_ok=True)
        (package / name).write_text(text, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOLS / "src_size.py"),
                          str(package)], capture_output=True, text=True,
                         check=True).stdout
    counts = dict(line.split("\t") for line in out.splitlines())
    assert counts == {"src_lines": "40", "code_lines": "25",
                      "settable_values": "4", "cli_options": "3"}


def test_pool_check_translates_the_first_pool_document():
    """The first pool document, greedy and beam 4, equals pool.json."""
    proc = subprocess.run([sys.executable, str(TOOLS / "pool_check.py"),
                           "--docs", "1"], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ("0 of 8 pool sentences differ from pool.json "
                           "(1 documents, greedy and beam 4)\n")


def test_stage_check_prints_one_line_per_stage_and_repeats_itself():
    """Two runs on 4 documents print the same line for each stage: its
    three losses as float.hex and the sha256 of its parameters."""
    runs = [subprocess.run([sys.executable, str(TOOLS / "stage_check.py"),
                            "--docs", "4"], capture_output=True, text=True,
                           timeout=300, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    lines = [line.split("\t") for line in runs[0].splitlines()]
    assert [line[0] for line in lines] == ["base", "han-encoder",
                                           "han-decoder", "han-joint", "copy"]
    for _, val, train, params in lines:
        assert len(val.split()) == 3 and len(train.split()) == 2
        assert all(float.fromhex(v) > 0 for v in val.split()[1:])
        assert len(params.split()[1]) == 64
