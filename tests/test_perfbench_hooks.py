"""The benchmark in ``perfbench/`` measures docnmt from outside: its traced
run replaces functions by name and reads the sizes of some of their
arguments (``len`` of the second positional argument of
``hierarchical_context`` and of ``DocModel.decode_states``).  A hook whose
target was renamed is skipped and its metrics read 0, so these checks keep
the program and the benchmark's hooks in step."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from docnmt.model import transformer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_finds_its_target():
    layertrace = _layertrace()
    original = transformer.multi_head_attention
    tracer = layertrace.Tracer()
    try:
        missing = layertrace.instrument(tracer)
        assert transformer.multi_head_attention is not original
    finally:
        tracer.uninstall()
    assert missing == []
    assert transformer.multi_head_attention is original


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
