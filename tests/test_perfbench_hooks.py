"""The benchmark in ``perfbench/`` measures docnmt from outside: its traced
run replaces functions by name and reads the sizes of some of their
arguments (``len`` of the second positional argument of
``hierarchical_context`` and of ``DocModel.decode_states``).  A hook whose
target was renamed is skipped and its metrics read 0, so these checks keep
the program and the benchmark's hooks in step.  The benchmark also calls
docnmt's entry points with fixed arguments; ``test_benchmark_calls_bind``
checks those calls against the current signatures."""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from docnmt.checkpoint import load_checkpoint
from docnmt.cli import run_experiment
from docnmt.corpus import generate_synthetic_cohesion_corpus, load_vocab_pair
from docnmt.decoding import SearchConfig, translate_document
from docnmt.model import DocModel, ModelConfig, build_params, transformer
from docnmt.training import (TrainConfig, finetune_copy, split_corpus,
                              train_base)
from docnmt.util import derive_seed

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


# (callee, number of positional arguments, keyword names) of every call
# that perfbench/run.py and perfbench/make_fixtures.py make into docnmt
BENCHMARK_CALLS = [
    (TrainConfig, 0, ("stage", "epochs", "max_tokens", "max_len", "lr",
                      "warmup_steps", "lr_scale", "val_fraction", "seed")),
    (ModelConfig, 0, ("vocab_src", "vocab_tgt", "d_model", "n_layers",
                      "m_heads", "d_ff", "dropout", "label_smoothing",
                      "n_context", "max_len")),
    (build_params, 2, ()),
    (train_base, 5, ("init_store",)),
    (finetune_copy, 5, ()),
    (split_corpus, 3, ()),
    (translate_document, 4, ()),
    (run_experiment, 3, ()),
    (generate_synthetic_cohesion_corpus, 0,
     ("n_docs", "doc_len", "n_concepts", "seed")),
    (SearchConfig, 0, ("width",)),
    (DocModel, 2, ()),
    (load_checkpoint, 1, ()),
    (load_vocab_pair, 1, ()),
    (derive_seed, 2, ()),
]


def test_benchmark_calls_bind():
    arg = object()
    for callee, n_args, keywords in BENCHMARK_CALLS:
        inspect.signature(callee).bind(*[arg] * n_args,
                                       **dict.fromkeys(keywords, arg))
