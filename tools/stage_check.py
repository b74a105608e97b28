"""Train one epoch of every stage and print what it computed.

Each stage (base, han-encoder, han-decoder, han-joint, copy) runs one
epoch, dropout on, on a small seeded synthetic corpus; base starts from
initialization, the others from the copy checkpoint of
``perfbench/fixtures/``, which is only read.  Per stage it prints one line:
the validation losses of epochs 0 and 1 and the training loss of epoch 1
as ``float.hex``, then a sha256 over every parameter's name and bytes.  Two
commits on one host that train alike print the same lines, so ``diff``
compares them, as ``tools/pool_check.py`` does for decoding.  Run from
anywhere:

    python tools/stage_check.py [--docs N]

The default 12 documents take about half a second on a 2-core x86-64
host; their losses are the ``PINNED_LOSSES`` of
``tests/test_training.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "perfbench" / "fixtures"


def stage_run(stage: str, n_docs: int):
    """One epoch of ``stage`` on ``n_docs`` seeded documents (4 sentences
    each), from the fixture checkpoint or, for base, from initialization
    at its config."""
    import numpy as np

    from docnmt.checkpoint import load_checkpoint
    from docnmt.corpus import (generate_synthetic_cohesion_corpus,
                               load_vocab_pair)
    from docnmt.model import build_params
    from docnmt.training import TrainConfig, run_stage

    sv, tv = load_vocab_pair(FIXTURES / "vocab.json")
    corpus, _ = generate_synthetic_cohesion_corpus(
        n_docs=n_docs, doc_len=4, n_concepts=10, seed=5)
    store, cfg, groups = load_checkpoint(FIXTURES / "copy.ckpt")
    if stage == "base":
        store, groups = build_params(cfg, np.random.default_rng([3, 11])), ()
    return run_stage((store, cfg, set(groups)), corpus, sv, tv,
                     TrainConfig(stage=stage, epochs=1, lr=1e-3, seed=3,
                                 val_fraction=0.25))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=12,
                    help="documents in the corpus (default 12)")
    args = ap.parse_args(argv)
    if args.docs < 2:
        ap.error(f"--docs must be >= 2, got {args.docs}")
    sys.path.insert(0, str(ROOT / "src"))
    from docnmt.training import STAGES

    for stage in STAGES:
        result = stage_run(stage, args.docs)
        digest = hashlib.sha256()
        for name, t in result.store.items():
            digest.update(name.encode())
            digest.update(t.data.tobytes())
        val = " ".join(h.val_loss.hex() for h in result.history)
        print(f"{stage}\tval {val}\ttrain {result.history[1].train_loss.hex()}"
              f"\tparams {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
