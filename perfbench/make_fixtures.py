#!/usr/bin/env python3
"""Regenerate the benchmark's fixtures from docnmt's seeded pipeline.

    python3 perfbench/make_fixtures.py [--work DIR]

1. Runs the synthetic experiment (``run_experiment``, seed 0, toy profile)
   in DIR (default ``perfbench/out/experiment``); about 9 minutes on one
   core.  A finished run already in DIR (its ``run_manifest.json`` exists)
   is reused.
2. Copies the copy-stage checkpoint and the vocabulary into ``fixtures/``.
3. Draws the decode pool, ``POOL_DOCS`` synthetic documents from their own
   seed, and stores their reference translations, the concept lexicon and
   the copy model's greedy and beam-4 translation of every pool document.
   A decode run's seed picks and orders pool documents, so the default
   seed, a held-out seed and every other seed are checked against these
   outputs.
4. Writes ``SHA256SUMS``, which ``run.py`` checks at every set-up.

Every step is deterministic: rerunning it writes the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sibling module; adds src/ to the path below)

EXPERIMENT_SEED = 0
POOL_DOCS = 200
POOL_SEED = 20201013
FIXTURE_FILES = ("copy.ckpt", "vocab.json", "pool.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", type=Path, default=run.OUT / "experiment")
    args = ap.parse_args(argv)
    run.import_docnmt()
    from docnmt.checkpoint import load_checkpoint
    from docnmt.cli import PROFILE_TOY, run_experiment
    from docnmt.corpus import (generate_synthetic_cohesion_corpus,
                               load_vocab_pair)
    from docnmt.decoding import SearchConfig, translate_document
    from docnmt.model import DocModel

    work = args.work
    if not (work / "run_manifest.json").is_file():
        run_experiment(work, EXPERIMENT_SEED, dict(PROFILE_TOY))
    run.FIXTURES.mkdir(exist_ok=True)
    shutil.copyfile(work / "checkpoints" / "copy.ckpt",
                    run.FIXTURES / "copy.ckpt")
    shutil.copyfile(work / "data" / "vocab.json", run.FIXTURES / "vocab.json")

    sv, tv = load_vocab_pair(run.FIXTURES / "vocab.json")
    store, cfg, _ = load_checkpoint(run.FIXTURES / "copy.ckpt")
    model = DocModel(cfg, store)
    corpus, lexicon = generate_synthetic_cohesion_corpus(
        n_docs=POOL_DOCS, doc_len=run.DOC_LEN, n_concepts=run.N_CONCEPTS,
        seed=POOL_SEED)
    pool = {"pool_seed": POOL_SEED, "lexicon": lexicon.pairs,
            "source": [], "reference": [], "greedy": [], "beam4": []}
    for doc in corpus.documents:
        ids = [sv.encode(src) for src, _ in doc]
        pool["source"].append([" ".join(src) for src, _ in doc])
        pool["reference"].append([" ".join(tgt) for _, tgt in doc])
        for key, width in (("greedy", 1), ("beam4", 4)):
            outs, _ = translate_document(model, ids, "copy",
                                         SearchConfig(width=width))
            pool[key].append([" ".join(tv.decode(o)) for o in outs])
    (run.FIXTURES / "pool.json").write_text(
        json.dumps(pool, indent=1) + "\n", encoding="utf-8")

    lines = [f"{hashlib.sha256((run.FIXTURES / n).read_bytes()).hexdigest()}"
             f"  {n}" for n in FIXTURE_FILES]
    (run.FIXTURES / "SHA256SUMS").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
