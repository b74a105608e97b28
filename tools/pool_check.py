"""Translate the benchmark's decode pool and compare it with the stored
translations.

The copy checkpoint of ``perfbench/fixtures/`` translates the first N
source documents of ``pool.json`` (all of them by default) greedily and
with beam 4, as ``perfbench/make_fixtures.py`` made the stored outputs.
Every sentence is compared word for word with its stored translation.
Prints the number of mismatched sentences, and the first few of them, and
exits 1 on any mismatch.  The fixtures are only read.  Run from anywhere:

    python tools/pool_check.py [--docs N]

All 200 documents take about 13 seconds on one core of a 2-core x86-64
host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "perfbench" / "fixtures"
WIDTHS = {"greedy": 1, "beam4": 4}
SHOWN = 5                       # mismatches printed in full


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=None,
                    help="check only the first N pool documents")
    args = ap.parse_args(argv)
    if args.docs is not None and args.docs < 1:
        ap.error(f"--docs must be >= 1, got {args.docs}")
    sys.path.insert(0, str(ROOT / "src"))
    from docnmt.checkpoint import load_checkpoint
    from docnmt.corpus import load_vocab_pair
    from docnmt.decoding import SearchConfig, translate_document
    from docnmt.model import DocModel

    sv, tv = load_vocab_pair(FIXTURES / "vocab.json")
    store, cfg, _ = load_checkpoint(FIXTURES / "copy.ckpt")
    model = DocModel(cfg, store)
    pool = json.loads((FIXTURES / "pool.json").read_text(encoding="utf-8"))
    sources = pool["source"][:args.docs]
    n_sentences, mismatches = 0, []
    for d, doc in enumerate(sources):
        ids = [sv.encode(s.split()) for s in doc]
        for mode, width in WIDTHS.items():
            outs, _ = translate_document(model, ids, "copy",
                                         SearchConfig(width=width))
            wants = pool[mode][d]
            for s, (out, want) in enumerate(zip(outs, wants, strict=True)):
                n_sentences += 1
                if tv.decode(out) != want.split():
                    mismatches.append(f"doc {d} sentence {s} {mode}: "
                                      f"{' '.join(tv.decode(out))!r}, "
                                      f"pool.json has {want!r}")
    print("\n".join(mismatches[:SHOWN] + [
        f"{len(mismatches)} of {n_sentences} pool sentences differ from "
        f"pool.json ({len(sources)} documents, greedy and beam 4)"]))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
