"""Print the peak traced memory of one training epoch of every stage.

Each stage (base, han-encoder, han-decoder, han-joint, copy) runs the
epoch that ``tools/stage_check.py`` runs (``stage_run``, imported from
it), under ``tracemalloc``; per stage it prints the peak of the memory
Python traced, numpy's buffers included, in kB (1000 bytes).  Unlike a
process's peak RSS it does not depend on the allocator's state or on the
host's load: two runs of one commit differ by a few hundred bytes at
most, so their lines agree to within 1 kB, and ``diff`` compares two
commits.  Decoding is left out: greedy and beam-4 translation of 12 pool
documents peaks near 200 kB, and that peak varies by up to 0.8 kB
between runs.  Run from anywhere:

    python tools/peak_memory.py [--docs N]

The default 12 documents take about a second and a half on a 2-core
x86-64 host.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

from stage_check import ROOT, stage_run


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=12,
                    help="documents in the corpus (default 12)")
    args = ap.parse_args(argv)
    if args.docs < 2:
        ap.error(f"--docs must be >= 2, got {args.docs}")
    sys.path.insert(0, str(ROOT / "src"))
    from docnmt.training import STAGES

    # one untraced epoch first, so that no stage's peak counts what the
    # first run of the package loads (modules, data files, caches)
    stage_run("base", 2)

    for stage in STAGES:
        tracemalloc.start()
        stage_run(stage, args.docs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{stage}\tpeak {peak // 1000} kB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
