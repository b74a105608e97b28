#!/usr/bin/env python3
"""docnmt benchmark: training and document decoding, measured from outside.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload decode-copy --seed 0 --trace 0

It imports docnmt from ``src/`` of the checkout it sits in and calls only
the public entry points ``training.train_base``, ``training.finetune_copy``
and ``decoding.translate_document``.  Every workload runs in this one
process as a closed loop with one caller: the next call starts when the
previous one returns.

``--trace 0`` installs nothing.  It calls the workload's operation until
``--seconds`` have passed and at least ``min_ops`` operations are done, sets
up ``SETUP_REPEATS`` times spread over that window (the median is
``setup_s``), and reports the end-to-end metrics.  Their times are
reference times (see ``HostClock``): wall times scaled by the host's speed,
read from a fixed numpy kernel timed around every call; the raw wall-clock
figures are printed next to them.  ``--trace 1`` runs a
fixed amount of work twice, untraced and then under the wrappers of
``layertrace.py``, and reports the per-layer metrics plus ``trace_overhead``
(traced / untraced wall time).  The fixed amount makes its counts repeat
exactly from run to run.

Every operation is checked: each translated sentence must equal the output
stored in ``fixtures/pool.json``, and each training epoch must finish with
a finite validation loss that repeats bitwise across the run's epochs.
Standard output lists every metric by name and unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every operation passed, 1 when one failed, 2 when the program or a fixture
is missing or does not match its recorded sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = HERE / "fixtures"
OUT = HERE / "out"

EXIT_FAILED = 1
EXIT_DATA = 2

SETUP_REPEATS = 15
DOC_LEN = 4
N_CONCEPTS = 10
TRAIN_BASE_DOCS = 200       # the pipeline's training-corpus size
TRAIN_COPY_DOCS = 50        # smaller, so a run holds enough copy epochs
DECODE_MIN_DOCS = 100       # each pass's p90 then has ten samples beyond it
TRACE_DOCS = 12             # documents per pass in a traced decode run
SEARCH_WIDTHS = {"greedy": 1, "beam4": 4}
REFERENCE_KERNEL_S = 0.002  # reference time of one reference-kernel run
KERNEL_RUNS = 3             # kernel runs per reading around a call (median)
READ_EVERY_S = 0.5          # interval of the one-run readings during a call


class BenchDataError(Exception):
    """A missing program, or a fixture that does not match its sha256."""


def import_docnmt():
    """Import docnmt from this checkout's src/, never from elsewhere."""
    pkg = SRC / "docnmt"
    if not (pkg / "__init__.py").is_file():
        raise BenchDataError(f"no docnmt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import docnmt
    if Path(docnmt.__file__).resolve().parent != pkg.resolve():
        raise BenchDataError(f"imported docnmt from {docnmt.__file__}, "
                             f"not from {pkg}")


def verify_fixtures() -> None:
    """Check every fixture against SHA256SUMS (sha256sum format)."""
    sums = FIXTURES / "SHA256SUMS"
    if not sums.is_file():
        raise BenchDataError(f"missing {sums}")
    for line in sums.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(None, 1)
        path = FIXTURES / name.strip()
        try:
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as e:
            raise BenchDataError(f"cannot read fixture {path}: {e}") from e
        if actual != digest:
            raise BenchDataError(f"fixture {path.name}: sha256 {actual}, "
                                 f"expected {digest}")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class OpResult:
    seconds: float
    tokens: int          # target tokens trained (train-*) or emitted (decode)
    attempted: int       # epochs (train-*) or translated sentences (decode)
    failed: int
    info: dict = field(default_factory=dict)
    scale: float = 1.0   # reference seconds per wall second (HostClock)


class TrainWorkload:
    """One operation is one call of the stage's entry point with epochs=1,
    from the same starting parameters every time: the epoch-0 validation
    pass, one training epoch and its validation pass."""

    min_ops = 3

    def __init__(self, name: str, seed: int, clock: "HostClock"):
        self.name = name
        self.seed = seed
        self.clock = clock
        self.first_val: float | None = None

    def setup(self) -> None:
        import numpy as np
        from docnmt import checkpoint
        from docnmt.cli import PROFILE_TOY
        from docnmt.corpus import (generate_synthetic_cohesion_corpus,
                                   load_vocab_pair)
        from docnmt.model import ModelConfig, build_params
        from docnmt.training import TrainConfig, split_corpus
        from docnmt.util import derive_seed

        verify_fixtures()
        self.sv, self.tv = load_vocab_pair(FIXTURES / "vocab.json")
        base = self.name == "train-base"
        self.corpus, _ = generate_synthetic_cohesion_corpus(
            n_docs=TRAIN_BASE_DOCS if base else TRAIN_COPY_DOCS,
            doc_len=DOC_LEN, n_concepts=N_CONCEPTS,
            seed=derive_seed(self.seed, f"{self.name}-corpus"))
        p = PROFILE_TOY
        self.tcfg = TrainConfig(
            stage="base" if base else "copy", epochs=1,
            max_tokens=int(p["max_tokens"]), max_len=int(p["max_len"]),
            lr=float(p["lr"]), warmup_steps=int(p["warmup_steps"]),
            lr_scale=float(p["lr_scale"]),
            val_fraction=float(p["val_fraction"]),
            seed=derive_seed(self.seed, self.name))
        if base:
            self.model_cfg = ModelConfig(
                vocab_src=len(self.sv), vocab_tgt=len(self.tv),
                **{k: p[k] for k in ("d_model", "n_layers", "m_heads", "d_ff",
                                     "dropout", "label_smoothing",
                                     "n_context", "max_len")})
            self.store = build_params(
                self.model_cfg, np.random.default_rng([self.tcfg.seed, 11]))
            self.groups: list[str] = []
        else:
            self.store, self.model_cfg, self.groups = \
                checkpoint.load_checkpoint(FIXTURES / "copy.ckpt")
        self.start = self.store.snapshot()
        train_part, _ = split_corpus(self.corpus, self.tcfg.val_fraction,
                                     self.tcfg.seed)
        self.train_sentences = train_part.n_sentences
        self.train_tokens = sum(len(self.tv.encode(t)) + 1
                                for _, t in train_part.pairs())

    def op(self, index: int) -> OpResult:
        from docnmt import training
        from docnmt.errors import NumericalError, TrainingDiverged

        self.store.load_snapshot(self.start)
        elapsed = self.clock.stopwatch()
        try:
            if self.name == "train-base":
                result = training.train_base(
                    self.corpus, self.model_cfg, self.sv, self.tv, self.tcfg,
                    init_store=self.store)
            else:
                result = training.finetune_copy(
                    (self.store, self.model_cfg, self.groups), self.corpus,
                    self.sv, self.tv, self.tcfg)
        except (NumericalError, TrainingDiverged) as e:
            print(f"epoch {index} failed: {e}", file=sys.stderr)
            return OpResult(elapsed(), 0, 1, 1,
                            {"sentences": self.train_sentences})
        seconds = elapsed()
        val = result.history[-1].val_loss
        ok = len(result.history) == 2 and math.isfinite(val)
        if self.name == "train-base":     # one epoch from scratch must learn
            ok = ok and val < result.history[0].val_loss
        if self.first_val is None:
            self.first_val = val
        elif val != self.first_val:       # same start, same seed: same bits
            print(f"epoch {index}: val_loss {val!r} differs from the first "
                  f"epoch's {self.first_val!r}", file=sys.stderr)
            ok = False
        return OpResult(seconds, self.train_tokens, 1, 0 if ok else 1,
                        {"val_loss": val, "sentences": self.train_sentences})

    def trace_phases(self):
        return [("train", [lambda: self.op(0)])]

    def info(self, results: list[OpResult]) -> dict:
        return {"val_loss": (results[0].info.get("val_loss", math.nan), "nat"),
                "epochs": (len(results), "count")}


class DecodeWorkload:
    """One operation is one document of the fixture pool, translated with
    ``translate_document`` greedily and then with beam 4; each translated
    sentence counts as an attempted operation."""

    min_ops = DECODE_MIN_DOCS

    def __init__(self, name: str, seed: int, clock: "HostClock"):
        self.name = name
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        import numpy as np
        from docnmt import checkpoint
        from docnmt.corpus import load_vocab_pair
        from docnmt.decoding import SearchConfig
        from docnmt.model import DocModel
        from docnmt.util import derive_seed

        verify_fixtures()
        sv, self.tv = load_vocab_pair(FIXTURES / "vocab.json")
        store, cfg, _ = checkpoint.load_checkpoint(FIXTURES / "copy.ckpt")
        self.model = DocModel(cfg, store)
        self.pool = json.loads(
            (FIXTURES / "pool.json").read_text(encoding="utf-8"))
        self.docs = [[sv.encode(s.split()) for s in doc]
                     for doc in self.pool["source"]]
        rng = np.random.default_rng(derive_seed(self.seed, self.name))
        self.order = [int(i) for i in rng.permutation(len(self.docs))]
        self.search = {k: SearchConfig(width=w)
                       for k, w in SEARCH_WIDTHS.items()}

    def translate(self, d: int, mode: str) -> OpResult:
        from docnmt import decoding

        elapsed = self.clock.stopwatch()
        outs, _ = decoding.translate_document(self.model, self.docs[d],
                                              "copy", self.search[mode])
        seconds = elapsed()
        words = [self.tv.decode(o) for o in outs]
        expected = [s.split() for s in self.pool[mode][d]]
        wrong = sum(w != e for w, e in zip(words, expected))
        wrong += abs(len(words) - len(expected))
        return OpResult(seconds, sum(len(o) + 1 for o in outs), len(outs),
                        wrong, {"doc": d, "words": words})

    def op(self, index: int) -> OpResult:
        d = self.order[index % len(self.order)]
        parts = {mode: self.translate(d, mode) for mode in SEARCH_WIDTHS}
        return OpResult(sum(p.seconds for p in parts.values()),
                        sum(p.tokens for p in parts.values()),
                        sum(p.attempted for p in parts.values()),
                        sum(p.failed for p in parts.values()), parts)

    def trace_phases(self):
        docs = [self.order[i] for i in range(TRACE_DOCS)]
        return [(mode, [lambda d=d, m=mode: self.translate(d, m)
                        for d in docs]) for mode in SEARCH_WIDTHS]

    def info(self, results: list[OpResult]) -> dict:
        from docnmt.metrics import bleu4, consistency_rate

        out = {}
        for mode in SEARCH_WIDTHS:
            parts = [r.info[mode] for r in results]
            ms = [p.seconds * r.scale * 1e3 for p, r in zip(parts, results)]
            out[f"{mode}_sents_per_s"] = (
                sum(p.attempted for p in parts) / sum(ms) * 1e3, "1/s")
            out[f"{mode}_doc_ms_p50"] = (statistics.median(ms), "ms")
            out[f"{mode}_doc_ms_p90"] = (percentile(ms, 90), "ms")
        greedy = [r.info["greedy"] for r in results]
        cands = [p.info["words"] for p in greedy]
        refs = [[s.split() for s in self.pool["reference"][p.info["doc"]]]
                for p in greedy]
        out["bleu4"] = (bleu4(cands, refs), "BLEU")
        out["consistency"] = (consistency_rate(cands, self.pool["lexicon"]),
                              "ratio")
        out["documents"] = (len(results), "count")
        return out


WORKLOADS = {"train-base": TrainWorkload, "train-copy": TrainWorkload,
             "decode-copy": DecodeWorkload}


# ---------------------------------------------------------------------------
# running and reporting


def environment() -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "docnmt").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "commit": _git_head(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def _git_head() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


class HostClock:
    """Converts wall time into reference time, in which the host's speed
    drift cancels out.

    The host's CPU speed drifts by up to 1.75x over tens of seconds (one
    greedy document: 57 to 108 ms), far more than the bounds allow.  A
    reference kernel of small numpy operations like the model's is timed
    right before and right after each call and, from a SIGALRM handler,
    every ``READ_EVERY_S`` during it; the call's reference time is its wall
    time times ``REFERENCE_KERNEL_S`` over the kernel's mean time.  Time
    spent in the handler is subtracted from every stopwatch running across
    it.  On a shared 2-vCPU VM the ratio of a greedy document's time to the
    kernel's stayed within about 3 % while both drifted by 1.75x.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((8, 32))
        self.w = rng.standard_normal((32, 32))
        self.paused = 0.0                 # wall seconds spent in the handler
        self.readings: list[float] = []   # scale of every call
        self._during: list[float] = []

    def _kernel(self) -> float:
        np, x = self.np, self.x
        t0 = time.perf_counter()
        for _ in range(150):
            h = np.maximum(x @ self.w, 0.0)
            e = np.exp(h - h.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
        return time.perf_counter() - t0

    def _read(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._during.append(self._kernel())
        self.paused += time.perf_counter() - t0

    def stopwatch(self):
        """Returns a function giving the wall seconds since this call,
        minus the time the handler took meanwhile."""
        t0, p0 = time.perf_counter(), self.paused
        return lambda: time.perf_counter() - t0 - (self.paused - p0)

    def run(self, fn):
        """Call ``fn()``; returns (result, wall seconds, reference seconds
        per wall second during the call)."""
        self._during = [statistics.median(
            self._kernel() for _ in range(KERNEL_RUNS))]
        previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        try:
            elapsed = self.stopwatch()
            result = fn()
            wall = elapsed()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._during.append(statistics.median(
            self._kernel() for _ in range(KERNEL_RUNS)))
        scale = REFERENCE_KERNEL_S / statistics.mean(self._during)
        self.readings.append(scale)
        return result, wall, scale

    def op(self, fn) -> OpResult:
        result, _, result.scale = self.run(fn)
        return result


def timed_run(wl, seconds: float) -> tuple[dict, dict, list[OpResult]]:
    clock = wl.clock
    setups = []                       # (wall, reference) seconds

    def setup():
        _, wall, scale = clock.run(wl.setup)
        setups.append((wall, wall * scale))

    setup()
    if isinstance(wl, DecodeWorkload):
        wl.translate(wl.order[-1], "greedy")   # warm-up, not timed
    results: list[OpResult] = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and len(results) >= wl.min_ops:
            break
        results.append(clock.op(lambda: wl.op(len(results))))
        # spread the set-ups over the window, so that their median sees the
        # same host conditions as the operations do
        share = min(1.0, elapsed / seconds) if seconds > 0 else 1.0
        while len(setups) < max(1, round(SETUP_REPEATS * share)):
            setup()
    while len(setups) < SETUP_REPEATS:
        setup()
    ref_s = [r.seconds * r.scale for r in results]
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tokens_per_s": statistics.median(r.tokens / t
                                          for r, t in zip(results, ref_s)),
        "op_ms_p50": statistics.median(ref_s) * 1e3,
    }
    info = {"ops": (len(results), "count"),
            "setups": (len(setups), "count"),
            "op_ms_p90": (percentile(ref_s, 90) * 1e3, "ms"),
            "host_speed": (statistics.median(clock.readings), "ratio"),
            "wall_setup_s": (statistics.median(w for w, _ in setups), "s"),
            "wall_tokens_per_s": (statistics.median(
                r.tokens / r.seconds for r in results), "1/s"),
            "wall_op_ms_p50": (statistics.median(
                r.seconds for r in results) * 1e3, "ms"),
            **wl.info(results)}
    return metrics, info, results


def traced_run(wl, seed: int) -> tuple[dict, dict, list[OpResult]]:
    import layertrace

    clock = wl.clock
    wl.setup()
    phases = wl.trace_phases()
    plain = [clock.op(call) for _, calls in phases for call in calls]
    untraced = sum(r.seconds * r.scale for r in plain)

    def under(tracer, fn):
        missing = layertrace.instrument(tracer)
        try:
            return fn(), missing
        finally:
            tracer.uninstall()

    whole = layertrace.Tracer()
    whole.item = "setup"
    _, missing = under(whole, wl.setup)
    results: list[OpResult] = []
    per_phase = {}
    for phase, calls in phases:
        tr = layertrace.Tracer()

        def run_calls(tr=tr, phase=phase, calls=calls):
            out = []
            for i, call in enumerate(calls):
                tr.item = f"{phase}{i}"
                out.append(clock.op(call))
            return out

        phase_results, _ = under(tr, run_calls)
        results += phase_results
        per_phase[phase] = (tr, sum(r.tokens for r in phase_results))
        whole.absorb(tr)
    traced = sum(r.seconds * r.scale for r in results)

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    whole.write(span_file)
    decode = isinstance(wl, DecodeWorkload)
    sentences = sum(r.attempted if decode else r.info["sentences"]
                    for r in results)
    metrics = layertrace.layer_metrics(whole, sentences)
    for mode in SEARCH_WIDTHS:
        tr, tokens = per_phase.get(mode, (layertrace.Tracer(), 0))
        metrics.update(layertrace.search_metrics(tr, mode, tokens))
    metrics["trace_overhead"] = traced / untraced
    info = {"spans": (len(whole.spans), "count"),
            "untraced_s": (untraced, "s"), "traced_s": (traced, "s"),
            "host_speed": (statistics.median(clock.readings), "ratio")}
    extra = {"span_file": str(span_file.relative_to(ROOT)),
             "missing_hooks": missing}
    print("trace " + json.dumps(extra, sort_keys=True))
    return metrics, info, plain + results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_docnmt()
        bench = load_spec()
        spec = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        env = environment()
        wl = WORKLOADS[args.workload](args.workload, args.seed, HostClock())
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            metrics, info, results = traced_run(wl, args.seed)
        else:
            metrics, info, results = timed_run(wl, args.seconds)
    except BenchDataError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return EXIT_DATA
    env["loadavg_end"] = list(os.getloadavg())

    if set(metrics) != set(spec):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(spec))} do "
                           f"not match BENCHMARK.json")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print("env " + json.dumps(env, sort_keys=True))
    listing = {name: (value, spec[name]) for name, value in metrics.items()}
    listing.update(info)
    listing["ops_attempted"] = (attempted, "count")
    listing["ops_failed"] = (failed, "count")
    for name, (value, unit) in listing.items():
        shown = f"{value:18d}" if isinstance(value, int) else f"{value:18.6f}"
        print(f"{name:36s} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": spec[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
