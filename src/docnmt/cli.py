"""Command line interface: the complete workflow as one executable.

Every subcommand writes its outputs into ``--out DIR`` with a
``run_manifest.json`` of the settings it read, its seed (null if it draws
no randomness), input and output paths, checkpoint hashes and metrics —
no timestamps, so a same-seed rerun produces byte-identical artifacts.

Of the toy profile's keys a command reads only its ``SETTINGS``, each by
flag > ``--config`` file (``key = value`` lines; other keys are ignored) >
the profile itself.  All randomness derives from one ``--seed`` through
named sub-seeds (data, per-stage training split into init/shuffle/dropout).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A command reads its inputs and checks its settings before it creates
``--out``, so a usage or data error writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    ConceptLexicon,
    DocumentCorpus,
    build_vocab,
    generate_synthetic_cohesion_corpus,
    load_corpus,
    load_documents,
    load_vocab_pair,
    save_corpus,
    save_documents,
    save_vocab_pair,
    write_manifest,
)
from .decoding import SearchConfig, translate_corpus
from .diagnostics import full_copy_gradcheck
from .errors import (ContractError, DataError, DocnmtError, NumericalError,
                     TrainingDiverged)
from .metrics import bleu4, consistency_report, lc_score, stopword_hash
from .model import VARIANTS, DocModel, ModelConfig
from .training import (
    STAGES,
    TrainConfig,
    TrainResult,
    check_start,
    checkpoint_variant,
    run_stage,
    train_base,
)
from .util import derive_seed, read_text, sha256_file

PROFILE_TOY: dict[str, object] = {
    # model
    "d_model": 32,
    "n_layers": 2,
    "m_heads": 2,
    "d_ff": 64,
    "dropout": 0.1,
    "label_smoothing": 0.1,
    "n_context": 3,
    "max_len": 64,
    # training
    "epochs": 30,
    "ft_epochs": 15,
    "max_tokens": 320,
    "lr": 1e-3,
    "warmup_steps": 200,
    "lr_scale": 1.0,
    "val_fraction": 0.1,
    # search
    "width": 1,
    "length_penalty": 0.0,
}

_KEY_TYPES: dict[str, type] = {k: type(v) for k, v in PROFILE_TOY.items()}

_MODEL_KEYS = ("d_model", "n_layers", "m_heads", "d_ff", "dropout",
               "label_smoothing", "n_context", "max_len")
# the TrainConfig fields of the base stage and of the context stages, each
# led by the profile key of its epoch count
_BASE_KEYS = ("epochs", "max_tokens", "max_len", "warmup_steps", "lr_scale",
              "val_fraction")
_FINETUNE_KEYS = ("ft_epochs", "max_tokens", "max_len", "lr", "val_fraction")
# The profile keys each command reads: its flags and its manifest's config.
# finetune and translate take the model settings from the checkpoint.
SETTINGS: dict[str, tuple[str, ...]] = {
    "train": tuple(dict.fromkeys(_MODEL_KEYS + _BASE_KEYS)),
    "finetune": _FINETUNE_KEYS, "translate": ("width", "length_penalty"),
    "experiment": tuple(PROFILE_TOY)}
_SEEDED = ("gen-synth", "train", "finetune", "gradcheck", "experiment")


class UsageError(DocnmtError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _parse_config_file(path) -> dict[str, object]:
    out: dict[str, object] = {}
    for i, raw in enumerate(read_text(path, "config file").splitlines(),
                            start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path} line {i}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise DataError(
                f"{path} line {i}: unknown key '{key}' "
                f"(known: {', '.join(sorted(_KEY_TYPES))})")
        try:
            out[key] = _KEY_TYPES[key](value)
        except ValueError as e:
            raise DataError(f"{path} line {i}: bad value for {key}: {e}") from e
    return out


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """toy profile, overlaid with the config file, overlaid with flags."""
    cfg = dict(PROFILE_TOY)
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    for key in _KEY_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _command_config(args: argparse.Namespace) -> dict[str, object]:
    cfg = resolve_config(args)
    return {key: cfg[key] for key in SETTINGS[args.command]}


def _configured(cls, **values):
    """``cls(**values)``, a value the class rejects being a data error."""
    try:
        return cls(**values)
    except ContractError as e:
        raise DataError(f"bad configuration value: {e}") from e


def _model_config(cfg: dict, vocab_src: int, vocab_tgt: int) -> ModelConfig:
    return _configured(ModelConfig, vocab_src=vocab_src, vocab_tgt=vocab_tgt,
                       **{key: cfg[key] for key in _MODEL_KEYS})


def _train_config(cfg: dict, stage: str, seed: int) -> TrainConfig:
    epochs, *keys = _BASE_KEYS if stage == "base" else _FINETUNE_KEYS
    return _configured(TrainConfig, stage=stage, epochs=cfg[epochs],
                       **{key: cfg[key] for key in keys},
                       seed=derive_seed(seed, f"train-{stage}"))


def _search_config(cfg: dict, collect_traces: bool = False) -> SearchConfig:
    return _configured(SearchConfig, collect_traces=collect_traces,
                       **{key: cfg[key] for key in SETTINGS["translate"]})


def _out_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot make output directory {out}: {e}") from e
    return out


def _write_run_manifest(out: Path, subcommand: str, seed: int | None,
                        config: dict | None = None,
                        inputs: dict | None = None,
                        outputs: dict | None = None,
                        checkpoints: dict | None = None,
                        metrics: dict | None = None) -> None:
    def rel(v) -> str:
        # outputs live under ``out``; record them relative to it so a rerun
        # in a different directory produces an identical manifest
        try:
            return str(Path(v).resolve().relative_to(out.resolve()))
        except ValueError:
            return str(v)

    payload = {
        "subcommand": subcommand,
        "seed": seed,
        "config": config or {},
        "inputs": {k: str(v) for k, v in (inputs or {}).items()},
        "outputs": {k: rel(v) for k, v in (outputs or {}).items()},
        "checkpoint_hashes": checkpoints or {},
        "metrics": metrics or {},
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out / "run_manifest.json").write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
    corpus, lexicon = generate_synthetic_cohesion_corpus(
        n_docs=args.n_docs, doc_len=args.doc_len,
        n_concepts=args.n_concepts, seed=derive_seed(args.seed, "data"))
    out = _out_dir(args.out)
    src = out / "synth.src.txt"
    tgt = out / "synth.tgt.txt"
    save_corpus(corpus, src, tgt)
    (out / "synth.lexicon.json").write_text(lexicon.to_json(),
                                            encoding="utf-8")
    write_manifest(corpus, out / "synth.docs.tsv")
    _write_run_manifest(
        out, "gen-synth", args.seed,
        config={"n_docs": args.n_docs, "doc_len": args.doc_len,
                "n_concepts": args.n_concepts},
        outputs={"src": src, "tgt": tgt,
                 "lexicon": out / "synth.lexicon.json",
                 "documents": out / "synth.docs.tsv"})
    print(f"wrote {corpus.n_documents} documents "
          f"({corpus.n_sentences} sentences) to {out}")
    return 0


def cmd_build_vocab(args) -> int:
    corpus = load_corpus(args.src, args.tgt)
    sv = build_vocab(corpus, "src", max_size=args.max_size,
                     min_freq=args.min_freq)
    tv = build_vocab(corpus, "tgt", max_size=args.max_size,
                     min_freq=args.min_freq)
    out = _out_dir(args.out)
    path = out / "vocab.json"
    save_vocab_pair(path, sv, tv)
    _write_run_manifest(
        out, "build-vocab", None,
        config={"max_size": args.max_size, "min_freq": args.min_freq},
        inputs={"src": args.src, "tgt": args.tgt},
        outputs={"vocab": path},
        metrics={"vocab_src": len(sv), "vocab_tgt": len(tv)})
    print(f"vocab sizes: src {len(sv)}, tgt {len(tv)} -> {path}")
    return 0


def _train_stage(tcfg: TrainConfig, corpus: DocumentCorpus, sv, tv,
                 model_cfg: ModelConfig, parent, log_path: Path
                 ) -> TrainResult:
    """Train ``tcfg.stage`` from the loaded checkpoint ``parent`` (store,
    config, groups), or the base stage from initialization if it is None."""
    if parent is None:
        return train_base(corpus, model_cfg, sv, tv, tcfg, log_path=log_path)
    return run_stage(parent, corpus, sv, tv, tcfg, log_path=log_path)


def _save_stage(out: Path, name: str, result: TrainResult) -> Path:
    path = out / f"{name}.ckpt"
    save_checkpoint(path, result.store, result.model_cfg,
                    result.trained_groups)
    return path


def _report_divergence(out: Path, e: TrainingDiverged) -> None:
    print(f"training diverged: {e}", file=sys.stderr)
    print(f"the message above was written to {out / 'diverged.note'}; no "
          f"checkpoint was saved", file=sys.stderr)
    (out / "diverged.note").write_text(str(e) + "\n", encoding="utf-8")


def _load_model_inputs(args):
    """Vocabulary pair and checkpoint, checked against each other; the
    checkpoint's trained groups must be those of a training stage."""
    sv, tv = load_vocab_pair(args.vocab)
    store, model_cfg, groups = load_checkpoint(args.checkpoint)
    try:
        checkpoint_variant(groups)
    except DataError as e:
        raise DataError(f"{args.checkpoint}: {e}") from e
    if (len(sv), len(tv)) != (model_cfg.vocab_src, model_cfg.vocab_tgt):
        raise DataError(
            f"vocab sizes {len(sv)}/{len(tv)} do not match checkpoint "
            f"{model_cfg.vocab_src}/{model_cfg.vocab_tgt}")
    return sv, tv, store, model_cfg, groups


def cmd_train(args) -> int:
    """``train`` (the base stage) and ``finetune`` (``--stage`` from
    ``--checkpoint``)."""
    cfg = _command_config(args)
    corpus = load_corpus(args.src, args.tgt)
    inputs = {"src": args.src, "tgt": args.tgt, "vocab": args.vocab}
    checkpoints = {}
    if args.checkpoint is None:
        sv, tv = load_vocab_pair(args.vocab)
        model_cfg, parent = _model_config(cfg, len(sv), len(tv)), None
    else:
        sv, tv, store, model_cfg, groups = _load_model_inputs(args)
        check_start(args.stage, groups)
        parent = (store, model_cfg, groups)
        inputs["checkpoint"] = args.checkpoint
        checkpoints["input"] = sha256_file(args.checkpoint)
    tcfg = _train_config(cfg, args.stage, args.seed)
    out = _out_dir(args.out)
    log = out / "train.log"
    try:
        result = _train_stage(tcfg, corpus, sv, tv, model_cfg, parent, log)
    except TrainingDiverged as e:
        _report_divergence(out, e)
        raise
    ckpt = _save_stage(out, args.stage, result)
    checkpoints[args.stage] = sha256_file(ckpt)
    _write_run_manifest(
        out, args.command, args.seed, config=cfg, inputs=inputs,
        outputs={"checkpoint": ckpt, "log": log}, checkpoints=checkpoints,
        metrics={"best_epoch": result.best_epoch,
                 "best_val_loss": result.best_val_loss})
    print(f"{args.stage}: best epoch {result.best_epoch} "
          f"val loss {result.best_val_loss:.6f} -> {ckpt}")
    return 0


def _format_top(entries, vocab) -> str:
    return ",".join(f"{vocab.id_to_token[i]}:{p:.4f}" for i, p in entries)


def _write_trace(path, doc_traces, tgt_vocab) -> None:
    lines = ["step\tp_copy\ttop5_p_vocab\ttop5_alpha\ttop5_p_w"]
    for d, sent_traces in enumerate(doc_traces):
        for s, steps in enumerate(sent_traces):
            lines.append(f"# doc {d} sentence {s}")
            for t, tr in enumerate(steps):
                pc = "-" if tr.p_copy is None else f"{tr.p_copy:.4f}"
                alpha = "-" if tr.top_alpha is None else _format_top(
                    tr.top_alpha, tgt_vocab)
                lines.append(f"{t}\t{pc}\t{_format_top(tr.top_vocab, tgt_vocab)}"
                             f"\t{alpha}\t{_format_top(tr.top_pw, tgt_vocab)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_source_lengths(docs: list[list[list[int]]], max_len: int) -> None:
    """Every source sentence must fit the checkpoint's max_len.  Errors
    name the 1-based line of the source file, whose documents are
    separated by one blank line."""
    line = 1
    for doc in docs:
        for sent in doc:
            if len(sent) > max_len:
                raise DataError(f"line {line}: sentence has {len(sent)} "
                                f"tokens, more than the checkpoint's max_len "
                                f"{max_len}")
            line += 1
        line += 1


def cmd_translate(args) -> int:
    cfg = _command_config(args)
    search = _search_config(cfg, collect_traces=args.trace)
    sv, tv, store, model_cfg, groups = _load_model_inputs(args)
    model = DocModel(model_cfg, store)
    variant = args.variant or checkpoint_variant(groups)
    row = next(s for s in STAGES.values() if s.variant == variant)
    if missing := sorted((row.trains | row.requires) - set(groups)):
        raise DataError(f"variant {variant} reads parameter groups {missing} "
                        f"that the checkpoint lacks")
    docs = load_documents(args.src)
    encoded = [[sv.encode(s) for s in doc] for doc in docs]
    _check_source_lengths(encoded, model_cfg.max_len)
    out = _out_dir(args.out)
    outs, traces = translate_corpus(model, encoded, variant, search)
    decoded = [[tv.decode(s) for s in doc] for doc in outs]
    out_path = out / "output.tgt.txt"
    save_documents(decoded, out_path)
    outputs = {"translation": out_path}
    if args.trace:
        trace_path = out / "trace.txt"
        _write_trace(trace_path, traces, tv)
        outputs["trace"] = trace_path
    _write_run_manifest(
        out, "translate", None,
        config={**cfg, "variant": variant},
        inputs={"src": args.src, "vocab": args.vocab,
                "checkpoint": args.checkpoint},
        outputs=outputs,
        checkpoints={"model": sha256_file(args.checkpoint)})
    print(f"translated {len(docs)} documents ({variant}) -> {out_path}")
    return 0


def _check_aligned(cand_docs, ref_docs) -> None:
    """Candidate and reference need the same number of documents and the
    same number of sentences in each: LC-stem counts repeats within a
    document.  The error names the first document that differs and its
    first line, which is the same in both files."""
    line = 1
    for d, (cand, ref) in enumerate(
            zip_longest(cand_docs, ref_docs, fillvalue=[]), 1):
        if len(cand) != len(ref):
            raise DataError(f"line {line}: document {d} has {len(cand)} "
                            f"sentences in the candidate, {len(ref)} in the "
                            f"reference")
        line += len(cand) + 1


def _evaluate_files(cand_docs, ref_docs, lexicon) -> dict[str, object]:
    _check_aligned(cand_docs, ref_docs)
    scores: dict[str, object] = {}
    scores["bleu4"] = bleu4(cand_docs, ref_docs)
    scores["lc_stem_reference"] = ref_lc = lc_score(ref_docs).corpus_lc
    try:
        lc = lc_score(cand_docs).corpus_lc
        scores["lc_stem"], scores["lc_delta"] = lc, lc - ref_lc
    except DataError:
        # a degenerate system can emit no content words at all; the score
        # is undefined rather than zero
        scores["lc_stem"] = float("nan")
        scores["lc_delta"] = float("nan")
    if lexicon is not None:
        cons = consistency_report(cand_docs, lexicon)
        scores["consistency"] = cons.rate
        scores["consistency_eligible"] = cons.n_eligible
        scores["consistency_dropped"] = cons.n_dropped
    scores["stopwords_sha256"] = stopword_hash()
    return scores


def _format_report(scores: dict[str, object]) -> tuple[str, str]:
    width = max(len(k) for k in scores)
    table_lines = ["metric".ljust(width) + "  value"]
    kv_lines = []
    for key, value in scores.items():
        pretty = f"{value:.4f}" if isinstance(value, float) else str(value)
        table_lines.append(f"{key.ljust(width)}  {pretty}")
        raw = f"{value!r}" if isinstance(value, float) else str(value)
        kv_lines.append(f"{key}={raw}")
    return "\n".join(table_lines) + "\n", "\n".join(kv_lines) + "\n"


def cmd_evaluate(args) -> int:
    cand = load_documents(args.candidate)
    ref = load_documents(args.reference)
    lexicon = None
    if args.lexicon:
        text = read_text(args.lexicon, "lexicon file")
        try:
            lexicon = ConceptLexicon.from_json(text)
        except DataError as e:
            raise DataError(f"{args.lexicon}: {e}") from e
    try:
        scores = _evaluate_files(cand, ref, lexicon)
    except DataError as e:
        raise DataError(f"{args.candidate} against {args.reference}: "
                        f"{e}") from e
    table, kv = _format_report(scores)
    out = _out_dir(args.out)
    (out / "report.txt").write_text(table, encoding="utf-8")
    (out / "report.kv").write_text(kv, encoding="utf-8")
    _write_run_manifest(
        out, "evaluate", None,
        inputs={"candidate": args.candidate, "reference": args.reference,
                **({"lexicon": args.lexicon} if args.lexicon else {})},
        outputs={"table": out / "report.txt", "records": out / "report.kv"},
        metrics={k: v for k, v in scores.items()})
    print(table, end="")
    return 0


def cmd_gradcheck(args) -> int:
    report = full_copy_gradcheck(seed=args.seed)
    if args.out:
        out = _out_dir(args.out)
        (out / "gradcheck.txt").write_text(report.summary() + "\n",
                                           encoding="utf-8")
        _write_run_manifest(out, "gradcheck", args.seed,
                            metrics={"max_rel_err": report.max_rel_err,
                                     "n_checked": report.n_checked,
                                     "passed": report.passed})
    print(report.summary())
    if not report.passed:
        print("gradient check failed", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# experiment pipeline


# (stage, the stage whose checkpoint it starts from), in training order
_EXPERIMENT_STAGES = (("base", None), ("han-encoder", "base"),
                      ("han-joint", "han-encoder"), ("copy", "han-encoder"))
_EXPERIMENT_SYSTEMS = ("sentence", "han-joint", "copy")     # variants


def run_experiment(out: Path, seed: int, cfg: dict, n_train: int = 200,
                   n_test: int = 50, doc_len: int = 4, n_concepts: int = 10,
                   quiet: bool = False) -> dict[str, dict[str, object]]:
    """generate -> train base -> fine-tune stages -> translate -> evaluate.

    Returns {system: scores}; writes all artifacts beneath ``out``, which
    it creates only once the data and every configuration are built.
    """
    def say(msg: str):
        if not quiet:
            print(msg, flush=True)

    say(f"generating {n_train}+{n_test} synthetic documents")
    corpus, lexicon = generate_synthetic_cohesion_corpus(
        n_docs=n_train + n_test, doc_len=doc_len, n_concepts=n_concepts,
        seed=derive_seed(seed, "data"))
    train = DocumentCorpus(corpus.documents[:n_train],
                           corpus.doc_ids[:n_train])
    test = DocumentCorpus(corpus.documents[n_train:], corpus.doc_ids[n_train:])
    sv = build_vocab(train, "src")
    tv = build_vocab(train, "tgt")
    model_cfg = _model_config(cfg, len(sv), len(tv))
    tcfgs = {stage: _train_config(cfg, stage, seed)
             for stage, _ in _EXPERIMENT_STAGES}
    search = _search_config(cfg)

    data_dir = out / "data"
    ckpt_dir = out / "checkpoints"
    trans_dir = out / "translations"
    for d in (data_dir, ckpt_dir, trans_dir):
        _out_dir(d)
    save_corpus(train, data_dir / "train.src.txt", data_dir / "train.tgt.txt")
    save_corpus(test, data_dir / "test.src.txt", data_dir / "test.tgt.txt")
    (data_dir / "lexicon.json").write_text(lexicon.to_json(),
                                           encoding="utf-8")
    save_vocab_pair(data_dir / "vocab.json", sv, tv)

    paths: dict[str, Path] = {}
    for stage, parent in _EXPERIMENT_STAGES:
        tcfg = tcfgs[stage]
        say(f"training {stage} ({tcfg.epochs} epochs)")
        start = None if parent is None else load_checkpoint(paths[parent])
        result = _train_stage(tcfg, train, sv, tv, model_cfg, start,
                              out / "train.log")
        paths[stage] = _save_stage(ckpt_dir, stage, result)
    ckpt_for = {STAGES[stage].variant: path for stage, path in paths.items()}
    test_src = [[sv.encode(s) for s, _ in doc] for doc in test.documents]
    ref_docs = test.side("tgt")

    results: dict[str, dict[str, object]] = {}
    results["reference"] = _evaluate_files(ref_docs, ref_docs, lexicon)
    for system in _EXPERIMENT_SYSTEMS:
        say(f"translating test set with {system}")
        store, mc, _groups = load_checkpoint(ckpt_for[system])
        model = DocModel(mc, store)
        outs, _ = translate_corpus(model, test_src, system, search)
        decoded = [[tv.decode(s) for s in doc] for doc in outs]
        save_documents(decoded, trans_dir / f"{system}.tgt.txt")
        results[system] = _evaluate_files(decoded, ref_docs, lexicon)

    table = _metrics_table(results)
    (out / "metrics.tsv").write_text(table, encoding="utf-8")
    say("")
    say(table.rstrip("\n"))
    _write_run_manifest(
        out, "experiment", seed, config=dict(cfg),
        inputs={},
        outputs={"metrics": out / "metrics.tsv",
                 "data": data_dir, "checkpoints": ckpt_dir,
                 "translations": trans_dir},
        checkpoints={system: sha256_file(ckpt_for[system])
                     for system in _EXPERIMENT_SYSTEMS},
        metrics={system: {k: v for k, v in scores.items()
                          if isinstance(v, (int, float))}
                 for system, scores in results.items()})
    return results


def _metrics_table(results: dict[str, dict[str, object]]) -> str:
    cols = ("bleu4", "lc_stem", "lc_delta", "consistency",
            "consistency_dropped")
    lines = ["system\t" + "\t".join(cols)]
    for system in ("reference", *_EXPERIMENT_SYSTEMS):
        scores = results[system]
        cells = []
        for col in cols:
            v = scores.get(col)
            cells.append(f"{v:.4f}" if isinstance(v, float) else str(v))
        lines.append(system + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def cmd_experiment(args) -> int:
    for option in ("n_train", "n_test"):
        if getattr(args, option) < 1:
            raise DataError(f"--{option.replace('_', '-')} must be >= 1, "
                            f"got {getattr(args, option)}")
    run_experiment(Path(args.out), args.seed, _command_config(args),
                   n_train=args.n_train, n_test=args.n_test,
                   doc_len=args.doc_len, n_concepts=args.n_concepts,
                   quiet=args.quiet)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="docnmt",
                     description="document-level NMT with a copy-augmented "
                                 "hierarchical context model")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name: str, help: str) -> _Parser:
        # no abbreviations: ``train --lr`` must not pass as ``--lr-scale``
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if name in _SEEDED:
            p.add_argument("--seed", type=int, default=0,
                           help="master seed for all randomness")
        if name in SETTINGS:
            p.add_argument("--config", help="key = value configuration file")
            for key in SETTINGS[name]:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                               type=_KEY_TYPES[key], help=f"override {key}")
        return p

    p = add("gen-synth", "generate a synthetic cohesion corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, default=200)
    p.add_argument("--doc-len", type=int, default=4)
    p.add_argument("--n-concepts", type=int, default=10)
    p.set_defaults(func=cmd_gen_synth)

    p = add("build-vocab", "build vocabularies from a corpus")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-size", type=int, default=50000)
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(func=cmd_build_vocab)

    train = add("train", "train the sentence-level base model")
    train.set_defaults(stage="base", checkpoint=None)
    finetune = add("finetune", "fine-tune a context stage")
    finetune.add_argument("--checkpoint", required=True)
    finetune.add_argument("--stage", required=True,
                          choices=[s for s in STAGES if STAGES[s].requires])
    for p in (train, finetune):
        p.add_argument("--src", required=True)
        p.add_argument("--tgt", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_train)

    p = add("translate", "translate documents")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--trace", action="store_true",
                   help="write per-step distribution dumps")
    p.set_defaults(func=cmd_translate)

    p = add("evaluate", "score a translation against a reference")
    p.add_argument("--candidate", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--lexicon", help="concept lexicon for consistency")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = add("gradcheck", "finite-difference gradient check")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gradcheck)

    p = add("experiment", "full synthetic pipeline with comparison table")
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=200)
    p.add_argument("--n-test", type=int, default=50)
    p.add_argument("--doc-len", type=int, default=4)
    p.add_argument("--n-concepts", type=int, default=10)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
