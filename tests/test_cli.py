"""End-to-end checks of the command line interface: exit codes, artifact
layout, manifest contents, config precedence, and reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import docnmt
import docnmt.cli as cli
import docnmt.model as model_package
from docnmt.checkpoint import load_checkpoint, save_checkpoint
from docnmt.cli import build_parser, resolve_config, run
from docnmt.corpus import (Vocabulary, load_corpus, load_documents,
                           load_vocab_pair, save_vocab_pair)
from docnmt.gradcheck import GradCheckReport
from docnmt.metrics import bleu4

from test_transformer import INVALID_CONFIGS, rewrite_header


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated corpus plus vocab, shared by the tests in this module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(["gen-synth", "--out", str(data), "--n-docs", "10",
                "--doc-len", "3", "--n-concepts", "4", "--seed", "3"]) == 0
    assert run(["build-vocab", "--src", str(data / "synth.src.txt"),
                "--tgt", str(data / "synth.tgt.txt"),
                "--out", str(root / "vocab")]) == 0
    return root


@pytest.fixture(scope="module")
def base_ckpt(workdir):
    out = workdir / "base"
    code = run(["train", "--src", str(workdir / "data/synth.src.txt"),
                "--tgt", str(workdir / "data/synth.tgt.txt"),
                "--vocab", str(workdir / "vocab/vocab.json"),
                "--out", str(out), "--seed", "1", "--epochs", "2",
                "--d-model", "16", "--n-layers", "1", "--d-ff", "32",
                "--dropout", "0.0", "--warmup-steps", "20"])
    assert code == 0
    return out / "base.ckpt"


# ---------------------------------------------------------------------------
# exit codes


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["gen-synth", "--no-such-flag", "1"]) == 1


def test_missing_required_flag_is_usage_error():
    assert run(["gen-synth"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "gen-synth" in capsys.readouterr().out


def test_missing_input_file_is_data_error(tmp_path):
    assert run(["build-vocab", "--src", "/does/not/exist",
                "--tgt", "/does/not/exist2",
                "--out", str(tmp_path / "v")]) == 2


def test_bad_config_key_is_data_error(tmp_path, workdir):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_knob = 3\n")
    assert run(["train", "--src", str(workdir / "data/synth.src.txt"),
                "--tgt", str(workdir / "data/synth.tgt.txt"),
                "--vocab", str(workdir / "vocab/vocab.json"),
                "--out", str(tmp_path / "t"), "--config", str(cfg)]) == 2


# (command, config file text, flags, the value the error must name)
BAD_CONFIG_VALUES = [
    ("train", "epochs = banana\n", [], "epochs"),
    ("train", "dropout = 1.5\n", [], "dropout"),
    ("train", "", ["--m-heads", "3"], "m_heads"),
    ("train", "", ["--epochs", "-1"], "epochs"),
    ("train", "", ["--warmup-steps", "0"], "warmup_steps"),
    ("translate", "", ["--width", "0"], "width"),
    ("translate", "", ["--length-penalty", "-1"], "length_penalty"),
]


def test_bad_config_value_is_data_error(tmp_path, workdir, base_ckpt, capsys):
    cfg = tmp_path / "bad.cfg"
    for command, text, flags, named in BAD_CONFIG_VALUES:
        cfg.write_text(text)
        inputs = (["--tgt", str(workdir / "data/synth.tgt.txt")]
                  if command == "train" else ["--checkpoint", str(base_ckpt)])
        assert run([command, "--src", str(workdir / "data/synth.src.txt"),
                    "--vocab", str(workdir / "vocab/vocab.json"),
                    "--out", str(tmp_path / "t"), "--config", str(cfg),
                    *inputs, *flags]) == 2, (command, text, flags)
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, stream", [
    (["--help"], 0, "stdout"), ([], 1, "stderr")])
def test_module_runs_as_a_script(argv, code, stream):
    """``python -m docnmt.cli`` runs the command line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(docnmt.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "docnmt.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == code
    assert "usage: docnmt" in getattr(proc, stream)


# ---------------------------------------------------------------------------
# gen-synth / build-vocab artifacts


def test_gen_synth_outputs(workdir):
    data = workdir / "data"
    for name in ("synth.src.txt", "synth.tgt.txt", "synth.lexicon.json",
                 "synth.docs.tsv", "run_manifest.json"):
        assert (data / name).exists(), name
    corpus = load_corpus(data / "synth.src.txt", data / "synth.tgt.txt")
    assert corpus.n_documents == 10
    manifest = json.loads((data / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "gen-synth"
    assert manifest["seed"] == 3
    assert manifest["config"]["n_docs"] == 10


def test_gen_synth_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen-synth", "--out", str(out), "--n-docs", "6",
                    "--doc-len", "3", "--n-concepts", "4", "--seed", "9"]) == 0
    for name in ("synth.src.txt", "synth.tgt.txt", "synth.lexicon.json",
                 "run_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_gen_synth_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen-synth", "--out", str(a), "--n-docs", "6",
                "--doc-len", "3", "--n-concepts", "4", "--seed", "9"]) == 0
    assert run(["gen-synth", "--out", str(b), "--n-docs", "6",
                "--doc-len", "3", "--n-concepts", "4", "--seed", "10"]) == 0
    assert (a / "synth.tgt.txt").read_bytes() != (b / "synth.tgt.txt").read_bytes()


def test_build_vocab_roundtrip(workdir):
    sv, tv = load_vocab_pair(workdir / "vocab/vocab.json")
    assert len(sv) > 4 and len(tv) > 4
    manifest = json.loads((workdir / "vocab/run_manifest.json").read_text())
    assert manifest["metrics"]["vocab_src"] == len(sv)


# ---------------------------------------------------------------------------
# configuration precedence


def _args_for(extra):
    parser = build_parser()
    base = ["train", "--src", "s", "--tgt", "t", "--vocab", "v", "--out", "o"]
    return parser.parse_args(base + extra)


def test_profile_is_default():
    cfg = resolve_config(_args_for([]))
    assert cfg == cli.PROFILE_TOY


def test_config_file_overrides_profile(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# comment line\n\nepochs = 3\nlr = 0.001\n")
    cfg = resolve_config(_args_for(["--config", str(f)]))
    assert cfg["epochs"] == 3
    assert cfg["lr"] == 0.001
    assert cfg["d_model"] == cli.PROFILE_TOY["d_model"]


def test_flag_overrides_config_file(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("epochs = 3\n")
    cfg = resolve_config(_args_for(["--config", str(f), "--epochs", "5"]))
    assert cfg["epochs"] == 5


# ---------------------------------------------------------------------------
# train / finetune / translate / evaluate


def test_train_artifacts(workdir, base_ckpt):
    out = base_ckpt.parent
    assert base_ckpt.exists()
    log = (out / "train.log").read_text().splitlines()
    assert all(line.count("\t") == 4 for line in log)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert len(manifest["checkpoint_hashes"]["base"]) == 64
    assert manifest["config"]["epochs"] == 2
    assert manifest["metrics"]["best_epoch"] >= 0


def test_finetune_rejects_wrong_vocab(tmp_path, workdir, base_ckpt):
    other = tmp_path / "other"
    assert run(["gen-synth", "--out", str(other), "--n-docs", "6",
                "--doc-len", "3", "--n-concepts", "2", "--seed", "4"]) == 0
    assert run(["build-vocab", "--src", str(other / "synth.src.txt"),
                "--tgt", str(other / "synth.tgt.txt"),
                "--out", str(other)]) == 0
    code = run(["finetune", "--checkpoint", str(base_ckpt),
                "--stage", "han-encoder",
                "--src", str(workdir / "data/synth.src.txt"),
                "--tgt", str(workdir / "data/synth.tgt.txt"),
                "--vocab", str(other / "vocab.json"),
                "--out", str(tmp_path / "ft")])
    assert code == 2


def test_translate_output_aligns_with_input(tmp_path, workdir, base_ckpt):
    out = tmp_path / "trans"
    assert run(["translate", "--checkpoint", str(base_ckpt),
                "--vocab", str(workdir / "vocab/vocab.json"),
                "--src", str(workdir / "data/synth.src.txt"),
                "--out", str(out)]) == 0
    docs = load_documents(out / "output.tgt.txt")
    src = load_documents(workdir / "data/synth.src.txt")
    assert [len(d) for d in docs] == [len(d) for d in src]


def test_translate_trace_file(tmp_path, workdir, base_ckpt):
    out = tmp_path / "trans"
    assert run(["translate", "--checkpoint", str(base_ckpt),
                "--vocab", str(workdir / "vocab/vocab.json"),
                "--src", str(workdir / "data/synth.src.txt"),
                "--out", str(out), "--trace"]) == 0
    lines = (out / "trace.txt").read_text().splitlines()
    assert lines[0] == "step\tp_copy\ttop5_p_vocab\ttop5_alpha\ttop5_p_w"
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert body and all(l.count("\t") == 4 for l in body)
    # sentence-level decode has no copy machinery: placeholder columns
    assert all(l.split("\t")[1] == "-" for l in body)


def test_translate_too_long_source_names_its_line(tmp_path, workdir,
                                                  base_ckpt, capsys):
    words = load_documents(workdir / "data/synth.src.txt")[0][0]
    long_line = " ".join((words * 70)[:70])
    src = tmp_path / "long.src.txt"
    src.write_text(f"{' '.join(words)}\n{' '.join(words)}\n\n"
                   f"{' '.join(words)}\n{long_line}\n")
    code = run(["translate", "--checkpoint", str(base_ckpt),
                "--vocab", str(workdir / "vocab/vocab.json"),
                "--src", str(src), "--out", str(tmp_path / "trans")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 5:" in err and "70 tokens" in err and "max_len 64" in err


def _translate(tmp_path, workdir, ckpt, vocab=None):
    return run(["translate", "--checkpoint", str(ckpt),
                "--vocab", str(vocab or workdir / "vocab/vocab.json"),
                "--src", str(workdir / "data/synth.src.txt"),
                "--out", str(tmp_path / "trans")])


def test_translate_header_without_params_is_data_error(tmp_path, workdir,
                                                       base_ckpt):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(base_ckpt.read_bytes())
    rewrite_header(ckpt, lambda h: h.pop("params"))
    assert _translate(tmp_path, workdir, ckpt) == 2


def test_translate_invalid_header_config_is_data_error(tmp_path, workdir,
                                                       base_ckpt):
    ckpt = tmp_path / "bad.ckpt"
    for change, _ in INVALID_CONFIGS:
        ckpt.write_bytes(base_ckpt.read_bytes())
        rewrite_header(ckpt, change)
        assert _translate(tmp_path, workdir, ckpt) == 2


@pytest.mark.parametrize("groups", [["base", "copy"], ["base", "nonsense"]])
def test_translate_groups_no_stage_produces_is_data_error(
        tmp_path, workdir, base_ckpt, capsys, groups):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(base_ckpt.read_bytes())
    rewrite_header(ckpt, lambda h: h.update(trained_groups=groups))
    assert _translate(tmp_path, workdir, ckpt) == 2
    assert "no training stage produces" in capsys.readouterr().err


def test_translate_rejects_wrong_vocab(tmp_path, workdir, base_ckpt):
    other = tmp_path / "other"
    assert run(["gen-synth", "--out", str(other), "--n-docs", "6",
                "--doc-len", "3", "--n-concepts", "2", "--seed", "4"]) == 0
    assert run(["build-vocab", "--src", str(other / "synth.src.txt"),
                "--tgt", str(other / "synth.tgt.txt"),
                "--out", str(other)]) == 0
    _, small_tv = load_vocab_pair(other / "vocab.json")
    _, tv = load_vocab_pair(workdir / "vocab/vocab.json")
    assert len(small_tv) < len(tv)
    assert _translate(tmp_path, workdir, base_ckpt,
                      vocab=other / "vocab.json") == 2


def test_vocab_with_a_sep_entry_still_translates(tmp_path, workdir):
    """A vocab.json built with the separator token has ``<sep>`` at id 4 on
    both sides; it loads as an ordinary token and translates with a
    checkpoint of its size."""
    old = tmp_path / "vocab.json"
    save_vocab_pair(old, *(Vocabulary(id_to_token=v.id_to_token[:4] + ["<sep>"]
                                      + v.id_to_token[4:])
                           for v in load_vocab_pair(workdir / "vocab/vocab.json")))
    sv, tv = load_vocab_pair(old)
    assert sv.token_to_id["<sep>"] == tv.token_to_id["<sep>"] == 4
    assert run(["train", "--src", str(workdir / "data/synth.src.txt"),
                "--tgt", str(workdir / "data/synth.tgt.txt"),
                "--vocab", str(old), "--out", str(tmp_path / "base"),
                "--epochs", "0", "--d-model", "16", "--n-layers", "1",
                "--d-ff", "32"]) == 0
    assert _translate(tmp_path, workdir, tmp_path / "base/base.ckpt",
                      vocab=old) == 0
    docs = load_documents(tmp_path / "trans/output.tgt.txt")
    src = load_documents(workdir / "data/synth.src.txt")
    assert [len(d) for d in docs] == [len(d) for d in src]


def test_evaluate_identity_scores_100(tmp_path, workdir):
    out = tmp_path / "eval"
    ref = workdir / "data/synth.tgt.txt"
    assert run(["evaluate", "--candidate", str(ref), "--reference", str(ref),
                "--lexicon", str(workdir / "data/synth.lexicon.json"),
                "--out", str(out)]) == 0
    records = dict(line.split("=", 1) for line in
                   (out / "report.kv").read_text().splitlines())
    assert float(records["bleu4"]) == 100.0
    assert float(records["lc_delta"]) == 0.0
    assert float(records["consistency"]) == 1.0
    docs = load_documents(ref)
    assert float(records["bleu4"]) == bleu4(docs, docs)


def test_evaluate_misaligned_is_data_error(tmp_path, workdir):
    short = tmp_path / "short.txt"
    short.write_text("just one sentence .\n")
    assert run(["evaluate", "--candidate", str(short),
                "--reference", str(workdir / "data/synth.tgt.txt"),
                "--out", str(tmp_path / "e")]) == 2


def test_train_divergence_exits_3(tmp_path, workdir, capsys):
    out = tmp_path / "boom"
    code = run(["train", "--src", str(workdir / "data/synth.src.txt"),
                "--tgt", str(workdir / "data/synth.tgt.txt"),
                "--vocab", str(workdir / "vocab/vocab.json"),
                "--out", str(out), "--epochs", "2",
                "--d-model", "16", "--n-layers", "1", "--d-ff", "32",
                "--dropout", "0.0", "--lr-scale", "1e100"])
    assert code == 3
    note = out / "diverged.note"
    err = capsys.readouterr().err
    assert f"the message above was written to {note}; no checkpoint" in err
    assert note.read_text() in err
    assert not (out / "base.ckpt").exists()


def test_translate_nan_in_a_decoder_weight_exits_3_naming_the_op(
        tmp_path, workdir, base_ckpt, capsys):
    store, cfg, groups = load_checkpoint(base_ckpt)
    store["dec.0.ffn.w1"].data[0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, store, cfg, groups)
    assert _translate(tmp_path, workdir, ckpt) == 3
    assert "non-finite values produced by op 'matmul'" in \
        capsys.readouterr().err


def test_train_nan_in_starting_parameters_exits_3(tmp_path, workdir,
                                                  monkeypatch):
    build = model_package.build_params

    def planted(cfg, rng):
        store = build(cfg, rng)
        store["enc.0.ffn.w1"].data[0, 0] = np.nan
        return store

    monkeypatch.setattr(model_package, "build_params", planted)
    out = tmp_path / "nan"
    code = run(["train", "--src", str(workdir / "data/synth.src.txt"),
                "--tgt", str(workdir / "data/synth.tgt.txt"),
                "--vocab", str(workdir / "vocab/vocab.json"),
                "--out", str(out), "--epochs", "1",
                "--d-model", "16", "--n-layers", "1", "--d-ff", "32"])
    assert code == 3
    assert "epoch 0" in (out / "diverged.note").read_text()
    assert "op 'matmul'" in (out / "diverged.note").read_text()


# ---------------------------------------------------------------------------
# gradcheck subcommand (the real check lives in the acceptance suite; here
# only the wiring is exercised)


def _fake_report(passed):
    # numpy floats, as the real check computes them
    err = np.float64(1e-9 if passed else 0.5)
    return GradCheckReport(max_rel_err=err, worst_param="w", worst_index=0,
                           worst_ad=1.0, worst_fd=1.0, n_checked=10, tol=1e-4)


def test_gradcheck_pass_wiring(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "full_copy_gradcheck",
                        lambda seed=0: _fake_report(True))
    out = tmp_path / "gc"
    assert run(["gradcheck", "--out", str(out)]) == 0
    assert "PASS" in (out / "gradcheck.txt").read_text()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["metrics"]["passed"] is True


def test_gradcheck_fail_wiring(monkeypatch):
    monkeypatch.setattr(cli, "full_copy_gradcheck",
                        lambda seed=0: _fake_report(False))
    assert run(["gradcheck"]) == 3


# ---------------------------------------------------------------------------
# experiment plumbing at miniature scale


def test_experiment_small_end_to_end(tmp_path):
    out = tmp_path / "exp"
    code = run(["experiment", "--out", str(out), "--seed", "5", "--quiet",
                "--n-train", "12", "--n-test", "4", "--doc-len", "3",
                "--n-concepts", "4", "--epochs", "2", "--ft-epochs", "1",
                "--d-model", "16", "--n-layers", "1", "--d-ff", "32",
                "--dropout", "0.0", "--warmup-steps", "20"])
    assert code == 0
    table = (out / "metrics.tsv").read_text().splitlines()
    assert table[0] == ("system\tbleu4\tlc_stem\tlc_delta\tconsistency"
                        "\tconsistency_dropped")
    systems = [line.split("\t")[0] for line in table[1:]]
    assert systems == ["reference", "sentence", "han-joint", "copy"]
    ref = table[1].split("\t")
    assert float(ref[1]) == 100.0
    for sub in ("data", "checkpoints", "translations"):
        assert (out / sub).is_dir()
    for name in ("base", "han-encoder", "han-joint", "copy"):
        assert (out / "checkpoints" / f"{name}.ckpt").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest["checkpoint_hashes"]) == {"sentence", "han-joint",
                                                  "copy"}
