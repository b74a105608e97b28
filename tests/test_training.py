import math

import numpy as np
import pytest

from docnmt import autodiff as ad
from docnmt import training
from docnmt.corpus import (BatchItem, build_vocab,
                           generate_synthetic_cohesion_corpus)
from docnmt.errors import ContractError, DataError, TrainingDiverged
from docnmt.model import DocModel, ModelConfig, ParamStore, build_params
from docnmt.model import model as model_module
from docnmt.model.model import Stack
from docnmt.tokens import PAD_ID
from docnmt.training import (
    MAX_STACK_ROWS,
    Adam,
    TrainConfig,
    finetune_copy,
    finetune_han,
    inverse_sqrt_lr,
    split_corpus,
    stack_groups,
    train_base,
)


def small_setup(n_docs=6, doc_len=2, seed=0, **cfg_over):
    corpus, lex = generate_synthetic_cohesion_corpus(
        n_docs=n_docs, doc_len=doc_len, n_concepts=3, seed=seed)
    sv = build_vocab(corpus, "src")
    tv = build_vocab(corpus, "tgt")
    cfg = ModelConfig(len(sv), len(tv), d_model=8, n_layers=1, m_heads=2,
                      d_ff=16, dropout=0.0, n_context=3, **cfg_over)
    return corpus, lex, sv, tv, cfg


# ---------------------------------------------------------------------------
# optimizer and schedule


def test_adam_matches_hand_stepped_scalar_oracle():
    store = ParamStore()
    w = store.add("w", np.array([[0.5]]), "base")
    w.requires_grad = True
    opt = Adam(store)
    lr = 0.1

    # oracle: straight-line arithmetic for loss w^2/2 (gradient = w)
    b1, b2, eps = 0.9, 0.999, 1e-8
    ew, m, v = 0.5, 0.0, 0.0
    for t in (1, 2, 3):
        g = ew
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ew -= lr * mhat / (math.sqrt(vhat) + eps)

        w.grad = w.data.copy()   # gradient of w^2/2 at current w
        opt.step(lr)
        w.grad = None

    assert abs(float(w.data[0, 0]) - ew) <= 1e-12


def test_adam_skips_frozen_and_gradless_parameters():
    store = ParamStore()
    a = store.add("a", np.ones((1, 1)), "base")
    b = store.add("b", np.ones((1, 1)), "copy")
    a.requires_grad = True
    b.requires_grad = False
    a.grad = np.ones((1, 1))
    b.grad = np.ones((1, 1))
    Adam(store).step(0.5)
    assert a.data[0, 0] != 1.0
    assert b.data[0, 0] == 1.0


def test_inverse_sqrt_schedule_shape():
    d, warm = 64, 100
    values = [inverse_sqrt_lr(t, d, warm) for t in range(1, 301)]
    peak = int(np.argmax(values)) + 1
    assert peak == warm
    assert values[10] < values[50] < values[99]
    assert values[100] > values[200] > values[299]
    assert values[24] == pytest.approx(64 ** -0.5 * 25 * 100 ** -1.5)
    with pytest.raises(ContractError):
        inverse_sqrt_lr(0, d, warm)


# ---------------------------------------------------------------------------
# corpus splitting


def test_split_corpus_disjoint_and_deterministic():
    corpus, *_ = small_setup(n_docs=10)
    tr1, va1 = split_corpus(corpus, 0.2, seed=3)
    tr2, va2 = split_corpus(corpus, 0.2, seed=3)
    assert va1.n_documents == 2 and tr1.n_documents == 8
    assert va1.doc_ids == va2.doc_ids and tr1.doc_ids == tr2.doc_ids
    assert not set(va1.doc_ids) & set(tr1.doc_ids)
    assert sorted(va1.doc_ids + tr1.doc_ids) == sorted(corpus.doc_ids)


def test_split_single_document_validates_on_itself():
    corpus, *_ = small_setup(n_docs=1)
    tr, va = split_corpus(corpus, 0.5, seed=0)
    assert tr.doc_ids == va.doc_ids == corpus.doc_ids


@pytest.mark.parametrize("n_docs, fraction", [(2, 0.75), (10, 0.97)])
def test_split_keeps_one_training_document(n_docs, fraction):
    corpus, *_ = small_setup(n_docs=n_docs)
    tr, va = split_corpus(corpus, fraction, seed=0)
    assert tr.n_documents == 1 and va.n_documents == n_docs - 1
    assert not set(va.doc_ids) & set(tr.doc_ids)


# ---------------------------------------------------------------------------
# base training


def test_zero_epoch_run_returns_initialization():
    corpus, _, sv, tv, cfg = small_setup()
    init = build_params(cfg, np.random.default_rng([0, 11]))
    before = init.snapshot()
    result = train_base(corpus, cfg, sv, tv,
                        TrainConfig(stage="base", epochs=0, seed=0),
                        init_store=init)
    assert result.best_epoch == 0
    assert len(result.history) == 1 and result.history[0].epoch == 0
    after = result.store.snapshot()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])


@pytest.mark.parametrize("long_in", [("train",), ("val",), ("train", "val")])
def test_over_long_targets_are_truncated_to_fit_bos(long_in):
    """A 64-token target needs 65 decoder positions with BOS; a 70-token
    validation target is not batched at all.  Both are truncated to fit
    the model's max_len."""
    corpus, _, sv, tv, cfg = small_setup(max_len=64)
    tcfg = TrainConfig(stage="base", epochs=1, seed=0)
    train_part, val_part = split_corpus(corpus, tcfg.val_fraction, tcfg.seed)
    for side, part, length in (("train", train_part, 64),
                               ("val", val_part, 70)):
        if side in long_in:
            src, tgt = part.documents[0][0]
            part.documents[0][0] = (src, (tgt * length)[:length])
    result = train_base(corpus, cfg, sv, tv, tcfg)
    assert len(result.history) == 2
    assert math.isfinite(result.history[-1].val_loss)


def test_base_training_reproducible_and_seed_sensitive():
    corpus, _, sv, tv, cfg = small_setup()
    tcfg = TrainConfig(stage="base", epochs=2, seed=5, max_tokens=64)
    r1 = train_base(corpus, cfg, sv, tv, tcfg)
    r2 = train_base(corpus, cfg, sv, tv, tcfg)
    losses1 = [(h.train_loss, h.val_loss) for h in r1.history]
    losses2 = [(h.train_loss, h.val_loss) for h in r2.history]
    for (a, b), (c, d) in zip(losses1, losses2):
        if a is None:
            assert c is None
        else:
            assert abs(a - c) <= 1e-12
        assert abs(b - d) <= 1e-12
    s1, s2 = r1.store.snapshot(), r2.store.snapshot()
    for name in s1:
        np.testing.assert_array_equal(s1[name], s2[name])
    r3 = train_base(corpus, cfg, sv, tv,
                    TrainConfig(stage="base", epochs=2, seed=6, max_tokens=64))
    assert any(h.val_loss != g.val_loss
               for h, g in zip(r1.history, r3.history))


def test_base_training_loss_decreases_early():
    corpus, _, sv, tv, cfg = small_setup(n_docs=12, doc_len=3)
    tcfg = TrainConfig(stage="base", epochs=3, seed=1, max_tokens=128,
                       warmup_steps=30, lr_scale=2.0)
    result = train_base(corpus, cfg, sv, tv, tcfg)
    train = [h.train_loss for h in result.history if h.train_loss is not None]
    assert len(train) == 3
    assert train[0] > train[1] > train[2]


def test_best_checkpoint_never_beats_itself():
    corpus, _, sv, tv, cfg = small_setup()
    result = train_base(corpus, cfg, sv, tv,
                        TrainConfig(stage="base", epochs=2, seed=2))
    assert result.best_val_loss == min(h.val_loss for h in result.history)
    assert result.history[result.best_epoch].val_loss == result.best_val_loss


def test_training_log_lines(tmp_path):
    corpus, _, sv, tv, cfg = small_setup()
    log = tmp_path / "train.log"
    train_base(corpus, cfg, sv, tv,
               TrainConfig(stage="base", epochs=1, seed=0), log_path=log)
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    stage, epoch, train, val, pc = lines[0].split("\t")
    assert (stage, epoch, train, pc) == ("base", "0", "-", "-")
    float(val)
    stage, epoch, train, val, pc = lines[1].split("\t")
    assert (stage, epoch, pc) == ("base", "1", "-")
    float(train), float(val)


def test_divergence_raises_with_last_finite_snapshot():
    corpus, _, sv, tv, cfg = small_setup()
    # softmax max-subtraction and the clamped log absorb ordinary blowups,
    # so force genuine float64 overflow: params ~1e100 make q@k infinite
    tcfg = TrainConfig(stage="base", epochs=2, seed=0, lr_scale=1e100,
                       warmup_steps=1)
    init = build_params(cfg, np.random.default_rng([0, 11]))
    before = init.snapshot()
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as exc:
            train_base(corpus, cfg, sv, tv, tcfg, init_store=init)
    snap = exc.value.snapshot
    assert snap is not None
    for name, arr in snap.items():
        assert np.isfinite(arr).all()
        np.testing.assert_array_equal(arr, before[name])  # best was epoch 0
    # the store was rolled back to that snapshot
    np.testing.assert_array_equal(init["out.w"].data, snap["out.w"])


def test_nan_in_base_parameter_diverges_naming_the_op(monkeypatch):
    corpus, _, sv, tv, cfg = small_setup()
    step = Adam.step

    def step_then_plant(self, lr):
        step(self, lr)
        self.store["enc.0.ffn.w1"].data[0, 0] = np.nan

    monkeypatch.setattr(Adam, "step", step_then_plant)
    with pytest.raises(TrainingDiverged, match="op 'matmul'") as exc:
        train_base(corpus, cfg, sv, tv,
                   TrainConfig(stage="base", epochs=1, seed=0, max_tokens=64))
    assert all(np.isfinite(a).all() for a in exc.value.snapshot.values())


# ---------------------------------------------------------------------------
# stacked teacher forcing (base stage) against the per-sentence loop


def stacked_model(dropout):
    cfg = ModelConfig(vocab_src=30, vocab_tgt=31, d_model=32, n_layers=2,
                      m_heads=2, d_ff=64, dropout=dropout, max_len=64)
    store = build_params(cfg, np.random.default_rng([3, 11]))
    store.set_trainable({"base"})
    return DocModel(cfg, store)


def random_pairs(rng, n, lo=1, hi=9):
    return [([int(i) for i in rng.integers(4, 30, rng.integers(lo, hi))],
             [int(i) for i in rng.integers(4, 31, rng.integers(lo, hi))])
            for _ in range(n)]


def loop_reference(model, pairs, rng):
    """The per-sentence loop the stacked passes replace."""
    model.params.zero_grad()
    total = 0.0
    for src, tgt in pairs:
        loss, n, _ = model.sentence_loss(src, tgt, None, "sentence",
                                         train=True, rng=rng)
        ad.backward(loss * float(n))
        total += float(loss.data) * n
    return total, {k: p.grad for k, p in model.params.items()
                   if p.grad is not None}


def stacked_run(model, pairs, rng):
    model.params.zero_grad()
    batch = [BatchItem(s, t, False, False, "d") for s, t in pairs]
    total = 0.0
    for loss, _ in training._stacked_passes(model, batch, rng):
        ad.backward(loss)
        total += float(loss.data)
    return total, {k: p.grad for k, p in model.params.items()
                   if p.grad is not None}


def stacked_cases():
    rng = np.random.default_rng(8)
    equal = [([5 + i, 6, 7], [8, 9 + i, 10, 11]) for i in range(5)]
    oov = [([4, 99, -3, 7], [200, 5, 6]), ([1000], [-1]), ([5, 6], [7, 31])]
    return {
        "length-1 and max_len-1 targets": [([4, 5], [6]), ([7] * 9, [8] * 63),
                                           ([9, 10, 11], [12, 13])],
        "one pair": [([4, 5, 6], [7, 8])],
        "equal lengths": equal,
        "several groups": random_pairs(rng, 24),
        "out-of-range ids": oov,
    }


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("case", sorted(stacked_cases()))
def test_stacked_passes_match_per_sentence_loop(case, dropout):
    """Loss and every gradient within 1e-12 relative (summation order
    differs), the same dropout draws, the generator left where the loop
    leaves it."""
    pairs = stacked_cases()[case]
    model = stacked_model(dropout)
    rng_loop, rng_stack = np.random.default_rng(21), np.random.default_rng(21)
    want, want_g = loop_reference(model, pairs, rng_loop)
    got, got_g = stacked_run(model, pairs, rng_stack)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert set(got_g) == set(want_g)
    for name, g in want_g.items():
        assert np.abs(got_g[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    assert rng_stack.random() == rng_loop.random()
    if case == "several groups":
        assert len(stack_groups(pairs)) >= 3


def test_stack_groups_respect_the_row_cap():
    """On both sides: a long source with a short target runs alone too."""
    long_tgt, long_src = ([4], [5] * 60), ([4] * 60, [5])
    pairs = random_pairs(np.random.default_rng(2), 40) + [long_tgt, long_src]
    groups = stack_groups(pairs)
    assert sorted(i for g in groups for i in g) == list(range(len(pairs)))
    for g in groups:
        src_width = max(len(pairs[i][0]) for i in g)
        tgt_width = max(len(pairs[i][1]) for i in g) + 1
        assert len(g) == 1 or len(g) * max(src_width, tgt_width) <= MAX_STACK_ROWS
    assert [40] in groups and [41] in groups   # the long pairs run alone


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_stacked_loss_ignores_pad_ids(dropout, monkeypatch):
    model = stacked_model(dropout)
    pairs = random_pairs(np.random.default_rng(5), 6)
    results = []
    for fill in (PAD_ID, 17, 10**6):
        monkeypatch.setattr(model_module, "PAD_ID", fill)
        keep = None
        if dropout:
            rng = np.random.default_rng(4)
            keep = [model.dropout_masks(len(s), len(t), rng) for s, t in pairs]
        model.params.zero_grad()
        loss, n = model.stacked_loss(pairs, keep)
        assert fill in Stack.of([s for s, _ in pairs]).ids
        ad.backward(loss)
        results.append((loss.data.copy(), {k: p.grad for k, p in
                                           model.params.items()
                                           if p.grad is not None}))
    (loss0, g0), *others = results
    for loss, g in others:
        np.testing.assert_array_equal(loss, loss0)
        assert set(g) == set(g0)
        for name in g0:
            np.testing.assert_array_equal(g[name], g0[name])


def test_one_adam_step_per_batch(monkeypatch):
    corpus, _, sv, tv, cfg = small_setup(n_docs=12, doc_len=3)
    n_batches, n_steps = [], []
    make_batches, step = training.make_batches, Adam.step

    def counted_batches(*args, **kwargs):
        batches, truncated = make_batches(*args, **kwargs)
        n_batches.append(len(batches))
        return batches, truncated

    def counted_step(self, lr):
        n_steps.append(lr)
        step(self, lr)

    monkeypatch.setattr(training, "make_batches", counted_batches)
    monkeypatch.setattr(Adam, "step", counted_step)
    train_base(corpus, cfg, sv, tv,
               TrainConfig(stage="base", epochs=2, seed=0, max_tokens=64))
    assert len(n_batches) == 2 and min(n_batches) > 1
    assert len(n_steps) == sum(n_batches)


# ---------------------------------------------------------------------------
# gold cache pushes


def count_cache_entries(monkeypatch):
    calls = []
    entry = DocModel.target_cache_entry

    def counted(self, *args, **kwargs):
        calls.append(1)
        return entry(self, *args, **kwargs)

    monkeypatch.setattr(DocModel, "target_cache_entry", counted)
    return calls


@pytest.mark.parametrize("doc_len", [1, 3])
def test_gold_pushes_skip_each_documents_last_sentence(monkeypatch, doc_len):
    """The next document clears the caches, so nothing caches its last
    sentence: n_sentences - n_documents cache entries per pass."""
    corpus, _, sv, tv, cfg = small_setup(n_docs=6, doc_len=doc_len)
    store = build_params(cfg, np.random.default_rng(0))
    model = DocModel(cfg, store)
    docs = training._encode_corpus(corpus, sv, tv, 40)
    calls = count_cache_entries(monkeypatch)
    training._evaluate(model, docs, "han-decoder", cfg.n_context)
    assert len(calls) == corpus.n_sentences - corpus.n_documents

    calls.clear()
    store.set_trainable({"ctx_dec"})
    tcfg = TrainConfig(stage="han-decoder", epochs=1, seed=0)
    train_part, val_part = split_corpus(corpus, tcfg.val_fraction, tcfg.seed)
    training._run_stage(store, cfg, corpus, sv, tv, tcfg, {"base"})
    per_pass = [part.n_sentences - part.n_documents
                for part in (val_part, train_part, val_part)]
    assert len(calls) == sum(per_pass)
    if doc_len == 1:
        assert calls == []


# ---------------------------------------------------------------------------
# staged fine-tuning


def base_checkpoint(corpus, sv, tv, cfg, epochs=1, seed=0):
    r = train_base(corpus, cfg, sv, tv,
                   TrainConfig(stage="base", epochs=epochs, seed=seed))
    return r.store, r.model_cfg, r.trained_groups


def diff_groups(before, store):
    touched = set()
    for name, tensor in store.items():
        if not np.array_equal(before[name], tensor.data):
            touched.add(store.group_of(name))
    return touched


def test_stage_isolation_all_finetune_stages():
    corpus, _, sv, tv, cfg = small_setup(n_docs=4, doc_len=2)
    ckpt = base_checkpoint(corpus, sv, tv, cfg)

    for stage, expect in (("han-encoder", {"ctx_enc"}),
                          ("han-decoder", {"ctx_dec"})):
        store, mc, groups = ckpt
        snap = store.snapshot()
        tcfg = TrainConfig(stage=stage, epochs=1, seed=0, lr=1e-3)
        result = finetune_han((store, mc, set(groups)), corpus, sv, tv, tcfg)
        assert diff_groups(snap, result.store) == expect
        assert result.trained_groups == {"base"} | expect
        result.store.load_snapshot(snap)  # restore for next stage

    # joint and copy build on a han-encoder checkpoint
    store, mc, groups = ckpt
    enc = finetune_han((store, mc, set(groups)), corpus, sv, tv,
                       TrainConfig(stage="han-encoder", epochs=1, lr=1e-3))
    snap = enc.store.snapshot()
    joint = finetune_han((enc.store, mc, set(enc.trained_groups)),
                         corpus, sv, tv,
                         TrainConfig(stage="han-joint", epochs=1, lr=1e-3))
    assert diff_groups(snap, joint.store) == {"ctx_dec"}
    joint.store.load_snapshot(snap)
    cp = finetune_copy((joint.store, mc, {"base", "ctx_enc"}),
                       corpus, sv, tv,
                       TrainConfig(stage="copy", epochs=1, lr=1e-3))
    assert diff_groups(snap, cp.store) == {"ctx_dec", "copy"}
    assert cp.trained_groups == {"base", "ctx_enc", "ctx_dec", "copy"}


def test_lineage_validation():
    corpus, _, sv, tv, cfg = small_setup(n_docs=3, doc_len=2)
    store, mc, groups = base_checkpoint(corpus, sv, tv, cfg, epochs=0)
    with pytest.raises(DataError, match="ctx_enc"):
        finetune_han((store, mc, {"base"}), corpus, sv, tv,
                     TrainConfig(stage="han-joint", epochs=1))
    with pytest.raises(DataError, match="ctx_enc"):
        finetune_copy((store, mc, {"base"}), corpus, sv, tv,
                      TrainConfig(stage="copy", epochs=1))
    fresh = build_params(mc, np.random.default_rng(0))
    with pytest.raises(DataError, match="base"):
        finetune_han((fresh, mc, set()), corpus, sv, tv,
                     TrainConfig(stage="han-encoder", epochs=1))


def test_stage_function_guards():
    corpus, _, sv, tv, cfg = small_setup(n_docs=3, doc_len=2)
    store, mc, groups = base_checkpoint(corpus, sv, tv, cfg, epochs=0)
    with pytest.raises(ContractError):
        train_base(corpus, cfg, sv, tv, TrainConfig(stage="copy"))
    with pytest.raises(ContractError):
        finetune_han((store, mc, groups), corpus, sv, tv,
                     TrainConfig(stage="base"))
    with pytest.raises(ContractError):
        finetune_copy((store, mc, groups), corpus, sv, tv,
                      TrainConfig(stage="han-joint"))
    with pytest.raises(ContractError):
        TrainConfig(stage="nonsense")


def test_finetune_best_no_worse_than_start():
    corpus, _, sv, tv, cfg = small_setup(n_docs=6, doc_len=3)
    ckpt = base_checkpoint(corpus, sv, tv, cfg, epochs=2)
    result = finetune_han((ckpt[0], ckpt[1], set(ckpt[2])), corpus, sv, tv,
                          TrainConfig(stage="han-encoder", epochs=2, lr=1e-3))
    assert result.best_val_loss <= result.history[0].val_loss


def test_copy_stage_reports_mean_p_copy_and_wc_gradient():
    corpus, _, sv, tv, cfg = small_setup(n_docs=4, doc_len=3)
    ckpt = base_checkpoint(corpus, sv, tv, cfg, epochs=1)
    enc = finetune_han((ckpt[0], ckpt[1], set(ckpt[2])), corpus, sv, tv,
                       TrainConfig(stage="han-encoder", epochs=1, lr=1e-3))
    wc_before = enc.store["copy.wc"].data.copy()
    result = finetune_copy((enc.store, ckpt[1], set(enc.trained_groups)),
                           corpus, sv, tv,
                           TrainConfig(stage="copy", epochs=1, lr=1e-3))
    pc = [h.mean_p_copy for h in result.history]
    assert all(v is not None and 0.0 <= v <= 1.0 for v in pc)
    # the gate starts nearly closed
    assert result.history[0].mean_p_copy == pytest.approx(
        1.0 / (1.0 + math.exp(2.0)), abs=0.02)
    # W_c moved, so its gradient was nonzero somewhere
    assert not np.array_equal(wc_before, result.store["copy.wc"].data)

