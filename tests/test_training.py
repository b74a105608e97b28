import math

import numpy as np
import pytest

from docnmt import autodiff as ad
from docnmt import training
from docnmt.autodiff import Tensor
from docnmt.corpus import (BatchItem, build_vocab,
                           generate_synthetic_cohesion_corpus, make_batches)
from docnmt.decoding import update_context
from docnmt.errors import ContractError, DataError, TrainingDiverged
from docnmt.model import DocModel, ModelConfig, ParamStore, build_params
from docnmt.model import model as model_module
from docnmt.model.han import CacheEntry, ContextState
from docnmt.model.model import Stack
from docnmt.tokens import PAD_ID, UNK_ID
from docnmt.training import (
    MAX_STACK_ROWS,
    STAGES,
    Adam,
    TrainConfig,
    checkpoint_variant,
    finetune_copy,
    finetune_han,
    inverse_sqrt_lr,
    split_corpus,
    stack_groups,
    train_base,
)

from test_transformer import encode


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


def test_nan_in_starting_parameters_diverges_in_epoch_0():
    """The epoch-0 validation runs inside the divergence guard: a NaN in
    the starting parameters names the op and keeps the initial snapshot."""
    corpus, _, sv, tv, cfg = small_setup()
    init = build_params(cfg, np.random.default_rng([0, 11]))
    init["enc.0.ffn.w1"].data[0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="op 'matmul'") as exc:
        train_base(corpus, cfg, sv, tv,
                   TrainConfig(stage="base", epochs=1, seed=0),
                   init_store=init)
    assert "epoch 0" in str(exc.value)
    assert np.isnan(exc.value.snapshot["enc.0.ffn.w1"][0, 0])


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
    """A sentence batch through the wavefront, as one-sentence documents."""
    model.params.zero_grad()
    batch = [BatchItem(s, t, True, True, "d") for s, t in pairs]
    docs = training._batch_documents(batch, None, model.cfg.n_context)
    total = 0.0
    for loss, _ in training._document_passes(model, docs, "sentence", rng):
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
        loss, n, _ = model.forced_loss(model.teacher_force(pairs, keep))
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


def test_base_epoch_runs_one_teacher_force_per_stacked_group(monkeypatch):
    """The base stage's wavefront over one-sentence documents is the
    stacked passes of ``stack_groups``: one training pass per group of each
    batch, one validation pass per group of the validation sentences
    (epochs 0 and 1), and no gold pass or cache push."""
    corpus, _, sv, tv, cfg = small_setup(n_docs=12, doc_len=3)
    tcfg = TrainConfig(stage="base", epochs=1, seed=0, max_tokens=64,
                       val_fraction=0.3)
    batches, passes, pushes, gold = [], [], [], []
    make_batches, force = training.make_batches, DocModel.teacher_force

    def kept_batches(*args, **kwargs):
        out = make_batches(*args, **kwargs)
        batches.extend(out[0])
        return out

    def recorded_force(self, pairs, keep=None, *args):
        passes.append((pairs, keep is not None))
        return force(self, pairs, keep, *args)

    monkeypatch.setattr(training, "make_batches", kept_batches)
    monkeypatch.setattr(DocModel, "teacher_force", recorded_force)
    monkeypatch.setattr(training, "update_context",
                        lambda *args: pushes.append(args))
    monkeypatch.setattr(training, "_gold_pass",
                        lambda *args: gold.append(args))
    train_base(corpus, cfg, sv, tv, tcfg)

    def grouped(pairs):
        return [[pairs[i] for i in g] for g in stack_groups(pairs)]

    want_train = [g for batch in batches
                  for g in grouped([(it.src_ids, it.tgt_ids) for it in batch])]
    val_docs = training._encode_corpus(
        split_corpus(corpus, tcfg.val_fraction, tcfg.seed)[1], sv, tv,
        min(tcfg.max_len, cfg.max_len - 1))
    want_val = grouped([pair for doc in val_docs for pair in doc])
    assert len(want_train) > len(batches) > 1 and len(want_val) > 1
    assert [p for p, train in passes if train] == want_train
    assert [p for p, train in passes if not train] == want_val * 2
    assert pushes == [] and gold == []


# ---------------------------------------------------------------------------
# gold cache pushes


def count_gold_pushes(monkeypatch):
    calls = []
    push = training.update_context

    def counted(*args, **kwargs):
        calls.append(1)
        return push(*args, **kwargs)

    monkeypatch.setattr(training, "update_context", counted)
    return calls


@pytest.mark.parametrize("doc_len", [1, 3])
def test_gold_pushes_skip_each_documents_last_sentence(monkeypatch, doc_len):
    """Nothing reads the cache entry of a document's last sentence, so it
    is not pushed: n_sentences - n_documents pushes per pass."""
    corpus, _, sv, tv, cfg = small_setup(n_docs=6, doc_len=doc_len)
    store = build_params(cfg, np.random.default_rng(0))
    model = DocModel(cfg, store)
    docs = training._encode_corpus(corpus, sv, tv, 40)
    calls = count_gold_pushes(monkeypatch)
    training._evaluate(model, docs, "han-decoder", cfg.n_context)
    assert len(calls) == corpus.n_sentences - corpus.n_documents

    calls.clear()
    store.set_trainable({"ctx_dec"})
    tcfg = TrainConfig(stage="han-decoder", epochs=1, seed=0)
    train_part, val_part = split_corpus(corpus, tcfg.val_fraction, tcfg.seed)
    training._run_stage((store, cfg, {"base"}), corpus, sv, tv, tcfg)
    per_pass = [part.n_sentences - part.n_documents
                for part in (val_part, train_part, val_part)]
    assert len(calls) == sum(per_pass)
    if doc_len == 1:
        assert calls == []


# ---------------------------------------------------------------------------
# document wavefront (context stages) against the per-sentence loop

CONTEXT_STAGES = ("han-encoder", "han-decoder", "han-joint", "copy")


def context_model(stage, dropout, n_context=2):
    cfg = ModelConfig(vocab_src=30, vocab_tgt=31, d_model=16, n_layers=1,
                      m_heads=2, d_ff=32, dropout=dropout, max_len=64,
                      n_context=n_context)
    store = build_params(cfg, np.random.default_rng([4, 11]))
    store.set_trainable(training.STAGES[stage].trains)
    return DocModel(cfg, store)


def record_pushes(entries, push):
    """``update_context`` that also keeps the entries each push caches,
    keyed by the sentence pair (the cases below repeat no pair)."""
    def recorded(model, context, encoded, out_tokens, variant, rows):
        push(model, context, encoded, out_tokens, variant, rows)
        key = (tuple(encoded.token_ids.ids), tuple(out_tokens))
        assert key not in entries
        entries[key] = [side[-1] for side, on in
                        ((context.source, variant in model_module.ENCODER_CTX),
                         (context.target, variant in model_module.DECODER_CTX))
                        if on]
    return recorded


def push_gold(push, model, context, src, tgt, variant):
    """The per-sentence gold push: an eval encode, then one teacher-forced
    eval pass over the target for its rows, both before anything is
    pushed."""
    with ad.no_grad():
        encoded = encode(model, src, context, variant)
    entry = model.target_cache_entry(tgt, encoded, context, variant)
    push(model, context, encoded, tgt, variant, entry.states.data)


def document_loop(model, batches, variant, rng, entries):
    """The per-sentence loop the wavefront replaces, over document batches:
    per batch the summed loss and the gradients.  Each gold push is
    ``push_gold``; the caches carry over batch boundaries."""
    push = record_pushes(entries, update_context)
    context = ContextState(model.cfg.n_context)
    results = []
    for batch in batches:
        model.params.zero_grad()
        total = 0.0
        for item in batch:
            if item.doc_start:
                context.clear()
            loss, n, _ = model.sentence_loss(item.src_ids, item.tgt_ids,
                                             context, variant, train=True,
                                             rng=rng)
            ad.backward(loss * float(n))
            total += float(loss.data) * n
            if not item.doc_end:
                push_gold(push, model, context, item.src_ids, item.tgt_ids,
                          variant)
        results.append((total, grads_of(model)))
    return results


def grads_of(model):
    return {k: p.grad for k, p in model.params.items() if p.grad is not None}


def wavefront_run(model, batches, variant, rng, entries, monkeypatch):
    monkeypatch.setattr(training, "update_context",
                        record_pushes(entries, update_context))
    docs, results = [], []
    for batch in batches:
        model.params.zero_grad()
        docs = training._batch_documents(batch, docs[-1] if docs else None,
                                         model.cfg.n_context)
        total = 0.0
        for loss, _ in training._document_passes(model, docs, variant, rng):
            ad.backward(loss)
            total += float(loss.data)
        results.append((total, grads_of(model)))
    return results


def document_batches(rng, lengths, cut, special_doc=None):
    """Documents of the given lengths with random, distinct sentences, as
    two batches split after item ``cut``; document ``special_doc`` has a
    first target of reserved ids only (nothing in it may be copied)."""
    items = []
    for d, n in enumerate(lengths):
        for s in range(n):
            src = [int(i) for i in rng.integers(4, 30, rng.integers(1, 9))]
            tgt = [int(i) for i in rng.integers(4, 31, rng.integers(1, 9))]
            if d == special_doc and s == 0:
                tgt = [UNK_ID] * (d + 1)
            items.append(BatchItem(src, tgt, s == 0, s == n - 1, f"d{d}"))
    return [items[:cut], items[cut:]]


def assert_entries_match(got, want, tol):
    assert got.keys() == want.keys()
    for key, pushed in want.items():
        assert len(got[key]) == len(pushed)
        for a, b in zip(got[key], pushed):
            assert a.token_ids == b.token_ids
            np.testing.assert_allclose(a.states.data, b.states.data,
                                       rtol=0, atol=tol)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("stage", CONTEXT_STAGES)
def test_wavefront_matches_per_sentence_loop(stage, dropout, monkeypatch):
    """Two batches of documents of one to six sentences (0 to n_context
    cached, one document split across the batches, one whose cache has
    nothing to copy): per batch the loss and every gradient within 1e-12
    relative, every gold cache entry within 1e-12, the same dropout draws,
    and the generator left where the loop leaves it."""
    variant = stage
    model = context_model(stage, dropout)
    batches = document_batches(np.random.default_rng(6), [1, 6, 1, 3, 2, 4],
                               cut=5, special_doc=3)
    assert not batches[1][0].doc_start            # document 1 is split
    want_entries, got_entries = {}, {}
    rng_loop, rng_wave = np.random.default_rng(21), np.random.default_rng(21)
    want = document_loop(model, batches, variant, rng_loop, want_entries)
    got = wavefront_run(model, batches, variant, rng_wave, got_entries,
                        monkeypatch)
    for (got_loss, got_g), (want_loss, want_g) in zip(got, want):
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        assert set(got_g) == set(want_g) != set()
        for name, g in want_g.items():
            assert np.abs(got_g[name] - g).max() <= 1e-12 * np.abs(g).max(), \
                name
    assert_entries_match(got_entries, want_entries, 1e-12)
    assert len(want_entries) == 17 - 6
    assert rng_wave.random() == rng_loop.random()


def test_wavefront_groups_by_cache_size_and_copyability():
    """One pass per (position, numbers of cached sentences, copyable)
    group; positions in order, each document once per position."""
    docs = [training._Doc(ContextState(2), [([4], [5])] * n)
            for n in (3, 1, 2, 3)]
    docs[3].context.push_target(CacheEntry([UNK_ID], Tensor(np.zeros((1, 4)))))
    passes = list(training._wavefront(docs))
    assert passes == [(0, [0, 1, 2]), (0, [3]), (1, [0, 2]), (1, [3]),
                      (2, [0]), (2, [3])]


@pytest.mark.parametrize("stage", CONTEXT_STAGES)
def test_carried_caches_cross_batch_boundaries(stage, monkeypatch):
    """make_batches splits documents across batches; the wavefront carries
    their caches over exactly as the loop does: the same gold pushes, each
    entry within 1e-12."""
    variant = stage
    corpus, _, sv, tv, _ = small_setup(n_docs=8, doc_len=4)
    model = context_model(stage, 0.1, n_context=3)
    batches, _ = make_batches(corpus, sv, tv, 40, 40, seed=3)
    assert sum(not b[0].doc_start for b in batches) >= 2
    # the synthetic sentences repeat: mark each pair to key its entries
    marks = iter(range(26 * 26))
    batches = [[BatchItem(i.src_ids + [4 + k // 26, 4 + k % 26], i.tgt_ids,
                          i.doc_start, i.doc_end, i.doc_id)
                for i, k in zip(batch, marks)] for batch in batches]
    want_entries, got_entries = {}, {}
    rng_loop, rng_wave = np.random.default_rng(2), np.random.default_rng(2)
    document_loop(model, batches, variant, rng_loop, want_entries)
    wavefront_run(model, batches, variant, rng_wave, got_entries, monkeypatch)
    # one recorded entry per push, no pair pushed twice
    assert len(got_entries) == len(want_entries) == \
        corpus.n_sentences - corpus.n_documents
    assert_entries_match(got_entries, want_entries, 1e-12)


@pytest.mark.parametrize("stage", CONTEXT_STAGES)
def test_validation_wavefront_matches_loop(stage, monkeypatch):
    """Validation: loss and mean p_copy as the per-sentence loop's, within
    1e-12, and cache entries within 1e-12 of ``target_cache_entry``'s."""
    variant = stage
    model = context_model(stage, 0.1, n_context=3)
    rng = np.random.default_rng(9)
    docs = [[([int(i) for i in rng.integers(4, 30, rng.integers(1, 9))],
              [int(i) for i in rng.integers(4, 31, rng.integers(1, 9))])
             for _ in range(n)] for n in (1, 5, 2, 4, 3)]
    want_entries, got_entries = {}, {}
    push = record_pushes(want_entries, update_context)
    total, n_tokens, pc_sum = 0.0, 0, 0.0
    with ad.no_grad():
        for doc in docs:
            context = ContextState(3)
            for s, (src, tgt) in enumerate(doc):
                loss, n, mean_pc = model.sentence_loss(src, tgt, context,
                                                       variant)
                total += float(loss.data) * n
                n_tokens += n
                pc_sum += (mean_pc or 0.0) * n
                if s + 1 < len(doc):
                    push_gold(push, model, context, src, tgt, variant)
    monkeypatch.setattr(training, "update_context",
                        record_pushes(got_entries, update_context))
    loss, mean_pc = training._evaluate(model, docs, variant, 3)
    assert abs(loss - total / n_tokens) <= 1e-12 * loss
    if variant == "copy":   # every sentence after the first may copy
        pc_tokens = sum(len(t) + 1 for doc in docs for _, t in doc[1:])
        assert abs(mean_pc - pc_sum / pc_tokens) <= 1e-12
        assert 0.0 < mean_pc < 1.0
    else:
        assert mean_pc is None
    assert_entries_match(got_entries, want_entries, 1e-12)


def test_validation_entries_are_the_evaluation_pass_rows(monkeypatch):
    """Validation caches the rows of the pass that gave its loss; a
    separate evaluation pass over the same documents (as training runs for
    its gold entries) gives the same entries, bitwise."""
    model = context_model("copy", 0.1, n_context=2)
    rng = np.random.default_rng(10)
    docs = [[([int(i) for i in rng.integers(4, 30, 5)],
              [int(i) for i in rng.integers(4, 31, rng.integers(2, 7))])
             for _ in range(4)] for _ in range(3)]
    got_entries, want_entries = {}, {}
    monkeypatch.setattr(training, "update_context",
                        record_pushes(got_entries, update_context))
    training._evaluate(model, docs, "copy", 2)
    monkeypatch.setattr(training, "update_context",
                        record_pushes(want_entries, update_context))
    wave = [training._Doc(ContextState(2), list(doc)) for doc in docs]
    for s, group in training._wavefront(wave):
        pushing = [wave[i] for i in group if wave[i].pushes(s)]
        if pushing:
            training._gold_pass(model, pushing, s, "copy")
    assert len(got_entries) == 9
    assert_entries_match(got_entries, want_entries, 0.0)


# ---------------------------------------------------------------------------
# staged fine-tuning


def base_checkpoint(corpus, sv, tv, cfg, epochs=1, seed=0):
    r = train_base(corpus, cfg, sv, tv,
                   TrainConfig(stage="base", epochs=epochs, seed=seed))
    return r.store, r.model_cfg, r.trained_groups


def diff_groups(before, store):
    group_of = {n: g for n, _, g in store.manifest()}
    touched = set()
    for name, tensor in store.items():
        if not np.array_equal(before[name], tensor.data):
            touched.add(group_of[name])
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
    with pytest.raises(ContractError, match="warmup_steps"):
        TrainConfig(warmup_steps=0)


def test_checkpoint_variant_reads_each_stage_row():
    """A checkpoint holds its stage's trained plus required groups, and
    those name the stage's variant (stages that end in the same groups
    train the same variant); no other set of groups names one."""
    for stage in STAGES.values():
        groups = stage.trains | stage.requires
        assert checkpoint_variant(sorted(groups)) == stage.variant
    for groups in (["base", "copy"], ["ctx_enc"], ["base", "nonsense"], []):
        with pytest.raises(DataError, match="no training stage"):
            checkpoint_variant(groups)


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

