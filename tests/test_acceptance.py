"""Top-level acceptance checks for the whole package.

Each test states a behavioral contract end to end: distribution soundness of
the copy mixture, oracle equivalence for the head-averaged copy weights,
finite-difference gradient fidelity of the full model, reduction of the
context variants to simpler ones, the synthetic cohesion experiment
orderings, hand-worked metric fixtures, beam-search enumeration equivalence,
and bitwise reproducibility.  Stated runtime budgets are asserted.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from docnmt import autodiff as ad
from docnmt.autodiff import Tensor
from docnmt.cli import run
from docnmt.corpus import (
    build_vocab,
    generate_synthetic_cohesion_corpus,
    load_corpus,
    save_corpus,
)
from docnmt.decoding import SearchConfig, search, translate_document
from docnmt.diagnostics import full_copy_gradcheck
from docnmt.metrics import bleu4, lc_score
from docnmt.model import DocModel, build_params
from docnmt.model.config import ModelConfig
from docnmt.model.han import AttentionTrace, CacheEntry, ContextState
from docnmt.tokens import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from docnmt.training import TrainConfig, finetune_copy

from decode_reference import greedy_search, incremental_step
from han_reference import block_trace, trace_copy_weights, with_distinct_ids
from test_transformer import encode

# ---------------------------------------------------------------------------
# shared model helpers


def _tiny_model(seed: int, vocab_src: int = 11, vocab_tgt: int = 13):
    cfg = ModelConfig(vocab_src, vocab_tgt, d_model=8, n_layers=1, m_heads=2,
                      d_ff=16, dropout=0.0, n_context=3)
    store = build_params(cfg, np.random.default_rng([seed, 0]))
    return DocModel(cfg, store), cfg


def _random_cache_entry(rng, d: int, vocab: int, max_len: int = 5) -> CacheEntry:
    n = int(rng.integers(1, max_len + 1))
    ids = [int(i) for i in rng.integers(4, vocab, size=n)]
    states = Tensor._wrap(rng.standard_normal((n, d)))
    return CacheEntry(token_ids=ids, states=states)


def _random_state(model, cfg, rng, with_source_cache: bool = True):
    """A filled context, an encoded source sentence, and a decode prefix."""
    context = ContextState(cfg.n_context)
    for _ in range(int(rng.integers(1, 3))):
        if with_source_cache:
            context.push_source(
                _random_cache_entry(rng, cfg.d_model, cfg.vocab_src))
        context.push_target(
            _random_cache_entry(rng, cfg.d_model, cfg.vocab_tgt))
    src = [int(i) for i in rng.integers(4, cfg.vocab_src,
                                        size=int(rng.integers(2, 6)))]
    encoded = encode(model, src, context, "sentence")
    prefix = [BOS_ID] + [int(i) for i in
                         rng.integers(4, cfg.vocab_tgt,
                                      size=int(rng.integers(0, 4)))]
    return context, encoded, prefix


# ---------------------------------------------------------------------------
# 1. copy-mixture distribution soundness


def test_copy_distribution_soundness():
    start = time.time()
    rng = np.random.default_rng(1001)
    n_steps = 0
    for model_seed in range(25):
        model, cfg = _tiny_model(model_seed)
        for _ in range(40):
            context, encoded, prefix = _random_state(model, cfg, rng)
            result = incremental_step(model, prefix, encoded, context, "copy")
            p_w = result.p_w
            assert result.p_copy is not None, "cache was non-empty"
            assert (p_w >= 0.0).all()
            assert abs(p_w.sum() - 1.0) <= 1e-9
            n_steps += 1
    assert n_steps == 1000

    # with empty caches the mixture must be skipped entirely: bitwise equal
    # to the plain sentence-level distribution
    for model_seed in range(5):
        model, cfg = _tiny_model(model_seed)
        empty = ContextState(cfg.n_context)
        src = [4, 5, 6]
        encoded = encode(model, src, empty, "copy")
        for prefix in ([BOS_ID], [BOS_ID, 7], [BOS_ID, 8, 9]):
            stepped = incremental_step(model, prefix, encoded, empty, "copy")
            plain = incremental_step(model, prefix, encoded, empty, "sentence")
            assert stepped.p_copy is None
            np.testing.assert_array_equal(stepped.p_w, plain.p_w)

    assert time.time() - start <= 60.0


# ---------------------------------------------------------------------------
# 2. copy weights match a naive triple loop


def _random_trace(rng, m: int, vocab: int) -> AttentionTrace:
    n_sents = int(rng.integers(1, 4))
    n_pos = int(rng.integers(1, 4))

    def softmax_rows(cols):
        x = rng.standard_normal((n_pos, cols))
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    lens = [int(rng.integers(1, 6)) for _ in range(n_sents)]
    token_ids = [[int(i) for i in rng.integers(0, vocab, size=n)]
                 for n in lens]
    sent = [softmax_rows(n_sents) for _ in range(m)]
    word = [[softmax_rows(n) for _ in range(m)] for n in lens]
    return block_trace(sent, word, token_ids)


def _naive_alpha(trace: AttentionTrace, vocab: int):
    """Reference implementation: explicit loops over positions, sentences,
    tokens, and heads, reading the block layout of a one-document trace
    (query t's weights on sentence j sit in row j*T+t of the word blocks,
    column j*T+t of the sentence blocks).  Reserved ids get no vocabulary
    mass; the rest is renormalized to sum 1."""
    m = trace.m
    T = trace.n_positions
    sent, word, token_ids = trace.sent.data[0], trace.word.data[0], \
        trace.token_ids[0]
    flat_ids = [i for ids in token_ids for i in ids]
    alpha_tokens = np.zeros((trace.n_positions, len(flat_ids)))
    for t in range(trace.n_positions):
        k = 0
        for j in range(trace.n_sents):
            sent_sum = sum(sent[h, t, j * T + t] for h in range(m))
            for i in range(len(token_ids[j])):
                word_sum = sum(word[h, j * T + t, k] for h in range(m))
                alpha_tokens[t, k] = sent_sum * word_sum / (m * m)
                k += 1
    alpha_vocab = np.zeros((trace.n_positions, vocab))
    for t in range(trace.n_positions):
        for k, tid in enumerate(flat_ids):
            if tid not in (PAD_ID, UNK_ID, BOS_ID, EOS_ID):
                alpha_vocab[t, tid] += alpha_tokens[t, k]
        mass = alpha_vocab[t].sum()
        if mass > 0:
            alpha_vocab[t] /= mass
    return alpha_tokens, alpha_vocab


def test_copy_weights_match_naive_loop():
    start = time.time()
    rng = np.random.default_rng(2002)
    vocab = 17
    n_traces = 0
    for m in (1, 2, 4):
        for _ in range(34 if m == 1 else 33):
            trace = _random_trace(rng, m, vocab)
            got = trace_copy_weights(trace, vocab)
            want_tokens, want_vocab = _naive_alpha(trace, vocab)
            np.testing.assert_allclose(got.alpha_vocab.data, want_vocab,
                                       rtol=0, atol=1e-12)
            # distinct ids: token k's weight is alpha_vocab at id 4 + k
            n_tokens = want_tokens.shape[1]
            got = trace_copy_weights(with_distinct_ids(trace), 4 + n_tokens)
            np.testing.assert_allclose(got.alpha_vocab.data[:, 4:],
                                       want_tokens, rtol=0, atol=1e-12)
            n_traces += 1
    assert n_traces == 100
    assert time.time() - start <= 60.0


# ---------------------------------------------------------------------------
# 3. gradient fidelity of the full copy model


def forbid_per_sentence_passes(monkeypatch):
    """Patch the one-pair reference passes to raise, so that a run under
    the patch shows the package never calls them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("package code called a per-sentence pass")
    for name in ("sentence_loss", "target_cache_entry"):
        monkeypatch.setattr(DocModel, name, forbidden)


def test_full_model_gradient_fidelity(monkeypatch):
    forbid_per_sentence_passes(monkeypatch)
    start = time.time()
    report = full_copy_gradcheck(seed=0)
    assert report.passed, report.summary()
    assert report.max_rel_err <= 1e-4
    # the check must cover every trainable parameter family
    prefixes = {name.split(".")[0] for name in report.per_param}
    assert {"emb", "enc", "dec", "out", "ctx", "copy"} <= prefixes
    assert time.time() - start <= 120.0


def test_package_calls_no_per_sentence_pass(monkeypatch):
    """Training with gold cache pushes, validation and decoding (greedy and
    beam 2) of the copy variant run on the stacked passes alone."""
    forbid_per_sentence_passes(monkeypatch)
    corpus, _ = generate_synthetic_cohesion_corpus(n_docs=6, doc_len=3,
                                                   n_concepts=3, seed=0)
    sv, tv = build_vocab(corpus, "src"), build_vocab(corpus, "tgt")
    cfg = ModelConfig(len(sv), len(tv), d_model=8, n_layers=1, m_heads=2,
                      d_ff=16, dropout=0.1, n_context=3)
    store = build_params(cfg, np.random.default_rng(0))
    result = finetune_copy((store, cfg, {"base", "ctx_enc"}), corpus, sv, tv,
                           TrainConfig(stage="copy", epochs=1))
    assert [r.epoch for r in result.history] == [0, 1]
    model = DocModel(cfg, result.store)
    doc = [sv.encode(s) for s, _ in corpus.documents[0]]
    for width in (1, 2):
        outs, _ = translate_document(model, doc, "copy",
                                     SearchConfig(width=width))
        assert len(outs) == len(doc)


# ---------------------------------------------------------------------------
# 4. reduction equivalences


def test_copy_gate_forced_zero_equals_context_model():
    rng = np.random.default_rng(4004)
    for trial in range(50):
        model, cfg = _tiny_model(trial % 7)
        context, encoded, prefix = _random_state(model, cfg, rng)
        joint = incremental_step(model, prefix, encoded, context, "han-joint")
        copied = incremental_step(model, prefix, encoded, context, "copy")
        assert copied.p_copy is not None
        forced = (1.0 - 0.0) * copied.p_vocab \
            + 0.0 * copied.alpha_vocab
        np.testing.assert_allclose(forced, joint.p_w, rtol=0, atol=1e-12)


def test_empty_cache_variants_equal_sentence_model():
    rng = np.random.default_rng(4014)
    for trial in range(10):
        model, cfg = _tiny_model(100 + trial)
        empty = ContextState(cfg.n_context)
        src = [int(i) for i in rng.integers(4, cfg.vocab_src, size=4)]
        prefix = [BOS_ID] + [int(i) for i in
                             rng.integers(4, cfg.vocab_tgt, size=2)]
        base_enc = encode(model, src, empty, "sentence")
        want = incremental_step(model, prefix, base_enc, empty, "sentence")
        for variant in ("han-encoder", "han-decoder", "han-joint", "copy"):
            enc = encode(model, src, empty, variant)
            np.testing.assert_array_equal(enc.states.data,
                                          base_enc.states.data)
            got = incremental_step(model, prefix, enc, empty, variant)
            np.testing.assert_array_equal(got.p_w, want.p_w)


def _padded_pairs(rng, cfg):
    """Three (source, target) pairs whose lengths differ on both sides, so
    a stack of them pads."""
    return [([int(i) for i in rng.integers(4, cfg.vocab_src, size=2 + k)],
             [int(i) for i in rng.integers(4, cfg.vocab_tgt, size=3 - k)])
            for k in range(3)]


def test_empty_cache_stacked_pass_equals_sentence_model():
    """The reduction on a teacher-forced pass over padded stacked pairs:
    with every cache empty, each context variant's P_w rows are the
    sentence model's, bitwise, and no copy gate runs."""
    rng = np.random.default_rng(4024)
    for trial in range(5):
        model, cfg = _tiny_model(200 + trial)
        pairs = _padded_pairs(rng, cfg)
        with ad.no_grad():
            want = model.teacher_force(pairs).p_w.data
            for variant in ("han-encoder", "han-decoder", "han-joint",
                            "copy"):
                forced = model.teacher_force(
                    pairs, None, [ContextState(cfg.n_context) for _ in pairs],
                    variant)
                assert forced.p_copy is None
                np.testing.assert_array_equal(forced.p_w.data, want)


def test_closed_copy_gate_stacked_pass_equals_context_model():
    """With filled caches and the copy gate's bias at -1e4, p_copy is
    exactly 0 at every real row of a stacked teacher-forced pass, and the
    copy variant's P_w rows are han-joint's, bitwise."""
    rng = np.random.default_rng(4034)
    for trial in range(5):
        model, cfg = _tiny_model(300 + trial)
        model.params["copy.b"].data[...] = -1e4
        pairs = _padded_pairs(rng, cfg)
        contexts = [ContextState(cfg.n_context) for _ in pairs]
        for context in contexts:
            for _ in range(2):
                context.push_source(
                    _random_cache_entry(rng, cfg.d_model, cfg.vocab_src))
                context.push_target(
                    _random_cache_entry(rng, cfg.d_model, cfg.vocab_tgt))
        with ad.no_grad():
            copied = model.teacher_force(pairs, None, contexts, "copy")
            joint = model.teacher_force(pairs, None, contexts, "han-joint")
        assert copied.p_copy.shape == (len(copied.gold),)
        assert not copied.p_copy.any()
        np.testing.assert_array_equal(copied.p_w.data, joint.p_w.data)


# ---------------------------------------------------------------------------
# 5. synthetic cohesion experiment orderings


def _read_metrics_table(path) -> dict[str, dict[str, float]]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")[1:]
    table = {}
    for line in lines[1:]:
        cells = line.split("\t")
        table[cells[0]] = {k: float(v) for k, v in zip(header, cells[1:])}
    return table


@pytest.mark.slow
def test_synthetic_cohesion_experiment(tmp_path):
    start = time.time()
    out = tmp_path / "exp"
    assert run(["experiment", "--out", str(out), "--seed", "0",
                "--quiet"]) == 0
    table = _read_metrics_table(out / "metrics.tsv")
    sent, copy = table["sentence"], table["copy"]

    assert copy["consistency"] >= sent["consistency"] + 0.15, table
    assert abs(copy["lc_delta"]) <= abs(sent["lc_delta"]), table
    assert copy["bleu4"] >= sent["bleu4"] - 1.0, table
    # the table is the README's, cell for cell: a change that moves the
    # seed-0 results updates both
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    first = readme.index("\nsystem ") + 1
    shown = readme[first:readme.index("```", first)]
    got = (out / "metrics.tsv").read_text(encoding="utf-8")
    assert [r.split() for r in got.splitlines()] == \
        [r.split() for r in shown.splitlines()], got
    assert time.time() - start <= 30 * 60.0


# ---------------------------------------------------------------------------
# 6. metric oracles


def _doc(text: str) -> list[list[str]]:
    return [s.split() for s in text.split("|")]


def test_lc_hand_fixtures():
    # repeated noun across sentences: 1 device / 4 content words
    assert lc_score([_doc("the watch shines .|the watch ticks .")]
                    ).corpus_lc == 25.0
    # no repetition at all
    assert lc_score([_doc("a cat sat .|a dog ran .")]).corpus_lc == 0.0
    # morphological variants count through the stemmer
    assert lc_score([_doc("the watch is here .|the watches are there .")]
                    ).corpus_lc == 50.0
    # only the repeated stem is a device: content words are sir, watch,
    # good, watches, old; "watches" matches the earlier "watch"
    assert lc_score([_doc("sir , the watch is good .|the watches are old .")]
                    ).corpus_lc == 100.0 * 1.0 / 5.0
    # micro-average over two documents: (1 + 2) devices / (4 + 5) content
    docs = [_doc("the watch shines .|the watch ticks ."),
            _doc("a car on a road .|the car kept the road .")]
    report = lc_score(docs)
    assert report.n_devices == 3 and report.n_content == 9
    assert report.corpus_lc == 100.0 * 3.0 / 9.0


def _bleu_fixture():
    """10 identical 7-token pairs plus 10 pairs with one noun swapped.

    Hand counts: p1 = 130/140, p2 = 100/120, p3 = 70/100, p4 = 50/80,
    brevity penalty 1 (equal lengths), so the corpus score is
    100 * exp(mean(log p_n)) = 76.27865...
    """
    exact = "the watch is on the table .".split()
    sub_ref = "he bought a new watch yesterday .".split()
    sub_cand = "he bought a new clock yesterday .".split()
    candidate = [[exact, sub_cand] for _ in range(10)]
    reference = [[exact, sub_ref] for _ in range(10)]
    return candidate, reference


def test_bleu_hand_fixture():
    candidate, reference = _bleu_fixture()
    got = bleu4(candidate, reference)
    assert abs(got - 76.27865593709942) <= 0.1


def test_bleu_identity_is_exactly_100():
    _, reference = _bleu_fixture()
    assert bleu4(reference, reference) == 100.0


# ---------------------------------------------------------------------------
# 7. beam search enumeration oracle


class _TableMachine:
    """Next-token distributions keyed by the generated prefix."""

    class Result:
        state = None

        def __init__(self, p):
            self.p_w = self.p_vocab = p
            self.p_copy = self.alpha_vocab = None

    def __init__(self, seed: int, vocab: int):
        self.seed = seed
        self.vocab = vocab

    def __call__(self, tokens: list[int]):
        rng = np.random.default_rng([self.seed, *tokens])
        return self.Result(rng.dirichlet(np.ones(self.vocab)))

    def step(self, hypos):
        """The search steps a list of hypotheses."""
        return [self(h.tokens) for h in hypos]


def _brute_force_beam(step_fn, width: int, max_steps: int):
    """Independent reimplementation of the pruned search in plain Python:
    expand each live hypothesis by its ``width`` most probable tokens (never
    PAD or BOS, EOS not first), keep the global top ``width`` by total log probability
    with ties broken by (parent index, token id), close leftovers with
    their real EOS probability, and sort the survivors best-first."""
    floor = 1e-300
    beams = [([], 0.0)]
    for _ in range(max_steps):
        if all(t and t[-1] == EOS_ID for t, _ in beams):
            break
        ranked = []
        for pi, (toks, lp) in enumerate(beams):
            if toks and toks[-1] == EOS_ID:
                ranked.append(((-lp, pi, -1), (toks, lp)))
                continue
            p = step_fn([BOS_ID] + toks).p_w
            order = sorted((i for i in range(len(p))
                            if i not in (PAD_ID, BOS_ID)
                            and (toks or i != EOS_ID)),
                           key=lambda i: (-p[i], i))[:width]
            for tid in order:
                nlp = lp + math.log(max(p[tid], floor))
                ranked.append(((-nlp, pi, tid), (toks + [tid], nlp)))
        ranked.sort(key=lambda kv: kv[0])
        beams = [hyp for _, hyp in ranked[:width]]
    closed = []
    for toks, lp in beams:
        if toks and toks[-1] == EOS_ID:
            closed.append((toks, lp))
        else:
            p = step_fn([BOS_ID] + toks).p_w
            closed.append((toks + [EOS_ID],
                           lp + math.log(max(p[EOS_ID], floor))))
    order = sorted(range(len(closed)), key=lambda i: (-closed[i][1], i))
    return [closed[i] for i in order]


def _exhaustive_best(step_fn, max_steps: int, vocab: int):
    """Every complete sequence of one to ``max_steps`` generated tokens
    (never PAD or BOS) before EOS, with unfinished ones closed by their
    real EOS probability."""
    floor = 1e-300
    results = []

    def walk(toks, lp):
        p = step_fn([BOS_ID] + toks).p_w
        if len(toks) == max_steps:
            results.append((toks + [EOS_ID],
                            lp + math.log(max(p[EOS_ID], floor))))
            return
        for tid in range(vocab):
            nlp = lp + math.log(max(p[tid], floor))
            if tid in (PAD_ID, BOS_ID) or (tid == EOS_ID and not toks):
                continue
            if tid == EOS_ID:
                results.append((toks + [EOS_ID], nlp))
            else:
                walk(toks + [tid], nlp)

    walk([], 0.0)
    return max(results, key=lambda r: r[1])


def test_beam_matches_pruned_enumeration():
    # three content tokens (UNK and two words) plus the end symbol, length
    # cap 2, width 2
    vocab = EOS_ID + 3
    for seed in range(50):
        machine = _TableMachine(seed, vocab)
        got = search(machine.step, 2, SearchConfig(width=2))
        want = _brute_force_beam(machine, 2, 2)
        assert len(got) == len(want)
        for hypo, (toks, lp) in zip(got, want):
            assert hypo.tokens == [BOS_ID] + toks
            np.testing.assert_allclose(hypo.log_prob, lp, rtol=1e-12)


def test_wide_beam_matches_global_argmax():
    # a beam wider than the number of complete length<=2 sequences prunes
    # nothing, so its best hypothesis is the exhaustive optimum (three
    # content tokens: 12 sequences)
    vocab = EOS_ID + 3
    for seed in range(30):
        machine = _TableMachine(1000 + seed, vocab)
        got = search(machine.step, 2, SearchConfig(width=16))
        toks, lp = _exhaustive_best(machine, 2, vocab)
        assert got[0].tokens == [BOS_ID] + toks
        np.testing.assert_allclose(got[0].log_prob, lp, rtol=1e-12)


def test_beam_width_one_is_greedy():
    for seed in range(100):
        machine = _TableMachine(7000 + seed, 6)
        beam = search(machine.step, 5, SearchConfig(width=1))[0]
        greedy = greedy_search(machine.step, 5)
        assert beam.tokens == greedy.tokens
        np.testing.assert_allclose(beam.log_prob, greedy.log_prob, rtol=1e-12)


# ---------------------------------------------------------------------------
# 8. reproducibility


_SMALL_EXPERIMENT = ["--quiet", "--n-train", "16", "--n-test", "6",
                     "--doc-len", "3", "--n-concepts", "4",
                     "--epochs", "2", "--ft-epochs", "1",
                     "--d-model", "16", "--n-layers", "1", "--d-ff", "32",
                     "--dropout", "0.0", "--warmup-steps", "20"]


@pytest.mark.slow
def test_experiment_seed_reproducibility(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["experiment", "--out", str(out), "--seed", "11",
                    *_SMALL_EXPERIMENT]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "metrics.tsv").read_bytes() == (b / "metrics.tsv").read_bytes()
    assert (a / "run_manifest.json").read_bytes() == \
        (b / "run_manifest.json").read_bytes()
    assert (a / "translations/copy.tgt.txt").read_bytes() == \
        (b / "translations/copy.tgt.txt").read_bytes()


def test_corpus_round_trip_bitwise(tmp_path):
    corpus, _ = generate_synthetic_cohesion_corpus(
        n_docs=30, doc_len=4, n_concepts=6, seed=123)
    first_src = tmp_path / "a.src"
    first_tgt = tmp_path / "a.tgt"
    save_corpus(corpus, first_src, first_tgt)
    loaded = load_corpus(first_src, first_tgt)
    second_src = tmp_path / "b.src"
    second_tgt = tmp_path / "b.tgt"
    save_corpus(loaded, second_src, second_tgt)
    assert first_src.read_bytes() == second_src.read_bytes()
    assert first_tgt.read_bytes() == second_tgt.read_bytes()
    assert loaded.documents == load_corpus(second_src, second_tgt).documents
