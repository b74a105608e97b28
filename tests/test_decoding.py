import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from docnmt.decoding import (
    BeamHypothesis,
    SearchConfig,
    beam_step,
    search,
    translate_corpus,
    translate_document,
    translate_sentence,
    update_context,
)
from docnmt.checkpoint import load_checkpoint
from docnmt.corpus import load_vocab_pair
from docnmt.errors import ContractError, DataError
from docnmt.model import DocModel, ModelConfig, build_params
from docnmt.model.han import ContextState
from docnmt.model.model import DecoderMemory
from docnmt.tokens import BOS_ID, EOS_ID

from decode_reference import (greedy_search, incremental_step,
                              reference_step)
from test_transformer import encode


class FakeResult:
    state = None

    def __init__(self, p_w):
        self.p_w = np.asarray(p_w, dtype=np.float64)
        self.copy = None


def batched(machine):
    """The search steps a list of hypotheses; a fake machine scores one
    prefix."""
    return lambda hypos: [machine(h.tokens) for h in hypos]


class TableMachine:
    """step_fn driven by a prefix-keyed table with a uniform fallback."""

    def __init__(self, table, vocab):
        self.table = {tuple(k): np.asarray(v, float) for k, v in table.items()}
        self.vocab = vocab

    def __call__(self, tokens):
        p = self.table.get(tuple(tokens))
        if p is None:
            p = np.full(self.vocab, 1.0 / self.vocab)
        return FakeResult(p)


def random_machine(rng, vocab=6):
    """Deterministic random distributions keyed by prefix hash."""
    base = int(rng.integers(0, 2**31 - 1))

    def step_fn(tokens):
        local = np.random.default_rng((base, *tokens))
        p = local.dirichlet(np.ones(vocab))
        return FakeResult(p)

    return step_fn


def tiny_model(seed=0, variant_vocab=(11, 13), **over):
    cfg = ModelConfig(*variant_vocab, d_model=8, n_layers=1, m_heads=2,
                      d_ff=16, dropout=0.0, n_context=3, **over)
    params = build_params(cfg, np.random.default_rng(seed))
    params.set_trainable(set())
    return DocModel(cfg, params)


# ---------------------------------------------------------------------------
# beam mechanics on fake machines


def test_beam_width_validation():
    with pytest.raises(ContractError):
        SearchConfig(width=0)
    with pytest.raises(ContractError):
        beam_step([BeamHypothesis([BOS_ID])], lambda t: None, width=0)


def test_all_finished_is_a_fixpoint():
    done = [BeamHypothesis([BOS_ID, 5, EOS_ID], -1.0)]

    def boom(tokens):
        raise AssertionError("step_fn must not be called")

    out = beam_step(done, boom, width=2)
    assert out == done


def test_finished_hypothesis_carries_over_and_competes():
    # one finished hypo with a good score, one live hypo expanding badly
    fin = BeamHypothesis([BOS_ID, 4, EOS_ID], log_prob=math.log(0.9) * 2)
    live = BeamHypothesis([BOS_ID, 5], log_prob=math.log(0.01))
    machine = TableMachine({(BOS_ID, 5): [0.25, 0.25, 0.25, 0.25]}, 4)
    out = beam_step([fin, live], batched(machine), width=2)
    assert out[0] is fin
    assert len(out) == 2


def test_beam_step_invariant_logprob_is_sum_of_steps():
    rng = np.random.default_rng(0)
    machine = random_machine(rng, vocab=5)
    hypos = [BeamHypothesis([BOS_ID])]
    for _ in range(4):
        hypos = beam_step(hypos, batched(machine), width=3)
    for h in hypos:
        total = 0.0
        for i in range(1, len(h.tokens)):
            p = machine(h.tokens[:i]).p_w
            total += math.log(p[h.tokens[i]])
        assert h.log_prob == pytest.approx(total, rel=1e-12)


def test_beam_matches_pruned_enumeration_two_steps():
    """Oracle: simulate the keep-rules by brute force over all sequences."""
    vocab = 6  # ids 0..5; EOS_ID==3 gets negligible mass until step 3
    rng = np.random.default_rng(42)
    for trial in range(20):
        machine = random_machine(rng, vocab)

        def dist(prefix):
            p = machine(list(prefix)).p_w.copy()
            p[EOS_ID] = 1e-9  # keep everything alive for two steps
            return p / p.sum()

        frozen = {}
        for a in range(vocab):
            frozen[(BOS_ID,)] = dist((BOS_ID,))
            frozen[(BOS_ID, a)] = dist((BOS_ID, a))

        table = TableMachine({k: v for k, v in frozen.items()}, vocab)

        # pruned enumeration: top-2 first tokens, then top-2 overall
        p0 = frozen[(BOS_ID,)]
        first = sorted(range(vocab), key=lambda t: (-p0[t], t))[:2]
        pairs = []
        for a in first:
            pa = frozen[(BOS_ID, a)]
            for b in range(vocab):
                lp = math.log(p0[a]) + math.log(pa[b])
                pairs.append((-lp, first.index(a), b, (a, b)))
        pairs.sort()
        expect = [seq for _, _, _, seq in pairs[:2]]

        hypos = [BeamHypothesis([BOS_ID])]
        hypos = beam_step(hypos, batched(table), width=2)
        hypos = beam_step(hypos, batched(table), width=2)
        got = [tuple(h.tokens[1:]) for h in hypos]
        assert got == expect, f"trial {trial}"

        # when the globally best pair survives pruning, beam finds it
        best_global = max(
            ((math.log(p0[a]) + math.log(frozen[(BOS_ID, a)][b]), (a, b))
             for a in range(vocab) for b in range(vocab)),
            key=lambda x: x[0])[1]
        if best_global[0] in first:
            assert got[0] == best_global


def test_width_one_equals_greedy_on_fake_machines():
    rng = np.random.default_rng(3)
    for _ in range(30):
        machine = random_machine(rng, vocab=7)
        beam = search(batched(machine), max_steps=6,
                      config=SearchConfig(width=1))[0]
        greedy = greedy_search(batched(machine), max_steps=6)
        assert beam.tokens == greedy.tokens
        assert beam.log_prob == pytest.approx(greedy.log_prob, rel=1e-12)


def test_force_finish_appends_eos_with_real_probability():
    # EOS mass so small no hypothesis ever picks it: the cap forces it
    p = np.array([0.2, 0.15, 0.1, 1e-9, 0.55])
    p = p / p.sum()

    class Flat:
        def __call__(self, tokens):
            return FakeResult(p)

    best = search(batched(Flat()), max_steps=4,
                  config=SearchConfig(width=2))[0]
    assert best.finished
    assert best.tokens[-1] == EOS_ID
    assert len(best.tokens) == 1 + 4 + 1  # BOS + cap + forced EOS
    expect = 4 * math.log(p[4]) + math.log(p[EOS_ID])
    assert best.log_prob == pytest.approx(expect, rel=1e-12)


def test_length_penalty_prefers_longer_hypothesis():
    short = BeamHypothesis([BOS_ID, 4, EOS_ID], log_prob=-2.0)
    long_ = BeamHypothesis([BOS_ID, 4, 5, 6, EOS_ID], log_prob=-3.0)
    assert short.score(0.0) > long_.score(0.0)
    assert long_.score(1.0) > short.score(1.0)


def test_traces_collected_only_on_request():
    rng = np.random.default_rng(1)
    machine = random_machine(rng, vocab=6)
    no_tr = search(batched(machine), 3, SearchConfig(width=2))[0]
    with_tr = search(batched(machine), 3,
                     SearchConfig(width=2, collect_traces=True))[0]
    assert no_tr.traces == []
    assert len(with_tr.traces) == with_tr.n_generated()
    t = with_tr.traces[0]
    assert t.p_copy is None and t.top_alpha is None
    assert len(t.top_pw) == 5
    probs = [p for _, p in t.top_pw]
    assert probs == sorted(probs, reverse=True)


# ---------------------------------------------------------------------------
# document translation with real models


def test_greedy_determinism_on_real_model():
    model = tiny_model(seed=5)
    doc = [[4, 5, 6], [7, 8], [9, 4, 5, 6]]
    a, _ = translate_document(model, doc, "copy")
    b, _ = translate_document(model, doc, "copy")
    assert a == b


def test_causal_prefix_property():
    model = tiny_model(seed=6)
    doc = [[4, 5], [6, 7, 8], [9, 10], [4, 6, 8]]
    full, _ = translate_document(model, doc, "copy")
    for k in (1, 2, 3):
        part, _ = translate_document(model, doc[:k], "copy")
        assert part == full[:k]


def test_single_sentence_doc_copy_equals_sentence_level():
    model = tiny_model(seed=7)
    src = [4, 5, 6, 7]
    copy_out, _ = translate_document(model, [src], "copy")
    sent_out, _ = translate_document(model, [src], "sentence")
    assert copy_out == sent_out


def test_copy_indicator_is_built_once_per_sentence(monkeypatch):
    """Every step of a sentence reuses its ``DecoderMemory``'s indicator of
    the cached target ids."""
    import docnmt.model.copy as copy_module

    model = tiny_model(seed=9)
    built, build = [], copy_module.copy_indicator

    def counting(token_ids, vocab_size):
        built.append(list(token_ids))
        return build(token_ids, vocab_size)

    monkeypatch.setattr(copy_module, "copy_indicator", counting)
    doc = [[4, 5, 6], [6, 7, 8], [8, 9, 4], [10, 4, 5]]
    outputs, traces = translate_document(
        model, doc, "copy", SearchConfig(width=2, collect_traces=True))
    with_cache = sum(1 for i in range(1, len(doc)) if any(outputs[:i]))
    assert 0 < len(built) == with_cache < sum(map(len, traces[1:]))


def test_context_eviction_respects_n_context(monkeypatch):
    model = tiny_model(seed=8)
    model = DocModel(dataclasses.replace(model.cfg, n_context=1), model.params)
    seen = []

    class SpyContext(ContextState):
        def push_source(self, entry):
            super().push_source(entry)
            seen.append((len(self.source), len(self.target)))

    monkeypatch.setattr("docnmt.decoding.ContextState", SpyContext)
    doc = [[4, 5], [6, 7], [8, 9], [10, 4]]
    translate_document(model, doc, "copy")
    assert all(s <= 1 and t <= 1 for s, t in seen)
    assert len(seen) == 4


def test_cached_states_match_stepwise_decode_states():
    """The rows the search keeps for the cache match a teacher-forced
    recompute of the finished output.  The search computes them with [k, d]
    matmuls and the recompute with [L, d] ones, which reorders summations by
    a few ULPs, hence the 1e-12 tolerance."""
    model = tiny_model(seed=9)
    doc = [[4, 5, 6], [7, 8, 9], [10, 4, 5]]
    harvested = 0
    for width in (1, 2):
        ctx = ContextState(3)
        for src in doc:
            encoded = encode(model, src, ctx, "copy")
            out, _, rows = translate_sentence(model, encoded, ctx, "copy",
                                              SearchConfig(width=width))
            assert rows.shape == (len(out), model.cfg.d_model)
            if out:
                entry = model.target_cache_entry(out, encoded, ctx, "copy")
                assert entry.token_ids == out
                np.testing.assert_allclose(rows, entry.states.data,
                                           rtol=0.0, atol=1e-12)
                harvested += 1
            update_context(model, ctx, encoded, out, "copy", rows)
            if out:
                np.testing.assert_array_equal(ctx.target[-1].states.data, rows)
    assert harvested >= 4


@pytest.mark.parametrize("variant", ["sentence", "copy"])
@pytest.mark.parametrize("width", [1, 2])
def test_search_is_capped_within_max_len(variant, width):
    """A model that never emits EOS: the search stops at max_len - 1 tokens,
    so the forced-EOS step's prefix (BOS + tokens) still fits max_len."""
    model = tiny_model(seed=14, max_len=20)
    model.params["out.b"].data[EOS_ID] = -50.0
    doc = [[4, 5, 6, 7, 8, 9, 10]] * 2
    outs, _ = translate_document(model, doc, variant,
                                 SearchConfig(width=width))
    assert [len(o) for o in outs] == [19, 19]


def test_empty_source_sentence_rejected():
    model = tiny_model(seed=1)
    with pytest.raises(DataError):
        translate_document(model, [[]], "sentence")


def test_translate_corpus_resets_between_documents():
    model = tiny_model(seed=10)
    docs = [[[4, 5], [6, 7]], [[4, 5], [6, 7]]]
    outs, traces = translate_corpus(model, docs, "copy")
    assert outs[0] == outs[1]  # identical docs, fresh caches: identical outs
    assert len(traces) == 2


def test_beam_width_two_runs_and_scores_at_least_greedy():
    model = tiny_model(seed=11)
    doc = [[4, 5, 6, 7, 8]]
    g_out, _ = translate_document(model, doc, "copy", SearchConfig(width=1))
    b_out, _ = translate_document(model, doc, "copy", SearchConfig(width=2))
    # beam may find a different sequence but never a worse-scoring one

    def seq_logprob(tokens):
        ctx = ContextState(3)
        encoded = encode(model, doc[0], ctx, "copy")
        prefix = [BOS_ID]
        total = 0.0
        for tok in tokens + [EOS_ID]:
            res = incremental_step(model, prefix, encoded, ctx, "copy")
            total += math.log(max(res.p_w[tok], 1e-300))
            prefix.append(tok)
        return total

    assert seq_logprob(b_out[0]) >= seq_logprob(g_out[0]) - 1e-9


# ---------------------------------------------------------------------------
# incremental, beam-batched steps against the full-recompute reference


def _filled_context(model, rng, n_sents):
    """Caches holding n_sents real (source encoding, teacher-forced target
    rows) pairs, as training fills them."""
    ctx = ContextState(model.cfg.n_context)
    for _ in range(n_sents):
        src = [int(i) for i in rng.integers(4, model.cfg.vocab_src, size=3)]
        tgt = [int(i) for i in rng.integers(4, model.cfg.vocab_tgt,
                                            size=int(rng.integers(1, 5)))]
        encoded = encode(model, src, ctx, "copy")
        entry = model.target_cache_entry(tgt, encoded, ctx, "copy")
        update_context(model, ctx, encoded, tgt, "copy", entry.states.data)
    return ctx


VARIANTS = ("sentence", "han-encoder", "han-decoder", "han-joint", "copy")


def test_batched_steps_match_full_recompute():
    """p_w of every stacked hypothesis equals the full-recompute step within
    1e-12 (the stacked [k, d] products sum in another order than the [L, d]
    ones), for every variant, empty and filled caches, 1-4 hypotheses and
    prefix lengths 1-8.  The states are grown by the same batched steps."""
    rng = np.random.default_rng(303)
    model = tiny_model(seed=15)
    cases = copied = 0
    for n_cached in (0, 2):
        ctx = _filled_context(model, rng, n_cached)
        src = [int(i) for i in rng.integers(4, model.cfg.vocab_src, size=4)]
        for variant in VARIANTS:
            encoded = encode(model, src, ctx, variant)
            memory = DecoderMemory(model, encoded, [ctx], variant)
            for length in range(1, 9):
                for k in range(1, 5):
                    prefixes = [[BOS_ID] + [int(i) for i in rng.integers(
                        4, model.cfg.vocab_tgt, size=length - 1)]
                        for _ in range(k)]
                    states = [None] * k
                    for t in range(1, length + 1):
                        results = model.step_distribution(
                            [p[:t] for p in prefixes], memory, states)
                        states = [r.state for r in results]
                    for prefix, result in zip(prefixes, results):
                        want, p_copy = reference_step(model, prefix, encoded,
                                                      ctx, variant)
                        np.testing.assert_allclose(result.p_w, want,
                                                   rtol=0, atol=1e-12)
                        assert (result.copy is None) == (p_copy is None)
                        if p_copy is not None:
                            assert abs(result.copy.p_copy - p_copy) <= 1e-12
                            copied += 1
                        assert len(result.state) == length
                    cases += 1
    assert cases == 2 * len(VARIANTS) * 8 * 4
    assert copied == 8 * (1 + 2 + 3 + 4)


def test_empty_cache_copy_step_is_sentence_step_bitwise():
    rng = np.random.default_rng(304)
    model = tiny_model(seed=16)
    empty = ContextState(3)
    encoded = encode(model, [4, 5, 6, 7], empty, "copy")
    memories = {v: DecoderMemory(model, encoded, [empty], v)
                for v in ("copy", "sentence")}
    prefixes = [[BOS_ID] + [int(i) for i in rng.integers(4, 13, size=4)]
                for _ in range(3)]
    states = {v: [None] * 3 for v in memories}
    for t in range(1, 6):
        got = {v: model.step_distribution([p[:t] for p in prefixes], mem,
                                          states[v])
               for v, mem in memories.items()}
        for a, b in zip(got["copy"], got["sentence"]):
            assert a.copy is None
            np.testing.assert_array_equal(a.p_w, b.p_w)
            np.testing.assert_array_equal(a.state.h_tilde, b.state.h_tilde)
        states = {v: [r.state for r in rs] for v, rs in got.items()}


def test_step_rejects_a_state_that_does_not_fit_its_prefix():
    model = tiny_model(seed=17)
    memory = DecoderMemory(model, encode(model, [4, 5]))
    first = model.step_distribution([[BOS_ID]], memory, [None])[0]
    with pytest.raises(ContractError):
        model.step_distribution([[BOS_ID]], memory, [first.state])
    with pytest.raises(ContractError):
        model.step_distribution([[BOS_ID, 5], [BOS_ID]], memory,
                                [first.state, None])


# ---------------------------------------------------------------------------
# stored translations of the trained copy model

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


@pytest.mark.parametrize("mode,width", [("greedy", 1), ("beam4", 4)])
def test_pool_translations_match_stored_outputs(mode, width):
    """The first ten documents of the benchmark's pool, translated with its
    trained copy checkpoint (caches holding the model's own copyable
    output), give the outputs stored with the pool, word for word."""
    sv, tv = load_vocab_pair(FIXTURES / "vocab.json")
    store, cfg, _ = load_checkpoint(FIXTURES / "copy.ckpt")
    model = DocModel(cfg, store)
    pool = json.loads((FIXTURES / "pool.json").read_text(encoding="utf-8"))
    for d in range(10):
        doc = [sv.encode(s.split()) for s in pool["source"][d]]
        outs, _ = translate_document(model, doc, "copy",
                                     SearchConfig(width=width))
        assert [tv.decode(o) for o in outs] == \
            [s.split() for s in pool[mode][d]]
