"""Context caches, hierarchical attention, gating and the skip path."""

import numpy as np
import pytest

from docnmt.autodiff import Tensor
from docnmt.errors import ContractError
from docnmt.gradcheck import grad_check
from docnmt.model import build_params
from docnmt.model.model import DecoderMemory, Stack
from docnmt import autodiff as ad
from docnmt.model.han import (CacheEntry, ContextMemory, ContextState,
                              gate_integrate, hierarchical_context)

from han_reference import (assert_normalized, block_trace, copy_weights_loop,
                           hierarchical_loop, per_sentence,
                           trace_copy_weights, with_distinct_ids)
from test_transformer import encode, tiny_model


def make_context(model, sentences, n=3, target_sentences=None):
    ctx = ContextState(n)
    for sent in sentences:
        enc = encode(model, sent)
        ctx.push_source(model.source_cache_entry(enc))
    for sent in (target_sentences or []):
        enc = encode(model, sent)
        entry = model.target_cache_entry(sent, enc, ctx, "sentence")
        ctx.push_target(entry)
    return ctx


class TestContextState:
    def test_eviction_keeps_newest_n(self):
        ctx = ContextState(2)
        for i in range(4):
            ctx.push_source(CacheEntry([i], Tensor(np.zeros((1, 4)))))
        assert [e.token_ids for e in ctx.source] == [[2], [3]]

    def test_n_equal_one_never_holds_two(self):
        ctx = ContextState(1)
        for i in range(3):
            ctx.push_target(CacheEntry([i], Tensor(np.zeros((1, 4)))))
            assert len(ctx.target) == 1
        assert ctx.target[0].token_ids == [2]

    def test_clear_empties_both_sides(self):
        ctx = ContextState(2)
        ctx.push_source(CacheEntry([1], Tensor(np.zeros((1, 4)))))
        ctx.push_target(CacheEntry([2], Tensor(np.zeros((1, 4)))))
        ctx.clear()
        assert not ctx.source and not ctx.target

    def test_misaligned_entry_rejected(self):
        with pytest.raises(ContractError):
            CacheEntry([1, 2], Tensor(np.zeros((3, 4))))


class TestHierarchicalContext:
    def test_trace_weights_normalized(self):
        model = tiny_model()
        ctx = make_context(model, [[4, 5, 6], [7, 8], [9, 10, 4, 5]])
        h = model.encode(Stack.of([[5, 6, 7]]))
        p, m = model.params.view("ctx.enc."), model.cfg.m_heads
        _, _, trace = hierarchical_context(
            h, ContextMemory([ctx.source], p, m), p, m)
        assert_normalized(trace, atol=1e-12)
        assert trace.n_sents == 3
        assert trace.m == model.cfg.m_heads
        assert trace.n_positions == 3

    def test_single_cached_sentence_gets_full_sentence_weight(self):
        model = tiny_model()
        ctx = make_context(model, [[4, 5, 6]])
        h = model.encode(Stack.of([[5, 6]]))
        p, m = model.params.view("ctx.enc."), model.cfg.m_heads
        _, _, trace = hierarchical_context(
            h, ContextMemory([ctx.source], p, m), p, m)
        # row t sees only summary row t; masked weights are exact zeros
        for w in trace.sent.data[0]:
            np.testing.assert_array_equal(w, np.eye(2))

    def test_integration_changes_states(self):
        model = tiny_model()
        ctx = make_context(model, [[4, 5, 6]])
        plain = encode(model, [5, 6, 7])
        mixed = encode(model, [5, 6, 7], ctx, "han-encoder")
        assert not np.array_equal(plain.states.data, mixed.states.data)

    def test_context_content_matters(self):
        model = tiny_model()
        a = make_context(model, [[4, 5, 6]])
        b = make_context(model, [[9, 10, 8]])
        ea = encode(model, [5, 6, 7], a, "han-encoder")
        eb = encode(model, [5, 6, 7], b, "han-encoder")
        assert not np.array_equal(ea.states.data, eb.states.data)

    def test_trace_blocks_are_zero_outside_their_sentence(self):
        model = tiny_model()
        ctx = make_context(model, [[4, 5, 6], [7, 8]])
        h = model.encode(Stack.of([[5, 6, 7]]))
        p, m = model.params.view("ctx.enc."), model.cfg.m_heads
        _, _, trace = hierarchical_context(
            h, ContextMemory([ctx.source], p, m), p, m)
        sent, word = per_sentence(trace)
        rebuilt = block_trace(sent, word, trace.token_ids[0])
        np.testing.assert_array_equal(trace.sent.data, rebuilt.sent.data)
        np.testing.assert_array_equal(trace.word.data, rebuilt.word.data)
        assert trace.word.data.shape == (1, 2, 6, 5)
        assert trace.sent.data.shape == (1, 2, 3, 6)

    def test_empty_cache_is_contract_error(self):
        model = tiny_model()
        h = model.encode(Stack.of([[5, 6]]))
        with pytest.raises(ContractError):
            p = model.params.view("ctx.enc.")
            hierarchical_context(h, ContextMemory([], p, 2), p, 2)


class TestGate:
    def test_gate_formula_matches_numpy(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(3, 4))
        d = rng.normal(size=(3, 4))
        wh = rng.normal(size=(4, 4))
        wd = rng.normal(size=(4, 4))
        p = {"gate.wh": Tensor(wh), "gate.wd": Tensor(wd)}
        mixed, lam = gate_integrate(Tensor(h), Tensor(d), p)
        lam_np = 1.0 / (1.0 + np.exp(-(h @ wh + d @ wd)))
        np.testing.assert_allclose(lam.data, lam_np, atol=1e-12)
        np.testing.assert_allclose(mixed.data,
                                   lam_np * h + (1 - lam_np) * d, atol=1e-12)

    def test_gate_stays_in_unit_interval(self):
        model = tiny_model()
        ctx = make_context(model, [[4, 5, 6]])
        h = model.encode(Stack.of([[5, 6, 7]]))
        _, lam = gate_integrate(h, h, model.params.view("ctx.enc."))
        assert np.all(lam.data > 0.0) and np.all(lam.data < 1.0)


class TestSkipPaths:
    def test_all_variants_reduce_to_sentence_with_empty_caches(self):
        model = tiny_model()
        empty = ContextState(2)
        base = encode(model, [4, 5, 6])
        enc_gold = base.states.data
        prefix = Stack.of([[2, 7, 8]])
        for variant in ("han-encoder", "han-decoder", "han-joint", "copy"):
            enc = encode(model, [4, 5, 6], empty, variant)
            np.testing.assert_array_equal(enc.states.data, enc_gold)
            out = model.decode(prefix,
                               DecoderMemory(model, enc, [empty], variant))
            ref = model.decode(prefix, DecoderMemory(model, base))
            np.testing.assert_array_equal(out.h_tilde.data, ref.h_tilde.data)
            assert out.trace is None

    def test_sentence_variant_ignores_populated_caches(self):
        model = tiny_model()
        ctx = make_context(model, [[4, 5, 6]], target_sentences=[[7, 8]])
        with_ctx = encode(model, [4, 5], ctx, "sentence")
        without = encode(model, [4, 5])
        np.testing.assert_array_equal(with_ctx.states.data, without.states.data)


class TestCachedStates:
    def test_cached_states_are_detached(self):
        model = tiny_model()
        model.params.set_trainable({"base"})
        ctx = make_context(model, [[4, 5, 6]], target_sentences=[[7, 8]])
        assert not ctx.source[0].states.requires_grad
        assert not ctx.target[0].states.requires_grad

    def test_target_cache_entry_matches_decode_rows(self):
        model = tiny_model()
        enc = encode(model, [4, 5, 6])
        tokens = [7, 8, 9]
        entry = model.target_cache_entry(tokens, enc, None, "sentence")
        assert entry.token_ids == tokens
        out = model.decode(Stack.of([[2] + tokens]), DecoderMemory(model, enc))
        np.testing.assert_array_equal(entry.states.data, out.h_tilde.data[1:])

    def test_empty_translation_yields_no_entry(self):
        model = tiny_model()
        enc = encode(model, [4, 5])
        assert model.target_cache_entry([], enc, None, "sentence") is None


class TestHanGradients:
    def test_context_parameter_gradients_match_finite_differences(self):
        model = tiny_model(seed=9)
        model.params.set_trainable({"ctx_dec"})
        ctx = make_context(model, [[4, 5, 6]], target_sentences=[[7, 8, 9], [10, 4]])
        subset = [(n, model.params[n]) for n in
                  ("ctx.dec.f", "ctx.dec.g", "ctx.dec.word.wk", "ctx.dec.sent.wq",
                   "ctx.dec.ffn.w2", "ctx.dec.gate.wh", "ctx.dec.gate.wd")]

        def f():
            loss, _, _ = model.sentence_loss([4, 5, 6], [7, 8], ctx, "han-decoder")
            return loss

        report = grad_check(f, subset)
        assert report.passed, report.summary()


class TestBlockPathMatchesLoopReference:
    """The block-layout attention against the per-sentence loops it
    replaced; summation order differs, so the tolerance is 1e-12."""

    VOCAB = 13

    def _case(self, rng, m, n, t):
        model = tiny_model(seed=int(rng.integers(1000)))
        model.params.set_trainable({"ctx_dec"})
        d = model.cfg.d_model
        entries = []
        for _ in range(n):
            length = int(rng.integers(1, 7))
            ids = [int(i) for i in rng.integers(0, self.VOCAB, size=length)]
            entries.append(CacheEntry(ids, Tensor._wrap(
                rng.standard_normal((length, d)))))
        h = Tensor(rng.standard_normal((t, d)), requires_grad=True)
        k = sum(len(e.token_ids) for e in entries)
        probes = [rng.standard_normal(shape) for shape in
                  ((t, d), (t, d), (t, k), (t, self.VOCAB))]
        return model, entries, h, probes

    def _grads(self, model, h, outputs, probes):
        model.params.zero_grad()
        h.grad = None
        loss = None
        for out, probe in zip(outputs, probes):
            term = ad.mul(out, Tensor._wrap(probe)).sum()
            loss = term if loss is None else ad.add(loss, term)
        ad.backward(loss)
        grads = {n: p.grad for n, p in model.params.items()
                 if p.grad is not None}
        grads["h"] = h.grad
        return grads

    def test_outputs_weights_and_gradients_match(self):
        rng = np.random.default_rng(2024)
        cases = 0
        for m in (1, 2, 4):
            for n in (1, 2, 3):
                for t in range(1, 6):
                    model, entries, h, probes = self._case(rng, m, n, t)
                    p = model.params.view("ctx.dec.")
                    ids = [e.token_ids for e in entries]
                    k = sum(map(len, ids))

                    mixed, d_rows, trace = hierarchical_context(
                        h, ContextMemory([entries], p, m), p, m)
                    weights = trace_copy_weights(trace, self.VOCAB)
                    # distinct ids: token k's weight is alpha_vocab at 4 + k
                    distinct = with_distinct_ids(trace)
                    tokens = ad.narrow(
                        trace_copy_weights(distinct, 4 + k).alpha_vocab,
                        1, 4, k)
                    got = self._grads(model, h, [mixed, d_rows, tokens,
                                                 weights.alpha_vocab], probes)

                    r_mixed, r_d, r_sent, r_word = hierarchical_loop(
                        h, entries, p, m)
                    _, r_voc = copy_weights_loop(ids, r_sent, r_word,
                                                 self.VOCAB)
                    _, r_distinct = copy_weights_loop(
                        distinct.token_ids[0], r_sent, r_word, 4 + k)
                    r_tok = ad.narrow(r_distinct, 1, 4, k)
                    want = self._grads(model, h, [r_mixed, r_d, r_tok, r_voc],
                                       probes)

                    close = dict(rtol=0, atol=1e-12)
                    np.testing.assert_allclose(mixed.data, r_mixed.data, **close)
                    np.testing.assert_allclose(d_rows.data, r_d.data, **close)
                    sent, word = per_sentence(trace)
                    for hh in range(m):
                        np.testing.assert_allclose(sent[hh], r_sent[hh].data,
                                                   **close)
                        for j in range(n):
                            np.testing.assert_allclose(
                                word[j][hh], r_word[j][hh].data, **close)
                    np.testing.assert_allclose(tokens.data, r_tok.data,
                                               **close)
                    np.testing.assert_allclose(weights.alpha_vocab.data,
                                               r_voc.data, **close)
                    assert set(got) == set(want)
                    for name in want:
                        np.testing.assert_allclose(got[name], want[name],
                                                   err_msg=name, **close)
                    cases += 1
        assert cases == 45

    def test_copy_weights_of_a_block_trace_match_loop(self):
        rng = np.random.default_rng(77)
        for m in (1, 2, 4):
            for n in (1, 2, 3):
                t = int(rng.integers(1, 6))
                lens = [int(rng.integers(1, 7)) for _ in range(n)]
                ids = [[int(i) for i in rng.integers(0, self.VOCAB, size=L)]
                       for L in lens]

                def norm(shape):
                    raw = rng.random(shape) + 1e-3
                    return raw / raw.sum(axis=1, keepdims=True)

                sent = [norm((t, n)) for _ in range(m)]
                word = [[norm((t, L)) for _ in range(m)] for L in lens]
                trace = block_trace(sent, word, ids)
                got = trace_copy_weights(trace, self.VOCAB)
                sent_t = [Tensor(s) for s in sent]
                word_t = [[Tensor(w) for w in heads] for heads in word]
                _, voc = copy_weights_loop(ids, sent_t, word_t, self.VOCAB)
                np.testing.assert_allclose(got.alpha_vocab.data, voc.data,
                                           rtol=0, atol=1e-12)
                # distinct ids: one nonzero product per entry, bitwise equal
                distinct = with_distinct_ids(trace)
                vocab = 4 + sum(lens)
                got = trace_copy_weights(distinct, vocab)
                _, tok = copy_weights_loop(distinct.token_ids[0], sent_t,
                                           word_t, vocab)
                np.testing.assert_array_equal(got.alpha_vocab.data, tok.data)


class TestDocumentAxis:
    """B documents' context attention and copy weights in one stacked call
    against one call per document: each document's rows and weight blocks
    within 1e-12 (padded cache columns exact zeros), gradients within
    1e-12 relative."""

    VOCAB = 13

    def _docs(self, rng, d, n, b):
        return [[CacheEntry([int(i) for i in rng.integers(4, self.VOCAB,
                                                           size=length)],
                            Tensor._wrap(rng.standard_normal((length, d))))
                 for length in rng.integers(1, 7, size=n)] for _ in range(b)]

    def _grads(self, model, h, outputs, probes):
        model.params.zero_grad()
        h.grad = None
        loss = None
        for out, probe in zip(outputs, probes):
            term = ad.mul(out, Tensor._wrap(probe)).sum()
            loss = term if loss is None else ad.add(loss, term)
        ad.backward(loss)
        grads = {n: p.grad for n, p in model.params.items()
                 if p.grad is not None}
        grads["h"] = h.grad
        return grads

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_documents_match_one_call_each(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        model = tiny_model(seed=n)
        model.params.set_trainable({"ctx_dec"})
        d, b, t = model.cfg.d_model, 3, 4
        p = model.params.view("ctx.dec.")
        docs = self._docs(rng, d, n, b)
        h_rows = rng.standard_normal((b * t, d))
        probes = [rng.standard_normal((b * t, d)),
                  rng.standard_normal((b * t, d)),
                  rng.standard_normal((b * t, self.VOCAB))]

        h = Tensor(h_rows, requires_grad=True)
        memory = ContextMemory(docs, p, m)
        assert len(memory) == n and memory.n_docs == b
        mixed, d_rows, trace = hierarchical_context(h, memory, p, m)
        alpha = trace_copy_weights(trace, self.VOCAB).alpha_vocab
        got = self._grads(model, h, [mixed, d_rows, alpha], probes)

        h_doc = Tensor(h_rows, requires_grad=True)
        want_rows = [[], [], []]
        for i, entries in enumerate(docs):
            rows = ad.narrow(h_doc, 0, i * t, t)
            w_mixed, w_d, w_trace = hierarchical_context(
                rows, ContextMemory([entries], p, m), p, m)
            w_alpha = trace_copy_weights(w_trace, self.VOCAB).alpha_vocab
            for out, w in zip(want_rows, (w_mixed, w_d, w_alpha)):
                out.append(w)
            k = w_trace.word.data.shape[-1]
            np.testing.assert_allclose(trace.sent.data[i],
                                       w_trace.sent.data[0], rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(trace.word.data[i, ..., :k],
                                       w_trace.word.data[0], rtol=0,
                                       atol=1e-12)
            assert not trace.word.data[i, ..., k:].any()
        want_outs = [ad.concat(parts, axis=0) for parts in want_rows]
        for got_out, want_out in zip((mixed, d_rows, alpha), want_outs):
            np.testing.assert_allclose(got_out.data, want_out.data, rtol=0,
                                       atol=1e-12)
        want = self._grads(model, h_doc, want_outs, probes)
        assert set(got) == set(want)
        for name, g in want.items():
            assert np.abs(got[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_stacked_copy_weights_need_one_copyability(self):
        model = tiny_model()
        p = model.params.view("ctx.dec.")
        d = model.cfg.d_model
        docs = [[CacheEntry([5, 6], Tensor._wrap(np.ones((2, d))))],
                [CacheEntry([1], Tensor._wrap(np.ones((1, d))))]]   # UNK
        _, _, trace = hierarchical_context(
            Tensor(np.ones((2, d))), ContextMemory(docs, p, 2), p, 2)
        with pytest.raises(ContractError, match="copied"):
            trace_copy_weights(trace, 13)
