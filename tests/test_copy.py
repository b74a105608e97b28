"""Copy weights, gate, mixture, and the naive-oracle equivalence."""

import numpy as np

from docnmt import autodiff as ad
from docnmt.autodiff import Tensor
from docnmt.gradcheck import grad_check
import pytest

from docnmt.errors import ContractError
from docnmt.model.copy import copy_gate, copy_indicator, mix_distributions
from docnmt.model.han import ContextState

from decode_reference import incremental_step
from han_reference import (block_trace, copy_indicator_loop,
                           trace_copy_weights, with_distinct_ids)
from test_han import make_context
from test_transformer import encode, tiny_model


def trace_from_arrays(sent_per_head, word_per_sent_head, token_ids):
    """Build an AttentionTrace for one query position from plain lists."""
    sent = [np.asarray(s, dtype=float).reshape(1, -1) for s in sent_per_head]
    word = [[np.asarray(w, dtype=float).reshape(1, -1) for w in heads]
            for heads in word_per_sent_head]
    return block_trace(sent, word, token_ids)


def random_trace(rng, m, lens, n_positions=1, vocab=30, low_id=4):
    """Random normalized trace plus random cached token ids."""
    def norm(shape):
        raw = rng.random(shape) + 1e-3
        return raw / raw.sum(axis=-1, keepdims=True)

    n = len(lens)
    sent = [norm((n_positions, n)) for _ in range(m)]
    word = [[norm((n_positions, L)) for _ in range(m)] for L in lens]
    ids = [list(rng.integers(low_id, vocab, size=L)) for L in lens]
    return block_trace(sent, word, [list(map(int, i)) for i in ids])


def naive_alpha(trace, vocab, exclude_special=True, specials=(0, 1, 2, 3)):
    """Reference triple loop over sentences, heads and tokens of a
    one-document trace.

    Block layout: query t's weight on sentence j is sent[0, h, t, j*T+t],
    and on cached token k of sentence j it is word[0, h, j*T+t, k].
    """
    m = trace.m
    T = trace.n_positions
    token_ids = trace.token_ids[0]
    tok = np.zeros((T, sum(len(i) for i in token_ids)))
    voc = np.zeros((T, vocab))
    for t in range(T):
        k = 0
        for j, ids in enumerate(token_ids):
            sent_sum = 0.0
            for h in range(m):
                sent_sum += trace.sent.data[0, h, t, j * T + t]
            for i, tid in enumerate(ids):
                word_sum = 0.0
                for h in range(m):
                    word_sum += trace.word.data[0, h, j * T + t, k]
                a = sent_sum * word_sum / (m * m)
                tok[t, k] = a
                if not (exclude_special and tid in specials):
                    voc[t, tid] += a
                k += 1
        if exclude_special:
            s = voc[t].sum()
            if s > 0:
                voc[t] /= s
    return tok, voc


class TestAlphaHandCases:
    def test_two_sentence_single_head_product(self):
        # one head; sentence weights .4/.6; word weights [1] and [.5,.5]
        trace = trace_from_arrays([[0.4, 0.6]], [[[1.0]], [[0.5, 0.5]]],
                                  [[7], [8, 9]])
        w = trace_copy_weights(trace, 12)
        np.testing.assert_allclose(w.alpha_vocab.data[0, [7, 8, 9]],
                                   [0.4, 0.3, 0.3], atol=1e-12)

    def test_repeated_token_mass_accumulates(self):
        # "watch the watch" with weights .5/.2/.3 -> watch .8, the .2
        trace = trace_from_arrays([[1.0]], [[[0.5, 0.2, 0.3]]], [[5, 6, 5]])
        w = trace_copy_weights(trace, 8)
        np.testing.assert_allclose(w.alpha_vocab.data[0, 5], 0.8, atol=1e-12)
        np.testing.assert_allclose(w.alpha_vocab.data[0, 6], 0.2, atol=1e-12)

    def test_absent_ids_are_exactly_zero(self):
        trace = trace_from_arrays([[1.0]], [[[0.7, 0.3]]], [[4, 6]])
        w = trace_copy_weights(trace, 9)
        absent = [i for i in range(9) if i not in (4, 6)]
        assert np.all(w.alpha_vocab.data[0, absent] == 0.0)

    def test_alpha_sums_to_one(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 4):
            trace = random_trace(rng, m, [3, 2, 4])
            w = trace_copy_weights(trace, 30)
            np.testing.assert_allclose(w.alpha_vocab.data.sum(), 1.0, atol=1e-12)
            # distinct ids: the per-token weights, before renormalization
            tok, _ = naive_alpha(trace, 30)
            np.testing.assert_allclose(tok.sum(), 1.0, atol=1e-12)
            w = trace_copy_weights(with_distinct_ids(trace), 13)
            np.testing.assert_allclose(w.alpha_vocab.data[:, 4:], tok,
                                       atol=1e-12)


class TestSpecialTokenHandling:
    def test_specials_excluded_and_renormalized(self):
        trace = trace_from_arrays([[1.0]], [[[0.5, 0.25, 0.25]]], [[3, 7, 8]])
        w = trace_copy_weights(trace, 10)
        assert w.alpha_vocab.data[0, 3] == 0.0
        np.testing.assert_allclose(w.alpha_vocab.data[0, [7, 8]], [0.5, 0.5],
                                   atol=1e-12)
        np.testing.assert_allclose(w.alpha_vocab.data.sum(), 1.0, atol=1e-12)

    def test_all_special_cache_is_not_copyable(self):
        trace = trace_from_arrays([[1.0]], [[[0.6, 0.4]]], [[2, 3]])
        w = trace_copy_weights(trace, 10)
        assert not w.copyable
        assert np.all(w.alpha_vocab.data == 0.0)


class TestNaiveOracle:
    def test_vectorized_matches_triple_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = int(rng.choice([1, 2, 4]))
            n_sents = int(rng.integers(1, 4))
            lens = [int(rng.integers(1, 6)) for _ in range(n_sents)]
            trace = random_trace(rng, m, lens, vocab=20)
            w = trace_copy_weights(trace, 20)
            tok_ref, voc_ref = naive_alpha(trace, 20)
            np.testing.assert_allclose(w.alpha_vocab.data, voc_ref, atol=1e-12)
            # distinct ids: token k's weight is alpha_vocab at id 4 + k
            w = trace_copy_weights(with_distinct_ids(trace), 4 + sum(lens))
            np.testing.assert_allclose(w.alpha_vocab.data[:, 4:], tok_ref,
                                       atol=1e-12)


class TestGateAndMixture:
    def test_mixture_hand_case(self):
        p_vocab = Tensor(np.array([[0.8, 0.2]]))
        alpha = Tensor(np.array([[0.0, 1.0]]))
        p_copy = Tensor(np.array([[0.5]]))
        mixed = mix_distributions(p_vocab, alpha, p_copy)
        np.testing.assert_allclose(mixed.data, [[0.4, 0.6]], atol=1e-12)

    def test_mixture_rows_stay_normalized(self):
        rng = np.random.default_rng(21)
        pv = rng.random((5, 9)) + 0.01
        pv /= pv.sum(axis=1, keepdims=True)
        al = rng.random((5, 9))
        al /= al.sum(axis=1, keepdims=True)
        pc = rng.random((5, 1))
        mixed = mix_distributions(Tensor(pv), Tensor(al), Tensor(pc))
        np.testing.assert_allclose(mixed.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(mixed.data >= 0.0)

    def test_gate_is_sigmoid_of_scalar_maps(self):
        rng = np.random.default_rng(22)
        d = 6
        h = rng.normal(size=(3, d))
        c = rng.normal(size=(3, d))
        dd = rng.normal(size=(3, d))
        p = {"wh": Tensor(rng.normal(size=(d, 1))),
             "wc": Tensor(rng.normal(size=(d, 1))),
             "wdy": Tensor(rng.normal(size=(d, 1))),
             "b": Tensor(np.array([[0.3]]))}
        got = copy_gate(Tensor(h), Tensor(c), Tensor(dd), p)
        logit = h @ p["wh"].data + c @ p["wc"].data + dd @ p["wdy"].data + 0.3
        np.testing.assert_allclose(got.data, 1 / (1 + np.exp(-logit)), atol=1e-12)
        assert got.data.shape == (3, 1)


class TestModelCopyPath:
    def test_empty_cache_forces_vocab_distribution_bitwise(self):
        model = tiny_model()
        empty = ContextState(2)
        enc = encode(model, [4, 5, 6], empty, "copy")
        step = incremental_step(model, [2, 7], enc, empty, "copy")
        ref = model.output_distribution(
            Tensor._wrap(step.state.h_tilde[-1:]))
        assert step.p_copy is None
        np.testing.assert_array_equal(step.p_w, ref.data[0])

    def test_copy_step_distribution_is_normalized(self):
        model = tiny_model()
        ctx = make_context(model, [[4, 5, 6]], target_sentences=[[7, 8, 9]])
        enc = encode(model, [4, 5, 6], ctx, "copy")
        step = incremental_step(model, [2, 7], enc, ctx, "copy")
        assert step.p_copy is not None
        assert abs(step.p_w.sum() - 1.0) <= 1e-9
        assert np.all(step.p_w >= 0.0)
        # mixture identity on the reported pieces
        np.testing.assert_allclose(
            step.p_w,
            (1 - step.p_copy) * step.p_vocab
            + step.p_copy * step.alpha_vocab, atol=1e-12)

    def test_gradients_reach_copy_and_context_groups_only(self):
        model = tiny_model()
        model.params.set_trainable({"ctx_dec", "copy"})
        ctx = make_context(model, [[4, 5, 6]], target_sentences=[[7, 8, 9]])
        model.params.zero_grad()
        loss, _, _ = model.sentence_loss([4, 5, 6], [7, 8], ctx, "copy")
        ad.backward(loss)
        touched = {n for n, t in model.params.items()
                   if t.grad is not None and np.any(t.grad != 0.0)}
        group_of = {n: g for n, _, g in model.params.manifest()}
        groups = {group_of[n] for n in touched}
        assert groups == {"ctx_dec", "copy"}
        assert "copy.wh" in touched and "copy.b" in touched
        assert "copy.wc" in touched  # gradient reaches the c_t map

    def test_copy_parameter_gradients_match_finite_differences(self):
        model = tiny_model(seed=13)
        model.params.set_trainable({"copy"})
        ctx = make_context(model, [[4, 5, 6]], target_sentences=[[7, 8, 9], [10, 4]])
        subset = [(n, model.params[n]) for n in
                  ("copy.wh", "copy.wc", "copy.wdy", "copy.b", "copy.att.wq",
                   "copy.att.wo")]

        def f():
            loss, _, _ = model.sentence_loss([4, 5, 6], [7, 8], ctx, "copy")
            return loss

        report = grad_check(f, subset)
        assert report.passed, report.summary()


class TestCopyIndicator:
    def test_matches_the_per_token_loop_bitwise(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 7, 40):
            ids = [int(i) for i in rng.integers(0, 9, size=k)]  # specials too
            np.testing.assert_array_equal(copy_indicator(ids, 9),
                                          copy_indicator_loop(ids, 9))
        np.testing.assert_array_equal(copy_indicator([0, 1, 2, 3], 5),
                                      np.zeros((4, 5)))

    @pytest.mark.parametrize("ids", [[4, 9, 5], [5, -1, 12], [2, 30]])
    def test_out_of_vocab_id_is_the_loops_contract_error(self, ids):
        with pytest.raises(ContractError) as loop_error:
            copy_indicator_loop(ids, 9)
        with pytest.raises(ContractError) as error:
            copy_indicator(ids, 9)
        assert str(error.value) == str(loop_error.value)
