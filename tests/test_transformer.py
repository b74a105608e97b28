"""Transformer blocks: attention, FFN, encode/decode, loss, checkpoints."""

import json
import struct

import numpy as np
import pytest

from docnmt import autodiff as ad
from docnmt.autodiff import Tensor
from docnmt.checkpoint import load_checkpoint, save_checkpoint
from docnmt.errors import CheckpointError, ContractError
from docnmt.gradcheck import grad_check
from docnmt.model import DocModel, ModelConfig, ParamStore, build_params
from docnmt.model.model import DecoderMemory, Stack
from docnmt.model.transformer import (HeadKV, attend, causal_mask,
                                      cross_entropy, multi_head_attention,
                                      positionwise_ffn, sinusoidal_positions)

import attention_reference
from attention_reference import scaled_dot_attention


def tiny_model(seed=0, **over):
    over.setdefault("d_model", 8)
    over.setdefault("n_layers", 1)
    over.setdefault("m_heads", 2)
    over.setdefault("d_ff", 16)
    over.setdefault("dropout", 0.0)
    cfg = ModelConfig(11, 13, **over)
    store = build_params(cfg, np.random.default_rng(seed))
    store.set_trainable(set())
    return DocModel(cfg, store)


def encode(model, src, context=None, variant="sentence"):
    """``contextual_encode`` of one source sentence under its document's
    caches."""
    encoded, _ = model.contextual_encode(
        Stack.of([src]), None if context is None else [context], variant)
    return encoded


def rewrite_header(path, change) -> None:
    """Apply ``change`` to the JSON header of a checkpoint file in place."""
    raw = path.read_bytes()
    hlen = struct.unpack("<II", raw[8:16])[1]
    header = json.loads(raw[16:16 + hlen])
    change(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:8] + struct.pack("<II", 1, len(blob)) + blob
                     + raw[16 + hlen:])


# header changes that make the config invalid, with what the error names
INVALID_CONFIGS = [
    (lambda h: h["config"].update(m_heads=3), "not divisible"),
    (lambda h: h["config"].update(d_model=8.0), "d_model must be an integer"),
    (lambda h: h["config"].update(n_layers=1.0), "n_layers must be an integer"),
    (lambda h: h["config"].update(max_len="64"), "max_len must be an integer"),
    (lambda h: h.update(config=[11, 13]), "config is not an object"),
]


class TestAttention:
    def test_equal_logits_give_uniform_weights(self):
        q = Tensor([[1.0, 0.0], [0.0, 2.0]])
        k = Tensor([[1.0, 1.0], [1.0, 1.0]])
        v = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out, w = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(w.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        q, k, v = (Tensor(rng.normal(size=(4, 6))) for _ in range(3))
        _, w = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-12)

    def test_fully_masked_row_rejected(self):
        q = Tensor(np.zeros((2, 4)))
        k = Tensor(np.zeros((2, 4)))
        mask = np.array([[[True, True], [False, False]]])
        with pytest.raises(ContractError, match="fully masked"):
            attend(q, HeadKV(k, k, 2), {"wo": Tensor(np.eye(4))}, mask)

    def test_all_false_mask_is_no_op(self):
        rng = np.random.default_rng(8)
        q, k, v = (Tensor(rng.normal(size=(3, 4)), requires_grad=True)
                   for _ in range(3))
        p = {"wo": Tensor(rng.normal(size=(4, 4)))}
        outs = [attend(q, HeadKV(k, v, 2), p, mask)
                for mask in (None, np.zeros((1, 3, 3), dtype=bool))]
        ad.clear_tape()
        np.testing.assert_array_equal(outs[1][0].data, outs[0][0].data)
        np.testing.assert_array_equal(outs[1][1].data, outs[0][1].data)

    def test_single_head_identity_projections_reduce_to_scaled_dot(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 4)))
        eye = np.eye(4)
        p = {"wq": Tensor(eye), "wk": Tensor(eye), "wv": Tensor(eye),
             "wo": Tensor(eye)}
        mha_out, heads = multi_head_attention(x, x, x, p, m=1)
        ref_out, ref_w = scaled_dot_attention(x, x, x)
        np.testing.assert_allclose(mha_out.data, ref_out.data, atol=1e-12)
        np.testing.assert_allclose(heads.data[0, 0], ref_w.data, atol=1e-12)

    def test_per_head_weights_exposed_and_normalized(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 8)))
        p = {k: Tensor(rng.normal(size=(8, 8))) for k in ("wq", "wk", "wv", "wo")}
        _, heads = multi_head_attention(x, x, x, p, m=4)
        assert heads.data.shape == (1, 4, 5, 5)
        for w in heads.data[0]:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_one_attention_records_six_tape_nodes(self):
        # the wq, wk, wv products, the two fused attention ops and wo; a
        # per-head chain of narrow / matmul / softmax nodes would add more
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        p = {k: Tensor(rng.normal(size=(8, 8))) for k in ("wq", "wk", "wv", "wo")}
        ad.clear_tape()
        multi_head_attention(x, x, x, p, m=4, mask=causal_mask(5)[None])
        tags = [node.tag for node in ad._tape]
        ad.clear_tape()
        assert tags == ["matmul"] * 3 + ["attention_weights", "attention_mix",
                                         "matmul"]


def _masks(rng, a, b):
    """No mask, causal, block diagonal and random, as one-sequence [1, a, b]
    masks; no row fully blocked."""
    n_blocks = min(a, b)
    block = (np.arange(a)[:, None] * n_blocks // a
             != np.arange(b)[None, :] * n_blocks // b)
    rand = rng.random((a, b)) < 0.5
    rand[np.arange(a), rng.integers(0, b, size=a)] = False
    masks = {"causal": np.triu(np.ones((a, b), dtype=bool), k=1),
             "block": block, "random": rand}
    return {"none": None, **{kind: x[None] for kind, x in masks.items()}}


class TestFusedAttentionMatchesPerHeadChain:
    """The two fused attention ops against the per-head chain they replaced
    (``attention_reference``): the products run on contiguous per-head
    blocks and the merged gradients are C-contiguous like the chain's, so
    values, weights and every gradient are bitwise equal.  d = 32 as in the
    toy profile: at that width a product's result depends on its operands'
    memory layout."""

    def _run(self, mha, rows, p, m, mask, probes):
        for t in (*rows, *p.values()):
            t.grad = None
        out, weights = mha(*rows, p, m, mask)
        if isinstance(weights, list):  # per-head chain: one [a, b] per head
            w_term = None
            for w, probe in zip(weights, probes[1][0]):
                term = ad.mul(w, Tensor._wrap(probe)).sum()
                w_term = term if w_term is None else ad.add(w_term, term)
            heads = np.stack([w.data for w in weights])[None]
        else:
            w_term = ad.mul(weights, Tensor._wrap(probes[1])).sum()
            heads = weights.data
        ad.backward(ad.add(ad.mul(out, Tensor._wrap(probes[0])).sum(), w_term))
        return [out.data, heads] + [t.grad for t in (*rows, *p.values())]

    def test_outputs_weights_and_gradients_bitwise(self):
        rng = np.random.default_rng(404)
        names = ["out", "weights", "q", "k", "v", "wq", "wk", "wv", "wo"]
        cases, d = 0, 32
        for m in (1, 2, 4):
            for a in range(1, 6):
                for b in range(1, 7):
                    for kind, mask in _masks(rng, a, b).items():
                        rows = [Tensor(rng.normal(size=(n, d)), requires_grad=True)
                                for n in (a, b, b)]
                        p = {k: Tensor(rng.normal(size=(d, d)), requires_grad=True)
                             for k in ("wq", "wk", "wv", "wo")}
                        probes = (rng.normal(size=(a, d)),
                                  rng.normal(size=(1, m, a, b)))
                        got = self._run(multi_head_attention, rows, p, m, mask,
                                        probes)
                        want = self._run(attention_reference.multi_head_attention,
                                         rows, p, m, mask, probes)
                        for name, x, y in zip(names, got, want):
                            np.testing.assert_array_equal(
                                x, y, err_msg=f"{name}: m={m} a={a} b={b} {kind}")
                        cases += 1
        assert cases == 360

    def test_self_attention_gradient_bitwise(self):
        # one tensor as query, key and value rows: its three gradient parts
        # are summed in the same order on both paths
        rng = np.random.default_rng(405)
        for m in (1, 2, 4):
            x = Tensor(rng.normal(size=(7, 32)), requires_grad=True)
            p = {k: Tensor(rng.normal(size=(32, 32)), requires_grad=True)
                 for k in ("wq", "wk", "wv", "wo")}
            probes = (rng.normal(size=(7, 32)), rng.normal(size=(1, m, 7, 7)))
            got, want = (self._run(mha, [x, x, x], p, m, causal_mask(7)[None],
                                   probes)
                         for mha in (multi_head_attention,
                                     attention_reference.multi_head_attention))
            for x_got, x_want in zip(got, want):
                np.testing.assert_array_equal(x_got, x_want)


class TestFfnAndPositions:
    def test_ffn_matches_hand_computation(self):
        x = np.array([[1.0, -2.0]])
        w1 = np.array([[0.5, -1.0, 2.0], [1.0, 0.5, -0.5]])
        b1 = np.array([0.1, 0.0, -0.2])
        w2 = np.array([[1.0, 0.0], [0.5, -1.0], [2.0, 1.0]])
        b2 = np.array([-0.3, 0.4])
        p = {"w1": Tensor(w1), "b1": Tensor(b1), "w2": Tensor(w2), "b2": Tensor(b2)}
        hidden = np.maximum(x @ w1 + b1, 0.0)
        expected = hidden @ w2 + b2
        got = positionwise_ffn(Tensor(x), p)
        np.testing.assert_allclose(got.data, expected, atol=1e-12)

    def test_sinusoidal_table_structure(self):
        t = sinusoidal_positions(6, 8)
        np.testing.assert_allclose(t[0, 0::2], 0.0, atol=1e-12)  # sin(0)
        np.testing.assert_allclose(t[0, 1::2], 1.0, atol=1e-12)  # cos(0)
        assert np.all(np.abs(t) <= 1.0)
        assert t[1, 0] == pytest.approx(np.sin(1.0))

    def test_causal_mask_shape(self):
        m = causal_mask(3)
        np.testing.assert_array_equal(
            m, [[False, True, True], [False, False, True], [False, False, False]])


class TestCrossEntropy:
    def test_uniform_distribution_gives_log_vocab(self):
        p = Tensor(np.full((3, 4), 0.25))
        loss = cross_entropy(p, [0, 2, 3], smoothing=0.0)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_uniform_is_log_vocab_for_any_smoothing(self):
        p = Tensor(np.full((2, 5), 0.2))
        for eps in (0.0, 0.1, 0.3):
            loss = cross_entropy(p, [1, 4], smoothing=eps)
            assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)

    def test_smoothing_closed_form(self):
        rng = np.random.default_rng(8)
        raw = rng.random((4, 6)) + 0.05
        p = raw / raw.sum(axis=1, keepdims=True)
        gold = [0, 5, 2, 2]
        eps = 0.1
        logs = np.log(p)
        expected = np.mean(
            [-(1 - eps) * logs[i, g] - (eps / 6) * logs[i].sum()
             for i, g in enumerate(gold)])
        loss = cross_entropy(Tensor(p), gold, smoothing=eps)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_zero_prob_gold_is_clamped_and_flagged(self):
        p = Tensor(np.array([[1.0, 0.0]]))
        before = ad.clamp_events
        loss = cross_entropy(p, [1], smoothing=0.0)
        assert loss.item() == pytest.approx(-np.log(1e-12))
        assert ad.clamp_events > before


class TestEncodeDecode:
    def test_shapes_and_determinism(self):
        model = tiny_model()
        enc = encode(model, [4, 5, 6, 7])
        assert enc.states.data.shape == (4, 8)
        again = encode(model, [4, 5, 6, 7])
        np.testing.assert_array_equal(enc.states.data, again.states.data)

    def test_out_of_range_id_is_a_contract_error(self):
        """On either side, in the per-sentence and the stacked pass alike:
        the embedding rejects it."""
        model = tiny_model()
        for pair in (([4, 11, 6], [7, 8]), ([4, -1, 6], [7, 8]),
                     ([4, 5, 6], [7, 13]), ([4, 5, 6], [-2])):
            with pytest.raises(ContractError, match="out of range"):
                model.sentence_loss(*pair, None, "sentence")
            with pytest.raises(ContractError, match="out of range"):
                model.forced_loss(model.teacher_force([([4, 5], [6]), pair]))

    def test_decode_prefix_extension_is_causal_bitwise(self):
        model = tiny_model()
        memory = DecoderMemory(model, encode(model, [4, 5, 6]))
        short, _ = model.decode_states(Stack.of([[2, 7, 8]]), memory)
        longer, _ = model.decode_states(Stack.of([[2, 7, 8, 9]]), memory)
        np.testing.assert_array_equal(short.data, longer.data[:3])

    def test_output_distribution_zero_weights_is_uniform(self):
        model = tiny_model()
        model.params["out.w"].data[:] = 0.0
        model.params["out.b"].data[:] = 0.0
        out = model.decode(Stack.of([[2, 7]]),
                           DecoderMemory(model, encode(model, [4, 5])))
        p = model.output_distribution(out.h_tilde)
        np.testing.assert_allclose(p.data, 1.0 / 13, atol=1e-12)

    def test_dropout_only_in_training_mode(self):
        model = tiny_model(dropout=0.3)
        eval_a = encode(model, [4, 5, 6])
        eval_b = encode(model, [4, 5, 6])
        np.testing.assert_array_equal(eval_a.states.data, eval_b.states.data)
        keep, _ = model.dropout_masks(3, 1, np.random.default_rng(1))
        train_a, _ = model.contextual_encode(Stack.of([[4, 5, 6]]),
                                             keep=iter(keep))
        assert not np.array_equal(train_a.states.data, eval_a.states.data)

    def test_base_gradients_match_finite_differences(self):
        model = tiny_model(seed=3)
        model.params.set_trainable({"base"})
        subset = [(n, model.params[n]) for n in
                  ("emb.src", "enc.0.att.wq", "dec.0.cross.wv",
                   "dec.0.ffn.b1", "enc.0.ln1.g", "out.b")]

        def f():
            loss, _, _ = model.sentence_loss([4, 5, 6], [7, 8], None, "sentence")
            return loss

        report = grad_check(f, subset)
        assert report.passed, report.summary()


class TestParamStoreView:
    def test_view_sees_loaded_snapshot(self):
        model = tiny_model()
        store = model.params
        view = store.view("dec.0.ffn.")
        assert store.view("dec.0.ffn.") is view
        snap = store.snapshot()
        snap["dec.0.ffn.w1"] = snap["dec.0.ffn.w1"] + 1.0
        store.load_snapshot(snap)
        np.testing.assert_array_equal(view["w1"].data, snap["dec.0.ffn.w1"])
        with pytest.raises(TypeError):  # shared between callers: read-only
            view["w1"] = view["w2"]

    def test_add_after_view_shows_in_next_view(self):
        store = ParamStore()
        store.add("a.x", np.zeros(2), "base")
        assert set(store.view("a.")) == {"x"}
        store.add("a.y", np.ones(2), "base")
        assert set(store.view("a.")) == {"x", "y"}
        assert store.view("a.")["y"] is store["a.y"]


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        cfg = ModelConfig(11, 13, d_model=8, n_layers=1, m_heads=2, d_ff=16)
        store = build_params(cfg, np.random.default_rng(4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, cfg, ["base", "ctx_enc"])
        loaded, cfg2, groups = load_checkpoint(path)
        assert cfg2 == cfg
        assert groups == ["base", "ctx_enc"]
        for name, t in store.items():
            np.testing.assert_array_equal(t.data, loaded[name].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        cfg = ModelConfig(11, 13, d_model=8, n_layers=1, m_heads=2, d_ff=16)
        store = build_params(cfg, np.random.default_rng(4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, cfg, ["base"])
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        cfg = ModelConfig(11, 13, d_model=8, n_layers=1, m_heads=2, d_ff=16)
        store = build_params(cfg, np.random.default_rng(4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, cfg, ["base"])
        return path, cfg

    def test_manifest_shape_mismatch_is_loud(self, tmp_path):
        path, _ = self._saved(tmp_path)
        rewrite_header(path, lambda h: h["params"][0].update(shape=[1, 1]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["config", "params", "trained_groups"])
    def test_header_missing_field_is_checkpoint_error(self, tmp_path, field):
        path, _ = self._saved(tmp_path)
        rewrite_header(path, lambda h: h.pop(field))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_invalid_config_is_checkpoint_error(self, tmp_path):
        for change, match in INVALID_CONFIGS:
            path, _ = self._saved(tmp_path)
            rewrite_header(path, change)
            with pytest.raises(CheckpointError, match=match):
                load_checkpoint(path)

    def test_legacy_tied_embeddings_fields_are_ignored(self, tmp_path):
        path, cfg = self._saved(tmp_path)

        def add_legacy(h):
            h["tied_embeddings"] = False
            h["config"]["tied_embeddings"] = False

        rewrite_header(path, add_legacy)
        _, loaded, groups = load_checkpoint(path)
        assert loaded == cfg and groups == ["base"]
