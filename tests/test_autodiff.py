"""Tensor core: frozen forward values plus per-op gradients vs central differences."""

import contextlib

import numpy as np
import pytest

from docnmt import autodiff as ad
from docnmt.autodiff import Tensor
from docnmt.errors import ContractError, NumericalError, ShapeError
from docnmt.gradcheck import grad_check

import fused_reference


class TestForwardValues:
    def test_matmul_known_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_identity_associativity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        eye = Tensor(np.eye(4))
        left = ((a @ eye) @ b).data
        right = (a @ (eye @ b)).data
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)

    def test_softmax_reference_values(self):
        p = ad.softmax_lastdim(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(p.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = Tensor(rng.normal(scale=30.0, size=(4, 7)))
            p = ad.softmax_lastdim(x)
            np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
            assert np.all(p.data >= 0)

    def test_softmax_extreme_logits_stay_finite(self):
        p = ad.softmax_lastdim(Tensor([1000.0, 0.0, -1000.0]))
        assert np.all(np.isfinite(p.data))
        np.testing.assert_allclose(p.data.sum(), 1.0, atol=1e-12)

    def test_softmax_rejects_empty(self):
        with pytest.raises(ContractError):
            ad.softmax_lastdim(Tensor(np.zeros((2, 0))))

    def test_sigmoid_midpoint_and_saturation(self):
        assert fused_reference.sigmoid(Tensor([0.0])).data[0] == 0.5
        lo = fused_reference.sigmoid(Tensor([-50.0])).data[0]
        assert 0.0 < lo < 1e-20
        # upper tail: strictly below 1 while the gap is still representable
        hi = fused_reference.sigmoid(Tensor([30.0])).data[0]
        assert hi < 1.0 and 1.0 - hi < 1e-12

    def test_masked_fill_then_softmax_zeroes_masked(self):
        x = Tensor([[1.0, -np.inf, 3.0]])
        p = ad.softmax_lastdim(x)
        assert p.data[0, 1] == 0.0
        np.testing.assert_allclose(p.data.sum(), 1.0, atol=1e-12)

    def test_fully_masked_row_is_contract_error(self):
        x = Tensor([[-np.inf, -np.inf]])
        with pytest.raises(ContractError):
            ad.softmax_lastdim(x)

    def test_finite_check_catches_inf(self):
        big = Tensor([[1e308]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError):
                ad.add(big, big)

    def test_attention_names_itself_on_non_finite_keys(self):
        q = Tensor(np.ones((2, 4)))
        k = Tensor(np.ones((3, 4)))
        v, wo = Tensor(np.ones((3, 4))), Tensor(np.eye(4))
        k.data[1, 2] = np.nan
        with pytest.raises(NumericalError, match="attention_weights"):
            ad.attention(q, ad.head_kv(k, v, 1, 2), wo)
        k.data[1, 2] = 1e308  # overflows to inf in the logits
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="attention_weights"):
            ad.attention(Tensor(np.full((2, 4), 1e308)),
                         ad.head_kv(k, v, 1, 2), wo)

    def test_attention_weights_masked_entries_are_exact_zeros(self):
        rng = np.random.default_rng(3)
        mask = np.array([[[False, True, False], [True, False, False]]])
        _, w = ad.attention(Tensor(rng.normal(size=(2, 4))),
                            ad.head_kv(Tensor(rng.normal(size=(3, 4))),
                                       Tensor(rng.normal(size=(3, 4))), 1, 2),
                            Tensor(np.eye(4)), mask)
        assert w.shape == (1, 2, 2, 3)
        assert np.all(w.data[0][:, mask[0]] == 0.0)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_attention_mask_has_one_layout(self):
        """A mask is [B, a, b] for the B of the memory; a 2-d one is a
        ShapeError, not a second layout, and so is a stack that does not
        fit the rows.  So is a memory whose rows are not a multiple of B,
        whose width is not a multiple of m, or whose keys and values differ
        in rows."""
        q, k, wo = Tensor(np.ones((2, 4))), Tensor(np.ones((6, 4))), \
            Tensor(np.eye(4))
        kv = ad.head_kv(k, k, 2, 2)
        for shape in ((2, 6), (1, 2, 3), (2, 2, 3), (1, 1, 2, 6)):
            with pytest.raises(ShapeError, match="mask"):
                ad.attention(q, kv, wo, np.zeros(shape, dtype=bool))
        for keys, values, bs, m in ((k, k, 4, 2), (Tensor(np.ones((6, 3))),
                                                   k, 2, 2),
                                    (k, Tensor(np.ones((4, 4))), 2, 2)):
            with pytest.raises(ShapeError, match="head_kv"):
                ad.head_kv(keys, values, bs, m)
        assert ad.attention(q, kv, wo, np.zeros((2, 1, 3), dtype=bool)
                            )[1].shape == (2, 2, 1, 3)

    @pytest.mark.parametrize("checked", [True, False])
    def test_attention_fully_masked_row_is_contract_error(self, checked):
        # sequence 1's only query is fully masked; unchecked() would
        # otherwise let its NaN weights through
        q, k = Tensor(np.ones((2, 4))), Tensor(np.ones((6, 4)))
        mask = np.array([[[False, True, False]], [[True, True, True]]])
        guard = contextlib.nullcontext() if checked else ad.unchecked()
        with guard, pytest.raises(ContractError, match="fully masked"):
            ad.attention(q, ad.head_kv(k, k, 2, 2), Tensor(np.eye(4)), mask)

    def test_stacked_attention_matches_per_sequence_calls(self):
        """A [B, a, b] mask runs B sequences through one call; each block
        equals that sequence's own call bitwise, forward and backward."""
        rng = np.random.default_rng(4)
        n_seq, a, b, d, m = 3, 4, 5, 32, 2
        q, k, v = (Tensor(rng.normal(size=(n_seq * n, d)), requires_grad=True)
                   for n in (a, b, b))
        wo = Tensor(np.eye(d))
        mask = rng.random((n_seq, a, b)) < 0.4
        mask[:, :, 0] = False
        r = rng.normal(size=(n_seq * a, d))

        out, w = ad.attention(q, ad.head_kv(k, v, n_seq, m), wo, mask)
        assert w.shape == (n_seq, m, a, b)
        ad.backward(ad.mul(out, Tensor(r)).sum())
        stacked = [t.grad for t in (q, k, v)]
        for t in (q, k, v):
            t.zero_grad()
        for i in range(n_seq):
            qi, ki, vi = (ad.narrow(t, 0, i * n, n)
                          for t, n in ((q, a), (k, b), (v, b)))
            out, wi = ad.attention(qi, ad.head_kv(ki, vi, 1, m), wo,
                                   mask[i:i + 1])
            np.testing.assert_array_equal(wi.data[0], w.data[i])
            ad.backward(ad.mul(out, Tensor(r[i * a:(i + 1) * a])).sum())
        for got, t in zip(stacked, (q, k, v)):
            np.testing.assert_array_equal(got, t.grad)

    def test_dropout_keep_mask_equals_drawn_mask(self):
        x = Tensor(np.arange(12.0).reshape(3, 4) + 1.0)
        keep = ad.keep_mask((3, 4), 0.3, np.random.default_rng(2))
        np.testing.assert_array_equal(
            fused_reference.dropout(x, 0.3, keep).data,
            np.where(keep, x.data / 0.7, 0.0))
        with pytest.raises(ShapeError):          # more rows than x
            fused_reference.dropout(x, 0.3, ad.keep_mask(
                (4, 4), 0.3, np.random.default_rng(2)))

    def test_no_implicit_broadcasting(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_scalar_times_tensor_broadcasts(self):
        s = Tensor([[2.0]])
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.mul(s, x).data, [[2.0, 4.0], [6.0, 8.0]])

    def test_embedding_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, [2, 0, 2])
        np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])

    def test_dropout_eval_identity_and_train_scaling(self):
        x = Tensor(np.ones((50, 20)))
        assert fused_reference.dropout(x, 0.0, None) is x
        rng = np.random.default_rng(3)
        y = fused_reference.dropout(x, 0.25, ad.keep_mask((50, 20), 0.25, rng))
        kept = y.data != 0.0
        np.testing.assert_allclose(y.data[kept], 1.0 / 0.75)
        assert 0.6 < kept.mean() < 0.9

    def test_dropout_is_seed_reproducible(self):
        x = Tensor(np.ones((8, 8)))
        a = fused_reference.dropout(x, 0.5, ad.keep_mask((8, 8), 0.5,
                                            np.random.default_rng(9))).data
        b = fused_reference.dropout(x, 0.5, ad.keep_mask((8, 8), 0.5,
                                            np.random.default_rng(9))).data
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_grad_of_square_sum(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.mul(w, w).sum()
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_reuse_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        loss = ad.add(ad.mul(w, w), w).sum()  # w^2 + w -> 2w + 1
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, [7.0])

    def test_two_backward_calls_accumulate_into_grad(self):
        w = Tensor([2.0], requires_grad=True)
        ad.backward(ad.mul(w, w).sum())
        ad.backward(ad.mul(w, w).sum())
        np.testing.assert_allclose(w.grad, [8.0])

    def test_backward_requires_scalar(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(w, w))

    def test_backward_clears_tape(self):
        w = Tensor([1.0], requires_grad=True)
        ad.backward(ad.mul(w, w).sum())
        assert ad.tape_size() == 0

    def test_no_grad_suppresses_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            out = ad.mul(w, w)
        assert not out.requires_grad
        assert ad.tape_size() == 0


def _check(fn, tensors, seed_note=""):
    """Run grad_check on a scalar closure over named leaf tensors."""
    report = grad_check(fn, tensors)
    assert report.passed, report.summary()


class TestOpGradients:
    """Every op's autodiff gradient agrees with central differences."""

    rng = np.random.default_rng(42)

    def leaf(self, *shape, scale=1.0):
        return Tensor(self.rng.normal(scale=scale, size=shape), requires_grad=True)

    def mixer(self, *shape):
        return Tensor(self.rng.normal(size=shape))

    def test_matmul(self):
        a, b = self.leaf(3, 4), self.leaf(4, 2)
        r = self.mixer(3, 2)
        _check(lambda: ad.mul(a @ b, r).sum(), [("a", a), ("b", b)])

    def test_add_sub_mul_div(self):
        a, b = self.leaf(2, 3), self.leaf(2, 3)
        b.data += 3.0  # keep divisor away from zero
        r = self.mixer(2, 3)
        _check(lambda: ad.mul(ad.add(a, b), r).sum(), [("a", a), ("b", b)])
        _check(lambda: ad.mul(ad.sub(a, b), r).sum(), [("a", a), ("b", b)])
        _check(lambda: ad.mul(ad.mul(a, b), r).sum(), [("a", a), ("b", b)])
        _check(lambda: ad.mul(ad.div(a, b), r).sum(), [("a", a), ("b", b)])

    def test_scalar_broadcast_sides(self):
        s = self.leaf(1, 1)
        x = self.leaf(3, 2)
        r = self.mixer(3, 2)
        _check(lambda: ad.mul(ad.mul(s, x), r).sum(), [("s", s), ("x", x)])
        _check(lambda: ad.mul(ad.add(x, s), r).sum(), [("s", s), ("x", x)])

    def test_affine(self):
        x = self.leaf(4)
        _check(lambda: (2.5 * x + 1.0 - x / 3.0).sum(), [("x", x)])

    def test_add_bias(self):
        x, b = self.leaf(3, 4), self.leaf(4)
        r = self.mixer(3, 4)
        _check(lambda: ad.mul(fused_reference.add_bias(x, b), r).sum(),
               [("x", x), ("b", b)])

    def test_scale_rows(self):
        x, c = self.leaf(4, 3), self.leaf(4, 1)
        r = self.mixer(4, 3)
        _check(lambda: ad.mul(fused_reference.scale_rows(x, c), r).sum(),
               [("x", x), ("c", c)])

    def test_sigmoid_relu_log(self):
        x = self.leaf(3, 3)
        r = self.mixer(3, 3)
        _check(lambda: ad.mul(fused_reference.sigmoid(x), r).sum(), [("x", x)])
        x2 = self.leaf(3, 3)
        x2.data += np.where(np.abs(x2.data) < 0.1, 0.5, 0.0)  # avoid the kink
        _check(lambda: ad.mul(fused_reference.relu(x2), r).sum(),
               [("x2", x2)])
        pos = Tensor(np.abs(self.rng.normal(size=(3, 3))) + 0.5, requires_grad=True)
        _check(lambda: ad.mul(ad.clamped_log(pos), r).sum(), [("pos", pos)])

    def test_softmax(self):
        x = self.leaf(4, 5)
        r = self.mixer(4, 5)
        _check(lambda: ad.mul(ad.softmax_lastdim(x), r).sum(), [("x", x)])

    def test_layer_norm(self):
        x, g, b = self.leaf(4, 6), self.leaf(6), self.leaf(6)
        g.data += 1.5
        r = self.mixer(4, 6)
        _check(lambda: ad.mul(ad.layer_norm(x, g, b), r).sum(),
               [("x", x), ("g", g), ("b", b)])

    def test_attention_weights(self):
        """The weights output of ``attention`` alone, its rows unread."""
        q, k = self.leaf(3, 4), self.leaf(5, 4)
        v, wo = self.mixer(5, 4), self.mixer(4, 4)
        mask = np.zeros((3, 5), dtype=bool)
        mask[0, 2:] = True
        mask[2, :3] = True
        for m, msk in ((1, None), (2, None), (2, mask[None]), (4, mask[None])):
            r = self.mixer(1, m, 3, 5)
            _check(lambda: ad.mul(ad.attention(q, ad.head_kv(k, v, 1, m), wo,
                                               msk)[1], r).sum(),
                   [("q", q), ("k", k)])

        q2, k2 = self.leaf(6, 4), self.leaf(10, 4)  # two stacked sequences
        v2 = self.mixer(10, 4)
        stacked = np.stack([mask, mask[::-1]])
        r = self.mixer(2, 2, 3, 5)
        _check(lambda: ad.mul(ad.attention(q2, ad.head_kv(k2, v2, 2, 2), wo,
                                           stacked)[1], r).sum(),
               [("q", q2), ("k", k2)])

    def test_attention_mix(self):
        w = Tensor(np.abs(self.rng.normal(size=(1, 2, 3, 5))), requires_grad=True)
        v = self.leaf(5, 6)
        r = self.mixer(3, 6)
        _check(lambda: ad.mul(ad.attention_mix(w, v), r).sum(),
               [("w", w), ("v", v)])
        w2 = Tensor(np.abs(self.rng.normal(size=(2, 2, 3, 5))), requires_grad=True)
        v2 = self.leaf(10, 6)
        r2 = self.mixer(6, 6)
        _check(lambda: ad.mul(ad.attention_mix(w2, v2), r2).sum(),
               [("w", w2), ("v", v2)])

    def test_dropout_fixed_seed(self):
        x = self.leaf(4, 4)
        r = self.mixer(4, 4)
        keep = ad.keep_mask((4, 4), 0.5, np.random.default_rng(7))
        _check(lambda: ad.mul(fused_reference.dropout(x, 0.5, keep), r).sum(),
               [("x", x)])

    def test_reductions(self):
        x = self.leaf(3, 5)
        r0 = self.mixer(1, 5)
        r1 = self.mixer(3, 1)
        _check(lambda: x.sum(), [("x", x)])
        _check(lambda: x.mean(), [("x", x)])
        _check(lambda: ad.mul(x.sum(axis=0, keepdims=True), r0).sum(), [("x", x)])
        _check(lambda: ad.mul(x.mean(axis=1, keepdims=True), r1).sum(), [("x", x)])

    def test_shape_ops(self):
        x = self.leaf(4, 6)
        r = self.mixer(6, 4)
        _check(lambda: ad.mul(x.T, r).sum(), [("x", x)])
        rn = self.mixer(2, 3)
        _check(lambda: ad.mul(ad.narrow(ad.narrow(x, 0, 1, 2), 1, 2, 3), rn).sum(),
               [("x", x)])

    def test_concat(self):
        a, b = self.leaf(2, 3), self.leaf(4, 3)
        r = self.mixer(6, 3)
        _check(lambda: ad.mul(fused_reference.concat([a, b], axis=0), r).sum(),
               [("a", a), ("b", b)])
        c, d = self.leaf(3, 2), self.leaf(3, 5)
        r2 = self.mixer(3, 7)
        _check(lambda: ad.mul(fused_reference.concat([c, d], axis=1), r2).sum(),
               [("c", c), ("d", d)])

    def test_gather_scatter_embedding(self):
        table = self.leaf(5, 3)
        r = self.mixer(4, 3)
        ids = [1, 3, 1, 0]  # repeated id exercises accumulation
        _check(lambda: ad.mul(ad.embedding_lookup(table, ids), r).sum(),
               [("table", table)])
        x = self.leaf(4, 6)
        _check(lambda: ad.take_per_row(x, [5, 0, 2, 2]).sum(), [("x", x)])


class TestGradCheckHarness:
    def test_constant_function_passes_with_zero_grads(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        report = grad_check(lambda: Tensor(np.array(3.0), requires_grad=False),
                            [("w", w)])
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_nondeterministic_function_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        state = {"n": 0}

        def f():
            state["n"] += 1
            return (w * float(state["n"])).sum()

        with pytest.raises(ContractError):
            grad_check(f, [("w", w)])

    def test_broken_gradient_is_caught(self):
        # sabotage: gradient of x -> 2x claimed where true backward is cos
        w = Tensor([0.3, 0.9], requires_grad=True)

        def bad_sin(x):
            return ad._out(np.sin(x.data), (x,), lambda g: (2.0 * g,), "bad_sin")

        report = grad_check(lambda: bad_sin(w).sum(), [("w", w)])
        assert not report.passed


class TestUncheckedOps:
    """With the per-op checks off (``unchecked``), no op may turn a
    non-finite value into a finite one that the search's checks miss."""

    def test_relu_keeps_nan_and_its_gradient(self):
        """The FFN's ReLU, fused into ``ffn`` (its second layer the
        identity here)."""
        x = Tensor([[np.nan], [-1.0], [2.0]], requires_grad=True)
        w, b = Tensor([[1.0]]), Tensor([0.0])
        with ad.unchecked():
            y = ad.ffn(x, w, b, w, b)
            ad.backward(y.sum())
        np.testing.assert_array_equal(y.data, [[np.nan], [0.0], [2.0]])
        np.testing.assert_array_equal(x.grad, [[0.0], [0.0], [1.0]])
        with pytest.raises(NumericalError, match="op 'linear'"):
            ad.ffn(Tensor([[np.nan]]), w, b, w, b)

    def test_softmax_of_nan_logits_is_numerical_not_contract(self):
        with ad.unchecked():
            with pytest.raises(NumericalError, match="op 'softmax'"):
                ad.softmax_lastdim(Tensor([[0.0, np.nan], [1.0, 2.0]]))
            with pytest.raises(ContractError, match="fully masked"):
                ad.softmax_lastdim(Tensor([[-np.inf, -np.inf]]))

    def test_masked_non_finite_key_still_raises(self):
        k = Tensor(np.ones((3, 4)))
        k.data[1, 2] = np.nan
        mask = np.array([[[False, True, False], [False, True, False]]])
        with ad.unchecked(), \
                pytest.raises(NumericalError, match="attention_weights"):
            ad.attention(Tensor(np.ones((2, 4))),
                         ad.head_kv(k, Tensor(np.ones((3, 4))), 1, 2),
                         Tensor(np.eye(4)), mask)


def _layer_norm_by_mean(x, gain, bias, g):
    """The forward and backward ``layer_norm`` had with ``.mean()``."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    out = xhat * gain[None, :] + bias[None, :]
    gy = g * gain[None, :]
    m1 = gy.mean(axis=1, keepdims=True)
    m2 = (gy * xhat).mean(axis=1, keepdims=True)
    dx = (gy - m1 - xhat * m2) * inv
    return out, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def test_layer_norm_equals_the_mean_formula_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        x = Tensor(rng.normal(size=(n, 32)) * rng.uniform(0.1, 10),
                   requires_grad=True)
        gain = Tensor(rng.normal(size=32), requires_grad=True)
        bias = Tensor(rng.normal(size=32), requires_grad=True)
        g = rng.normal(size=(n, 32))
        out = ad.layer_norm(x, gain, bias)
        ad.backward(ad.mul(out, Tensor(g)).sum())
        want = _layer_norm_by_mean(x.data, gain.data, bias.data, g)
        for got, ref in zip((out.data, x.grad, gain.grad, bias.grad), want):
            np.testing.assert_array_equal(got, ref)


def _sigmoid_by_fancy_index(d):
    """The sigmoid as it was computed with boolean fancy indexing."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_fancy_index_form_bitwise():
    """Signed zeros, infinities, NaNs of either sign and with a payload,
    subnormals, and values where exp underflows or overflows."""
    payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        payload[0], -payload[0], 1e308, -1e308, 5e-324,
                        -5e-324, 36.0, -36.0, 745.0, -745.0, 710.0, -710.0])
    rng = np.random.default_rng(22)
    d = np.concatenate([special, rng.normal(scale=20.0, size=4000),
                        rng.choice(special, size=2000)]).reshape(-1, 6)
    with np.errstate(all="ignore"):
        got, want = ad._sigmoid(d), _sigmoid_by_fancy_index(d)
    assert fused_reference.bits(got) == fused_reference.bits(want)
