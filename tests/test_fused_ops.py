"""The fused and slimmed ops against what they replace (``fused_reference``).

``linear``, ``ffn``, ``attention``, ``embed``, the residual form of
``layer_norm``, the gates ``gated_sum`` and ``sigmoid_linear``, and the
copy mixture's ``mix_rows`` and ``normalize_rows`` compute the chains'
expressions in the chains' order, and ``attention``, ``attention_mix``,
``layer_norm`` and ``clamped_log`` rebuild in backward, from their inputs
(``layer_norm`` also from its row statistics), what the storing forms
hold.  So outputs and gradients
are equal bitwise: in training and under ``no_grad``, where an input feeds
several ops and its gradient parts are summed, whichever of the two
outputs of ``attention`` is read, and on non-finite and
subnormal entries.  Plus gradient checks, the gathers' row scatter against
``np.add.at``, an attention memory's head blocks (split once, where the
memory is built, and once per memory of a translated sentence however
long its search) and the attention layouts that a search builds once,
base and context training passes against the chains, guards on the
tape of one layer norm, of one full-cap training pass and on the ops of
one copy search step, and the fixture epochs at 128 rows a pass, which
must not move at all."""

import collections
import contextlib
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import fused_reference as ref
from docnmt import autodiff as ad
from docnmt import training
from docnmt.autodiff import Tensor
from docnmt.checkpoint import load_checkpoint
from docnmt.corpus import load_vocab_pair
from docnmt.decoding import (SearchConfig, translate_document,
                             translate_sentence, update_context)
from docnmt.errors import ContractError, ShapeError
from docnmt.gradcheck import grad_check
from docnmt.model import DocModel, ModelConfig, build_params
from docnmt.model.han import CacheEntry, ContextMemory, ContextState
from docnmt.model.model import DecoderMemory, Stack
from docnmt.training import MAX_STACK_ROWS, STAGES, stack_groups

from test_training import (CONTEXT_STAGES, PINNED_LOSSES, fixture_stage_run,
                           pushed_group)

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def leaves(rng, *shapes):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def run_both(build, tensors, train):
    """``build(fused)``'s output and, in training, the gradient of every
    tensor, for the fused ops and for the chain."""
    results = []
    for fused in (True, False):
        for t in tensors:
            t.zero_grad()
        if train:
            out = build(fused)
            ad.backward(out.sum())
            results.append([out.data] + [t.grad for t in tensors])
        else:
            with ad.no_grad():
                out = build(fused)
            assert ad.tape_size() == 0
            results.append([out.data])
    return results


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and ref.bits(g) == ref.bits(w)


@pytest.mark.parametrize("train", [True, False])
def test_linear_equals_matmul_add_bias(train):
    """x, w and b each feed two products, as the rows of a layer feed
    several projections."""
    rng = np.random.default_rng(1)
    x, w, b = leaves(rng, (7, 5), (5, 6), (6,))
    r = Tensor(rng.normal(size=(7, 6)))

    def build(fused):
        lin = ad.linear if fused else ref.linear
        return ad.add(ad.mul(lin(x, w, b), r), lin(ref.relu(x), w, b))

    fused, chain = run_both(build, (x, w, b), train)
    assert_bitwise(fused, chain)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_residual_norm_equals_dropout_add_layer_norm(rate, train):
    """The residual input also feeds the sublayer, so its gradient is a
    sum of parts; the fused op adds its part first, as the chain does."""
    rng = np.random.default_rng(2)
    x, w, gain, bias = leaves(rng, (9, 8), (8, 8), (8,), (8,))
    r = Tensor(rng.normal(size=(9, 8)))
    keep = ad.keep_mask((9, 8), rate, rng) if rate else None

    def build(fused):
        sub = x @ w
        norm = ad.layer_norm(x, gain, bias, sub, rate, keep) if fused \
            else ref.residual_norm(x, sub, gain, bias, rate, keep)
        return ad.mul(norm, r)

    fused, chain = run_both(build, (x, w, gain, bias), train)
    assert_bitwise(fused, chain)


@pytest.mark.parametrize("train", [True, False])
def test_ffn_equals_linear_relu_linear(train):
    """x also feeds the sublayer's residual, as in the model."""
    rng = np.random.default_rng(7)
    x, w1, b1, w2, b2 = leaves(rng, (7, 5), (5, 6), (6,), (6, 5), (5,))
    r = Tensor(rng.normal(size=(7, 5)))

    def build(fused):
        y = (ad.ffn if fused else ref.ffn)(x, w1, b1, w2, b2)
        return ad.add(ad.mul(y, r), x)

    fused, chain = run_both(build, (x, w1, b1, w2, b2), train)
    assert_bitwise(fused, chain)


def attention_case(rng):
    """Rows x of two stacked sequences of 6, four [8, 8] projections, a
    random [2, 6, 6] mask with no row fully blocked, and a probe."""
    x, wq, wk, wv, wo = leaves(rng, (12, 8), *[(8, 8)] * 4)
    mask = rng.random((2, 6, 6)) < 0.4
    mask[:, :, 0] = False
    return [x, wq, wk, wv, wo], mask, Tensor(rng.normal(size=(12, 8)))


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("reads", ["rows", "weights", "both", "neither"])
def test_attention_equals_the_chain_bitwise(reads, train):
    """One tensor x gives the queries, keys and values, and the weights
    feed a later node as the copy weights read them (their head sum mixes
    rows of x).  Whichever outputs the loss reads, the rows, the weights
    and every gradient equal the chain's (``attention_weights``,
    ``attention_mix``, a ``matmul`` by wo): the weights' two gradient parts
    are summed in the chain's order, an output nothing reads hands on no
    gradient, and a node neither of whose outputs is read is skipped."""
    tensors, mask, r = attention_case(np.random.default_rng(16))
    x, wq, wk, wv, wo = tensors
    results = []
    for op in (ad, ref):
        for t in tensors:
            t.zero_grad()
        with contextlib.nullcontext() if train else ad.no_grad():
            rows, w = op.attention(x @ wq, ad.head_kv(x @ wk, x @ wv, 2, 2),
                                   wo, mask)
            copied = ad.attention_mix(w.sum(axis=1, keepdims=True), x)
            loss = {"rows": ad.mul(rows, r), "weights": ad.mul(copied, r),
                    "both": ad.add(ad.mul(copied, r), ad.mul(rows, r)),
                    "neither": ad.mul(x, r)}[reads].sum()
            if train:
                ad.backward(loss)
        assert ad.tape_size() == 0
        results.append([rows.data, w.data, loss.data]
                       + [np.array([]) if t.grad is None else t.grad
                          for t in tensors])
    assert_bitwise(*results)
    if train and reads == "neither":
        assert all(t.grad is None for t in tensors[1:])


@pytest.mark.parametrize("masked", [False, True])
def test_attention_passes_grad_check(masked):
    """Its rows and its head-summed weights in the loss: two stacked
    sequences under a mask, or one with nothing blocked."""
    rng = np.random.default_rng(17)
    _, mask, _ = attention_case(rng)
    q, k, v, wo = leaves(rng, (12, 8), (12, 8), (12, 8), (8, 6))
    if not masked:
        mask = None
    bs = 1 if mask is None else 2
    r_rows = Tensor(rng.normal(size=(12, 6)))
    r_w = Tensor(rng.normal(size=(bs, 1, 12 // bs, 12 // bs)))

    def f():
        rows, w = ad.attention(q, ad.head_kv(k, v, bs, 2), wo, mask)
        return ad.add(ad.mul(rows, r_rows).sum(),
                      ad.mul(w.sum(axis=1, keepdims=True), r_w).sum())

    report = grad_check(f, [("q", q), ("k", k), ("v", v), ("wo", wo)])
    assert report.passed, report.summary()


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_embed_equals_lookup_scale_add_dropout(rate, train):
    """Repeated ids, and a table that feeds two embeddings."""
    rng = np.random.default_rng(8)
    (table,) = leaves(rng, (11, 6))
    ids = [3, 0, 3, 10, 5, 3, 7]
    positions = rng.normal(size=(7, 6))
    keep = ad.keep_mask((7, 6), rate, rng) if rate else None
    r = Tensor(rng.normal(size=(7, 6)))

    def build(fused):
        emb = ad.embed if fused else ref.embed
        return ad.add(ad.mul(emb(table, ids, positions, rate, keep), r),
                      emb(table, ids[::-1], positions, rate, keep))

    fused, chain = run_both(build, (table,), train)
    assert_bitwise(fused, chain)


@pytest.mark.parametrize("op", ["embed", "embedding_lookup"])
@pytest.mark.parametrize("ids", [[3, 0, 3, 10, 5, 3, 7], [4], [6] * 7],
                         ids=["repeated", "single", "all-equal"])
def test_row_scatter_equals_add_at_into_zeros(ids, op):
    """The table gradient of both gathers is the incoming rows added into
    a zero table with ``np.add.at``, bit for bit, where -0.0, +-1e300 (whose
    sums overflow, and cancel to NaN) and subnormals meet in one slot."""
    rng = np.random.default_rng(13)
    table = Tensor(rng.normal(size=(11, 6)), requires_grad=True)
    g = sprinkled(rng, (len(ids), 6),
                  [-0.0, 1e300, -1e300, 5e-324, -2.5e-310, 2.2e-308])
    keep = ad.keep_mask((len(ids), 6), 0.3, rng)
    ad.clear_tape()
    try:
        if op == "embed":
            ad.embed(table, ids, np.zeros((len(ids), 6)), 0.3, keep)
            rows = math.sqrt(6) * (g * (keep * (1.0 / (1.0 - 0.3))))
        else:
            ad.embedding_lookup(table, ids)
            rows = g
        with np.errstate(all="ignore"):
            (got,) = ad._tape[-1].bwd(g)
            want = np.zeros_like(table.data)
            np.add.at(want, np.asarray(ids), rows)
    finally:
        ad.clear_tape()
    assert ref.bits(got) == ref.bits(want)


@pytest.mark.parametrize("train", [True, False])
def test_slimmed_ops_equal_the_storing_forms(train):
    """Attention over two stacked sequences, a residual norm and a
    clamped log of near-zero probabilities; x feeds four ops, and y and
    gain two each."""
    rng = np.random.default_rng(9)
    x, wq, wk, wv, wo, gain, bias = leaves(rng, (12, 8), (8, 8), (8, 8),
                                           (8, 8), (8, 8), (8,), (8,))
    gain.data += 1.5
    mask = rng.random((2, 6, 6)) < 0.4
    mask[:, :, 0] = False
    r = Tensor(rng.normal(size=(12, 8)) * 30.0)

    def build(fused):
        op = ad if fused else ref
        rows, _ = op.attention(x @ wq, ad.head_kv(x @ wk, x @ wv, 2, 2), wo,
                               mask)
        y = op.layer_norm(ad.add(rows, x), gain, bias)
        p = ad.softmax_lastdim(ad.mul(y, r))
        return ad.add(op.clamped_log(p), op.layer_norm(y, gain, bias))

    events = ad.clamp_events
    fused, chain = run_both(build, (x, wq, wk, wv, wo, gain, bias), train)
    assert_bitwise(fused, chain)
    assert ad.clamp_events > events


CONTEXT_OPS = ["gated_sum", "sigmoid_linear", "mix_rows", "normalize_rows"]


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("fused_op", CONTEXT_OPS + ["all"])
def test_gates_and_mixture_equal_their_chains(fused_op, train):
    """The gates and the copy mixture wired as the model wires them: the
    context rows d feed the HAN gate and the copy gate; h~ feeds the
    output layer, the copy attention (a product here) and the copy gate;
    p_copy is both weights of the mixture.  One op fused at a time, then
    all four, against the chains; the gate's lam is equal too."""
    rng = np.random.default_rng(12)
    tensors = leaves(rng, (5, 4), (5, 4), (4, 4), (4, 4), (4, 4), (4, 6),
                     (6,), (5, 3), (3, 6), (4, 1), (4, 1), (4, 1), (1, 1))
    h, d, wh, wd, wq, w_out, b_out, z, wz, gh, gc, gd, b = tensors
    r = Tensor(rng.normal(size=(5, 6)))
    lams = []

    def build(fused):
        op = {name: getattr(ad if fused and fused_op in (name, "all")
                            else ref, name) for name in CONTEXT_OPS}
        h_tilde, lam = op["gated_sum"](h, d, wh, wd)
        lams.append(lam.data)
        p_vocab = ad.softmax_lastdim(ad.linear(h_tilde, w_out, b_out))
        c = h_tilde @ wq
        p_copy = op["sigmoid_linear"]([(h_tilde, gh), (c, gc), (d, gd)], b)
        alpha = op["normalize_rows"](ref.sigmoid(z @ wz))
        return ad.mul(op["mix_rows"](p_vocab, alpha, p_copy), r)

    fused, chain = run_both(build, tensors, train)
    assert_bitwise(fused, chain)
    assert_bitwise(lams[:1], lams[1:])


def test_fused_ops_check_their_operands():
    x, g = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, g, g, Tensor(np.ones((3, 3))))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, g, g, x, 0.5, np.ones((4, 4), dtype=bool))
    with pytest.raises(ShapeError):
        ad.linear(x, Tensor(np.ones((4, 2))), g)
    with pytest.raises(ShapeError):
        ad.ffn(x, Tensor(np.ones((4, 2))), g, Tensor(np.ones((2, 4))), g)
    with pytest.raises(ShapeError):
        ad.ffn(x, Tensor(np.ones((4, 2))), Tensor(np.ones(2)),
               Tensor(np.ones((3, 4))), g)
    with pytest.raises(ShapeError):
        ad.embed(x, [0, 1], np.zeros((3, 4)), 0.0, None)
    with pytest.raises(ShapeError):
        ad.embed(x, [0, 1], np.zeros((2, 4)), 0.5, np.ones((3, 4), dtype=bool))
    with pytest.raises(ContractError, match="out of range"):
        ad.embed(x, [0, 3], np.zeros((2, 4)), 0.0, None)
    with pytest.raises(ShapeError):
        ad.gated_sum(x, x, Tensor(np.ones((4, 3))), Tensor(np.ones((4, 4))))
    with pytest.raises(ShapeError):
        ad.sigmoid_linear([(x, Tensor(np.ones((4, 1)))),
                           (x, Tensor(np.ones((4, 2))))], Tensor(np.ones(1)))
    with pytest.raises(ShapeError):
        ad.sigmoid_linear([(x, Tensor(np.ones((4, 1))))], Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        ad.mix_rows(x, x, Tensor(np.ones((3, 4))))
    with pytest.raises(ShapeError):
        ad.normalize_rows(Tensor(np.ones(3)))
    kv = ad.head_kv(x, x, 1, 2)
    with pytest.raises(ShapeError, match="attention_weights"):
        ad.attention(Tensor(np.ones((3, 2))), kv, g)
    with pytest.raises(ShapeError, match="values"):
        ad.head_kv(x, Tensor(np.ones((2, 4))), 1, 2)
    with pytest.raises(ShapeError, match="values"):
        ad.head_kv(x, Tensor(np.ones((3, 3))), 1, 2)
    with pytest.raises(ShapeError, match="matmul"):
        ad.attention(x, kv, Tensor(np.ones((3, 4))))
    with pytest.raises(ShapeError):
        ad.attention_mix(Tensor(np.ones((1, 2, 3, 3))),
                         Tensor(np.ones((3, 3))))


def partial_mask_case(op, rng, rows=7, d=8):
    """``op`` ("layer_norm" with ``sub``, or "embed") on random leaves:
    (a function of the rate and keep mask, its leaves)."""
    if op == "layer_norm":
        x, sub, gain, bias = leaves(rng, (rows, d), (rows, d), (d,), (d,))
        return (lambda rate, keep: ad.layer_norm(x, gain, bias, sub, rate,
                                                 keep)), [x, sub, gain, bias]
    (table,), ids = leaves(rng, (5, d)), rng.integers(0, 5, rows)
    positions = rng.normal(size=(rows, d))
    return (lambda rate, keep: ad.embed(table, ids, positions, rate,
                                        keep)), [table]


def output_and_grads(run, tensors, probe):
    """The op's output and every leaf's gradient of sum(out * probe)."""
    for t in tensors:
        t.zero_grad()
    out = run()
    ad.backward(ad.mul(out, Tensor(probe)).sum())
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("op", ["layer_norm", "embed"])
def test_a_partial_keep_mask_drops_only_its_leading_rows(op):
    """A keep mask over the first r of R rows: a loss on rows below r sees
    the full-mask op's output rows and every gradient, bitwise; a loss on
    rows from r on sees the undropped op's.  A mask with another column
    count, or more rows than x, is a ShapeError."""
    rng = np.random.default_rng(15)
    build, tensors = partial_mask_case(op, rng)
    rows, d, r = 7, 8, 4
    full = ad.keep_mask((rows, d), 0.3, rng)
    probe = rng.normal(size=(rows, d))
    for seen, want_rate, want_keep in ((slice(None, r), 0.3, full),
                                       (slice(r, None), 0.0, None)):
        part = np.zeros_like(probe)
        part[seen] = probe[seen]
        got = output_and_grads(lambda: build(0.3, full[:r]), tensors, part)
        want = output_and_grads(lambda: build(want_rate, want_keep), tensors,
                                part)
        assert ref.bits(got[0][seen]) == ref.bits(want[0][seen])
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(g, w)
    for bad in (full[:r, :d - 1], np.ones((rows + 1, d), dtype=bool)):
        with pytest.raises(ShapeError):
            build(0.3, bad)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1.5]
# finite values, subnormals among them: non-finite attention logits raise
FINITE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.5, -2.0]


def test_dropout_equals_the_float_mask_form_bitwise():
    """Signed zeros, infinities, NaN and values that overflow when scaled,
    in the input and in the incoming gradient: the dropout of the chains,
    which the fused ops equal, against the float mask keep / (1 - rate)."""
    rng = np.random.default_rng(3)
    data = rng.choice(SPECIAL, size=(12, 9))
    upstream = rng.choice(SPECIAL, size=(12, 9))

    def float_mask(x, rate, keep):
        mask = keep / (1.0 - rate)
        return ad._out(x.data * mask, (x,), lambda g: (g * mask,), "dropout")

    for rate in (0.1, 0.5, 0.9):
        keep = ad.keep_mask(data.shape, rate, rng)
        got = []
        for op in (ref.dropout, float_mask):
            x = Tensor(data, requires_grad=True)
            with ad.unchecked(), np.errstate(all="ignore"):
                out = op(x, rate, keep)
                ad.backward(ad.mul(out, Tensor(upstream)).sum())
            got.append((out.data, x.grad))
        assert_bitwise(got[0], got[1])


def sprinkled(rng, shape, values):
    """Normal draws with about a quarter of the entries taken from
    ``values``."""
    a = rng.normal(size=shape)
    spots = rng.random(shape) < 0.25
    a[spots] = rng.choice(values, size=int(spots.sum()))
    return a


def special_cases(rng):
    """Per op: (shapes of its inputs, the values they draw from, the op and
    its reference as functions of the input tensors)."""
    keep = ad.keep_mask((5, 6), 0.3, rng)
    mask = rng.random((2, 3, 3)) < 0.4
    mask[:, :, 0] = False
    ids = [2, 0, 2, 6, 1]
    # -0.0 rows and positions: the chain's scaling adds 0.0 (making -0.0 a
    # 0.0) before the positions
    positions = np.where(rng.random((5, 6)) < 0.5, -0.0,
                         sprinkled(rng, (5, 6), SPECIAL))
    # the values and wo behind the weights, from a generator of their own
    # so that the other cases draw what they drew before
    own = np.random.default_rng(23)
    v, wo = Tensor(own.normal(size=(6, 4))), Tensor(own.normal(size=(4, 4)))
    return {
        "attention_weights": (
            [(6, 4), (6, 4)], FINITE,
            lambda q, k: ad.attention(q, ad.head_kv(k, v, 2, 2), wo, mask)[1],
            lambda q, k: ref.attention_weights(q, k, 2, mask)),
        "attention": (
            [(6, 4), (6, 4), (6, 4), (4, 4)], FINITE,
            lambda q, k, v, wo: ad.attention(
                q, ad.head_kv(k, v, 2, 2), wo, mask)[0],
            lambda q, k, v, wo: ref.attention(
                q, ad.head_kv(k, v, 2, 2), wo, mask)[0]),
        "attention_mix": (
            [(2, 2, 3, 3), (6, 4)], SPECIAL, ad.attention_mix,
            ref.attention_mix),
        "layer_norm": ([(5, 6), (6,), (6,)], SPECIAL, ad.layer_norm,
                       ref.layer_norm),
        "residual_norm": (
            [(5, 6), (5, 6), (6,), (6,)], SPECIAL,
            lambda x, sub, g, b: ad.layer_norm(x, g, b, sub, 0.3, keep),
            lambda x, sub, g, b: ref.residual_norm(x, sub, g, b, 0.3, keep)),
        "ffn": ([(5, 4), (4, 6), (6,), (6, 4), (4,)], SPECIAL, ad.ffn,
                ref.ffn),
        "clamped_log": ([(5, 6)], SPECIAL + [-1.0, 1e-13],
                        ad.clamped_log, ref.clamped_log),
        "embed": (
            [(7, 6)], [-0.0] * 3 + SPECIAL,
            lambda t: ad.embed(t, ids, positions, 0.3, keep),
            lambda t: ref.embed(t, ids, positions, 0.3, keep)),
        "gated_sum": (
            [(5, 4), (5, 4), (4, 4), (4, 4)], SPECIAL,
            lambda *t: ad.gated_sum(*t)[0], lambda *t: ref.gated_sum(*t)[0]),
        "sigmoid_linear": (
            [(5, 4), (4, 1), (5, 3), (3, 1), (5, 4), (4, 1), (1, 1)], SPECIAL,
            lambda h, wh, c, wc, d, wd, b: ad.sigmoid_linear(
                [(h, wh), (c, wc), (d, wd)], b),
            lambda h, wh, c, wc, d, wd, b: ref.sigmoid_linear(
                [(h, wh), (c, wc), (d, wd)], b)),
        "mix_rows": ([(5, 6), (5, 6), (5, 1)], SPECIAL, ad.mix_rows,
                     ref.mix_rows),
        "normalize_rows": ([(5, 6)], SPECIAL, ad.normalize_rows,
                           ref.normalize_rows),
    }


def special_run(op, tensors, upstream):
    """``op``'s output and every input's gradient with the per-op checks
    off, and the clamp events."""
    for t in tensors:
        t.zero_grad()
    events = ad.clamp_events
    with ad.unchecked(), np.errstate(all="ignore"):
        out = op(*tensors)
        ad.backward(ad.mul(out, Tensor(upstream(out.shape))).sum())
    return [out.data] + [t.grad for t in tensors], ad.clamp_events - events


@pytest.mark.parametrize("name", ["attention_weights", "attention",
                                  "attention_mix", "layer_norm",
                                  "residual_norm", "ffn", "clamped_log",
                                  "embed", *CONTEXT_OPS])
def test_ops_equal_the_references_on_special_values(name):
    """±inf, NaN, signed zeros, subnormals and overflowing values in the
    inputs and in the incoming gradient."""
    rng = np.random.default_rng(10)
    shapes, values, op, reference = special_cases(rng)[name]
    tensors = [Tensor(sprinkled(rng, s, values), requires_grad=True)
               for s in shapes]
    draws = {}

    def upstream(shape):
        return draws.setdefault(shape, sprinkled(rng, shape, SPECIAL))

    (got, got_events), (want, want_events) = (
        special_run(f, tensors, upstream) for f in (op, reference))
    assert got_events == want_events
    assert_bitwise(got, want)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_fused_ops_pass_grad_check(rate):
    rng = np.random.default_rng(4)
    x, w, b, sub, gain, bias, table = leaves(rng, (4, 5), (5, 6), (6,), (4, 5),
                                             (5,), (5,), (7, 5))
    gain.data += 1.5
    r6, r5 = (Tensor(rng.normal(size=s)) for s in ((4, 6), (4, 5)))
    keep = ad.keep_mask((4, 5), rate, rng) if rate else None
    positions = rng.normal(size=(4, 5))
    w2, b2 = leaves(rng, (6, 5), (5,))
    for f, params in (
            (lambda: ad.mul(ad.linear(x, w, b), r6).sum(),
             [("x", x), ("w", w), ("b", b)]),
            (lambda: ad.mul(ad.ffn(x, w, b, w2, b2), r5).sum(),
             [("x", x), ("w1", w), ("b1", b), ("w2", w2), ("b2", b2)]),
            (lambda: ad.mul(ad.layer_norm(x, gain, bias, sub, rate, keep),
                            r5).sum(),
             [("x", x), ("sub", sub), ("gain", gain), ("bias", bias)]),
            (lambda: ad.mul(ad.embed(table, [3, 0, 3, 6], positions, rate,
                                     keep), r5).sum(),
             [("table", table)])):
        report = grad_check(f, params)
        assert report.passed, report.summary()
    wh, wd, gh, gd, gb, p_copy = leaves(rng, (5, 5), (5, 5), (5, 1), (5, 1),
                                        (1, 1), (4, 1))
    positive = Tensor(rng.random((4, 5)) + 0.5, requires_grad=True)
    r1 = Tensor(rng.normal(size=(4, 1)))
    for f, params in (
            (lambda: ad.mul(ad.gated_sum(x, sub, wh, wd)[0], r5).sum(),
             [("h", x), ("d", sub), ("wh", wh), ("wd", wd)]),
            (lambda: ad.mul(ad.sigmoid_linear([(x, gh), (sub, gd)], gb),
                            r1).sum(),
             [("x", x), ("sub", sub), ("gh", gh), ("gd", gd), ("b", gb)]),
            (lambda: ad.mul(ad.mix_rows(x, sub, p_copy), r5).sum(),
             [("a", x), ("b", sub), ("w", p_copy)]),
            (lambda: ad.mul(ad.normalize_rows(positive), r5).sum(),
             [("x", positive)])):
        report = grad_check(f, params)
        assert report.passed, report.summary()


@pytest.mark.parametrize("masking", ["none", "block", "random"])
@pytest.mark.parametrize("bs", [1, 2, 3])
def test_head_blocks_reused_across_calls_equal_a_fresh_split(bs, masking):
    """Three ``attention`` calls on one memory, which splits its keys and
    values into heads once, equal calls on fresh memories, outputs, weights
    and gradients, bitwise; the blocks are the per-head layouts of the
    rows."""
    rng = np.random.default_rng(13)
    a, b, d, m = 2, 6, 8, 2
    k, v, *queries = leaves(rng, (bs * b, d), (bs * b, d),
                            *[(bs * a, d)] * 3)
    wo = Tensor(rng.normal(size=(d, d)))
    mask = {"none": None,
            "block": np.repeat(~np.kron(np.eye(a), np.ones((1, b // a)))
                               .astype(bool)[None], bs, axis=0),
            "random": rng.random((bs, a, b)) < 0.4}[masking]
    if mask is not None:
        mask[:, :, 0] = False
    kept = ad.head_kv(k, v, bs, m)

    def build(reused):
        total = None
        for q in queries:
            kv = kept if reused else ad.head_kv(k, v, bs, m)
            out, weights = ad.attention(q, kv, wo, mask)
            part = ad.add(out.sum(), ad.mul(weights, weights).sum())
            total = part if total is None else ad.add(total, part)
        return total

    for train in (True, False):
        reused, fresh = run_both(build, [k, v, *queries], train)
        assert_bitwise(reused, fresh)
    heads = (bs, b, m, d // m)
    assert_bitwise((kept.kt, kept.vh),
                   (k.data.reshape(heads).transpose(0, 2, 3, 1),
                    v.data.reshape(heads).transpose(0, 2, 1, 3)))


@pytest.mark.parametrize("width", [1, 4])
def test_a_translated_sentence_splits_each_memory_once(width, monkeypatch):
    """Translating a two-sentence document with the copy fixture, the
    second sentence's cross-attention memories (one per layer), its
    target-side word-level context memory and its copy memory are each
    split into heads once, however many steps its search takes."""
    store, cfg, _ = load_checkpoint(FIXTURES / "copy.ckpt")
    model = DocModel(cfg, store)
    sv, _ = load_vocab_pair(FIXTURES / "vocab.json")
    pool = json.loads((FIXTURES / "pool.json").read_text(encoding="utf-8"))
    doc = [sv.encode(s.split()) for s in pool["source"][0][:2]]
    memories, split, build, key_heads = [], [], DecoderMemory.__init__, \
        ad._key_heads

    def recording(self, *args):
        build(self, *args)
        memories.append(self)

    def counting(k, bs, m):
        split.append(k)             # held, so no two keys share an id
        return key_heads(k, bs, m)

    monkeypatch.setattr(DecoderMemory, "__init__", recording)
    monkeypatch.setattr(ad, "_key_heads", counting)
    outputs, _ = translate_document(model, doc, "copy",
                                    SearchConfig(width=width))
    memory = memories[-1]
    assert len(memories) == 2 and len(memory.context) == 1
    assert len(outputs[1]) >= 2 and "copy_kv" in vars(memory)
    kvs = memory.cross_kv + [memory.context.word_kv, memory.copy_kv]
    assert len(kvs) == cfg.n_layers + 2
    assert [sum(k is kv.keys.data for k in split) for kv in kvs] \
        == [1] * len(kvs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_context_memory_layouts_equal_a_fresh_build(n):
    """The repeat rows and masks a ``ContextMemory`` keeps per query count
    T, read after every other T was built, equal those of a fresh memory,
    and say what the module docstring says: word-level row j*T+t sees only
    the columns of cached sentence j, sentence-level row t only the
    summary rows j*T+t, and row (b, j, t) repeats query row b*T+t."""
    model = base_model()
    rng = np.random.default_rng(14)
    docs = [[CacheEntry([4] * int(length),
                        Tensor(rng.normal(size=(int(length), 32))))
             for length in rng.integers(1, 5, size=n)] for _ in range(2)]
    memory = ContextMemory(docs, model.params, "ctx.dec.", 2)
    for t in [1, 2, 3, 4, 5, 3, 1]:
        memory.layout(t)
    for t in range(1, 6):
        got = memory.layout(t)
        fresh = ContextMemory(docs, model.params, "ctx.dec.", 2).layout(t)
        assert all((x is None and y is None) or np.array_equal(x, y)
                   for x, y in zip(got, fresh))
        repeat, word, sent = got
        rows = np.arange(n * t)
        for b in range(2):
            assert np.array_equal(~word[b], memory.columns[b][None, :]
                                  == (rows // t)[:, None])
            assert np.array_equal(~sent[b], rows[None, :] % t
                                  == np.arange(t)[:, None])
        if n == 1:
            assert repeat is None
        else:
            assert np.array_equal(repeat, (np.arange(2)[:, None] * t
                                           + np.tile(np.arange(t), n)).ravel())


# ---------------------------------------------------------------------------
# the model on the fused ops and on the chains


def base_model(dropout=0.3):
    cfg = ModelConfig(vocab_src=40, vocab_tgt=40, dropout=dropout)
    store = build_params(cfg, np.random.default_rng([0, 11]))
    store.set_trainable({"base"})
    return DocModel(cfg, store)


def full_cap_pairs():
    """One group of source and BOS + target rows, MAX_STACK_ROWS a side."""
    rng = np.random.default_rng(1)
    pairs = [([int(i) for i in rng.integers(4, 40, 8)],
              [int(i) for i in rng.integers(4, 40, 7)])
             for _ in range(MAX_STACK_ROWS // 8)]
    assert stack_groups(pairs) == [list(range(len(pairs)))]
    return pairs


def forced_pass(model, pairs, train):
    """One teacher-forced base pass: loss and, in training, every gradient."""
    model.params.zero_grad()
    if not train:
        with ad.no_grad():
            return [model.forced_loss(model.teacher_force(pairs))[0].data]
    rng = np.random.default_rng(5)
    keep = model.dropout_masks([(len(s), len(t)) for s, t in pairs], rng)
    loss = model.forced_loss(model.teacher_force(pairs, keep))[0]
    ad.backward(loss)
    return [loss.data] + [p.grad for _, p in model.params.trainable()]


@pytest.mark.parametrize("train", [True, False])
def test_model_pass_equals_the_chains_bitwise(train, monkeypatch):
    model, pairs = base_model(), full_cap_pairs()[:5]
    fused = forced_pass(model, pairs, train)
    ref.use_chains(monkeypatch)
    assert_bitwise(fused, forced_pass(model, pairs, train))


def context_training_run(model, docs):
    """Every pass of a copy-variant training wavefront over ``docs`` (lists
    of id pairs), later sentences reading the gold ones before them from
    their caches: the losses, then every trainable gradient."""
    model.params.zero_grad()
    wave = [training._Doc(ContextState(model.cfg.n_context), pairs, True)
            for pairs in docs]
    losses = []
    for loss, _, _ in training._wavefront_passes(
            model, wave, "copy", np.random.default_rng(7)):
        ad.backward(loss)
        losses.append(loss.data)
    grads = [p.grad for _, p in model.params.trainable()]
    assert all(g is not None for g in grads)
    return losses + grads


def chains_context_run(groups, monkeypatch):
    """``context_training_run`` of the fixture copy model with ``groups``
    trainable, fused and on the chains; under the chains no fused FFN
    runs."""
    store, cfg, _ = load_checkpoint(FIXTURES / "copy.ckpt")
    store.set_trainable(groups)
    model = DocModel(cfg, store)
    sv, tv = load_vocab_pair(FIXTURES / "vocab.json")
    pool = json.loads((FIXTURES / "pool.json").read_text(encoding="utf-8"))
    docs = [[(sv.encode(s.split()), tv.encode(t.split()))
             for s, t in zip(src[:3], tgt[:3])]
            for src, tgt in zip(pool["source"][:4], pool["reference"][:4])]
    fused = context_training_run(model, docs)
    ref.use_chains(monkeypatch)
    tags, out = collections.Counter(), ad._out

    def counting(arr, inputs, bwd, tag):
        tags[tag] += 1
        return out(arr, inputs, bwd, tag)

    monkeypatch.setattr(ad, "_out", counting)
    chains = context_training_run(model, docs)
    assert tags["sigmoid"] > 0 and tags["relu"] > 0 \
        and tags["linear"] == 0
    return fused, chains


def test_context_pass_equals_the_chains_bitwise(monkeypatch):
    """Copy-variant training passes over cached sentences, every group
    trainable (both context FFNs included): their losses and every
    gradient equal the chains', and under the chains no fused FFN runs."""
    assert_bitwise(*chains_context_run(
        {"base", "ctx_enc", "ctx_dec", "copy"}, monkeypatch))


def test_shared_context_pass_equals_the_chains_bitwise(monkeypatch):
    """The same for the copy stage's groups: the frozen layers run the
    training rows and the pushed pairs' evaluation rows together, under
    keep masks of the leading rows only."""
    assert_bitwise(*chains_context_run(STAGES["copy"].trains, monkeypatch))


# Bytes a full-cap base training pass's tape keeps alive besides the
# parameters (``tape_bytes``), per padded row.  Measured 16,400 at 256 rows
# (4,198,416 bytes) and at 128, of which 160 are the row mean and 1 / std
# of the 10 layer norms; the storing ops and the chains held 28,160 at 128
# rows.
TAPE_BYTES_PER_ROW = 16_500


def tape_bytes(params) -> int:
    """Bytes of the arrays the tape holds, apart from the arrays of
    ``params`` (which exist without it): its node outputs and whatever
    their backward closures hold, directly or through a Tensor, a tuple, a
    list or a nested function, each underlying array counted once (a view
    counts as its base)."""
    skip = {id(p.data) for _, p in params.items()}
    arrays, seen = {}, set()

    def hold(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            hold(obj.data)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                hold(item)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                hold(cell.cell_contents)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in skip:
                arrays[id(obj)] = obj

    for node in ad._tape:
        hold(node.out)
        hold(node.bwd)
    return sum(a.nbytes for a in arrays.values())


def test_tape_bytes_sees_every_held_array():
    """Views count once, as their base; arrays held through a Tensor, a
    tuple or a nested function count; parameters do not."""
    base, other, hidden = np.ones((4, 8)), np.ones((2, 8)), np.ones((3, 8))
    param = Tensor(np.ones((5, 8)), requires_grad=True)

    def inner():
        return hidden

    def bwd(g):
        return (base[:2], (Tensor._wrap(other), base.T), inner, param)

    ad.clear_tape()
    ad._out(base[2:], (param,), bwd, "probe")
    try:
        assert tape_bytes({"p": param}) == base.nbytes + other.nbytes \
            + hidden.nbytes
    finally:
        ad.clear_tape()


def test_layer_norm_holds_two_row_statistics():
    """A residual ``layer_norm`` node holds its inputs and boolean keep
    mask, and of its own only its output and its rows' mean and 1 / std,
    [R, 1] each: no [R, d] array that backward rebuilds."""
    rng = np.random.default_rng(14)
    rows, d = 9, 8
    x, sub, gain, bias = leaves(rng, (rows, d), (rows, d), (d,), (d,))
    keep = ad.keep_mask((rows, d), 0.3, rng)
    ad.clear_tape()
    try:
        out = ad.layer_norm(x, gain, bias, sub, 0.3, keep)
        inputs = {"x": x, "sub": sub, "gain": gain, "bias": bias}
        assert tape_bytes(inputs) == out.data.nbytes + keep.nbytes \
            + 2 * rows * 8
    finally:
        ad.clear_tape()


def test_full_cap_training_pass_tape():
    """The stacked base pass that training runs at the cap records one
    node per fused op: no ``add_bias``, ``relu`` or ``dropout``, and
    ``add`` only in the label-smoothing sum; its tape stays within the
    budget."""
    model, pairs = base_model(), full_cap_pairs()
    docs = [training._Doc(ContextState(model.cfg.n_context), [pair], True)
            for pair in pairs]
    passes = training._wavefront_passes(model, docs, "sentence",
                                        np.random.default_rng(6))
    loss, _, _ = next(passes)
    tags = collections.Counter(node.tag for node in ad._tape)
    n_bytes = tape_bytes(model.params)
    ad.backward(loss)
    assert next(passes, None) is None
    assert tags == {
        "embed": 2, "embedding": 1, "add": 1, "affine": 5,
        "matmul": 18, "linear": 1, "ffn": 4, "attention": 6,
        "layer_norm": 10, "softmax": 1, "clamped_log": 1,
        "take_per_row": 1, "reduce": 2}
    assert n_bytes <= TAPE_BYTES_PER_ROW * MAX_STACK_ROWS


def test_pushed_pairs_add_nothing_to_the_tape():
    """A context stage's training ``teacher_force`` that also returns the
    evaluation rows of pushed pairs leaves the tape of the same call
    without them: the same nodes, tag for tag, holding the same bytes."""
    for stage in CONTEXT_STAGES:
        model, pairs, keep, contexts = pushed_group(stage)
        tapes = []
        for pushes in ((), (0, 2), range(len(pairs))):
            ad.clear_tape()
            forced = model.teacher_force(pairs, keep, contexts, stage, pushes)
            model.forced_loss(forced)
            tapes.append(([node.tag for node in ad._tape],
                          tape_bytes(model.params)))
            ad.clear_tape()
        assert tapes[0][0] and "gated_sum" in tapes[0][0]
        assert tapes[1] == tapes[0] and tapes[2] == tapes[0]


# The ops of one copy search step over three cached sentences, for every
# beam width: the decoder stack (an embedding, per layer three projections,
# self- and cross-attention and the FFN), the target-side HAN, the output
# softmax and the copy mixture, with no per-step concatenation and each
# gate and the mixture one node.
COPY_STEP_OPS = {
    "embed": 1, "matmul": 15, "attention": 7, "attention_mix": 2,
    "layer_norm": 6, "ffn": 3, "linear": 1, "embedding": 1, "gated_sum": 1,
    "softmax": 1, "reduce": 2, "normalize_rows": 1, "sigmoid_linear": 1,
    "mix_rows": 1}


@pytest.mark.parametrize("k", [1, 4])
def test_copy_search_step_ops(k, monkeypatch):
    """One step of k hypotheses after three translated sentences runs the
    pinned ops, none of them a ``concat``, ``div``, ``scale_rows``,
    ``mul``, ``affine`` or ``add``: a change that brings back per-step
    work shows here."""
    store, cfg, _ = load_checkpoint(FIXTURES / "copy.ckpt")
    model = DocModel(cfg, store)
    sv, _ = load_vocab_pair(FIXTURES / "vocab.json")
    pool = json.loads((FIXTURES / "pool.json").read_text(encoding="utf-8"))
    doc = [sv.encode(s.split()) for s in pool["source"][0]]
    ctx = ContextState(cfg.n_context)
    with ad.no_grad():
        for src in doc[:3]:
            encoded = model.contextual_encode(Stack.of([src]), [ctx], "copy")
            out, _, rows = translate_sentence(model, encoded, ctx, "copy",
                                              SearchConfig())
            update_context(ctx, "copy", src, encoded.states.data, out, rows)
        encoded = model.contextual_encode(Stack.of([doc[3]]), [ctx], "copy")
        memory = DecoderMemory(model, encoded, [ctx], "copy")
    assert len(memory.context) == 3
    prefixes, states = [[2, 5, 6]] * k, [None] * k
    for t in (1, 2):
        states = [r.state for r in model.step_distribution(
            [p[:t] for p in prefixes], memory, states)]
    tags, out = collections.Counter(), ad._out

    def counting(arr, inputs, bwd, tag):
        tags[tag] += 1
        return out(arr, inputs, bwd, tag)

    monkeypatch.setattr(ad, "_out", counting)
    results = model.step_distribution(prefixes, memory, states)
    assert all(r.p_copy is not None for r in results)
    assert tags == COPY_STEP_OPS


# The fixture epochs' (validation losses of epochs 0 and 1, training loss
# of epoch 1) as float.hex at 128 rows a pass, recorded on the storing ops
# and the chains.
CAP_128_LOSSES = {
    "base": (("0x1.04d12a133f79ap+2", "0x1.025fb7349554cp+2"),
             "0x1.05d019a351de4p+2"),
    "copy": PINNED_LOSSES["copy"],
}


@pytest.mark.parametrize("stage", list(CAP_128_LOSSES))
def test_epochs_at_128_rows_equal_the_storing_ops(stage, monkeypatch):
    """At the former cap the passes are the same, so the slimmed and fused
    ops move no bit of an epoch."""
    monkeypatch.setattr(training, "MAX_STACK_ROWS", 128)
    result = fixture_stage_run(stage)
    val, train = CAP_128_LOSSES[stage]
    assert tuple(h.val_loss.hex() for h in result.history) == val
    assert result.history[1].train_loss.hex() == train


def test_search_steps_equal_the_chains_bitwise(monkeypatch):
    """Decoding runs the fused ops unchecked at B = 1: every step's
    distribution, state rows, p_copy and copy weights, greedy and beam 4,
    match the chains'."""
    store, cfg, _ = load_checkpoint(FIXTURES / "copy.ckpt")
    model = DocModel(cfg, store)
    sv, _ = load_vocab_pair(FIXTURES / "vocab.json")
    pool = json.loads((FIXTURES / "pool.json").read_text(encoding="utf-8"))
    doc = [sv.encode(s.split()) for s in pool["source"][0]]
    runs, step = [], DocModel.step_distribution
    for chains in (False, True):
        if chains:
            ref.use_chains(monkeypatch)
        seen = []

        def recording(self, prefixes, memory, states):
            results = step(self, prefixes, memory, states)
            seen.extend([r.p_w, r.state.h_tilde, *r.state.keys,
                         *r.state.values,
                         np.array([] if r.p_copy is None else [r.p_copy]),
                         np.array([]) if r.alpha_vocab is None
                         else r.alpha_vocab]
                        for r in results)
            return results

        monkeypatch.setattr(DocModel, "step_distribution", recording)
        outs = [translate_document(model, doc, "copy", SearchConfig(width=w))[0]
                for w in (1, 4)]
        runs.append((outs, seen))
    (outs, seen), (chain_outs, chain_seen) = runs
    assert outs == chain_outs and len(seen) == len(chain_seen) > 0
    for got, want in zip(seen, chain_seen):
        assert_bitwise(got, want)
