"""The fused and slimmed ops against what they replace (``fused_reference``).

``linear``, ``linear_relu``, ``embed`` and the residual form of
``layer_norm`` compute the chains' expressions in the chains' order, and
``attention_weights``, ``attention_mix``, ``layer_norm`` and
``clamped_log`` rebuild in backward, from their inputs, what the storing
forms hold.  So outputs and gradients are equal bitwise: in training and
under ``no_grad``, where an input feeds several ops and its gradient parts
are summed, and on non-finite and subnormal entries.  Plus gradient checks,
a guard on the tape of one full-cap training pass, and the fixture epochs
at 128 rows a pass, which must not move at all."""

import collections
import json
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
from docnmt.decoding import SearchConfig, translate_document
from docnmt.errors import ContractError, ShapeError
from docnmt.gradcheck import grad_check
from docnmt.model import DocModel, ModelConfig, build_params
from docnmt.model.han import ContextState
from docnmt.training import MAX_STACK_ROWS, stack_groups

from test_training import PINNED_LOSSES, fixture_stage_run

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
def test_linear_relu_equals_linear_then_relu(train):
    rng = np.random.default_rng(7)
    x, w, b = leaves(rng, (7, 5), (5, 6), (6,))
    r = Tensor(rng.normal(size=(7, 6)))

    def build(fused):
        h = ad.linear_relu(x, w, b) if fused else ref.relu(ref.linear(x, w, b))
        return ad.add(ad.mul(h, r), ad.linear(x, w, b))

    fused, chain = run_both(build, (x, w, b), train)
    assert_bitwise(fused, chain)


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


@pytest.mark.parametrize("train", [True, False])
def test_slimmed_ops_equal_the_storing_forms(train):
    """Attention over two stacked sequences, a residual norm and a
    clamped log of near-zero probabilities; x feeds four ops, and y and
    gain two each."""
    rng = np.random.default_rng(9)
    x, wq, wk, wv, gain, bias = leaves(rng, (12, 8), (8, 8), (8, 8), (8, 8),
                                       (8,), (8,))
    gain.data += 1.5
    mask = rng.random((2, 6, 6)) < 0.4
    mask[:, :, 0] = False
    r = Tensor(rng.normal(size=(12, 8)) * 30.0)

    def build(fused):
        op = ad if fused else ref
        w = op.attention_weights(x @ wq, x @ wk, 2, mask)
        y = op.layer_norm(ad.add(op.attention_mix(w, x @ wv), x), gain, bias)
        p = ad.softmax_lastdim(ad.mul(y, r))
        return ad.add(op.clamped_log(p), op.layer_norm(y, gain, bias))

    events = ad.clamp_events
    fused, chain = run_both(build, (x, wq, wk, wv, gain, bias), train)
    assert_bitwise(fused, chain)
    assert ad.clamp_events > events


def test_fused_ops_check_their_operands():
    x, g = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, g, g, Tensor(np.ones((3, 3))))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, g, g, x, 0.5, np.ones((2, 4), dtype=bool))
    with pytest.raises(ShapeError):
        ad.linear(x, Tensor(np.ones((4, 2))), g)
    with pytest.raises(ShapeError):
        ad.linear_relu(x, Tensor(np.ones((4, 2))), g)
    with pytest.raises(ShapeError):
        ad.embed(x, [0, 1], np.zeros((3, 4)), 0.0, None)
    with pytest.raises(ShapeError):
        ad.embed(x, [0, 1], np.zeros((2, 4)), 0.5, np.ones((3, 4), dtype=bool))
    with pytest.raises(ContractError, match="out of range"):
        ad.embed(x, [0, 3], np.zeros((2, 4)), 0.0, None)


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
    return {
        "attention_weights": (
            [(6, 4), (6, 4)], FINITE,
            lambda q, k: ad.attention_weights(q, k, 2, mask),
            lambda q, k: ref.attention_weights(q, k, 2, mask)),
        "attention_mix": (
            [(2, 2, 3, 3), (6, 4)], SPECIAL, ad.attention_mix,
            ref.attention_mix),
        "layer_norm": ([(5, 6), (6,), (6,)], SPECIAL, ad.layer_norm,
                       ref.layer_norm),
        "residual_norm": (
            [(5, 6), (5, 6), (6,), (6,)], SPECIAL,
            lambda x, sub, g, b: ad.layer_norm(x, g, b, sub, 0.3, keep),
            lambda x, sub, g, b: ref.residual_norm(x, sub, g, b, 0.3, keep)),
        "linear_relu": (
            [(5, 4), (4, 6), (6,)], SPECIAL, ad.linear_relu,
            lambda x, w, b: ref.relu(ref.linear(x, w, b))),
        "clamped_log": ([(5, 6)], SPECIAL + [-1.0, 1e-13],
                        ad.clamped_log, ref.clamped_log),
        "embed": (
            [(7, 6)], [-0.0] * 3 + SPECIAL,
            lambda t: ad.embed(t, ids, positions, 0.3, keep),
            lambda t: ref.embed(t, ids, positions, 0.3, keep)),
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


@pytest.mark.parametrize("name", ["attention_weights", "attention_mix",
                                  "layer_norm", "residual_norm",
                                  "linear_relu", "clamped_log", "embed"])
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
    for f, params in (
            (lambda: ad.mul(ad.linear(x, w, b), r6).sum(),
             [("x", x), ("w", w), ("b", b)]),
            (lambda: ad.mul(ad.linear_relu(x, w, b), r6).sum(),
             [("x", x), ("w", w), ("b", b)]),
            (lambda: ad.mul(ad.layer_norm(x, gain, bias, sub, rate, keep),
                            r5).sum(),
             [("x", x), ("sub", sub), ("gain", gain), ("bias", bias)]),
            (lambda: ad.mul(ad.embed(table, [3, 0, 3, 6], positions, rate,
                                     keep), r5).sum(),
             [("table", table)])):
        report = grad_check(f, params)
        assert report.passed, report.summary()


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
    keep = [model.dropout_masks(len(s), len(t), rng) for s, t in pairs]
    loss = model.forced_loss(model.teacher_force(pairs, keep))[0]
    ad.backward(loss)
    return [loss.data] + [p.grad for _, p in model.params.trainable()]


@pytest.mark.parametrize("train", [True, False])
def test_model_pass_equals_the_chains_bitwise(train, monkeypatch):
    model, pairs = base_model(), full_cap_pairs()[:5]
    fused = forced_pass(model, pairs, train)
    ref.use_chains(monkeypatch)
    assert_bitwise(fused, forced_pass(model, pairs, train))


# Bytes a full-cap base training pass's tape keeps alive besides the
# parameters (``tape_bytes``), per padded row.  Measured 16,240 at 256 rows
# (4,157,456 bytes) and at 128; the storing ops and the chains held 28,160
# at 128 rows.
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
        "matmul": 24, "linear": 9, "attention_weights": 6,
        "attention_mix": 6, "layer_norm": 10, "softmax": 1,
        "clamped_log": 1, "take_per_row": 1, "reduce": 2}
    assert n_bytes <= TAPE_BYTES_PER_ROW * MAX_STACK_ROWS


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
    distribution and state rows, greedy and beam 4, match the chains'."""
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
            seen.extend([r.p_w, r.state.h_tilde, *r.state.keys]
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
