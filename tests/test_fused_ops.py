"""The fused ops against the chains they replace (``fused_reference``):
``linear`` and the residual form of ``layer_norm`` compute the chains'
expressions in the chains' order, so outputs and gradients are equal
bitwise, also where an input feeds several ops and its gradient parts
are summed.  Plus dropout against its float-mask form, gradient checks,
and a guard on the tape of one full-cap training pass."""

import collections
import json
from pathlib import Path

import numpy as np
import pytest

import fused_reference as ref
from docnmt import autodiff as ad
from docnmt import training
from docnmt.autodiff import Tensor
from docnmt.checkpoint import load_checkpoint
from docnmt.corpus import BatchItem, load_vocab_pair
from docnmt.decoding import SearchConfig, translate_document
from docnmt.errors import ShapeError
from docnmt.gradcheck import grad_check
from docnmt.model import DocModel, ModelConfig, build_params
from docnmt.training import MAX_STACK_ROWS, stack_groups

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
        return ad.add(ad.mul(lin(x, w, b), r), lin(ad.relu(x), w, b))

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


def test_fused_ops_check_their_operands():
    x, g = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, g, g, Tensor(np.ones((3, 3))))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, g, g, x, 0.5, np.ones((2, 4), dtype=bool))
    with pytest.raises(ShapeError):
        ad.linear(x, Tensor(np.ones((4, 2))), g)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1.5]


def test_dropout_equals_the_float_mask_form_bitwise():
    """Signed zeros, infinities, NaN and values that overflow when scaled,
    in the input and in the incoming gradient."""
    rng = np.random.default_rng(3)
    data = rng.choice(SPECIAL, size=(12, 9))
    upstream = rng.choice(SPECIAL, size=(12, 9))
    for rate in (0.1, 0.5, 0.9):
        keep = ad.keep_mask(data.shape, rate, rng)
        got = []
        for op in (ad.dropout, ref.dropout):
            x = Tensor(data, requires_grad=True)
            with ad.unchecked(), np.errstate(all="ignore"):
                out = op(x, rate, keep)
                ad.backward(ad.mul(out, Tensor(upstream)).sum())
            got.append((out.data, x.grad))
        assert_bitwise(got[0], got[1])


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_fused_ops_pass_grad_check(rate):
    rng = np.random.default_rng(4)
    x, w, b, sub, gain, bias = leaves(rng, (4, 5), (5, 6), (6,), (4, 5),
                                      (5,), (5,))
    gain.data += 1.5
    r6, r5 = (Tensor(rng.normal(size=s)) for s in ((4, 6), (4, 5)))
    keep = ad.keep_mask((4, 5), rate, rng) if rate else None
    for f, params in (
            (lambda: ad.mul(ad.linear(x, w, b), r6).sum(),
             [("x", x), ("w", w), ("b", b)]),
            (lambda: ad.mul(ad.layer_norm(x, gain, bias, sub, rate, keep),
                            r5).sum(),
             [("x", x), ("sub", sub), ("gain", gain), ("bias", bias)])):
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


# Bytes of a full-cap training pass's tape: its node outputs plus the
# arrays its backward closures hold, each array counted once.  Measured
# 27,648 per row at 128 rows (3,539,008 bytes; 4,972,608 on the chains).
TAPE_BYTES_PER_ROW = 28_000


def tape_bytes() -> int:
    arrays = {id(n.out.data): n.out.data for n in ad._tape}
    for node in ad._tape:
        for cell in node.bwd.__closure__ or ():
            if isinstance(cell.cell_contents, np.ndarray):
                arrays.setdefault(id(cell.cell_contents), cell.cell_contents)
    return sum(a.nbytes for a in arrays.values())


def test_full_cap_training_pass_tape():
    """The stacked base pass that training runs at the cap records one
    node per fused op: no ``add_bias``, and dropout and ``add`` only at
    the two embeddings (plus the label-smoothing sum)."""
    model, pairs = base_model(), full_cap_pairs()
    docs = training._batch_documents([BatchItem(s, t, True, True)
                                      for s, t in pairs], None,
                                     model.cfg.n_context)
    passes = training._wavefront_passes(model, docs, "sentence",
                                        np.random.default_rng(6))
    loss, _, _ = next(passes)
    tags = collections.Counter(node.tag for node in ad._tape)
    n_bytes = tape_bytes()
    ad.backward(loss)
    assert next(passes, None) is None
    assert tags == {
        "embedding": 3, "add": 3, "dropout": 2, "affine": 7,
        "matmul": 24, "linear": 9, "relu": 4, "attention_weights": 6,
        "attention_mix": 6, "layer_norm": 10, "softmax": 1,
        "clamped_log": 1, "take_per_row": 1, "reduce": 2}
    assert n_bytes <= TAPE_BYTES_PER_ROW * MAX_STACK_ROWS


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
