"""The search's numerics guard: a translated sentence runs its ops without
the per-op finite checks, each step checks its distributions and new state
rows, and a failing sentence is replayed with the per-op checks on, so the
error names the op as a fully checked run would.

The model is the benchmark's trained copy checkpoint, read from
``perfbench/fixtures`` (never written), so the caches hold copyable words
and every copy-path op runs.
"""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from docnmt import autodiff as ad
from docnmt.checkpoint import load_checkpoint
from docnmt.corpus import load_vocab_pair
from docnmt.decoding import (SearchConfig, translate_document,
                             translate_sentence, update_context)
from docnmt.errors import NumericalError
from docnmt.model import DocModel
from docnmt.model.han import ContextState
from docnmt.model.model import DecoderMemory, Stack
from docnmt.tokens import BOS_ID

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


@pytest.fixture(scope="module")
def pool_docs():
    sv, _ = load_vocab_pair(FIXTURES / "vocab.json")
    pool = json.loads((FIXTURES / "pool.json").read_text(encoding="utf-8"))
    return [[sv.encode(s.split()) for s in doc] for doc in pool["source"]]


def copy_model(trainable=()):
    store, cfg, _ = load_checkpoint(FIXTURES / "copy.ckpt")
    store.set_trainable(set(trainable))
    return DocModel(cfg, store)


def translate(model, doc, width=1):
    return translate_document(model, doc, "copy", SearchConfig(width=width))


def test_translation_leaves_no_tape_nodes(pool_docs):
    model = copy_model(trainable=("base", "ctx_enc", "ctx_dec", "copy"))
    ad.clear_tape()
    for doc in pool_docs[:2]:
        translate(model, doc)
    assert ad.tape_size() == 0


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["dec.0.ffn.w1", "copy.wh",
                                  "ctx.dec.gate.wh"])
def test_non_finite_parameter_names_the_op(pool_docs, name, value, width):
    """Also where a sigmoid would turn the inf into an exact 0 or 1: the
    gates check their logits.  Each parameter feeds a fused op, named in
    the error: the FFN's first layer, the copy gate and the HAN gate."""
    model = copy_model()
    model.params[name].data[0, 0] = value
    op = {"dec.0.ffn.w1": "linear", "copy.wh": "sigmoid_linear",
          "ctx.dec.gate.wh": "gated_sum"}[name]
    with pytest.raises(NumericalError, match=f"op '{op}'"):
        translate(model, pool_docs[0], width)


@pytest.mark.parametrize("tag", ["normalize_rows", "gated_sum",
                                 "sigmoid_linear", "mix_rows", "layer_norm"])
def test_nan_from_an_op_is_named_after_the_replay(pool_docs, monkeypatch,
                                                  tag):
    """From its 5th call on, one op's output holds a NaN; the first one
    appears while the checks are off, and the error still names the op."""
    out = ad._out
    calls, checks_at_first_nan = [0], []

    def planting(arr, inputs, bwd, op):
        if op == tag:
            calls[0] += 1
            if calls[0] >= 5:
                if not checks_at_first_nan:
                    checks_at_first_nan.append(ad._check_finite)
                arr = arr.copy()
                arr.flat[0] = np.nan
        return out(arr, inputs, bwd, op)

    monkeypatch.setattr(ad, "_out", planting)
    with pytest.raises(NumericalError, match=f"op '{tag}'"):
        for doc in pool_docs[:3]:
            translate(copy_model(), doc, 4)
    assert checks_at_first_nan == [False]


def test_step_names_itself_when_the_replay_passes(pool_docs, monkeypatch):
    """A step check failure that the per-op checks do not see (here: the
    checked replay is made to find nothing) raises the step's error."""
    model = copy_model()
    step = DocModel.step_distribution
    unchecked = []

    def poisoned(self, prefixes, memory, states):
        results = step(self, prefixes, memory, states)
        if not ad._check_finite and len(prefixes[0]) == 3:
            unchecked.append(True)
            raise NumericalError("non-finite values in the distribution or "
                                 "state rows of decode step 2")
        return results

    monkeypatch.setattr(DocModel, "step_distribution", poisoned)
    with pytest.raises(NumericalError, match="decode step 2"):
        translate(model, pool_docs[0])
    assert unchecked == [True]


def test_step_check_finds_a_non_finite_distribution(pool_docs):
    """With the ops unchecked, a NaN in the copy gate's weights reaches the
    step's own finite check, which names the step.  (A NaN output bias
    would not: the softmax always checks its row maxima.)"""
    model, doc = copy_model(), pool_docs[0]
    ctx = ContextState(model.cfg.n_context)
    with ad.no_grad():
        encoded = model.contextual_encode(Stack.of([doc[0]]), [ctx], "copy")
        out, _, rows = translate_sentence(model, encoded, ctx, "copy",
                                          SearchConfig())
        update_context(ctx, "copy", doc[0], encoded.states.data, out, rows)
        memory = DecoderMemory(model, model.contextual_encode(
            Stack.of([doc[1]]), [ctx], "copy"), [ctx], "copy")
    [clean] = model.step_distribution([[BOS_ID]], memory, [None])
    assert clean.p_copy is not None
    model.params["copy.wh"].data[0, 0] = np.nan
    with ad.unchecked(), pytest.raises(NumericalError, match="decode step 0"):
        model.step_distribution([[BOS_ID]], memory, [None])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_one_non_finite_entry_makes_the_store_non_finite(pool_docs, value,
                                                          monkeypatch):
    """``ParamStore.finite``, which decides whether a translated sentence
    (and a training epoch) may run unchecked, sees every entry of every
    parameter; with it False the search never enters ``unchecked``."""
    model = copy_model()
    assert model.params.finite()
    for name, t in (next(iter(model.params.items())),
                    list(model.params.items())[-1]):
        old, t.data.flat[-1] = t.data.flat[-1], value
        assert not model.params.finite(), name
        t.data.flat[-1] = old
    assert model.params.finite()
    monkeypatch.setattr(type(model.params), "finite", lambda self: False)
    monkeypatch.setattr(ad, "unchecked", None)     # entering it would fail
    translate(model, pool_docs[0][:1])


def test_unchecked_nests_and_restores_on_exception():
    big = ad.Tensor([[1e308]])

    def overflows():
        with np.errstate(over="ignore"):
            return ad.add(big, big)

    with ad.unchecked():
        with ad.unchecked():
            assert np.isinf(overflows().data).all()
        assert np.isinf(overflows().data).all()
    with pytest.raises(NumericalError, match="op 'add'"):
        overflows()
    with pytest.raises(ValueError):
        with ad.unchecked():
            raise ValueError("inside")
    with pytest.raises(NumericalError, match="op 'add'"):
        overflows()


def record_steps(monkeypatch):
    """Every step's p_w rows and every state row it hands on, in order."""
    step = DocModel.step_distribution
    seen = []

    def recording(self, prefixes, memory, states):
        results = step(self, prefixes, memory, states)
        for r in results:
            seen.append((r.p_w.copy(), r.state.h_tilde.copy())
                        + tuple(r.state.keys) + tuple(r.state.values))
        return results

    monkeypatch.setattr(DocModel, "step_distribution", recording)
    return seen


@pytest.mark.parametrize("width", [1, 4])
def test_guarded_search_equals_checked_search_bitwise(pool_docs, monkeypatch,
                                                      width):
    model = copy_model()
    docs = pool_docs[:3]
    guarded_steps = record_steps(monkeypatch)
    guarded = [translate(model, doc, width)[0] for doc in docs]
    monkeypatch.undo()
    checked_steps = record_steps(monkeypatch)
    monkeypatch.setattr(ad, "unchecked", contextlib.nullcontext)
    checked = [translate(model, doc, width)[0] for doc in docs]
    assert guarded == checked
    assert len(guarded_steps) == len(checked_steps) > 0
    for a, b in zip(guarded_steps, checked_steps):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
