"""End-to-end gradient check of one copy-model decode step.

Builds a toy copy model (all four parameter groups trainable), fills the
context caches with two sentences through ``decoding.update_context`` (the
push that training and decoding share), then checks the autodiff gradient
of a label-smoothed step loss against central finite differences for every
trainable parameter entry.  Cache states are built once and held fixed:
they are detached constants in the forward pass, and the finite-difference
oracle must see the same constants the tape saw.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .decoding import update_context
from .gradcheck import GradCheckReport, grad_check
from .model import DocModel, ModelConfig, build_params
from .model.han import ContextState
from .model.model import Stack
from .model.transformer import cross_entropy


def full_copy_gradcheck(seed: int = 0) -> GradCheckReport:
    cfg = ModelConfig(11, 13, d_model=8, n_layers=1, m_heads=2, d_ff=16,
                      dropout=0.0, label_smoothing=0.1, n_context=3)
    store = build_params(cfg, np.random.default_rng([seed, 0]))
    store.set_trainable({"base", "ctx_enc", "ctx_dec", "copy"})
    model = DocModel(cfg, store)

    rng = np.random.default_rng([seed, 1])
    context = ContextState(cfg.n_context)
    with ad.no_grad():
        for _ in range(2):
            src = [int(t) for t in rng.integers(4, cfg.vocab_src, size=4)]
            tgt = [int(t) for t in rng.integers(4, cfg.vocab_tgt, size=4)]
            encoded, _ = model.contextual_encode(Stack.of([src]), [context],
                                                 "copy")
            entry = model.target_cache_entry(tgt, encoded, context, "copy")
            update_context(model, context, encoded, tgt, "copy",
                           entry.states.data)

    src = [int(t) for t in rng.integers(4, cfg.vocab_src, size=5)]
    prefix = [int(t) for t in rng.integers(4, cfg.vocab_tgt, size=2)]
    gold = int(rng.integers(4, cfg.vocab_tgt))

    def f():
        # teacher-forced rows after BOS + prefix; the last is the decode step
        p_rows, _ = model.sequence_distributions(src, prefix, context, "copy")
        p_w = ad.narrow(p_rows, 0, len(prefix), 1)
        return cross_entropy(p_w, [gold], cfg.label_smoothing)

    return grad_check(f, store.trainable())
