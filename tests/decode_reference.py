"""Full-recompute reference for one decode step.

This is the step that incremental decoding replaced: the whole decoder stack
re-runs over the full prefix under the causal mask, and context integration,
the output softmax and the copy mixture run for the last position only.  It
uses the per-head ``multi_head_attention`` of ``attention_reference`` and the
per-sentence loops of ``han_reference``, none of the per-sentence memories of
``docnmt.model``.

``incremental_step`` drives the real path for one prefix, one token at a
time, the way the search does, and ``greedy_search`` is plain argmax
decoding, the oracle for beam search at width 1.

``block_mask_step`` is the search step before the hypotheses became the
batch axis of its self-attention: the k new rows are one sequence that
attends over every hypothesis's past rows and all new rows, concatenated
by ``fused_reference.concat``, under a block mask that lets row i see only its
own hypothesis's rows.
"""

import math

import numpy as np

from docnmt import autodiff as ad
from docnmt.autodiff import Tensor
from docnmt.decoding import _LOG_FLOOR, BeamHypothesis
from docnmt.model.copy import SPECIAL_IDS, copy_gate, mix_distributions
from docnmt.model.han import hierarchical_context
from docnmt.model.model import (DECODER_CTX, DecodeOut, DecoderMemory,
                                DecoderState, StepResult)
from docnmt.model.transformer import (HeadKV, attend, causal_mask,
                                      positionwise_ffn)
from docnmt.tokens import BOS_ID, EOS_ID, PAD_ID

from attention_reference import multi_head_attention
from fused_reference import concat
from han_reference import copy_weights_loop, hierarchical_loop, sub


def reference_decode_states(model, prefix, encoded):
    """Causally masked decoder stack over the whole prefix -> rows [L, d]."""
    p, m, cfg = model.params, model.cfg.m_heads, model.cfg
    x = ad.embedding_lookup(p["emb.tgt"], prefix) * math.sqrt(cfg.d_model)
    x = ad.add(x, Tensor._wrap(model._pos[:len(prefix)]))
    cmask = causal_mask(len(prefix))

    def sublayer(x, out, ln):
        ln = p.view(ln)
        return ad.layer_norm(ad.add(x, out), ln["g"], ln["b"])

    for i in range(cfg.n_layers):
        att, _ = multi_head_attention(x, x, x, p.view(f"dec.{i}.self."), m,
                                      mask=cmask)
        x = sublayer(x, att, f"dec.{i}.ln1.")
        cross, _ = multi_head_attention(x, encoded.states, encoded.states,
                                        p.view(f"dec.{i}.cross."), m)
        x = sublayer(x, cross, f"dec.{i}.ln2.")
        x = sublayer(x, positionwise_ffn(x, p.view(f"dec.{i}.ffn.")),
                     f"dec.{i}.ln3.")
    return x


def reference_step(model, prefix, encoded, context, variant):
    """(p_w [V], p_copy or None) over the token after ``prefix``."""
    m = model.cfg.m_heads
    with ad.no_grad():
        full = reference_decode_states(model, prefix, encoded)
        h = ad.narrow(full, 0, len(prefix) - 1, 1)
        if not (variant in DECODER_CTX and context is not None
                and context.target):
            p_vocab = model.output_distribution(h)
            return p_vocab.data[0], None
        p = model.params.view("ctx.dec.")
        h_tilde, d_rows, sent, word = hierarchical_loop(h, context.target,
                                                        p, m)
        p_vocab = model.output_distribution(h_tilde)
        ids = [list(e.token_ids) for e in context.target]
        copyable = any(i not in SPECIAL_IDS for row in ids for i in row)
        if variant != "copy" or not copyable:
            return p_vocab.data[0], None
        _, alpha_vocab = copy_weights_loop(ids, sent, word,
                                           model.cfg.vocab_tgt)
        cp = model.params.view("copy.")
        c_rows, _ = multi_head_attention(h_tilde, encoded.states,
                                         encoded.states, sub(cp, "att."), m)
        p_copy = copy_gate(h_tilde, c_rows, d_rows, cp)
        p_w = mix_distributions(p_vocab, alpha_vocab, p_copy)
        return p_w.data[0], float(p_copy.data[0, 0])


def incremental_step(model, prefix, encoded, context, variant):
    """The search's path for one prefix: one step per token, each growing
    the state by one row; returns the last step's result."""
    memory = DecoderMemory(model, encoded, [context], variant)
    state = None
    for t in range(1, len(prefix) + 1):
        result = model.step_distribution([prefix[:t]], memory, [state])[0]
        state = result.state
    return result


def greedy_search(step_fn, max_steps: int) -> BeamHypothesis:
    """Plain argmax decoding, written independently of the beam machinery;
    no step takes PAD or BOS, the first step does not take EOS (a
    translation holds at least one token) and the last step forces EOS, as
    the search's length cap does."""
    hypo = BeamHypothesis(tokens=[BOS_ID])
    for step in range(max_steps + 1):
        result = step_fn([hypo])[0]
        p = result.p_w.copy()
        p[[PAD_ID, BOS_ID]] = -np.inf
        if step == 0:
            p[EOS_ID] = -np.inf
        tid = int(np.argmax(p)) if step < max_steps else EOS_ID
        hypo = BeamHypothesis(
            tokens=hypo.tokens + [tid],
            log_prob=hypo.log_prob + float(np.log(max(result.p_w[tid],
                                                      _LOG_FLOOR))),
            state=result.state)
        if tid == EOS_ID:
            break
    return hypo


def block_mask_states(model, ids, memory, past):
    """The decoder stack over one new row per hypothesis in the block
    layout -> (final-layer rows [k, d], per layer the new K and V rows)."""
    k, n_past = len(past), len(past[0])
    other = ~np.eye(k, dtype=bool)     # keys: all past rows, then new
    mask = np.concatenate([np.repeat(other, n_past, axis=1), other],
                          axis=1)[None]
    x = model._embed("emb.tgt", ids, np.full(k, n_past), None)
    p, m = model.params, model.cfg.m_heads
    kv_rows = []
    for i, cross_kv in enumerate(memory.cross_kv):
        self_p = p.view(f"dec.{i}.self.")
        q, keys, values = x @ self_p["wq"], x @ self_p["wk"], x @ self_p["wv"]
        kv_rows.append((keys, values))
        if n_past:
            keys = concat([Tensor._wrap(np.concatenate(
                [s.keys[i] for s in past])), keys])
            values = concat([Tensor._wrap(np.concatenate(
                [s.values[i] for s in past])), values])
        att, _ = attend(q, HeadKV(keys, values, m, 1), self_p, mask)
        x = model._sublayer(x, att, p.view(f"dec.{i}.ln1."), None)
        cross_p = p.view(f"dec.{i}.cross.")
        cross, _ = attend(x @ cross_p["wq"], cross_kv, cross_p)
        x = model._sublayer(x, cross, p.view(f"dec.{i}.ln2."), None)
        ffn = positionwise_ffn(x, p.view(f"dec.{i}.ffn."))
        x = model._sublayer(x, ffn, p.view(f"dec.{i}.ln3."), None)
    return x, kv_rows


def block_mask_step(model, prefixes, memory, states):
    """``DocModel.step_distribution`` on ``block_mask_states``: one
    ``StepResult`` per prefix, each state a fresh concatenation of its
    parent's rows and its new row."""
    past = [DecoderState.empty(model.cfg.n_layers, model.cfg.d_model)
            if s is None else s for s in states]
    with ad.no_grad():
        h, kv = block_mask_states(model, [p[-1] for p in prefixes], memory,
                                  past)
        out = DecodeOut(h_tilde=h, d_rows=None, trace=None)
        if memory.context is not None:
            h_tilde, d_rows, trace = hierarchical_context(h, memory.context)
            out = DecodeOut(h_tilde=h_tilde, d_rows=d_rows, trace=trace)
        p_vocab = model.output_distribution(out.h_tilde)
        p_w, p_copy, alpha = p_vocab, None, None
        if memory.variant == "copy":
            p_w, p_copy, alpha = model.copy_mixture(out, memory, p_vocab)

    def grown(old, new, i):
        return np.concatenate([old, new.data[i:i + 1]])

    return [StepResult(
        p_w=p_w.data[i],
        state=DecoderState(
            keys=tuple(grown(o, k, i) for o, (k, _) in zip(s.keys, kv)),
            values=tuple(grown(o, v, i) for o, (_, v) in zip(s.values, kv)),
            h_tilde=grown(s.h_tilde, out.h_tilde, i)),
        p_vocab=p_vocab.data[i],
        p_copy=None if p_copy is None else float(p_copy.data[i, 0]),
        alpha_vocab=None if alpha is None else alpha.data[i])
        for i, s in enumerate(past)]
