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
"""

import math

import numpy as np

from docnmt import autodiff as ad
from docnmt.autodiff import Tensor
from docnmt.decoding import _LOG_FLOOR, BeamHypothesis
from docnmt.model.copy import SPECIAL_IDS, copy_gate, mix_distributions
from docnmt.model.han import _sub
from docnmt.model.model import DECODER_CTX, DecoderMemory
from docnmt.model.transformer import causal_mask, positionwise_ffn
from docnmt.tokens import BOS_ID, EOS_ID

from attention_reference import multi_head_attention
from han_reference import copy_weights_loop, hierarchical_loop


def reference_decode_states(model, prefix, encoded):
    """Causally masked decoder stack over the whole prefix -> rows [L, d]."""
    ids = model.clip_ids(prefix, "tgt")
    p, m, cfg = model.params, model.cfg.m_heads, model.cfg
    x = ad.embedding_lookup(p["emb.tgt"], ids) * math.sqrt(cfg.d_model)
    x = ad.add(x, Tensor._wrap(model._pos[:len(ids)]))
    cmask = causal_mask(len(ids))

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
                                         encoded.states, _sub(cp, "att."), m)
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
    the last step forces EOS, as the search's length cap does."""
    hypo = BeamHypothesis(tokens=[BOS_ID])
    for step in range(max_steps + 1):
        result = step_fn([hypo])[0]
        tid = int(np.argmax(result.p_w)) if step < max_steps else EOS_ID
        hypo = BeamHypothesis(
            tokens=hypo.tokens + [tid],
            log_prob=hypo.log_prob + float(np.log(max(result.p_w[tid],
                                                      _LOG_FLOOR))),
            state=result.state)
        if tid == EOS_ID:
            break
    return hypo
