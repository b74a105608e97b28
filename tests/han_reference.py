"""Loop reference for the hierarchical context attention and the copy weights.

This is the per-sentence formulation that ``docnmt.model.han`` and
``docnmt.model.copy`` compute in one block each: one multi-head attention
per cached sentence at the word level, a row-wise attention per (head,
sentence) at the sentence level, and one scaled product per sentence for
the copy weights.

Attention runs one head at a time (``attention_reference``), and weights
use the per-sentence layout: ``sent[h]`` is [T, n] and ``word[j][h]`` is
[T, len_j].  ``block_trace`` and ``per_sentence`` convert between that
layout and the block layout of a one-document ``AttentionTrace``.
"""

import math

import numpy as np

from docnmt import autodiff as ad
from docnmt.autodiff import Tensor
from docnmt.errors import ContractError
from docnmt.model.copy import (SPECIAL_IDS, cache_indicator,
                               copy_attention_weights)
from docnmt.model.han import AttentionTrace, gate_integrate
from docnmt.model.transformer import positionwise_ffn

from attention_reference import multi_head_attention
from fused_reference import concat, scale_rows


def sub(p, prefix):
    """The entries of ``p`` under ``prefix``, with the prefix stripped."""
    return {k[len(prefix):]: v for k, v in p.items() if k.startswith(prefix)}


def word_level_loop(h, entries, p, m):
    """Per cached sentence j: summaries s_j [T, d], weights [j][h] [T, len_j]."""
    qw = h @ p["f"]
    wp = sub(p, "word.")
    summaries, weights = [], []
    for entry in entries:
        s_j, heads = multi_head_attention(qw, entry.states, entry.states, wp, m)
        summaries.append(s_j)
        weights.append(heads)
    return summaries, weights


def sentence_level_loop(h, summaries, p, m):
    """Row-wise attention over the per-position summaries, then the FFN.

    Returns d_t rows [T, d] and per-head sentence weights [T, n].
    """
    d = h.data.shape[1]
    dh = d // m
    n = len(summaries)
    qs = (h @ p["g"]) @ p["sent.wq"]
    ks = [s @ p["sent.wk"] for s in summaries]
    vs = [s @ p["sent.wv"] for s in summaries]
    inv = 1.0 / math.sqrt(dh)
    head_outs, sent_weights = [], []
    for head in range(m):
        q_h = ad.narrow(qs, 1, head * dh, dh)
        cols = []
        for j in range(n):
            k_h = ad.narrow(ks[j], 1, head * dh, dh)
            cols.append(ad.mul(q_h, k_h).sum(axis=1, keepdims=True) * inv)
        w = ad.softmax_lastdim(concat(cols, axis=1) if n > 1 else cols[0])
        sent_weights.append(w)
        out_h = None
        for j in range(n):
            v_h = ad.narrow(vs[j], 1, head * dh, dh)
            term = scale_rows(v_h, ad.narrow(w, 1, j, 1))
            out_h = term if out_h is None else ad.add(out_h, term)
        head_outs.append(out_h)
    merged = head_outs[0] if m == 1 else concat(head_outs, axis=1)
    attended = merged @ p["sent.wo"]
    return positionwise_ffn(attended, sub(p, "ffn.")), sent_weights


def hierarchical_loop(h, entries, p, m):
    """(h~, d_rows, sent weights, word weights) in the per-sentence layout."""
    summaries, word = word_level_loop(h, entries, p, m)
    d_rows, sent = sentence_level_loop(h, summaries, p, m)
    mixed, _ = gate_integrate(h, d_rows, p)
    return mixed, d_rows, sent, word


def assert_normalized(trace, atol=1e-12):
    """Every weight row of a trace sums to 1 within ``atol``."""
    for w in (trace.sent, trace.word):
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, rtol=0, atol=atol)


def _head_sum(tensors):
    acc = tensors[0]
    for t in tensors[1:]:
        acc = ad.add(acc, t)
    return acc


def copy_weights_loop(token_ids, sent, word, vocab_size, exclude_special=True):
    """(alpha_tokens [T, K], alpha_vocab [T, V]) from per-sentence weights."""
    m = len(sent)
    scale = 1.0 / (m * m)
    parts = []
    for j in range(len(token_ids)):
        sent_col = ad.narrow(_head_sum(sent), 1, j, 1)
        parts.append(scale_rows(_head_sum(word[j]), sent_col) * scale)
    alpha_tokens = parts[0] if len(parts) == 1 else concat(parts, axis=1)

    flat = [i for ids in token_ids for i in ids]
    indicator = copy_indicator_loop(flat, vocab_size,
                                    SPECIAL_IDS if exclude_special else ())
    alpha_vocab = alpha_tokens @ Tensor._wrap(indicator)
    if exclude_special and indicator.any():
        mass = alpha_vocab.sum(axis=1, keepdims=True)
        ones = Tensor._wrap(np.ones_like(mass.data))
        alpha_vocab = scale_rows(alpha_vocab, ad.div(ones, mass))
    return alpha_tokens, alpha_vocab


def copy_indicator_loop(flat_ids, vocab_size, excluded=SPECIAL_IDS):
    """[K, V] one-hot rows of the cached ids, zero for ``excluded`` ids, one
    token at a time (the loop ``copy.copy_indicator`` replaced)."""
    indicator = np.zeros((len(flat_ids), vocab_size))
    for k, tid in enumerate(flat_ids):
        if tid not in excluded:
            if not 0 <= tid < vocab_size:
                raise ContractError(f"cached token id {tid} outside vocab")
            indicator[k, tid] = 1.0
    return indicator


def trace_copy_weights(trace, vocab_size):
    """``copy_attention_weights`` of a trace with the cache indicator built
    from the trace's own ids (as ``DecoderMemory.cache_indicator`` does)."""
    indicator = cache_indicator(trace.token_ids, vocab_size,
                                trace.word.data.shape[-1])
    return copy_attention_weights(trace, Tensor._wrap(indicator),
                                  bool(indicator.any()))


def with_distinct_ids(trace):
    """A one-document trace with its cached ids replaced by 4, 5, ... in
    cache order: distinct and never reserved, so the copy weight of cached
    token k is entry 4 + k of ``alpha_vocab``."""
    ids, first = [], 4
    for sent in trace.token_ids[0]:
        ids.append(list(range(first, first + len(sent))))
        first += len(sent)
    return AttentionTrace(token_ids=[ids], sent=trace.sent, word=trace.word)


def block_trace(sent, word, token_ids):
    """A one-document AttentionTrace in the block layout from per-sentence
    numpy weights."""
    sent = [np.asarray(s, dtype=float) for s in sent]
    t, n = sent[0].shape
    lens = [len(ids) for ids in token_ids]
    offsets = np.concatenate([[0], np.cumsum(lens)])
    rows = np.arange(t)
    sent_blocks, word_blocks = [], []
    for h, s in enumerate(sent):
        sb = np.zeros((t, n * t))
        wb = np.zeros((n * t, int(offsets[-1])))
        for j in range(n):
            sb[rows, j * t + rows] = s[:, j]
            wb[j * t:(j + 1) * t, offsets[j]:offsets[j + 1]] = word[j][h]
        sent_blocks.append(sb)
        word_blocks.append(wb)
    return AttentionTrace(token_ids=[[list(ids) for ids in token_ids]],
                          sent=Tensor._wrap(np.stack(sent_blocks)[None]),
                          word=Tensor._wrap(np.stack(word_blocks)[None]))


def per_sentence(trace):
    """(sent[h] [T, n], word[j][h] [T, len_j]) numpy views of a one-document
    block trace."""
    t, n = trace.n_positions, trace.n_sents
    lens = [len(ids) for ids in trace.token_ids[0]]
    offsets = np.concatenate([[0], np.cumsum(lens)])
    rows = np.arange(t)
    sent = [np.stack([s[rows, j * t + rows] for j in range(n)], axis=1)
            for s in trace.sent.data[0]]
    word = [[w[j * t:(j + 1) * t, offsets[j]:offsets[j + 1]]
             for w in trace.word.data[0]] for j in range(n)]
    return sent, word
