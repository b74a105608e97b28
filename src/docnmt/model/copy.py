"""Copy mechanism: mix the vocabulary softmax with a distribution over words
seen in previous target sentences.

Copy weights alpha are head-averaged products of sentence-level and
word-level context attention: for token i of cached sentence j,

    alpha_{j,i} = (1/m^2) * (sum_h a_j^h) * (sum_h a_{j,i}^h)

scattered into vocabulary space by token id (duplicate ids accumulate; ids
never cached get exactly 0).  In the block layout of ``han`` (per document
b, S_b [m, T, n*T] and W_b [m, n*T, K], exact zeros where masked), with
the [K, V] one-hot rows of b's cached ids (zero rows at pads and reserved
ids), that is one product per document,

    alpha_b = (sum_h S_bh) @ ((sum_h W_bh) @ indicator_b) / m^2,

then renormalized over the ids that may be copied, which cancels the 1/m^2
(so it is never applied).  The copy gate p_copy is a sigmoid over three
scalar maps plus a bias; the final distribution is

    P_w = (1 - p_copy) * P_vocab + p_copy * alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError
from ..tokens import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from .han import AttentionTrace

SPECIAL_IDS = (PAD_ID, UNK_ID, BOS_ID, EOS_ID)  # never copy targets


@dataclass
class CopyWeights:
    """Copy distribution pieces for B documents' T query positions."""
    alpha_vocab: Tensor        # [B*T, V]; zero at ids absent from the cache
    copyable: bool             # False when no cached token may be copied


def copy_gate(h_tilde: Tensor, c_rows: Tensor, d_rows: Tensor,
              p: dict[str, Tensor]) -> Tensor:
    """p_copy in (0, 1), shaped [T, 1]: one ``autodiff.sigmoid_linear``
    node."""
    return ad.sigmoid_linear([(h_tilde, p["wh"]), (c_rows, p["wc"]),
                              (d_rows, p["wdy"])], p["b"])


def copyable(entries) -> bool:
    """Whether any token of the cache entries may be copied."""
    return any(i not in SPECIAL_IDS for e in entries for i in e.token_ids)


def copy_indicator(token_ids: list[int], vocab_size: int) -> np.ndarray:
    """[K, V] one-hot rows of cached token ids; a reserved id gets a zero
    row, an id outside the vocabulary is a ContractError.

    The ones are set by one fancy-index assignment; their indices are
    gathered in plain Python, which at a few hundred ids costs less than
    the numpy calls that would find them."""
    rows, cols = [], []
    for k, tid in enumerate(token_ids):
        if tid not in SPECIAL_IDS:
            if not 0 <= tid < vocab_size:
                raise ContractError(f"cached token id {tid} outside vocab")
            rows.append(k)
            cols.append(tid)
    indicator = np.zeros((len(token_ids), vocab_size))
    indicator[rows, cols] = 1.0
    return indicator


def cache_indicator(token_ids: list[list[list[int]]], vocab_size: int,
                    width: int) -> np.ndarray:
    """The ``copy_indicator`` of the cached ids in key-column order.

    ``token_ids`` lists each document's cached sentences' ids; ``width`` is
    the key columns per document, and each document's ids are padded with
    PAD_ID to it.  The documents must agree on whether anything may be
    copied."""
    flat = []
    for doc in token_ids:
        ids = [i for sent in doc for i in sent]
        flat += ids + [PAD_ID] * (width - len(ids))
    indicator = copy_indicator(flat, vocab_size)
    per_doc = indicator.reshape(len(token_ids), -1).any(axis=1)
    if per_doc.any() != per_doc.all():
        raise ContractError("stacked caches differ in what may be copied")
    return indicator


def copy_attention_weights(trace: AttentionTrace, indicator: Tensor,
                           copyable: bool) -> CopyWeights:
    """Head-averaged copy weights from a context attention trace; where
    ``copyable``, the reserved ids lose their mass and the rest is
    renormalized to sum 1 (one ``autodiff.normalize_rows`` node).

    ``indicator`` holds the ``cache_indicator`` of the trace's cached ids
    and ``copyable`` whether it has a one (a ``DecoderMemory`` builds both
    once for all its steps)."""
    word_vocab = ad.attention_mix(trace.word.sum(axis=1, keepdims=True),
                                  indicator)
    alpha_vocab = ad.attention_mix(trace.sent.sum(axis=1, keepdims=True),
                                   word_vocab)
    if copyable:
        alpha_vocab = ad.normalize_rows(alpha_vocab)
    return CopyWeights(alpha_vocab=alpha_vocab, copyable=copyable)


def mix_distributions(p_vocab: Tensor, alpha_vocab: Tensor,
                      p_copy: Tensor) -> Tensor:
    """(1 - p_copy) * P_vocab + p_copy * alpha, row-wise (p_copy [T, 1]):
    one ``autodiff.mix_rows`` node."""
    return ad.mix_rows(p_vocab, alpha_vocab, p_copy)
