"""Per-head reference for multi-head attention.

This is the chain that ``autodiff.attention_weights`` and
``autodiff.attention_mix`` compute in two tape nodes: per head, ``narrow``
the query, key and value columns, transpose the keys, then ``matmul``,
scale, ``masked_fill``, ``softmax``, ``matmul``, and ``concat`` the heads.
It runs one sequence, takes its mask as [a, b] or [1, a, b] and returns
the per-head weights as a list of [a, b] tensors.
"""

import math

from docnmt import autodiff as ad
from docnmt.errors import ShapeError


def scaled_dot_attention(q, k, v, mask=None):
    """softmax(q kᵀ / sqrt(r)) v for q [a, r], k [b, r], v [b, w].

    Returns (output [a, w], weights [a, b]).
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("scaled_dot_attention needs 2-d operands")
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(
            f"scaled_dot_attention: q {q.shape}, k {k.shape}, v {v.shape}")
    return _head_attention(q, k.T, v, _mask(mask, q, k))


def _mask(mask, q, k):
    """A one-sequence mask as [a, b] for a query and b key rows; None when
    it blocks nothing (no ``masked_fill`` then)."""
    rows = (q.data.shape[0], k.data.shape[0])
    if mask is None:
        return None
    if mask.shape not in (rows, (1, *rows)):
        raise ShapeError(f"mask {mask.shape} vs {rows} query/key rows")
    return mask.reshape(rows) if mask.any() else None


def _head_attention(q, k_t, v, mask):
    logits = (q @ k_t) * (1.0 / math.sqrt(q.data.shape[1]))
    if mask is not None:
        logits = ad.masked_fill(logits, mask, -math.inf)
    weights = ad.softmax_lastdim(logits)
    return weights @ v, weights


def split_heads(k, v, m):
    """Per-head Kᵀ [d_head, b] and V [b, d_head] of projected rows [b, d]."""
    dh = k.data.shape[1] // m
    return ([ad.narrow(k, 1, h * dh, dh).T for h in range(m)],
            [ad.narrow(v, 1, h * dh, dh) for h in range(m)])


def attend(q, k, v, p, m, mask=None):
    """Attention of wq-projected rows ``q`` over projected keys and values,
    one head at a time, re-projected through wo -> (rows, per-head weights)."""
    keys_t, values = split_heads(k, v, m)
    dh = values[0].data.shape[1]
    mask = _mask(mask, q, k)
    outs, head_weights = [], []
    for h in range(m):
        out_h, w_h = _head_attention(ad.narrow(q, 1, h * dh, dh),
                                     keys_t[h], values[h], mask)
        outs.append(out_h)
        head_weights.append(w_h)
    merged = outs[0] if m == 1 else ad.concat(outs, axis=1)
    return merged @ p["wo"], head_weights


def multi_head_attention(q_rows, k_rows, v_rows, p, m, mask=None):
    """The composed multi-head attention, projections included."""
    q = q_rows @ p["wq"]
    return attend(q, k_rows @ p["wk"], v_rows @ p["wv"], p, m, mask)
