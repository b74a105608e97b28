"""Transformer building blocks on the autodiff core.

All activations are 2-d [positions, features] tensors; attention masks are
plain boolean numpy arrays (True = blocked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError, ShapeError


@dataclass
class HeadKV:
    """Keys and values of one attention memory, split per head.

    keys_t[h] is Kᵀ [d_head, b] and values[h] is V [b, d_head] for b key rows.
    """
    keys_t: list[Tensor]
    values: list[Tensor]


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ / sqrt(r)) v for q [a, r], k [b, r], v [b, w].

    Returns (output [a, w], weights [a, b]); each weight row sums to 1.
    A fully masked row is a caller bug and raises ContractError.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError("scaled_dot_attention needs 2-d operands")
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(
            f"scaled_dot_attention: q {q.shape}, k {k.shape}, v {v.shape}")
    mask = _checked_mask(mask, (q.data.shape[0], k.data.shape[0]))
    return _head_attention(q, k.T, v, mask)


def _checked_mask(mask: np.ndarray | None,
                  shape: tuple[int, int]) -> np.ndarray | None:
    """The mask for logits of ``shape``, or None when it blocks nothing."""
    if mask is None:
        return None
    if mask.shape != shape:
        raise ShapeError(f"mask {mask.shape} vs logits {shape}")
    if mask.all(axis=1).any():
        raise ContractError("attention row is fully masked")
    return mask if mask.any() else None


def _head_attention(q: Tensor, k_t: Tensor, v: Tensor,
                    mask: np.ndarray | None) -> tuple[Tensor, Tensor]:
    logits = (q @ k_t) * (1.0 / math.sqrt(q.data.shape[1]))
    if mask is not None:
        logits = ad.masked_fill(logits, mask, -np.inf)
    weights = ad.softmax_lastdim(logits)
    return weights @ v, weights


def split_heads(k: Tensor, v: Tensor, m: int) -> HeadKV:
    """Per-head Kᵀ and V of projected key and value rows [b, d]."""
    d = k.data.shape[1]
    if d % m != 0:
        raise ShapeError(f"d_model {d} not divisible by heads {m}")
    dh = d // m
    return HeadKV(keys_t=[ad.narrow(k, 1, h * dh, dh).T for h in range(m)],
                  values=[ad.narrow(v, 1, h * dh, dh) for h in range(m)])


def project_kv(k_rows: Tensor, v_rows: Tensor, p: dict[str, Tensor],
               m: int) -> HeadKV:
    """Project a memory through wk and wv once, split per head."""
    return split_heads(k_rows @ p["wk"], v_rows @ p["wv"], m)


def attend(q: Tensor, kv: HeadKV, p: dict[str, Tensor],
           mask: np.ndarray | None = None) -> tuple[Tensor, list[Tensor]]:
    """Multi-head attention of the wq-projected query rows ``q`` over a
    projected memory, re-projected through wo.

    Returns the output rows and the per-head post-softmax weights.  The
    query is projected by the caller so that, where query and memory rows
    are one tensor, the wq product comes first on the tape; backward then
    sums that tensor's gradient parts in one fixed order.
    """
    m = len(kv.values)
    dh = kv.values[0].data.shape[1]
    if q.data.shape[1] != m * dh:
        raise ShapeError(f"query width {q.data.shape[1]} vs {m} heads of {dh}")
    mask = _checked_mask(mask, (q.data.shape[0], kv.values[0].data.shape[0]))
    outs, head_weights = [], []
    for h in range(m):
        out_h, w_h = _head_attention(ad.narrow(q, 1, h * dh, dh),
                                     kv.keys_t[h], kv.values[h], mask)
        outs.append(out_h)
        head_weights.append(w_h)
    merged = outs[0] if m == 1 else ad.concat(outs, axis=1)
    return merged @ p["wo"], head_weights


def multi_head_attention(q_rows: Tensor, k_rows: Tensor, v_rows: Tensor,
                         p: dict[str, Tensor], m: int,
                         mask: np.ndarray | None = None
                         ) -> tuple[Tensor, list[Tensor]]:
    """m parallel projected attentions, concatenated and re-projected.

    ``p`` holds the square projections wq, wk, wv, wo.  Returns the output
    rows and the per-head post-softmax weight matrices.
    """
    q = q_rows @ p["wq"]
    return attend(q, project_kv(k_rows, v_rows, p, m), p, mask)


def positionwise_ffn(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Two linear maps with a ReLU between, applied per position."""
    return ad.add_bias(ad.relu(ad.add_bias(x @ p["w1"], p["b1"])) @ p["w2"], p["b2"])


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table [n, d]."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    dim = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(dim / 2.0) / d)
    table = np.empty((n, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def causal_mask(n: int) -> np.ndarray:
    """True above the diagonal: position i may not attend to j > i."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def cross_entropy(p_rows: Tensor, gold: list[int] | np.ndarray,
                  smoothing: float = 0.0) -> Tensor:
    """Mean label-smoothed cross-entropy over probability rows.

    loss_t = -(1 - eps) * log p_t[gold_t] - (eps / V) * sum_v log p_t[v].
    With eps = 0 this is plain NLL.  Probabilities are clamped at 1e-12
    inside the log (clamp events are counted on the autodiff module).
    """
    gold = np.asarray(gold, dtype=np.intp)
    if p_rows.data.ndim != 2 or p_rows.data.shape[0] != gold.shape[0]:
        raise ContractError(
            f"cross_entropy: rows {p_rows.shape} vs gold {gold.shape}")
    if not 0.0 <= smoothing < 1.0:
        raise ContractError("smoothing outside [0, 1)")
    logs = ad.clamped_log(p_rows)
    nll = -ad.take_per_row(logs, gold).mean()
    if smoothing == 0.0:
        return nll
    v = p_rows.data.shape[1]
    uniform = -logs.mean()  # mean over T*V == (1/V) sum_v, averaged over rows
    return (1.0 - smoothing) * nll + smoothing * uniform
