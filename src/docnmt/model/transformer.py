"""Transformer building blocks on the autodiff core.

All activations are 2-d [positions, features] tensors.  Multi-head
attention is two fused autodiff ops over B stacked sequences of a query and
b key rows each: the per-head weights come as one [B, m, a, b] tensor, and
a mask is a plain boolean [B, a, b] numpy array (True = blocked), or None
for one sequence with nothing blocked; only ``autodiff.attention_weights``
reads and checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError


@dataclass
class HeadKV:
    """Projected keys and values [B*b, d] of B stacked attention memories,
    split into m heads by the attention ops."""
    keys: Tensor
    values: Tensor
    m: int


def project_kv(k_rows: Tensor, v_rows: Tensor, p: dict[str, Tensor],
               m: int) -> HeadKV:
    """Project a memory through wk and wv once."""
    return HeadKV(k_rows @ p["wk"], v_rows @ p["wv"], m)


def attend(q: Tensor, kv: HeadKV, p: dict[str, Tensor],
           mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Multi-head attention of the wq-projected query rows ``q`` over a
    projected memory, re-projected through wo, for B stacked sequences
    under a [B, a, b] mask (None: one sequence, nothing blocked).

    Returns the output rows and the post-softmax weights [B, m, a, b].  The
    query is projected by the caller so that, where query and memory rows
    are one tensor, the wq product comes first on the tape; backward then
    sums that tensor's gradient parts in one fixed order.
    """
    weights = ad.attention_weights(q, kv.keys, kv.m, mask)
    return ad.attention_mix(weights, kv.values) @ p["wo"], weights


def multi_head_attention(q_rows: Tensor, k_rows: Tensor, v_rows: Tensor,
                         p: dict[str, Tensor], m: int,
                         mask: np.ndarray | None = None
                         ) -> tuple[Tensor, Tensor]:
    """m parallel projected attentions, merged and re-projected.

    ``p`` holds the square projections wq, wk, wv, wo; ``mask`` is as for
    ``attend``.  Returns the output rows and the post-softmax weights
    [B, m, a, b].
    """
    q = q_rows @ p["wq"]
    return attend(q, project_kv(k_rows, v_rows, p, m), p, mask)


def positionwise_ffn(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Two linear maps with a ReLU between, applied per position."""
    return ad.linear(ad.linear_relu(x, p["w1"], p["b1"]), p["w2"], p["b2"])


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
    uniform = -logs.mean()  # mean over T*V == (1/V) sum_v, averaged over rows
    return (1.0 - smoothing) * nll + smoothing * uniform
