"""Transformer building blocks on the autodiff core.

All activations are 2-d [positions, features] tensors.  Multi-head
attention over B stacked sequences of a query and b key rows each is one
autodiff node, ``autodiff.attention``, from the projected queries, keys and
values to the rows re-projected through wo; its second output is the
per-head weights as one [B, m, a, b] tensor.  A mask is a plain boolean
[B, a, b] numpy array (True = blocked), or None where nothing is blocked;
only ``autodiff.attention`` reads and checks it.  A memory's keys and
values are a ``HeadKV``, which knows its B.  The position-wise FFN is one
node too, ``autodiff.ffn``.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError


class HeadKV:
    """Projected keys and values [B*b, d] of B stacked attention memories
    of b rows each, to be split into m heads by the attention node.

    ``blocks()`` gives the head blocks the attention node reads
    (``autodiff.head_blocks``: the keys' [B, m, dh, b] and the values'
    [B, m, b, dh]).  Once a memory is read a second time it keeps them, so
    a memory that every step of a search reads (a sentence's
    cross-attention, context or copy memory) is split twice, not once per
    step, while one that a teacher-forced pass reads once holds nothing
    beyond its rows.  The node does not hold the blocks; its backward
    splits the rows again.
    """

    def __init__(self, keys: Tensor, values: Tensor, m: int, bs: int):
        self.keys, self.values, self.m, self.bs = keys, values, m, bs
        self._blocks: tuple[np.ndarray, np.ndarray] | None = None
        self._read = False

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._blocks is not None:
            return self._blocks
        blocks = ad.head_blocks(self.keys.data, self.values.data, self.bs,
                                self.m)
        if self._read:
            self._blocks = blocks
        self._read = True
        return blocks


def project_kv(k_rows: Tensor, v_rows: Tensor, p: dict[str, Tensor],
               m: int, bs: int) -> HeadKV:
    """Project B = ``bs`` stacked memories through wk and wv once."""
    return HeadKV(k_rows @ p["wk"], v_rows @ p["wv"], m, bs)


def attend(q: Tensor, kv: HeadKV, p: dict[str, Tensor],
           mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Multi-head attention of the wq-projected query rows ``q`` over a
    projected memory, re-projected through wo, for the memory's B stacked
    sequences under a [B, a, b] mask (None: nothing blocked).

    Returns the output rows and the post-softmax weights [B, m, a, b].  The
    query is projected by the caller so that, where query and memory rows
    are one tensor, the wq product comes first on the tape; backward then
    sums that tensor's gradient parts in one fixed order.
    """
    kt, vh = kv.blocks()
    return ad.attention(q, kv.keys, kv.values, p["wo"], kv.m, mask, kt, vh)


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
    bs = 1 if mask is None else mask.shape[0]
    return attend(q, project_kv(k_rows, v_rows, p, m, bs), p, mask)


def positionwise_ffn(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Two linear maps with a ReLU between, applied per position: one
    ``autodiff.ffn`` node."""
    return ad.ffn(x, p["w1"], p["b1"], p["w2"], p["b2"])


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
