"""The autodiff ops as the model ran them before they were fused or slimmed.

Chains, one tape node per step: a ``matmul`` then ``add_bias`` for every
biased product (now ``autodiff.linear``); ``linear``, ``relu`` and
``linear`` for a position-wise FFN (now ``autodiff.ffn``);
``attention_weights``, ``attention_mix`` and a ``matmul`` by wo for
multi-head attention (now ``autodiff.attention``, whose second output is
the weights); ``dropout``, ``add`` and ``layer_norm`` for every
sublayer's residual connection (now the residual form of
``autodiff.layer_norm``); ``embedding_lookup``, ``affine``, ``add`` and
``dropout`` for a Transformer's input rows (now ``autodiff.embed``); two
``matmul``s, ``add``, ``sigmoid``, ``mul``, ``affine``, ``mul`` and ``add``
for a HAN gate (now ``autodiff.gated_sum``); three ``matmul``s, three
``add``s and ``sigmoid`` for the copy gate (now
``autodiff.sigmoid_linear``); ``affine``, two ``scale_rows`` and ``add``
for the copy mixture (now ``autodiff.mix_rows``); and the row sum, ``div``
and ``scale_rows`` for the copy weights' renormalization (now
``autodiff.normalize_rows``).  ``attention_weights``, ``relu``,
``sigmoid``, ``scale_rows`` and ``concat``, which only these chains and
the tests' references run, live here too.

Storing forms, which hold what their backward reads instead of rebuilding
it: ``attention_weights`` holds the head-split q and k, ``attention_mix``
the head-split values, ``layer_norm`` the normalized rows, ``relu`` its
input's mask and ``clamped_log`` the clamped input.  The attention forms
split their operands themselves, reading only B and m from a memory's
head blocks.

``use_chains`` runs ``DocModel`` on all of them.
"""

import math

import numpy as np

from docnmt import autodiff as ad
from docnmt.errors import ContractError, ShapeError


def add_bias(x, b):
    """Add a length-d vector to every row of an [n, d] matrix."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_bias: {x.shape} + {b.shape}")
    return ad._out(x.data + b.data[None, :], (x, b),
                   lambda g: (g, g.sum(axis=0)), "add_bias")


def linear(x, w, b):
    return add_bias(x @ w, b)


def relu(x):
    """max(x, 0); a NaN stays NaN.  Holds its input's mask."""
    mask = x.data > 0
    return ad._out(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,),
                   "relu")


def dropout(x, rate, keep):
    """Inverted dropout; identity when rate == 0.  ``keep`` (a
    ``keep_mask``) marks the kept entries of x's first len(keep) rows; they
    are scaled by 1 / (1 - rate), the others multiplied by 0, and the rows
    after them by 1."""
    scale = ad._keep_scale(rate, keep, x.data.shape)
    if scale is None:
        return x
    factor = np.ones_like(x.data)
    factor[:len(keep)] = keep * scale
    return ad._out(x.data * factor, (x,), lambda g: (g * factor,), "dropout")


def sigmoid(x):
    out = ad._sigmoid(x.data)
    return ad._out(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def scale_rows(x, col):
    """Multiply row i of [n, d] ``x`` by ``col[i]`` (col shaped [n, 1])."""
    if x.data.ndim != 2 or col.data.shape != (x.data.shape[0], 1):
        raise ShapeError(f"scale_rows: {x.shape} scaled by {col.shape}")
    return ad._out(x.data * col.data, (x, col),
                   lambda g: (g * col.data,
                              (g * x.data).sum(axis=1, keepdims=True)),
                   "scale_rows")


def concat(parts, axis=0):
    if not parts:
        raise ShapeError("concat of zero tensors")
    offsets = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return ad._out(np.concatenate([p.data for p in parts], axis=axis),
                   tuple(parts), lambda g: tuple(np.split(g, offsets, axis=axis)),
                   "concat")


def clamped_log(x):
    """log(max(x, 1e-12)), holding the clamped input."""
    clamped = np.maximum(x.data, ad._LOG_FLOOR)
    n_clamped = int(np.count_nonzero(x.data < ad._LOG_FLOOR))
    if n_clamped:
        ad.clamp_events += n_clamped
    return ad._out(np.log(clamped), (x,), lambda g: (g / clamped,),
                   "clamped_log")


def layer_norm(x, gain, bias, sub=None, rate=0.0, keep=None):
    """``autodiff.layer_norm``, holding the normalized rows and 1 / std."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) \
            or bias.data.shape != (x.data.shape[1],):
        raise ShapeError(f"layer_norm: x {x.shape}, gain {gain.shape}, "
                         f"bias {bias.shape}")
    s, inputs, scale = x.data, (x, gain, bias), None
    if sub is not None:
        if sub.data.shape != x.data.shape:
            raise ShapeError(f"layer_norm: x {x.shape} + sub {sub.shape}")
        scale = ad._keep_scale(rate, keep, x.data.shape)
        s = s + (sub.data if scale is None else sub.data * (keep * scale))
        inputs += (sub,)
    n = s.shape[1]
    c = s - np.add.reduce(s, axis=1, keepdims=True) / n
    var = np.add.reduce(c * c, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = c * inv
    out = xhat * gain.data[None, :] + bias.data[None, :]

    def bwd(g):
        gy = g * gain.data[None, :]
        m1 = np.add.reduce(gy, axis=1, keepdims=True) / n
        m2 = np.add.reduce(gy * xhat, axis=1, keepdims=True) / n
        dx = (gy - m1 - xhat * m2) * inv
        grads = (dx, (g * xhat).sum(axis=0), g.sum(axis=0))
        if sub is None:
            return grads
        return grads + (dx if scale is None else dx * (keep * scale),)

    return ad._out(out, inputs, bwd, "layer_norm")


def attention_weights(q, k, m, mask=None, bs=1):
    """``autodiff.attention_weights``, holding q's heads and k's transposed
    heads, for B = ``bs`` stacked sequences."""
    if q.data.ndim != 2 or k.data.ndim != 2 \
            or q.data.shape[1] != k.data.shape[1]:
        raise ShapeError(f"attention_weights: q {q.shape}, k {k.shape}")
    (rows_q, d), rows_k = q.data.shape, k.data.shape[0]
    if m < 1 or d % m:
        raise ShapeError(f"attention_weights: width {d} vs {m} heads")
    shape = (bs, rows_q // bs, rows_k // bs) if mask is None else mask.shape
    if len(shape) != 3 or (shape[0] * shape[1], shape[0] * shape[2]) \
            != (rows_q, rows_k):
        raise ShapeError(f"attention_weights: mask {shape} vs q {q.shape}, "
                         f"k {k.shape}")
    bs, dh = shape[0], d // m
    scale = 1.0 / math.sqrt(dh)
    qh = ad._heads(q.data, bs, m)
    kt = np.ascontiguousarray(
        k.data.reshape(bs, -1, m, dh).transpose(0, 2, 3, 1))
    logits = scale * np.matmul(qh, kt)
    ad._finite(logits, "attention_weights")
    if mask is not None:
        np.copyto(logits, -np.inf, where=mask[:, None])
    top = logits.max(axis=-1, keepdims=True)
    if mask is not None and top.min() == -np.inf:
        raise ContractError("attention_weights: a row is fully masked")
    e = np.exp(logits - top)
    w = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        gl = scale * (w * (g - np.sum(g * w, axis=-1, keepdims=True)))
        gk = np.matmul(qh.swapaxes(-1, -2), gl)
        return (ad._merge(np.matmul(gl, kt.swapaxes(-1, -2))),
                ad._merge(gk.swapaxes(-1, -2)))

    return ad._out(w, (q, k), bwd, "attention_weights")


def attention_mix(w, v):
    """``autodiff.attention_mix``, holding the head-split values."""
    if w.data.ndim != 4 or v.data.ndim != 2:
        raise ShapeError(f"attention_mix: weights {w.shape}, values {v.shape}")
    bs, m, a, b = w.data.shape
    if v.data.shape[0] != bs * b or v.data.shape[1] % m:
        raise ShapeError(f"attention_mix: weights {w.shape}, values {v.shape}")
    vh = ad._heads(v.data, bs, m)

    def bwd(g):
        gh = g.reshape(bs, a, m, -1).swapaxes(-3, -2)
        return (np.matmul(gh, vh.swapaxes(-1, -2)),
                ad._merge(np.matmul(w.data.swapaxes(-1, -2), gh)))

    return ad._out(ad._merge(np.matmul(w.data, vh)), (w, v), bwd,
                   "attention_mix")


def residual_norm(x, sub, gain, bias, rate=0.0, keep=None):
    """layer_norm(x + dropout(sub)) as three nodes."""
    return layer_norm(ad.add(x, dropout(sub, rate, keep)), gain, bias)


def embed(table, ids, positions, rate, keep):
    """dropout(lookup * sqrt(d) + positions) as four nodes."""
    x = ad.embedding_lookup(table, ids) * math.sqrt(table.data.shape[1])
    return dropout(ad.add(x, ad.Tensor._wrap(positions)), rate, keep)


def gated_sum(h, d, wh, wd):
    """lam * h + (1 - lam) * d, lam = sigmoid(h wh + d wd), as eight nodes,
    as ``han.gate_integrate`` computed it."""
    lam = sigmoid(ad.add(h @ wh, d @ wd))
    return ad.add(ad.mul(lam, h), ad.mul(1.0 - lam, d)), lam


def sigmoid_linear(parts, b):
    """sigmoid(x_1 w_1 + ... + x_n w_n + b), the sum in order, as
    ``copy.copy_gate`` computed it."""
    (x, w), *rest = parts
    s = x @ w
    for x, w in rest:
        s = ad.add(s, x @ w)
    return sigmoid(ad.add(s, b))


def mix_rows(a, b, w):
    """(1 - w) * a + w * b row-wise as four nodes, as
    ``copy.mix_distributions`` computed it."""
    return ad.add(scale_rows(a, 1.0 - w), scale_rows(b, w))


def normalize_rows(x):
    """x times 1 / its row sums as three nodes, as
    ``copy.copy_attention_weights`` renormalized."""
    mass = x.sum(axis=1, keepdims=True)
    ones = ad.Tensor._wrap(np.ones_like(mass.data))
    return scale_rows(x, ad.div(ones, mass))


def attention(q, kv, wo, mask=None):
    """The weights, the heads' mix and the product by wo as three nodes
    over the key and value rows of ``kv``, split again; returns the rows
    and the weights."""
    bs, m = kv.kt.shape[:2]
    w = attention_weights(q, kv.keys, m, mask, bs)
    return attention_mix(w, kv.values) @ wo, w


def ffn(x, w1, b1, w2, b2):
    """``linear``, ``relu`` and ``linear`` as five nodes."""
    return linear(relu(linear(x, w1, b1)), w2, b2)


def output_distribution(model, rows):
    return ad.softmax_lastdim(
        linear(rows, model.params["out.w"], model.params["out.b"]))


def sublayer(model, x, sub_out, ln, keep):
    """``DocModel._sublayer`` as the chain."""
    return residual_norm(x, sub_out, ln["g"], ln["b"], *model._next_keep(keep))


def use_chains(monkeypatch):
    """Run ``DocModel`` on the chains and the storing forms instead of the
    fused and slimmed ops."""
    from docnmt.model.model import DocModel
    monkeypatch.setattr(DocModel, "output_distribution", output_distribution)
    monkeypatch.setattr(DocModel, "_sublayer", sublayer)
    for op in (attention, ffn, attention_mix, layer_norm, clamped_log,
               embed, gated_sum, sigmoid_linear, mix_rows, normalize_rows):
        monkeypatch.setattr(ad, op.__name__, op)


def bits(a):
    """An array's bytes, which tell -0.0 from 0.0 and NaNs apart."""
    return np.ascontiguousarray(a).tobytes()
