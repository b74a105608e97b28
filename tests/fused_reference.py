"""Unfused chains of the fused autodiff ops, one tape node per step.

These are what the model ran before ``autodiff.linear`` and the residual
form of ``autodiff.layer_norm``: a ``matmul`` then ``add_bias`` for every
biased product, and ``dropout``, ``add`` and ``layer_norm`` for every
sublayer's residual connection.  ``dropout`` here is the op as it was,
holding the float mask keep / (1 - rate) for its backward.
"""

import numpy as np

from docnmt import autodiff as ad
from docnmt.errors import ShapeError


def add_bias(x, b):
    """Add a length-d vector to every row of an [n, d] matrix."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_bias: {x.shape} + {b.shape}")
    return ad._out(x.data + b.data[None, :], (x, b),
                   lambda g: (g, g.sum(axis=0)), "add_bias")


def linear(x, w, b):
    return add_bias(x @ w, b)


def dropout(x, rate, keep):
    """Inverted dropout by multiplication with the float mask."""
    if rate == 0.0:
        return x
    mask = keep / (1.0 - rate)
    return ad._out(x.data * mask, (x,), lambda g: (g * mask,), "dropout")


def residual_norm(x, sub, gain, bias, rate=0.0, keep=None):
    """layer_norm(x + dropout(sub)) as three nodes."""
    return ad.layer_norm(ad.add(x, dropout(sub, rate, keep)), gain, bias)


def positionwise_ffn(x, p):
    return linear(ad.relu(linear(x, p["w1"], p["b1"])), p["w2"], p["b2"])


def output_distribution(model, rows):
    return ad.softmax_lastdim(
        linear(rows, model.params["out.w"], model.params["out.b"]))


def sublayer(model, x, sub_out, ln, keep):
    """``DocModel._sublayer`` as the chain."""
    return residual_norm(x, sub_out, ln["g"], ln["b"], *model._next_keep(keep))


def use_chains(monkeypatch):
    """Run ``DocModel`` on the chains instead of the fused ops."""
    from docnmt.model import model as model_module
    monkeypatch.setattr(model_module, "positionwise_ffn", positionwise_ffn)
    monkeypatch.setattr(model_module.DocModel, "output_distribution",
                        output_distribution)
    monkeypatch.setattr(model_module.DocModel, "_sublayer", sublayer)


def bits(a):
    """An array's bytes, which tell -0.0 from 0.0 and NaNs apart."""
    return np.ascontiguousarray(a).tobytes()
