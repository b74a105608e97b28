"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: every differentiable op appends one node to a module-level
tape, so insertion order is already a topological order.  ``backward`` walks
the tape once in reverse, accumulates gradients additively, writes them into
the ``grad`` field of leaf tensors and clears the tape.  One forward pass per
backward call; evaluation code should run under ``no_grad()``.

Shapes are explicit.  The only implicit broadcasting is scalar-times-tensor
(one operand with a single element); everything else must match exactly or go
through a dedicated op such as ``add_bias`` / ``scale_rows``.

Activations are 2-d [rows, features].  The one other layout is the
attention weights [B, m, a, b] of ``attention_weights``: B stacked
sequences of a query and b key rows each (B*a and B*b rows), with head h's
[a, b] post-softmax matrix of sequence i at entry (i, h); ``attention_mix``
merges the heads back into [B*a, d] rows.  An attention mask is [B, a, b],
None being one sequence with nothing blocked, and ``attention_weights`` is
the one op that reads it.

Every op checks that its output is finite and raises ``NumericalError``
naming itself otherwise; training, validation, gradient checks and direct
model calls all run so.  ``unchecked()`` turns the per-op check off.  Only
the search enters it (see ``decoding``): it checks each step's distribution
and state rows instead and replays a failing sentence with the per-op
checks on, so the error still names the op.  Two checks stay on even
there: ``attention_weights`` checks its logits before masking (a masked
non-finite key would vanish), and it and ``softmax_lastdim`` tell a fully
masked row from non-finite logits.  Apart from masking and row selection
no op turns a NaN into a finite value (``relu`` keeps it), so a NaN reaches
the search's checks.  An inf can saturate (a sigmoid of inf is exactly 1); see
``decoding`` for how the search deals with that.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericalError, ShapeError

Array = np.ndarray

_grad_enabled: bool = True
_check_finite: bool = True
_tape: list["_Node"] = []

# how often clamped_log had to clamp; exposed for the cross-entropy flag
clamp_events: int = 0


@contextmanager
def no_grad():
    """Disable tape recording (evaluation / cached-state passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def unchecked():
    """Skip the per-op finite check (the search's sentence unit only)."""
    global _check_finite
    prev = _check_finite
    _check_finite = False
    try:
        yield
    finally:
        _check_finite = prev


def tape_size() -> int:
    return len(_tape)


def clear_tape() -> None:
    _tape.clear()


class _Node:
    __slots__ = ("out", "inputs", "bwd", "tag")

    def __init__(self, out, inputs, bwd, tag):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd
        self.tag = tag


class Tensor:
    """Row-major float64 array plus optional gradient.

    Tensors created by ops own fresh storage; tensors not attached to the
    tape are treated as read-only constants and may be shared.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: Array) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        t.requires_grad = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return affine(self, 1.0, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return affine(self, 1.0, -float(other))

    def __rsub__(self, other):
        return affine(self, -1.0, float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return affine(self, float(other), 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return affine(self, 1.0 / float(other), 0.0)

    def __neg__(self):
        return affine(self, -1.0, 0.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- reductions / views -------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, np.sum, lambda n: 1.0)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, np.mean, lambda n: 1.0 / n)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})\n{self.data!r}"


def _finite(arr: Array, tag: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values produced by op '{tag}'")


def _out(arr: Array, inputs: tuple, bwd, tag: str, check: bool = True) -> Tensor:
    if check and _check_finite:
        _finite(arr, tag)
    t = Tensor._wrap(arr)
    if _grad_enabled and any(i.requires_grad for i in inputs):
        t.requires_grad = True
        _tape.append(_Node(t, inputs, bwd, tag))
    return t


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss; accumulates into leaf ``grad``.

    Walks the tape in reverse insertion order (each node visited once),
    summing contributions where a tensor feeds several ops, then clears the
    tape so the next forward pass starts a fresh graph.
    """
    if loss.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        _tape.clear()
        return
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {id(loss): loss}
    try:
        for node in reversed(_tape):
            g = grads.pop(id(node.out), None)
            leaves.pop(id(node.out), None)
            if g is None:
                continue
            for inp, ig in zip(node.inputs, node.bwd(g)):
                if ig is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + ig
                else:
                    grads[key] = ig
                    leaves[key] = inp
        for key, t in leaves.items():
            g = grads[key].reshape(t.data.shape)
            t.grad = g.copy() if t.grad is None else t.grad + g
    finally:
        _tape.clear()


# ---------------------------------------------------------------------------
# elementwise / scalar ops


def _bcast_pair(a: Tensor, b: Tensor, tag: str):
    """Allow identical shapes or a single-element operand; nothing else."""
    if a.data.shape == b.data.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{tag}: shapes {a.shape} and {b.shape} do not broadcast")


def _fit(g: Array, shape: tuple) -> Array:
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if int(np.prod(shape)) == 1 else g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _bcast_pair(a, b, "add")
    return _out(a.data + b.data, (a, b),
                lambda g: (_fit(g, a.data.shape), _fit(g, b.data.shape)), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _bcast_pair(a, b, "sub")
    return _out(a.data - b.data, (a, b),
                lambda g: (_fit(g, a.data.shape), _fit(-g, b.data.shape)), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _bcast_pair(a, b, "mul")
    return _out(a.data * b.data, (a, b),
                lambda g: (_fit(g * b.data, a.data.shape),
                           _fit(g * a.data, b.data.shape)), "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    _bcast_pair(a, b, "div")
    return _out(a.data / b.data, (a, b),
                lambda g: (_fit(g / b.data, a.data.shape),
                           _fit(-g * a.data / (b.data * b.data), b.data.shape)), "div")


def affine(x: Tensor, m: float, c: float) -> Tensor:
    """m * x + c with python scalars (covers negation and 1 - x)."""
    return _out(m * x.data + c, (x,), lambda g: (m * g,), "affine")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d vector to every row of an [n, d] matrix."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_bias: {x.shape} + {b.shape}")
    return _out(x.data + b.data[None, :], (x, b),
                lambda g: (g, g.sum(axis=0)), "add_bias")


def scale_rows(x: Tensor, col: Tensor) -> Tensor:
    """Multiply row i of [n, d] ``x`` by ``col[i]`` (col shaped [n, 1])."""
    if x.data.ndim != 2 or col.data.shape != (x.data.shape[0], 1):
        raise ShapeError(f"scale_rows: {x.shape} scaled by {col.shape}")
    return _out(x.data * col.data, (x, col),
                lambda g: (g * col.data, (g * x.data).sum(axis=1, keepdims=True)),
                "scale_rows")


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _out(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def relu(x: Tensor) -> Tensor:
    """max(x, 0); a NaN stays NaN."""
    mask = x.data > 0
    return _out(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,), "relu")


def log(x: Tensor) -> Tensor:
    return _out(np.log(x.data), (x,), lambda g: (g / x.data,), "log")


_LOG_FLOOR = 1e-12


def clamped_log(x: Tensor) -> Tensor:
    """log(max(x, 1e-12)); counts clamp events and caps the gradient at 1e12."""
    global clamp_events
    clamped = np.maximum(x.data, _LOG_FLOOR)
    n_clamped = int(np.count_nonzero(x.data < _LOG_FLOOR))
    if n_clamped:
        clamp_events += n_clamped
    return _out(np.log(clamped), (x,), lambda g: (g / clamped,), "clamped_log")


# ---------------------------------------------------------------------------
# linear algebra / shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    return _out(a.data @ b.data, (a, b),
                lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: need 2-d, got {x.shape}")
    return _out(np.ascontiguousarray(x.data.T), (x,),
                lambda g: (np.ascontiguousarray(g.T),), "transpose")


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _out(np.concatenate([p.data for p in parts], axis=axis),
                tuple(parts), bwd, "concat")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis of a 2-d tensor."""
    if x.data.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"narrow: need 2-d, got {x.shape}")
    idx = (slice(start, start + length), slice(None)) if axis == 0 else \
        (slice(None), slice(start, start + length))

    def bwd(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _out(np.ascontiguousarray(x.data[idx]), (x,), bwd, "narrow")


def _reduce(x: Tensor, axis, keepdims, fn, scale_fn) -> Tensor:
    arr = fn(x.data, axis=axis, keepdims=keepdims)
    if axis is None:
        n = x.data.size
    else:
        n = x.data.shape[axis]
    s = scale_fn(n)

    def bwd(g):
        if axis is None:
            return (np.full_like(x.data, float(g) * s),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, x.data.shape) * s,)

    return _out(np.asarray(arr), (x,), bwd, "reduce")


# ---------------------------------------------------------------------------
# neural-net specific ops


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max subtraction).

    Rows that are entirely -inf are a caller bug (fully masked attention row)
    and raise ContractError; a row whose maximum is NaN or +inf raises
    NumericalError.
    """
    d = x.data
    if d.size == 0 or d.shape[-1] == 0:
        raise ContractError("softmax_lastdim on empty tensor")
    m = np.max(d, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        if (m == -np.inf).any():
            raise ContractError(
                "softmax_lastdim: a row is fully masked (-inf)")
        _finite(m, "softmax")
    e = np.exp(d - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _out(out, (x,), bwd, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of [n, d] to zero mean / unit variance, then affine."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) \
            or bias.data.shape != (x.data.shape[1],):
        raise ShapeError(f"layer_norm: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    # add.reduce / n is bitwise what .mean() computes, without its wrapper
    n = x.data.shape[1]
    c = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / n
    var = np.add.reduce(c * c, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = c * inv
    out = xhat * gain.data[None, :] + bias.data[None, :]

    def bwd(g):
        gy = g * gain.data[None, :]
        m1 = np.add.reduce(gy, axis=1, keepdims=True) / n
        m2 = np.add.reduce(gy * xhat, axis=1, keepdims=True) / n
        dx = (gy - m1 - xhat * m2) * inv
        return (dx, (g * xhat).sum(axis=0), g.sum(axis=0))

    return _out(out, (x, gain, bias), bwd, "layer_norm")


def keep_mask(shape: tuple, rate: float, rng: np.random.Generator) -> Array:
    """Which entries inverted dropout keeps (boolean), drawn from ``rng``."""
    return rng.random(shape) >= rate


def dropout(x: Tensor, rate: float, keep: Array) -> Tensor:
    """Inverted dropout; identity when rate == 0.  Training-path only.

    ``keep`` (a ``keep_mask``) marks the kept entries; they are scaled by
    1 / (1 - rate)."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return x
    if keep.shape != x.data.shape:
        raise ShapeError(f"dropout: keep mask {keep.shape} vs x {x.shape}")
    mask = keep / (1.0 - rate)
    return _out(x.data * mask, (x,), lambda g: (g * mask,), "dropout")


def masked_fill(x: Tensor, mask: Array, value: float) -> Tensor:
    """Replace entries where ``mask`` is True by ``value`` (usually -inf)."""
    if mask.shape != x.data.shape:
        raise ShapeError(f"masked_fill: mask {mask.shape} vs x {x.shape}")
    keep = ~mask
    return _out(np.where(mask, value, x.data), (x,),
                lambda g: (g * keep,), "masked_fill", check=False)


def _heads(x: Array, bs: int, m: int) -> Array:
    """Rows [B*n, m*dh] of B stacked sequences as contiguous per-head
    blocks [B, m, n, dh].

    Contiguous blocks make each head's batched product the same BLAS call as
    a 2-d product of that head's columns, so results match it bitwise.
    """
    d = x.shape[1]
    return np.ascontiguousarray(
        x.reshape(bs, -1, m, d // m).transpose(0, 2, 1, 3))


def _merge(x: Array) -> Array:
    """Per-head blocks [B, m, n, dh] back to C-contiguous rows [B*n, m*dh].

    Contiguity matters: a later product of these rows is then the same BLAS
    call as with rows merged by ``concat``.
    """
    bs, m, n, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(
        bs * n, m * dh)


def attention_weights(q: Tensor, k: Tensor, m: int,
                      mask: Array | None = None) -> Tensor:
    """Per-head softmax(q_h k_hᵀ / sqrt(d_h)) of B stacked sequences as one
    [B, m, a, b] tensor.

    q [B*a, d] and k [B*b, d] hold m heads of d_h = d / m columns each (head
    h is columns h*d_h onwards); sequence i's a queries attend only over its
    own b keys.  ``mask`` [B, a, b] (True = blocked) gives B and applies
    mask[i] to every head of sequence i; blocked weights are exact zeros.
    None is one sequence with nothing blocked.  The scaled logits are
    checked before masking, the weights after the softmax; a fully masked
    row is a ContractError, also under ``unchecked()``.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or q.data.shape[1] != k.data.shape[1]:
        raise ShapeError(f"attention_weights: q {q.shape}, k {k.shape}")
    (rows_q, d), rows_k = q.data.shape, k.data.shape[0]
    if m < 1 or d % m:
        raise ShapeError(f"attention_weights: width {d} vs {m} heads")
    shape = (1, rows_q, rows_k) if mask is None else mask.shape
    if len(shape) != 3 or (shape[0] * shape[1], shape[0] * shape[2]) \
            != (rows_q, rows_k):
        raise ShapeError(f"attention_weights: mask {shape} vs q {q.shape}, "
                         f"k {k.shape}")
    bs, dh = shape[0], d // m
    scale = 1.0 / math.sqrt(dh)
    qh = _heads(q.data, bs, m)                        # [B, m, a, dh]
    kt = np.ascontiguousarray(                        # [B, m, dh, b]
        k.data.reshape(bs, -1, m, dh).transpose(0, 2, 3, 1))
    logits = scale * np.matmul(qh, kt)                # [B, m, a, b]
    _finite(logits, "attention_weights")
    if mask is not None:
        np.copyto(logits, -np.inf, where=mask[:, None])
    top = logits.max(axis=-1, keepdims=True)
    if mask is not None and top.min() == -np.inf:     # finite logits: masked
        raise ContractError("attention_weights: a row is fully masked")
    e = np.exp(logits - top)
    w = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        gl = scale * (w * (g - np.sum(g * w, axis=-1, keepdims=True)))
        gk = np.matmul(qh.swapaxes(-1, -2), gl)       # [B, m, dh, b]
        return (_merge(np.matmul(gl, kt.swapaxes(-1, -2))),
                _merge(gk.swapaxes(-1, -2)))

    return _out(w, (q, k), bwd, "attention_weights")


def attention_mix(w: Tensor, v: Tensor) -> Tensor:
    """Per-head products w_h v_h of B stacked sequences' weights
    [B, m, a, b] and values [B*b, d], heads merged into [B*a, d] rows (head
    h fills columns h*d_h onwards)."""
    if w.data.ndim != 4 or v.data.ndim != 2:
        raise ShapeError(f"attention_mix: weights {w.shape}, values {v.shape}")
    bs, m, a, b = w.data.shape
    if v.data.shape[0] != bs * b or v.data.shape[1] % m:
        raise ShapeError(f"attention_mix: weights {w.shape}, values {v.shape}")
    vh = _heads(v.data, bs, m)                        # [B, m, b, dh]

    def bwd(g):
        # per-head column views of g, strided like the parts of a concat
        gh = g.reshape(bs, a, m, -1).swapaxes(-3, -2)
        return (np.matmul(gh, vh.swapaxes(-1, -2)),
                _merge(np.matmul(w.data.swapaxes(-1, -2), gh)))

    return _out(_merge(np.matmul(w.data, vh)), (w, v), bwd, "attention_mix")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a [vocab, d] table; gradient scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ContractError("embedding_lookup: id out of range")

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _out(table.data[idx].copy(), (table,), bwd, "embedding")


def take_per_row(x: Tensor, ids) -> Tensor:
    """out[i] = x[i, ids[i]] for an [n, m] tensor; used by cross-entropy."""
    idx = np.asarray(ids, dtype=np.intp)
    n = x.data.shape[0]
    if x.data.ndim != 2 or idx.shape != (n,):
        raise ShapeError(f"take_per_row: x {x.shape}, ids {idx.shape}")
    rows = np.arange(n)

    def bwd(g):
        full = np.zeros_like(x.data)
        full[rows, idx] = g
        return (full,)

    return _out(x.data[rows, idx].copy(), (x,), bwd, "take_per_row")

