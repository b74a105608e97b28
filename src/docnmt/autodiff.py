"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: every differentiable op appends one node to a module-level
tape, so insertion order is already a topological order.  ``backward`` pops
the tape's nodes in reverse, accumulates gradients additively and writes
them into the ``grad`` field of leaf tensors; a visited node is released at
once, and the tape is empty afterwards.  One forward pass per backward
call; evaluation code should run under ``no_grad()``.

Shapes are explicit.  The only implicit broadcasting is scalar-times-tensor
(one operand with a single element); everything else must match exactly or go
through a dedicated op such as ``linear`` (x w + b, the bias added to every
row) or ``mix_rows``.

Nine ops are fused chains, to keep the tape short: ``linear`` is a
product plus a bias; ``ffn`` is a position-wise FFN, ``linear``, a ReLU
and ``linear``; ``attention`` is multi-head attention, the weights
(``attention_weights``: logits, mask, softmax), the heads' mix
(``attention_mix``) and the product by the output projection; ``embed``
is a Transformer's input rows, dropout(lookup * sqrt(d) + positions);
``layer_norm`` with a ``sub`` operand is a sublayer's residual norm,
layer_norm(x + dropout(sub)); ``gated_sum`` is a context gate,
lam * h + (1 - lam) * d with lam = sigmoid(h wh + d wd);
``sigmoid_linear`` is the copy gate, sigmoid(x_1 w_1 + ... + b);
``mix_rows`` is the copy mixture, (1 - w) * a + w * b row-wise; and
``normalize_rows`` divides rows by their sums, as x * (1 / sum).  Each
computes the chain's expressions in the chain's order, so outputs and
gradients equal the chain's bitwise; where the chain sums several
gradient parts into one input, the node lists that input once per part,
and ``backward`` sums them in the chain's order.  The chains' own ops
that no fused op replaces in package code (``attention_weights``,
``relu``, ``dropout``, ``sigmoid``, ``scale_rows`` and ``concat``) live
with the chains in ``tests/fused_reference.py``; ``attention_mix`` stays,
as the copy weights mix with it.

A node has one output, or a tuple of them: ``attention`` returns its rows
and its weights, which the copy weights read.  ``backward`` hands such a
node one gradient per output (None for an output nothing read); the
weights' gradient from later readers comes first, and the node adds its
mix's part to it, as ``backward`` summed the chain's parts.

A node holds its output, its input tensors and only what its backward
cannot rebuild bitwise from them, or a row statistic ([R, 1], one number
per row) whose rebuilding costs a reduction over the rows; the rest is
recomputed in backward by the forward's expressions, in the same order,
so gradients are those of a tape that stores it:

* ``attention`` holds q, its memory's key and value rows and wo, the
  weights and the merged rows of the heads' mix (the input of the wo
  product); backward splits q, k and v into heads again.  Its forward
  reads the head blocks of its memory, split once where the memory was
  built; the node does not hold them.  ``attention_mix`` holds the
  weights and values.
* ``layer_norm`` holds its inputs (and the boolean keep mask) and its
  rows' mean and 1 / std; backward rebuilds the residual sum, the centred
  rows and the normalized rows from them, with no row reduction or square
  root.  Forward and backward work in place on a fresh array wherever the
  value is the same (IEEE a + b = b + a and a * b = b * a).
* ``ffn`` holds its hidden rows, whose positive entries are the ReLU's
  mask.  ``clamped_log`` holds its input and clamps it again.
* ``embed`` holds the ids and the keep mask; dropout, the scale and the
  lookup are linear, so backward needs no rows at all.

Inverted dropout runs inside ``embed`` and the residual ``layer_norm``,
from a boolean keep mask (``keep_mask``) drawn beforehand: kept entries
are scaled by 1 / (1 - rate), the others zeroed.  A mask of r <= R rows
covers the first r rows of the R and leaves the rest undropped, so one
call can run a training pass's rows followed by rows in evaluation mode;
each of those later rows is then exactly what the op gives at rate 0.

Activations are 2-d [rows, features].  The other layouts are those of
attention over B stacked sequences of a query and b key rows each (B*a
and B*b rows).  An attention memory (``AttentionMemory``, built by
``head_kv`` and by nothing else) holds the key and value rows and their
head blocks, split once when it is built, and gives the attention its
B, m and d_h; every read of it reads the same blocks.  The weights
[B, m, a, b] of ``attention`` hold head h's [a, b] post-softmax matrix
of sequence i at entry (i, h); ``attention_mix`` merges the heads back
into [B*a, d] rows.  An attention mask is [B, a, b], None blocking
nothing, and ``attention`` is the one op that reads it.

Every op checks that its output is finite and raises ``NumericalError``
naming itself otherwise; gradient checks and direct model calls run so.
``unchecked()`` turns the per-op check off, and ``replayed`` runs a unit
of work under it: the search's unit is one translated sentence (see
``decoding``), training's one epoch (see ``training``).  The unit checks
a few results of its own instead (the search each step's distribution and
state rows; training each loss, each gradient before its optimizer step
and each row it caches), and a ``NumericalError`` replays it with the
per-op checks on, so the error still names the op.  With the checks on,
the fused ops check what their chains' ops would have, each value named
after the chain step that made it (``ffn``'s hidden and output rows are
``linear``'s; ``attention``'s weights, mixed rows and output are
``attention_weights``', ``attention_mix``'s and ``matmul``'s); the gates
check their logits (a sigmoid turns an inf into an exact 0 or 1),
``normalize_rows`` the row sums and their inverses.  Two checks stay on
even unchecked: ``attention`` checks its logits before masking (a masked
non-finite key would vanish), and it and ``softmax_lastdim`` tell a fully
masked row from non-finite logits.  Apart from masking and row
selection no op turns a NaN into a finite value (``ffn`` keeps it), so a
NaN reaches the unit's checks.  An inf can saturate (a sigmoid of inf is
exactly 1); so a unit runs unchecked only from finite parameters, where an
inf needs an overflow.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

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
    """Skip the per-op finite check (inside ``replayed`` units)."""
    global _check_finite
    prev = _check_finite
    _check_finite = False
    try:
        yield
    finally:
        _check_finite = prev


def replayed(unit, unchecked_ok: bool, rewind):
    """``unit()``, under ``unchecked()`` if ``unchecked_ok``.  A
    ``NumericalError`` of the unchecked run replays the unit with the
    per-op checks on, after ``rewind()`` (None: nothing to undo) has undone
    what the failed run changed, and raises the replay's error, which names
    the op that made the value; should the replay pass, the first error.
    The replay is exact when the unit is deterministic from what ``rewind``
    restores."""
    if not unchecked_ok:
        return unit()
    try:
        with unchecked():
            return unit()
    except NumericalError as err:
        if rewind is not None:
            rewind()
        unit()
        raise err


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


# the chain step that made a fused node's (first) output, named in errors
_MADE_BY = {"attention": "matmul", "ffn": "linear"}


def _finite(arr: Array, tag: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(
            f"non-finite values produced by op '{_MADE_BY.get(tag, tag)}'")


def _out(arr, inputs: tuple, bwd, tag: str):
    """Wrap an op's output and, where an input takes gradients, record its
    node.  ``arr`` may be a tuple of arrays, a node of several outputs:
    then it returns one Tensor per array, checks the first (the op checks
    the others) and ``bwd`` takes one gradient per output."""
    multi = type(arr) is tuple
    if _check_finite:
        _finite(arr[0] if multi else arr, tag)
    t = tuple(map(Tensor._wrap, arr)) if multi else Tensor._wrap(arr)
    if _grad_enabled and any(i.requires_grad for i in inputs):
        for o in t if multi else (t,):
            o.requires_grad = True
        _tape.append(_Node(t, inputs, bwd, tag))
    return t


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss; accumulates into leaf ``grad``.

    Pops the tape's nodes in reverse insertion order (each node visited
    once, and released once visited), summing contributions where a tensor
    feeds several ops; the tape is empty afterwards, also on an error, so
    the next forward pass starts a fresh graph.  A node of several outputs
    gets one gradient per output, None for an output that nothing read,
    and is skipped when no output was read.
    """
    if loss.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        _tape.clear()
        return
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {id(loss): loss}
    try:
        while _tape:
            node = _tape.pop()
            if type(node.out) is tuple:
                g = [grads.pop(id(o), None) for o in node.out]
                for o in node.out:
                    leaves.pop(id(o), None)
                if all(x is None for x in g):
                    continue
            else:
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


def _sigmoid(d: Array) -> Array:
    """1 / (1 + exp(-d)) where d >= 0, else exp(d) / (1 + exp(d)), with
    e = exp(-|d|) for both: the exponent is min(d, -d), which keeps a
    NaN's sign."""
    e = np.exp(np.minimum(d, -d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


_LOG_FLOOR = 1e-12


def clamped_log(x: Tensor) -> Tensor:
    """log(max(x, 1e-12)); counts clamp events and caps the gradient at 1e12."""
    global clamp_events
    n_clamped = int(np.count_nonzero(x.data < _LOG_FLOOR))
    if n_clamped:
        clamp_events += n_clamped
    return _out(np.log(np.maximum(x.data, _LOG_FLOOR)), (x,),
                lambda g: (g / np.maximum(x.data, _LOG_FLOOR),), "clamped_log")


# ---------------------------------------------------------------------------
# gates and mixtures, each a chain of the ops above as one node
#
# Backward returns the chain's gradient parts in the order the chain's nodes
# would hand them on (its last node first), listing an input once per node
# of the chain that reads it, so ``backward`` sums them as for the chain.


def _check_logits(s: Array, tag: str) -> None:
    """With the per-op checks on, a gate checks its logits: the sigmoid
    would turn an inf into an exact 0 or 1, hiding it from the output
    check."""
    if _check_finite:
        _finite(s, tag)


def gated_sum(h: Tensor, d: Tensor, wh: Tensor, wd: Tensor
              ) -> tuple[Tensor, Tensor]:
    """lam * h + (1 - lam) * d with the gate lam = sigmoid(h wh + d wd), for
    [n, k] rows h and d and [k, k] maps: the chain of two ``matmul``s,
    ``add``, ``sigmoid``, ``mul``, ``affine`` (1 - lam), ``mul`` and
    ``add``.  Returns the rows and lam, a constant (no gradient flows
    through it apart from the rows)."""
    if h.data.ndim != 2 or d.data.shape != h.data.shape \
            or wh.data.shape != (h.data.shape[1],) * 2 \
            or wd.data.shape != wh.data.shape:
        raise ShapeError(f"gated_sum: h {h.shape}, d {d.shape}, "
                         f"wh {wh.shape}, wd {wd.shape}")
    s = h.data @ wh.data + d.data @ wd.data
    _check_logits(s, "gated_sum")
    lam = _sigmoid(s)
    oml = -1.0 * lam + 1.0
    out = lam * h.data + oml * d.data

    def bwd(g):
        g_oml = g * d.data
        g_lam = -1.0 * g_oml + g * h.data
        gs = g_lam * lam * (1.0 - lam)
        return (g * oml, g * lam, gs @ wd.data.T, d.data.T @ gs,
                gs @ wh.data.T, h.data.T @ gs)

    return _out(out, (d, h, d, wd, h, wh), bwd, "gated_sum"), Tensor._wrap(lam)


def sigmoid_linear(parts: list[tuple[Tensor, Tensor]], b: Tensor) -> Tensor:
    """sigmoid(x_1 w_1 + ... + x_n w_n + b) for pairs of [r, k_i] rows x_i
    and [k_i, c] maps w_i, summed in order, and a bias b of one element or
    of the output's shape: the chain of the ``matmul``s, the ``add``s and
    ``sigmoid``."""
    s = None
    for x, w in parts:
        if x.data.ndim != 2 or w.data.ndim != 2 \
                or x.data.shape[1] != w.data.shape[0] \
                or (s is not None and s.shape != (x.data.shape[0],
                                                  w.data.shape[1])):
            raise ShapeError(f"sigmoid_linear: {x.shape} @ {w.shape}")
        s = x.data @ w.data if s is None else s + x.data @ w.data
    if s is None or (b.data.shape != s.shape and b.size != 1):
        raise ShapeError(f"sigmoid_linear: bias {b.shape}")
    s = s + b.data
    _check_logits(s, "sigmoid_linear")
    out = _sigmoid(s)

    def bwd(g):
        gs = g * out * (1.0 - out)
        grads = [_fit(gs, b.data.shape)]
        for x, w in reversed(parts):
            grads += [gs @ w.data.T, x.data.T @ gs]
        return tuple(grads)

    inputs = (b,) + tuple(t for pair in reversed(parts) for t in pair)
    return _out(out, inputs, bwd, "sigmoid_linear")


def mix_rows(a: Tensor, b: Tensor, w: Tensor) -> Tensor:
    """Row i of [n, c] ``a`` and ``b`` mixed by w[i] ([n, 1]):
    (1 - w_i) * a_i + w_i * b_i, the chain of ``affine`` (1 - w), two
    ``scale_rows`` and ``add``."""
    if a.data.ndim != 2 or b.data.shape != a.data.shape \
            or w.data.shape != (a.data.shape[0], 1):
        raise ShapeError(f"mix_rows: a {a.shape}, b {b.shape}, w {w.shape}")
    oml = -1.0 * w.data + 1.0
    out = a.data * oml + b.data * w.data

    def bwd(g):
        return (g * w.data, (g * b.data).sum(axis=1, keepdims=True),
                g * oml, -1.0 * (g * a.data).sum(axis=1, keepdims=True))

    return _out(out, (b, w, a, w), bwd, "mix_rows")


def normalize_rows(x: Tensor) -> Tensor:
    """Each row of [n, c] ``x`` times 1 / its sum: the chain of the row sum
    (``reduce``), ``div`` and ``scale_rows``."""
    if x.data.ndim != 2:
        raise ShapeError(f"normalize_rows: need 2-d, got {x.shape}")
    mass = np.sum(x.data, axis=1, keepdims=True)
    ones = np.ones_like(mass)
    inv = ones / mass
    if _check_finite:
        _finite(mass, "normalize_rows")
        _finite(inv, "normalize_rows")

    def bwd(g):
        g_mass = -(g * x.data).sum(axis=1, keepdims=True) * ones \
            / (mass * mass)
        return g * inv, np.broadcast_to(g_mass, x.data.shape) * 1.0

    return _out(x.data * inv, (x, x), bwd, "normalize_rows")


# ---------------------------------------------------------------------------
# linear algebra / shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    return _out(a.data @ b.data, (a, b),
                lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def _product(x: Array, w: Array, b: Array) -> Array:
    """x w + b for [n, k] rows x, a [k, d] matrix w and a length-d bias b
    added to every row."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b.shape}")
    out = x @ w
    out += b[None, :]
    return out


def _linear_grads(g: Array, x: Array, w: Array) -> tuple:
    return g @ w.T, x.T @ g, g.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x w + b for [n, k] rows x, a [k, d] matrix w and a length-d bias b
    added to every row."""
    return _out(_product(x.data, w.data, b.data), (x, w, b),
                lambda g: _linear_grads(g, x.data, w.data), "linear")


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """max(x w1 + b1, 0) w2 + b2, a position-wise FFN: the chain of
    ``linear``, ``relu`` and ``linear`` (a NaN stays NaN), named ``linear``
    in errors.  It holds the hidden rows, whose positive entries are the
    ReLU's mask: h > 0 exactly where x w1 + b1 > 0."""
    h = _product(x.data, w1.data, b1.data)
    np.maximum(h, 0.0, out=h)
    if _check_finite:
        _finite(h, "linear")

    def bwd(g):
        gh, gw2, gb2 = _linear_grads(g, h, w2.data)
        return (gw2, gb2) + _linear_grads(gh * (h > 0), x.data, w1.data)

    return _out(_product(h, w2.data, b2.data), (w2, b2, x, w1, b1), bwd,
                "ffn")


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: need 2-d, got {x.shape}")
    return _out(np.ascontiguousarray(x.data.T), (x,),
                lambda g: (np.ascontiguousarray(g.T),), "transpose")


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


def _keep_scale(rate: float, keep: Array | None, shape: tuple) -> float | None:
    """1 / (1 - rate), by which inverted dropout scales the entries it
    keeps, or None at rate 0 (no dropout); otherwise checks that ``keep``
    has ``shape``'s columns and at most its rows."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return None
    if keep.shape[1:] != shape[1:] or len(keep) > shape[0]:
        raise ShapeError(f"dropout: keep mask {keep.shape} vs x {shape}")
    return 1.0 / (1.0 - rate)


def _dropped(a: Array, keep: Array, scale: float) -> Array:
    """``a`` with inverted dropout on its first len(``keep``) rows and the
    rest as they are, in a fresh array."""
    if len(keep) == len(a):
        return a * (keep * scale)
    out = a.copy()
    out[:len(keep)] *= keep * scale
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, sub: Tensor | None = None,
               rate: float = 0.0, keep: Array | None = None) -> Tensor:
    """Normalize each row of [n, d] to zero mean / unit variance, then affine.

    With ``sub`` it normalizes x + dropout(sub, rate, keep) instead: a
    sublayer's residual connection and norm in one node, whose gradient
    reaches x before sub, as through the chain of ``dropout``, ``add`` and
    ``layer_norm``.  ``keep`` may cover only the leading rows (see the
    module docstring)."""
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) \
            or bias.data.shape != (x.data.shape[1],):
        raise ShapeError(f"layer_norm: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    inputs, scale, n = (x, gain, bias), None, x.data.shape[1]
    if sub is not None:
        if sub.data.shape != x.data.shape:
            raise ShapeError(f"layer_norm: x {x.shape} + sub {sub.shape}")
        scale = _keep_scale(rate, keep, x.data.shape)
        inputs += (sub,)

    def residual() -> Array:
        """x + dropout(sub) in a fresh array (x's copy without sub), which
        the caller changes in place; backward rebuilds it by the same
        expression rather than holding it."""
        if sub is None:
            return x.data.copy()
        return x.data + (sub.data if scale is None
                         else _dropped(sub.data, keep, scale))

    out = residual()
    # add.reduce / n is bitwise what .mean() computes, without its wrapper
    mu = np.add.reduce(out, axis=1, keepdims=True) / n
    out -= mu
    var = np.add.reduce(out * out, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + 1e-5)
    out *= inv
    out *= gain.data
    out += bias.data

    def bwd(g):
        xhat = residual()
        xhat -= mu
        xhat *= inv
        dx = g * gain.data[None, :]
        m1 = np.add.reduce(dx, axis=1, keepdims=True) / n
        m2 = np.add.reduce(dx * xhat, axis=1, keepdims=True) / n
        dx -= m1
        dx -= xhat * m2
        dx *= inv
        xhat *= g
        grads = (dx, xhat.sum(axis=0), g.sum(axis=0))
        if sub is None:
            return grads
        return grads + (dx if scale is None else _dropped(dx, keep, scale),)

    return _out(out, inputs, bwd, "layer_norm")


def keep_mask(shape: tuple, rate: float, rng: np.random.Generator) -> Array:
    """Which entries inverted dropout keeps (boolean), drawn from ``rng``."""
    return rng.random(shape) >= rate


def _heads(x: Array, bs: int, m: int) -> Array:
    """Rows [B*n, m*dh] of B stacked sequences as contiguous per-head
    blocks [B, m, n, dh].

    Contiguous blocks make each head's batched product the same BLAS call as
    a 2-d product of that head's columns, so results match it bitwise.
    """
    d = x.shape[1]
    return np.ascontiguousarray(
        x.reshape(bs, -1, m, d // m).transpose(0, 2, 1, 3))


def _key_heads(k: Array, bs: int, m: int) -> Array:
    """Key rows [B*b, m*dh] as transposed per-head blocks [B, m, dh, b]."""
    return np.ascontiguousarray(
        k.reshape(bs, -1, m, k.shape[1] // m).transpose(0, 2, 3, 1))


@dataclass(frozen=True)
class AttentionMemory:
    """B stacked attention memories of b rows each, as ``attention`` reads
    them: the key and value rows [B*b, d] and [B*b, d_v] and their head
    blocks, the keys' transposed heads ``kt`` [B, m, dh, b] and the values'
    heads ``vh`` [B, m, b, d_v/m].  ``head_kv`` splits the rows once, where
    the memory is built, and every attention over it reads the same
    blocks."""
    keys: Tensor
    values: Tensor
    kt: Array
    vh: Array


def head_kv(keys: Tensor, values: Tensor, bs: int, m: int) -> AttentionMemory:
    """The ``AttentionMemory`` of B = ``bs`` stacked sequences' key and value
    rows, split into m heads.  The rows must be a multiple of B, as many
    keys as values, and each width a multiple of m."""
    k, v = keys.data, values.data
    if k.ndim != 2 or v.ndim != 2 or bs < 1 or m < 1 or len(k) % bs \
            or len(v) != len(k) or k.shape[1] % m or v.shape[1] % m:
        raise ShapeError(f"head_kv: keys {keys.shape}, values {values.shape}"
                         f" in {bs} sequences of {m} heads")
    return AttentionMemory(keys, values, _key_heads(k, bs, m),
                           _heads(v, bs, m))


def _merge(x: Array) -> Array:
    """Per-head blocks [B, m, n, dh] back to C-contiguous rows [B*n, m*dh].

    Contiguity matters: a later product of these rows is then the same BLAS
    call as with rows merged by ``concat``.
    """
    bs, m, n, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(
        bs * n, m * dh)


def attention(q: Tensor, kv: AttentionMemory, wo: Tensor,
              mask: Array | None = None) -> tuple[Tensor, Tensor]:
    """Multi-head attention of B stacked sequences over their memory ``kv``
    as one node: the per-head weights w_h = softmax(q_h k_hᵀ / sqrt(d_h)),
    the heads' products w_h v_h merged into rows, and those rows times
    ``wo``.  Returns the output rows [B*a, d'] and the weights
    [B, m, a, b]; gradients flow through both.

    B, m and d_h are those of the memory's head blocks: q [B*a, m*d_h]
    holds m heads as the keys do (head h is columns h*d_h onwards), and
    sequence i's a queries attend only over its own b keys.  ``mask``
    [B, a, b] (True = blocked) applies mask[i] to every head of sequence
    i; blocked weights are exact zeros.  None blocks nothing.  The forward
    reads the memory's blocks; the node holds its key and value rows, not
    the blocks, and backward splits the rows again.  The chain it
    computes, in its order, is ``attention_weights``, ``attention_mix``
    and a ``matmul`` by wo, and errors name those steps.  The scaled
    logits are checked before masking, also under ``unchecked()``, and a
    fully masked row is a ContractError.
    """
    qd, kd, vd, wod = q.data, kv.keys.data, kv.values.data, wo.data
    bs, m, dh, b = kv.kt.shape
    if qd.ndim != 2 or qd.shape[1] != m * dh or len(qd) % bs:
        raise ShapeError(f"attention_weights: q {q.shape}, k {kv.keys.shape}"
                         f" in {bs} sequences")
    a = len(qd) // bs
    if mask is not None and mask.shape != (bs, a, b):
        raise ShapeError(f"attention_weights: mask {mask.shape} vs "
                         f"q {q.shape}, k {kv.keys.shape}")
    if wod.ndim != 2 or wod.shape[0] != vd.shape[1]:
        raise ShapeError(f"matmul: {(len(qd), vd.shape[1])} @ {wo.shape}")
    scale = 1.0 / math.sqrt(dh)
    # the softmax works in place on the fresh logits, reducing by the
    # ufuncs that ``max`` and ``sum`` call
    w = np.matmul(_heads(qd, bs, m), kv.kt)
    w *= scale
    _finite(w, "attention_weights")
    if mask is not None:
        np.copyto(w, -np.inf, where=mask[:, None])
    top = np.maximum.reduce(w, axis=-1, keepdims=True)
    if mask is not None and top.min() == -np.inf:     # finite logits: masked
        raise ContractError("attention_weights: a row is fully masked")
    w -= top
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    if _check_finite:
        _finite(w, "attention_weights")
    mixed = _merge(np.matmul(w, kv.vh))
    if _check_finite:
        _finite(mixed, "attention_mix")

    def bwd(gs):
        g, gw = gs
        g_wo = g_v = None
        if g is not None:
            # the product by wo, then the mix: per-head column views of the
            # mixed rows' gradient, strided like the parts of a concat
            gm, g_wo = g @ wod.T, mixed.T @ g
            gh = gm.reshape(bs, a, m, -1).swapaxes(-3, -2)
            g_mix = np.matmul(gh, _heads(vd, bs, m).swapaxes(-1, -2))
            g_v = _merge(np.matmul(w.swapaxes(-1, -2), gh))
            gw = g_mix if gw is None else gw + g_mix
        gl = scale * (w * (gw - np.sum(gw * w, axis=-1, keepdims=True)))
        gk = np.matmul(_heads(qd, bs, m).swapaxes(-1, -2), gl)  # [B,m,dh,b]
        return (g_wo, g_v,
                _merge(np.matmul(gl, _key_heads(kd, bs, m).swapaxes(-1, -2))),
                _merge(gk.swapaxes(-1, -2)))

    return _out((mixed @ wod, w), (wo, kv.values, q, kv.keys), bwd,
                "attention")


def attention_mix(w: Tensor, v: Tensor) -> Tensor:
    """Per-head products w_h v_h of B stacked sequences' weights
    [B, m, a, b] and values [B*b, d], heads merged into [B*a, d] rows (head
    h fills columns h*d_h onwards)."""
    if w.data.ndim != 4 or v.data.ndim != 2:
        raise ShapeError(f"attention_mix: weights {w.shape}, values {v.shape}")
    bs, m, a, b = w.data.shape
    if v.data.shape[0] != bs * b or v.data.shape[1] % m:
        raise ShapeError(f"attention_mix: weights {w.shape}, values {v.shape}")

    def bwd(g):
        # per-head column views of g, strided like the parts of a concat
        gh = g.reshape(bs, a, m, -1).swapaxes(-3, -2)
        return (np.matmul(gh, _heads(v.data, bs, m).swapaxes(-1, -2)),
                _merge(np.matmul(w.data.swapaxes(-1, -2), gh)))

    return _out(_merge(np.matmul(w.data, _heads(v.data, bs, m))), (w, v), bwd,
                "attention_mix")


def _row_ids(table: Tensor, ids, op: str) -> Array:
    """``ids`` as an index array of rows of the 2-d ``table``, each checked
    to be in range (errors name ``op``)."""
    idx = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"{op}: table {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ContractError(f"{op}: id out of range")
    return idx


def _scatter_rows(table: Tensor, idx: Array, g: Array) -> tuple[Array]:
    """The rows of g summed into a zero table at rows ``idx``: one bincount
    over the (row, column) slots adds each slot's parts in row order from
    0.0, as ``np.add.at`` into zeros does."""
    v, d = table.data.shape
    slots = (idx[:, None] * d + np.arange(d)).ravel()
    return (np.bincount(slots, weights=g.ravel(),
                        minlength=v * d).reshape(v, d),)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a [vocab, d] table; gradient scatter-adds into the table."""
    idx = _row_ids(table, ids, "embedding_lookup")
    return _out(table.data[idx].copy(), (table,),
                lambda g: _scatter_rows(table, idx, g), "embedding")


def embed(table: Tensor, ids, positions: Array, rate: float,
          keep: Array | None) -> Tensor:
    """dropout(table[ids] * sqrt(d) + positions, rate, keep) for a [vocab, d]
    table and fixed [n, d] position rows: a Transformer's input rows as one
    node, the chain of ``embedding_lookup``, ``affine``, ``add`` and inverted
    dropout (``keep`` as for ``layer_norm``, possibly of the leading rows
    only) computed in the chain's order.  It holds the ids and the keep
    mask; the gradient reaches the table only."""
    idx = _row_ids(table, ids, "embed")
    d = table.data.shape[1]
    if positions.shape != (idx.size, d):
        raise ShapeError(f"embed: {idx.size} ids of width {d}, "
                         f"positions {positions.shape}")
    scale, root = _keep_scale(rate, keep, positions.shape), math.sqrt(d)
    out = root * table.data[idx] + 0.0     # as affine: -0.0 becomes 0.0
    out += positions
    if scale is not None:
        out[:len(keep)] *= keep * scale

    def bwd(g):
        return _scatter_rows(
            table, idx, root * (g if scale is None else _dropped(g, keep, scale)))

    return _out(out, (table,), bwd, "embed")


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

