"""Named parameter store with trainability groups, plus initialization."""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from ..autodiff import Tensor
from ..errors import ContractError
from .config import ModelConfig

GROUP_BASE = "base"
GROUP_CTX_ENC = "ctx_enc"
GROUP_CTX_DEC = "ctx_dec"
GROUP_COPY = "copy"
GROUPS = (GROUP_BASE, GROUP_CTX_ENC, GROUP_CTX_DEC, GROUP_COPY)

# logit bias of the copy gate at initialization: starts mostly closed
# (sigmoid(-2) ~ 0.12) so fine-tuning begins near the gated context model
COPY_GATE_BIAS_INIT = -2.0


class ParamStore:
    """Ordered name -> Tensor mapping; every tensor belongs to one group."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}
        self._views: dict[str, Mapping[str, Tensor]] = {}

    def add(self, name: str, array, group: str) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter '{name}'")
        if group not in GROUPS:
            raise ContractError(f"unknown group '{group}'")
        t = Tensor(array)
        self._params[name] = t
        self._views.clear()
        self._groups[name] = group
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def view(self, prefix: str) -> Mapping[str, Tensor]:
        """Read-only sub-mapping of params under a dotted prefix, short keys.

        Built on the first call per prefix and shared by later calls.  It
        holds the store's own tensors, so values loaded into them show
        through.
        """
        view = self._views.get(prefix)
        if view is None:
            plen = len(prefix)
            view = self._views[prefix] = MappingProxyType({
                n[plen:]: t for n, t in self._params.items()
                if n.startswith(prefix)})
        return view

    def set_trainable(self, groups: set[str] | frozenset[str]) -> None:
        """Only listed groups get gradients; everything else is frozen."""
        for name, t in self._params.items():
            t.requires_grad = self._groups[name] in groups

    def finite(self) -> bool:
        """Whether every parameter is finite, the condition under which a
        unit of work may run with the per-op checks off
        (``autodiff.replayed``): from finite parameters an inf needs an
        overflow."""
        return all(np.isfinite(t.data).all() for t in self._params.values())

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        if set(snap) != set(self._params):
            raise ContractError("snapshot does not match parameter names")
        for n, arr in snap.items():
            t = self._params[n]
            if arr.shape != t.data.shape:
                raise ContractError(f"snapshot shape mismatch for '{n}'")
            t.data = arr.copy()

    def manifest(self) -> list[tuple[str, tuple[int, ...], str]]:
        return [(n, t.data.shape, self._groups[n]) for n, t in self._params.items()]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _add_mha(store: ParamStore, prefix: str, d: int, group: str,
             rng: np.random.Generator) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        store.add(f"{prefix}.{name}", _xavier(rng, d, d), group)


def _add_ffn(store: ParamStore, prefix: str, d: int, d_ff: int, group: str,
             rng: np.random.Generator) -> None:
    store.add(f"{prefix}.w1", _xavier(rng, d, d_ff), group)
    store.add(f"{prefix}.b1", np.zeros(d_ff), group)
    store.add(f"{prefix}.w2", _xavier(rng, d_ff, d), group)
    store.add(f"{prefix}.b2", np.zeros(d), group)


def _add_ln(store: ParamStore, prefix: str, d: int, group: str) -> None:
    store.add(f"{prefix}.g", np.ones(d), group)
    store.add(f"{prefix}.b", np.zeros(d), group)


def _add_context_side(store: ParamStore, side: str, cfg: ModelConfig, group: str,
                      rng: np.random.Generator) -> None:
    d = cfg.d_model
    p = f"ctx.{side}"
    store.add(f"{p}.f", _xavier(rng, d, d), group)   # word-level query map
    store.add(f"{p}.g", _xavier(rng, d, d), group)   # sentence-level query map
    _add_mha(store, f"{p}.word", d, group, rng)
    _add_mha(store, f"{p}.sent", d, group, rng)
    _add_ffn(store, f"{p}.ffn", d, cfg.d_ff, group, rng)
    store.add(f"{p}.gate.wh", _xavier(rng, d, d), group)
    store.add(f"{p}.gate.wd", _xavier(rng, d, d), group)


def build_params(cfg: ModelConfig, rng: np.random.Generator) -> ParamStore:
    """Allocate every parameter of every variant; groups gate training."""
    d = cfg.d_model
    store = ParamStore()

    scale = d ** -0.5
    store.add("emb.src", rng.normal(0.0, scale, size=(cfg.vocab_src, d)), GROUP_BASE)
    store.add("emb.tgt", rng.normal(0.0, scale, size=(cfg.vocab_tgt, d)), GROUP_BASE)

    for i in range(cfg.n_layers):
        p = f"enc.{i}"
        _add_mha(store, f"{p}.att", d, GROUP_BASE, rng)
        _add_ln(store, f"{p}.ln1", d, GROUP_BASE)
        _add_ffn(store, f"{p}.ffn", d, cfg.d_ff, GROUP_BASE, rng)
        _add_ln(store, f"{p}.ln2", d, GROUP_BASE)

    for i in range(cfg.n_layers):
        p = f"dec.{i}"
        _add_mha(store, f"{p}.self", d, GROUP_BASE, rng)
        _add_ln(store, f"{p}.ln1", d, GROUP_BASE)
        _add_mha(store, f"{p}.cross", d, GROUP_BASE, rng)
        _add_ln(store, f"{p}.ln2", d, GROUP_BASE)
        _add_ffn(store, f"{p}.ffn", d, cfg.d_ff, GROUP_BASE, rng)
        _add_ln(store, f"{p}.ln3", d, GROUP_BASE)

    store.add("out.w", _xavier(rng, d, cfg.vocab_tgt), GROUP_BASE)
    store.add("out.b", np.zeros(cfg.vocab_tgt), GROUP_BASE)

    _add_context_side(store, "enc", cfg, GROUP_CTX_ENC, rng)
    _add_context_side(store, "dec", cfg, GROUP_CTX_DEC, rng)

    # copy mechanism: dedicated attention over the current source encoding
    # plus three scalar-logit maps and a bias
    _add_mha(store, "copy.att", d, GROUP_COPY, rng)
    store.add("copy.wh", np.zeros((d, 1)), GROUP_COPY)
    store.add("copy.wc", np.zeros((d, 1)), GROUP_COPY)
    store.add("copy.wdy", np.zeros((d, 1)), GROUP_COPY)
    store.add("copy.b", np.full((1, 1), COPY_GATE_BIAS_INIT), GROUP_COPY)

    return store
