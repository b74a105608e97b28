"""Encoder-decoder model with optional document context and copy output.

Variants share one parameter store; which paths run is decided per call:

* ``sentence``     — plain Transformer, caches ignored.
* ``han-encoder``  — source-side context integrated at the final encoder layer.
* ``han-decoder``  — target-side context integrated at the final decoder layer.
* ``han-joint``    — both sides.
* ``copy``         — han-joint plus the copy mixture on the output.

An empty cache takes the exact sentence-level code path, so context variants
reduce to the plain model bitwise at document starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError
from ..tokens import BOS_ID, EOS_ID, UNK_ID
from .config import ModelConfig
from .copy import (CopyDistribution, copy_attention_weights, copy_gate,
                   encoder_context_attention, mix_distributions)
from .han import AttentionTrace, CacheEntry, ContextState, hierarchical_context
from .params import ParamStore
from .transformer import (causal_mask, cross_entropy, multi_head_attention,
                          positionwise_ffn, sinusoidal_positions)

VARIANTS = ("sentence", "han-encoder", "han-decoder", "han-joint", "copy")
ENCODER_CTX = frozenset({"han-encoder", "han-joint", "copy"})
DECODER_CTX = frozenset({"han-decoder", "han-joint", "copy"})


@dataclass
class EncodedSentence:
    """Final encoder states for one source sentence."""
    token_ids: list[int]
    states: Tensor               # [len, d]


@dataclass
class DecodeOut:
    """States of one (possibly context-integrated) decoder pass."""
    h: Tensor                    # base final-layer rows for queried positions
    h_tilde: Tensor              # integrated rows (== h on the skip path)
    d_rows: Tensor | None        # context summary rows, None on skip path
    trace: AttentionTrace | None


@dataclass
class StepResult:
    """Output distribution for the last prefix position at decode time."""
    p_w: np.ndarray              # [V] final distribution
    copy: CopyDistribution | None


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ContractError(f"unknown variant '{variant}' (expected {VARIANTS})")
    return variant


class DocModel:
    def __init__(self, cfg: ModelConfig, params: ParamStore):
        self.cfg = cfg
        self.params = params
        self._pos = sinusoidal_positions(cfg.max_len, cfg.d_model)

    # -- embeddings ---------------------------------------------------------

    def _embed(self, table: str, ids: list[int], train: bool,
               rng: np.random.Generator | None) -> Tensor:
        if len(ids) > self.cfg.max_len:
            raise ContractError(
                f"sequence length {len(ids)} exceeds max_len {self.cfg.max_len}")
        x = ad.embedding_lookup(self.params[table], ids) * math.sqrt(self.cfg.d_model)
        x = ad.add(x, Tensor._wrap(self._pos[:len(ids)]))
        if train and self.cfg.dropout > 0.0:
            x = ad.dropout(x, self.cfg.dropout, rng)
        return x

    def _sublayer(self, x: Tensor, sub_out: Tensor, ln: dict[str, Tensor],
                  train: bool, rng) -> Tensor:
        if train and self.cfg.dropout > 0.0:
            sub_out = ad.dropout(sub_out, self.cfg.dropout, rng)
        return ad.layer_norm(ad.add(x, sub_out), ln["g"], ln["b"])

    def clip_ids(self, ids, side: str) -> list[int]:
        """Out-of-range ids fold to UNK instead of failing."""
        vocab = self.cfg.vocab_src if side == "src" else self.cfg.vocab_tgt
        return [i if 0 <= i < vocab else UNK_ID for i in ids]

    # -- encoder --------------------------------------------------------------

    def encode(self, token_ids: list[int], train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        """Base encoder stack -> final-layer rows [len, d]."""
        if not token_ids:
            raise ContractError("encode of an empty sentence")
        ids = self.clip_ids(token_ids, "src")
        p = self.params
        x = self._embed("emb.src", ids, train, rng)
        for i in range(self.cfg.n_layers):
            att, _ = multi_head_attention(x, x, x, p.view(f"enc.{i}.att."),
                                          self.cfg.m_heads)
            x = self._sublayer(x, att, p.view(f"enc.{i}.ln1."), train, rng)
            ffn = positionwise_ffn(x, p.view(f"enc.{i}.ffn."))
            x = self._sublayer(x, ffn, p.view(f"enc.{i}.ln2."), train, rng)
        return x

    def contextual_encode(self, token_ids: list[int],
                          context: ContextState | None = None,
                          variant: str = "sentence", train: bool = False,
                          rng: np.random.Generator | None = None
                          ) -> tuple[EncodedSentence, AttentionTrace | None]:
        check_variant(variant)
        h = self.encode(token_ids, train, rng)
        trace = None
        if variant in ENCODER_CTX and context is not None and context.source:
            h, _, trace = hierarchical_context(h, context.source,
                                               self.params.view("ctx.enc."),
                                               self.cfg.m_heads)
        return EncodedSentence(token_ids=self.clip_ids(token_ids, "src"),
                               states=h), trace

    # -- decoder --------------------------------------------------------------

    def decode_states(self, prefix_ids: list[int], encoded: EncodedSentence,
                      train: bool = False,
                      rng: np.random.Generator | None = None
                      ) -> Tensor:
        """Causally masked decoder stack -> rows [len(prefix), d]."""
        if not prefix_ids:
            raise ContractError("decode of an empty prefix")
        ids = self.clip_ids(prefix_ids, "tgt")
        p = self.params
        x = self._embed("emb.tgt", ids, train, rng)
        cmask = causal_mask(len(ids))
        for i in range(self.cfg.n_layers):
            att, _ = multi_head_attention(x, x, x, p.view(f"dec.{i}.self."),
                                          self.cfg.m_heads, mask=cmask)
            x = self._sublayer(x, att, p.view(f"dec.{i}.ln1."), train, rng)
            cross, _ = multi_head_attention(x, encoded.states, encoded.states,
                                            p.view(f"dec.{i}.cross."),
                                            self.cfg.m_heads)
            x = self._sublayer(x, cross, p.view(f"dec.{i}.ln2."), train, rng)
            ffn = positionwise_ffn(x, p.view(f"dec.{i}.ffn."))
            x = self._sublayer(x, ffn, p.view(f"dec.{i}.ln3."), train, rng)
        return x

    def contextual_decode(self, prefix_ids: list[int], encoded: EncodedSentence,
                          context: ContextState | None = None,
                          variant: str = "sentence", train: bool = False,
                          rng: np.random.Generator | None = None,
                          positions: str = "all") -> DecodeOut:
        """Decoder pass; target-side context integration on the final layer.

        ``positions`` is "all" (teacher forcing) or "last" (stepwise search);
        context attention runs only for the queried positions.
        """
        check_variant(variant)
        if positions not in ("all", "last"):
            raise ContractError(f"positions='{positions}'")
        h_full = self.decode_states(prefix_ids, encoded, train, rng)
        h = h_full if positions == "all" else \
            ad.narrow(h_full, 0, h_full.data.shape[0] - 1, 1)
        if variant in DECODER_CTX and context is not None and context.target:
            h_tilde, d_rows, trace = hierarchical_context(
                h, context.target, self.params.view("ctx.dec."), self.cfg.m_heads)
        else:
            h_tilde, d_rows, trace = h, None, None
        return DecodeOut(h=h, h_tilde=h_tilde, d_rows=d_rows, trace=trace)

    # -- output ---------------------------------------------------------------

    def output_distribution(self, rows: Tensor) -> Tensor:
        """Vocabulary softmax over output rows -> [T, V]."""
        logits = ad.add_bias(rows @ self.params["out.w"], self.params["out.b"])
        return ad.softmax_lastdim(logits)

    def copy_mixture(self, out: DecodeOut, encoded: EncodedSentence,
                     p_vocab: Tensor) -> tuple[Tensor, Tensor | None, "object"]:
        """P_w for the copy variant; falls back to P_vocab (p_copy forced 0)
        when nothing in the cache may be copied.

        Returns (p_w, p_copy or None, CopyWeights or None).
        """
        if out.trace is None:
            return p_vocab, None, None
        weights = copy_attention_weights(out.trace, self.cfg.vocab_tgt)
        if not weights.copyable:
            return p_vocab, None, None
        pview = self.params.view("copy.")
        c_rows = encoder_context_attention(out.h_tilde, encoded.states,
                                           pview, self.cfg.m_heads)
        p_copy = copy_gate(out.h_tilde, c_rows, out.d_rows, pview)
        return mix_distributions(p_vocab, weights.alpha_vocab, p_copy), \
            p_copy, weights

    # -- sequence-level passes -------------------------------------------------

    def sequence_distributions(self, src_ids: list[int], tgt_ids: list[int],
                               context: ContextState | None, variant: str,
                               train: bool = False,
                               rng: np.random.Generator | None = None
                               ) -> tuple[Tensor, Tensor | None]:
        """Teacher-forced P rows [len(tgt)+1, V] and p_copy column (or None)."""
        encoded, _ = self.contextual_encode(src_ids, context, variant, train, rng)
        prefix = [BOS_ID] + self.clip_ids(tgt_ids, "tgt")
        out = self.contextual_decode(prefix, encoded, context, variant,
                                     train, rng, positions="all")
        p_vocab = self.output_distribution(out.h_tilde)
        if variant == "copy":
            p_w, p_copy, _ = self.copy_mixture(out, encoded, p_vocab)
            return p_w, p_copy
        return p_vocab, None

    def sentence_loss(self, src_ids: list[int], tgt_ids: list[int],
                      context: ContextState | None, variant: str,
                      train: bool = False,
                      rng: np.random.Generator | None = None
                      ) -> tuple[Tensor, int, float | None]:
        """Mean label-smoothed cross-entropy for one pair.

        Returns (loss, n_positions, mean p_copy over positions or None).
        """
        p_rows, p_copy = self.sequence_distributions(
            src_ids, tgt_ids, context, variant, train, rng)
        gold = self.clip_ids(tgt_ids, "tgt") + [EOS_ID]
        loss = cross_entropy(p_rows, gold, self.cfg.label_smoothing)
        mean_pc = float(p_copy.data.mean()) if p_copy is not None else None
        return loss, len(gold), mean_pc

    def step_distribution(self, prefix_ids: list[int], encoded: EncodedSentence,
                          context: ContextState | None,
                          variant: str) -> StepResult:
        """Evaluation-mode P_w over the next token (last prefix position)."""
        with ad.no_grad():
            out = self.contextual_decode(prefix_ids, encoded, context, variant,
                                         positions="last")
            p_vocab = self.output_distribution(out.h_tilde)
            if variant == "copy":
                p_w, p_copy, weights = self.copy_mixture(out, encoded, p_vocab)
                if p_copy is not None:
                    dist = CopyDistribution(
                        p_copy=float(p_copy.data[0, 0]),
                        p_vocab=p_vocab.data[0].copy(),
                        alpha_vocab=weights.alpha_vocab.data[0].copy(),
                        p_w=p_w.data[0].copy())
                    return StepResult(p_w=p_w.data[0], copy=dist)
            return StepResult(p_w=p_vocab.data[0], copy=None)

    # -- cache construction ------------------------------------------------------

    def target_cache_entry(self, out_tokens: list[int], encoded: EncodedSentence,
                           context: ContextState | None,
                           variant: str) -> CacheEntry | None:
        """Teacher-forced eval pass over a finished translation (or gold
        sentence); rows for the tokens themselves, BOS dropped, detached.
        Returns None for an empty sentence (nothing to cache)."""
        if not out_tokens:
            return None
        with ad.no_grad():
            out = self.contextual_decode([BOS_ID] + self.clip_ids(out_tokens, "tgt"),
                                         encoded, context, variant,
                                         positions="all")
            states = ad.narrow(out.h_tilde, 0, 1, len(out_tokens))
        return CacheEntry(token_ids=self.clip_ids(out_tokens, "tgt"),
                          states=states.detach())

    def source_cache_entry(self, encoded: EncodedSentence) -> CacheEntry:
        return CacheEntry(token_ids=list(encoded.token_ids),
                          states=encoded.states.detach())
