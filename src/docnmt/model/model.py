"""Encoder-decoder model with optional document context and copy output.

Variants share one parameter store; which paths run is decided per call:

* ``sentence``     — plain Transformer, caches ignored.
* ``han-encoder``  — source-side context integrated at the final encoder layer.
* ``han-decoder``  — target-side context integrated at the final decoder layer.
* ``han-joint``    — both sides.
* ``copy``         — han-joint plus the copy mixture on the output.

An empty cache takes the exact sentence-level code path, so context variants
reduce to the plain model bitwise at document starts.

Sequences are laid out one way: a ``Stack`` of B sequences padded to one
length L, run as B*L rows under key-padding (and causal) masks [B, L, L]
(a single sequence needs no key mask).  Each sequence comes from its own
document, with its own caches (one ``ContextState`` each, with equal
numbers of cached sentences), and the context and copy layers take the
same document axis (see ``han``).
Training teacher-forces many pairs at once (``teacher_force``); the
per-sentence passes (``sentence_loss``, ``target_cache_entry``) and
decoding are the same path at B = 1.

There is one decoder stack, ``decode_states``.  What a sentence's passes
share (cross-attention, context and copy keys and values, parameter views)
is built once into a ``DecoderMemory``.  Teacher forcing runs the stack over
whole prefixes under the causal mask; search runs it over one new row per
hypothesis of one source sentence, each row attending over its own
``DecoderState`` (the key and value rows of the tokens before it).

Dropout applies keep masks drawn per pair beforehand (``dropout_masks``)
and handed to a pass in the order it applies them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError, NumericalError
from ..tokens import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from .config import ModelConfig
from .copy import (CopyDistribution, CopyWeights, cache_indicator,
                   copy_attention_weights, copy_gate, mix_distributions)
from .han import (AttentionTrace, CacheEntry, ContextMemory, ContextState,
                  cached, hierarchical_context)
from .params import ParamStore
from .transformer import (HeadKV, attend, causal_mask, cross_entropy,
                          multi_head_attention, positionwise_ffn, project_kv,
                          sinusoidal_positions)

VARIANTS = ("sentence", "han-encoder", "han-decoder", "han-joint", "copy")
ENCODER_CTX = frozenset({"han-encoder", "han-joint", "copy"})
DECODER_CTX = frozenset({"han-decoder", "han-joint", "copy"})


@dataclass(frozen=True)
class Stack:
    """B id sequences, each padded with PAD_ID to the longest one's
    length L and laid out one after another as B*L rows."""
    ids: list[int]               # B*L ids, row-major
    lengths: tuple[int, ...]     # B true lengths

    @classmethod
    def of(cls, seqs: list[list[int]]) -> "Stack":
        """Pad ``seqs`` with PAD_ID and stack them."""
        if not seqs or not all(seqs):
            raise ContractError("a stack needs one or more non-empty sequences")
        width = max(map(len, seqs))
        return cls([i for s in seqs for i in list(s) + [PAD_ID] * (width - len(s))],
                   tuple(map(len, seqs)))

    @property
    def width(self) -> int:
        return len(self.ids) // len(self.lengths)

    def __len__(self) -> int:
        """Rows, pads included."""
        return len(self.ids)

    def positions(self) -> np.ndarray:
        return np.tile(np.arange(self.width), len(self.lengths))

    def _pads(self) -> np.ndarray:
        """[B, L]: True at pad positions."""
        return np.arange(self.width)[None, :] >= np.array(self.lengths)[:, None]

    def key_mask(self, n_queries: int) -> np.ndarray | None:
        """[B, n_queries, L]: every query of sequence i blocked from i's
        pads.  None for one sequence, which has no pads and no other
        sequence to be kept apart from."""
        if len(self.lengths) == 1:
            return None
        return self._pads()[:, None, :].repeat(n_queries, axis=1)

    def rows(self) -> np.ndarray:
        """Indices of the non-pad rows, in sequence order."""
        return np.flatnonzero(~self._pads())

    def pad_rows(self, parts: list[np.ndarray]) -> np.ndarray:
        """Per-sequence [len_i, d] arrays as one [B*L, d] array, pads zero
        (False)."""
        out = np.zeros((len(self.lengths), self.width, parts[0].shape[1]),
                       dtype=parts[0].dtype)
        for row, part in zip(out, parts):
            row[:len(part)] = part
        return out.reshape(len(self.ids), -1)


@dataclass
class EncodedSentence:
    """Final encoder states of stacked source sentences, one row per
    ``Stack`` row."""
    token_ids: Stack             # clipped ids
    states: Tensor               # [B*L, d]


@dataclass
class DecodeOut:
    """States of one (possibly context-integrated) decoder pass."""
    h_tilde: Tensor              # integrated rows (the stack's on the skip path)
    d_rows: Tensor | None        # context summary rows, None on skip path
    trace: AttentionTrace | None
    kv: list[tuple[Tensor, Tensor]]  # per layer: self-attention K, V rows


@dataclass
class Forced:
    """One teacher-forced pass over stacked (source, target) pairs."""
    pairs: list[tuple[list[int], list[int]]]
    tgt: Stack                   # BOS + targets
    memory: DecoderMemory        # its ``encoded`` holds the source Stack
    out: DecodeOut


@dataclass(frozen=True)
class DecoderState:
    """One hypothesis's decoder rows, one per prefix token consumed so far:
    each layer's self-attention key and value rows [L, d] and the integrated
    rows h~ [L, d].  A step returns a longer copy; a state never changes."""
    keys: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    h_tilde: np.ndarray

    def __len__(self) -> int:
        return self.h_tilde.shape[0]

    @classmethod
    def empty(cls, n_layers: int, d: int) -> "DecoderState":
        rows = np.empty((0, d))
        return cls(keys=(rows,) * n_layers, values=(rows,) * n_layers,
                   h_tilde=rows)

    def grow(self, out: DecodeOut, row: int) -> "DecoderState":
        """This state plus row ``row`` of a decoder pass."""
        def add(old: np.ndarray, new: Tensor) -> np.ndarray:
            return np.concatenate([old, new.data[row:row + 1]])
        return DecoderState(keys=tuple(add(o, k) for o, (k, _) in
                                       zip(self.keys, out.kv)),
                            values=tuple(add(o, v) for o, (_, v) in
                                         zip(self.values, out.kv)),
                            h_tilde=add(self.h_tilde, out.h_tilde))


@dataclass
class StepResult:
    """Output distribution for the last position of one prefix."""
    p_w: np.ndarray              # [V] final distribution
    copy: CopyDistribution | None
    state: DecoderState          # the prefix's rows, its last token included


@dataclass
class _DecoderLayer:
    self_p: dict[str, Tensor]
    ln1: dict[str, Tensor]
    cross_p: dict[str, Tensor]
    cross_kv: HeadKV             # source encoding through cross wk / wv
    ln2: dict[str, Tensor]
    ffn: dict[str, Tensor]
    ln3: dict[str, Tensor]


class DecoderMemory:
    """Everything the decoder passes over one sentence share, built once per
    sentence: each layer's parameter views and cross-attention K/V of the
    source encoding, the target-side ``ContextMemory`` (None on the skip
    path), and, built on first use (after the decoder stack, as the copy
    mixture needs them), the copy indicator of the cached target ids and
    the copy attention's K/V of the source encoding.  ``contexts`` holds
    one cache per sentence of the encoding.
    """

    def __init__(self, model: "DocModel", encoded: EncodedSentence,
                 contexts: list[ContextState] | None = None,
                 variant: str = "sentence"):
        check_variant(variant)
        p, m = model.params, model.cfg.m_heads
        self.encoded = encoded
        self.variant = variant
        self.m = m
        self.layers = []
        for i in range(model.cfg.n_layers):
            cross_p = p.view(f"dec.{i}.cross.")
            self.layers.append(_DecoderLayer(
                self_p=p.view(f"dec.{i}.self."), ln1=p.view(f"dec.{i}.ln1."),
                cross_p=cross_p,
                cross_kv=project_kv(encoded.states, encoded.states, cross_p, m),
                ln2=p.view(f"dec.{i}.ln2."), ffn=p.view(f"dec.{i}.ffn."),
                ln3=p.view(f"dec.{i}.ln3.")))
        self.context: ContextMemory | None = None
        entries = cached(contexts, "target")
        if variant in DECODER_CTX and entries:
            self.ctx_p = p.view("ctx.dec.")
            self.context = ContextMemory(entries, self.ctx_p, m)
        self._params = p
        self._vocab = model.cfg.vocab_tgt
        self._indicator: np.ndarray | None = None
        self._copy: tuple[HeadKV, dict[str, Tensor]] | None = None

    def cache_indicator(self) -> np.ndarray:
        """The ``cache_indicator`` of the target caches, built on the first
        call."""
        if self._indicator is None:
            ctx = self.context
            self._indicator = cache_indicator(ctx.token_ids, self._vocab,
                                              ctx.columns.shape[1])
        return self._indicator

    def copy(self) -> tuple[HeadKV, dict[str, Tensor]]:
        """The copy attention's K/V of the source encoding and its parameter
        views (``copy.att.``, prefix stripped), built on the first call."""
        if self._copy is None:
            p = self._params.view("copy.att.")
            states = self.encoded.states
            self._copy = project_kv(states, states, p, self.m), p
        return self._copy


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

    def _dropout(self, x: Tensor, keep: Iterator[np.ndarray] | None) -> Tensor:
        """Dropout with the next of a pass's keep masks (the passes take
        them in the order they apply dropout); None runs in evaluation
        mode."""
        if keep is None or self.cfg.dropout == 0.0:
            return x
        return ad.dropout(x, self.cfg.dropout, next(keep))

    def _embed(self, table: str, ids: list[int], positions: np.ndarray,
               keep: Iterator[np.ndarray] | None) -> Tensor:
        length = int(positions.max()) + 1
        if length > self.cfg.max_len:
            raise ContractError(
                f"sequence length {length} exceeds max_len {self.cfg.max_len}")
        x = ad.embedding_lookup(self.params[table], ids) * math.sqrt(self.cfg.d_model)
        return self._dropout(ad.add(x, Tensor._wrap(self._pos[positions])),
                             keep)

    def _sublayer(self, x: Tensor, sub_out: Tensor, ln: dict[str, Tensor],
                  keep: Iterator[np.ndarray] | None) -> Tensor:
        sub_out = self._dropout(sub_out, keep)
        return ad.layer_norm(ad.add(x, sub_out), ln["g"], ln["b"])

    def clip_ids(self, ids, side: str) -> list[int]:
        """Out-of-range ids fold to UNK instead of failing."""
        vocab = self.cfg.vocab_src if side == "src" else self.cfg.vocab_tgt
        return [i if 0 <= i < vocab else UNK_ID for i in ids]

    def dropout_masks(self, src_len: int, tgt_len: int,
                      rng: np.random.Generator
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The dropout keep masks of one pair's teacher-forced pass, drawn
        from ``rng`` in the order the pass applies them, as (encoder masks,
        decoder masks).  The encoder applies dropout to the
        embedding, then to each layer's attention and FFN; the decoder to
        the embedding (BOS + target rows), then to each layer's
        self-attention, cross-attention and FFN.  Both lists are empty at
        dropout 0, which draws nothing."""
        rate, n, d = self.cfg.dropout, self.cfg.n_layers, self.cfg.d_model
        if rate == 0.0:
            return [], []
        src = [ad.keep_mask((src_len, d), rate, rng) for _ in range(1 + 2 * n)]
        tgt = [ad.keep_mask((tgt_len + 1, d), rate, rng)
               for _ in range(1 + 3 * n)]
        return src, tgt

    # -- encoder --------------------------------------------------------------

    def _layout(self, tokens: Stack, side: str, causal: bool
                ) -> tuple[list[int], np.ndarray, np.ndarray | None]:
        """Clipped ids, positions and self-attention mask of a ``Stack``."""
        mask = tokens.key_mask(tokens.width)
        if causal:
            future = causal_mask(tokens.width)
            mask = future[None] if mask is None else mask | future
        return self.clip_ids(tokens.ids, side), tokens.positions(), mask

    def encode(self, token_ids: Stack,
               keep: Iterator[np.ndarray] | None = None) -> Tensor:
        """Base encoder stack -> final-layer rows [B*L, d], one per
        ``Stack`` row; dropout applies the ``keep`` masks."""
        ids, positions, mask = self._layout(token_ids, "src", causal=False)
        p = self.params
        x = self._embed("emb.src", ids, positions, keep)
        for i in range(self.cfg.n_layers):
            att, _ = multi_head_attention(x, x, x, p.view(f"enc.{i}.att."),
                                          self.cfg.m_heads, mask)
            x = self._sublayer(x, att, p.view(f"enc.{i}.ln1."), keep)
            ffn = positionwise_ffn(x, p.view(f"enc.{i}.ffn."))
            x = self._sublayer(x, ffn, p.view(f"enc.{i}.ln2."), keep)
        return x

    def contextual_encode(self, token_ids: Stack,
                          contexts: list[ContextState] | None = None,
                          variant: str = "sentence",
                          keep: Iterator[np.ndarray] | None = None
                          ) -> tuple[EncodedSentence, AttentionTrace | None]:
        """``encode``, then source-side context integration under one cache
        per sentence."""
        check_variant(variant)
        h = self.encode(token_ids, keep)
        trace = None
        entries = cached(contexts, "source")
        if variant in ENCODER_CTX and entries:
            p, m = self.params.view("ctx.enc."), self.cfg.m_heads
            h, _, trace = hierarchical_context(
                h, ContextMemory(entries, p, m), p, m)
        clipped = Stack(self.clip_ids(token_ids.ids, "src"), token_ids.lengths)
        return EncodedSentence(token_ids=clipped, states=h), trace

    # -- decoder --------------------------------------------------------------

    def decode_states(self, ids: Stack | list[int], memory: DecoderMemory,
                      past: list[DecoderState] | None = None,
                      keep: Iterator[np.ndarray] | None = None
                      ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """The decoder stack over new rows -> (final-layer rows, per layer
        the self-attention K and V of those rows).

        Without ``past``, ``ids`` is a ``Stack`` of prefixes from position
        0, one per sentence that ``memory`` encodes, under the causal mask
        (teacher forcing).  With ``past`` (search over one encoded
        sentence), ``ids`` lists the next token of each of len(past)
        hypotheses whose states have equal lengths; row i attends over
        hypothesis i's past rows and itself only.
        """
        if not ids:
            raise ContractError("decode of an empty prefix")
        src = memory.encoded.token_ids
        if past is None:
            if len(ids.lengths) != len(src.lengths):
                raise ContractError("teacher forcing needs one prefix per "
                                    "encoded sentence")
            n_past = 0
            cross_mask = src.key_mask(ids.width)
            ids, positions, mask = self._layout(ids, "tgt", causal=True)
        else:
            if len(src.lengths) != 1:
                raise ContractError("search steps decode one sentence")
            cross_mask = None
            ids = self.clip_ids(ids, "tgt")
            k = len(past)
            if len(ids) != k or len({len(s) for s in past}) != 1:
                raise ContractError(
                    f"{len(ids)} new rows for hypotheses of lengths "
                    f"{[len(s) for s in past]}")
            n_past = len(past[0])
            positions = np.full(k, n_past)
            other = ~np.eye(k, dtype=bool)  # keys: all past rows, then new
            mask = np.concatenate(
                [np.repeat(other, n_past, axis=1), other], axis=1)[None]
        x = self._embed("emb.tgt", ids, positions, keep)
        kv_rows = []
        for i, layer in enumerate(memory.layers):
            q = x @ layer.self_p["wq"]
            keys, values = x @ layer.self_p["wk"], x @ layer.self_p["wv"]
            kv_rows.append((keys, values))
            if n_past:
                keys = ad.concat([Tensor._wrap(np.concatenate(
                    [s.keys[i] for s in past])), keys])
                values = ad.concat([Tensor._wrap(np.concatenate(
                    [s.values[i] for s in past])), values])
            att, _ = attend(q, HeadKV(keys, values, memory.m), layer.self_p,
                            mask)
            x = self._sublayer(x, att, layer.ln1, keep)
            cross, _ = attend(x @ layer.cross_p["wq"], layer.cross_kv,
                              layer.cross_p, cross_mask)
            x = self._sublayer(x, cross, layer.ln2, keep)
            ffn = positionwise_ffn(x, layer.ffn)
            x = self._sublayer(x, ffn, layer.ln3, keep)
        return x, kv_rows

    def decode(self, ids: Stack | list[int], memory: DecoderMemory,
               past: list[DecoderState] | None = None,
               keep: Iterator[np.ndarray] | None = None) -> DecodeOut:
        """``decode_states``, then target-side context integration."""
        h, kv = self.decode_states(ids, memory, past, keep)
        if memory.context is None:
            return DecodeOut(h_tilde=h, d_rows=None, trace=None, kv=kv)
        h_tilde, d_rows, trace = hierarchical_context(
            h, memory.context, memory.ctx_p, self.cfg.m_heads)
        return DecodeOut(h_tilde=h_tilde, d_rows=d_rows, trace=trace, kv=kv)

    # -- output ---------------------------------------------------------------

    def output_distribution(self, rows: Tensor) -> Tensor:
        """Vocabulary softmax over output rows -> [T, V]."""
        logits = ad.add_bias(rows @ self.params["out.w"], self.params["out.b"])
        return ad.softmax_lastdim(logits)

    def copy_mixture(self, out: DecodeOut, memory: DecoderMemory,
                     p_vocab: Tensor
                     ) -> tuple[Tensor, Tensor | None, CopyWeights | None]:
        """P_w for the copy variant; falls back to P_vocab (p_copy forced 0)
        when nothing in the cache may be copied.

        Returns (p_w, p_copy or None, CopyWeights or None).
        """
        if out.trace is None:
            return p_vocab, None, None
        weights = copy_attention_weights(out.trace, memory.cache_indicator())
        if not weights.copyable:
            return p_vocab, None, None
        # c_t: the integrated rows attend over their own source encoding
        copy_kv, att_p = memory.copy()
        src = memory.encoded.token_ids
        mask = src.key_mask(out.h_tilde.data.shape[0] // len(src.lengths))
        c_rows, _ = attend(out.h_tilde @ att_p["wq"], copy_kv, att_p, mask)
        p_copy = copy_gate(out.h_tilde, c_rows, out.d_rows,
                           self.params.view("copy."))
        return mix_distributions(p_vocab, weights.alpha_vocab, p_copy), \
            p_copy, weights

    # -- sequence-level passes -------------------------------------------------

    def sequence_distributions(self, src_ids: list[int], tgt_ids: list[int],
                               context: ContextState | None, variant: str,
                               train: bool = False,
                               rng: np.random.Generator | None = None
                               ) -> tuple[Tensor, Tensor | None]:
        """Teacher-forced P rows [len(tgt)+1, V] and p_copy column (or None)
        of one pair: a one-pair ``teacher_force``, with dropout masks drawn
        from ``rng`` when ``train``."""
        keep = [self.dropout_masks(len(src_ids), len(tgt_ids), rng)] \
            if train else None
        forced = self.teacher_force([(src_ids, tgt_ids)], keep,
                                    None if context is None else [context],
                                    variant)
        return self._forced_distributions(forced)

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

    def teacher_force(self, pairs: list[tuple[list[int], list[int]]],
                      keep: list[tuple[list[np.ndarray], list[np.ndarray]]]
                      | None = None, contexts: list[ContextState] | None = None,
                      variant: str = "sentence") -> Forced:
        """One pass of encoder and decoder over (source, target) pairs, as
        their padded rows.

        ``keep`` holds each pair's ``dropout_masks`` and selects training
        mode; without it the pass runs in evaluation mode.  ``contexts``
        holds the caches of each pair's document, every one with the same
        numbers of cached sentences.  No result depends on the ids in pad
        positions.
        """
        src = Stack.of([s for s, _ in pairs])
        tgt = Stack.of([[BOS_ID] + t for _, t in pairs])
        src_feed = tgt_feed = None
        if keep is not None:
            # site k of each side: every pair's k-th mask, padded as its rows
            src_feed = iter([src.pad_rows(list(site))
                             for site in zip(*(s for s, _ in keep))])
            tgt_feed = iter([tgt.pad_rows(list(site))
                             for site in zip(*(t for _, t in keep))])
        encoded, _ = self.contextual_encode(src, contexts, variant, src_feed)
        memory = DecoderMemory(self, encoded, contexts, variant)
        return Forced(pairs, tgt, memory,
                      self.decode(tgt, memory, None, tgt_feed))

    def forced_loss(self, forced: Forced
                    ) -> tuple[Tensor, int, np.ndarray | None]:
        """Summed label-smoothed cross-entropy of a teacher-forced pass over
        the real rows: (loss, n_positions, each row's p_copy or None).

        The loss equals the sum over the pairs of ``sentence_loss`` times
        its n_positions, up to summation order.
        """
        p_rows, p_copy = self._forced_distributions(forced)
        gold = [g for _, t in forced.pairs
                for g in self.clip_ids(t, "tgt") + [EOS_ID]]
        loss = cross_entropy(p_rows, gold, self.cfg.label_smoothing)
        return loss * float(len(gold)), len(gold), \
            None if p_copy is None else p_copy.data[forced.tgt.rows(), 0]

    def _forced_distributions(self, forced: Forced
                              ) -> tuple[Tensor, Tensor | None]:
        """P rows of a teacher-forced pass's real (non-pad) rows, and the
        p_copy column of all its rows (None unless the copy mixture ran)."""
        rows, out = forced.tgt.rows(), forced.out
        if forced.memory.variant != "copy":
            # the real rows only; the embedding gather serves for any rows
            return self.output_distribution(
                ad.embedding_lookup(out.h_tilde, rows)), None
        p_w, p_copy, _ = self.copy_mixture(
            out, forced.memory, self.output_distribution(out.h_tilde))
        return ad.embedding_lookup(p_w, rows), p_copy

    def step_distribution(self, prefixes: list[list[int]],
                          memory: DecoderMemory,
                          states: list[DecoderState | None]
                          ) -> list[StepResult]:
        """Evaluation-mode P_w over the next token of every prefix, in one
        pass over stacked rows.

        The prefixes have one length; ``states[i]`` holds the rows of all
        but the last token of ``prefixes[i]`` (None for a bare BOS prefix),
        so one row per prefix is computed.  Each result carries the state
        grown by that row.  The distributions and the new rows are checked
        to be finite (the search runs its ops unchecked, see ``decoding``);
        a non-finite value raises ``NumericalError`` naming the step.
        """
        past = [DecoderState.empty(self.cfg.n_layers, self.cfg.d_model)
                if s is None else s for s in states]
        if len(prefixes) != len(past) or any(
                len(p) != len(s) + 1 for p, s in zip(prefixes, past)):
            raise ContractError("each state must cover its prefix but the "
                                "last token")
        with ad.no_grad():
            out = self.decode([p[-1] for p in prefixes], memory, past)
            p_vocab = self.output_distribution(out.h_tilde)
            p_w, p_copy, weights = p_vocab, None, None
            if memory.variant == "copy":
                p_w, p_copy, weights = self.copy_mixture(out, memory, p_vocab)
        step = [p_w, out.h_tilde] + [t for kv in out.kv for t in kv]
        if not all(np.isfinite(t.data).all() for t in step):
            raise NumericalError("non-finite values in the distribution or "
                                 f"state rows of decode step {len(past[0])}")
        results = []
        for i, state in enumerate(past):
            dist = None
            if p_copy is not None:
                dist = CopyDistribution(
                    p_copy=float(p_copy.data[i, 0]),
                    p_vocab=p_vocab.data[i].copy(),
                    alpha_vocab=weights.alpha_vocab.data[i].copy())
            results.append(StepResult(p_w=p_w.data[i], copy=dist,
                                      state=state.grow(out, i)))
        return results

    # -- cache construction ------------------------------------------------------

    def target_cache_entry(self, out_tokens: list[int], encoded: EncodedSentence,
                           context: ContextState | None,
                           variant: str) -> CacheEntry | None:
        """Teacher-forced eval pass over a finished translation (or gold
        sentence) of one encoded sentence; rows for the tokens themselves,
        BOS dropped, detached.  Returns None for an empty sentence (nothing
        to cache)."""
        if not out_tokens:
            return None
        with ad.no_grad():
            memory = DecoderMemory(
                self, encoded, None if context is None else [context], variant)
            out = self.decode(Stack.of([[BOS_ID] + out_tokens]), memory)
            states = ad.narrow(out.h_tilde, 0, 1, len(out_tokens))
        return CacheEntry(token_ids=self.clip_ids(out_tokens, "tgt"),
                          states=states.detach())

    def source_cache_entry(self, encoded: EncodedSentence) -> CacheEntry:
        """The cache entry of one encoded sentence."""
        return CacheEntry(token_ids=list(encoded.token_ids.ids),
                          states=encoded.states.detach())
