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
Every teacher-forced pass is ``teacher_force`` over stacked pairs (losses,
gold cache rows, and the gradient check at B = 1); decoding is the same
layout at B = 1.  One training ``teacher_force`` also gives the
evaluation-mode rows of the pairs whose gold entries later sentences
read: stacked again behind the training pairs, they share every layer
that takes no gradient and leave for a no-grad path at the first that
does, so they add nothing to the tape.  The one-pair ``sentence_loss``
and ``target_cache_entry`` are only the tests' references.  An
out-of-range id is a ``ContractError`` where it is embedded
(``autodiff.embed``), before it is scored or cached.

There is one decoder stack, ``decode_states``.  What a sentence's passes
share is built once into a ``DecoderMemory``: the cross-attention, context
and copy keys and values, whose head blocks are kept for repeated reads;
the context attention's masks, once per number of query rows; the copy
indicator.  It holds no
parameters, every pass reads its parameter groups through
``ParamStore.view``.  Teacher forcing runs the stack over whole prefixes
under the causal mask.  A search step runs it over one new row per
hypothesis of one source sentence, the k hypotheses being the batch axis
of the self-attention: row i attends over its own ``DecoderState`` (the
key and value rows of the tokens before it) and its new row, with no mask.
The step's grown K/V arrays [k, L+1, d] become the children's states,
read-only, as siblings share them; the gates and the copy mixture are one
autodiff node each (``autodiff.gated_sum``, ``sigmoid_linear``,
``normalize_rows``, ``mix_rows``).

Dropout applies keep masks drawn for a whole batch beforehand, in one
draw (``dropout_masks``); a pass pads each side's masks for all its
dropout sites at once and applies them in order.  The masks cover the
training rows, which lead; rows stacked behind them stay undropped.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError, NumericalError
from ..tokens import BOS_ID, EOS_ID, PAD_ID
from .config import ModelConfig
from .copy import (cache_indicator, copy_attention_weights, copy_gate,
                   mix_distributions)
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

    def split(self, n: int) -> tuple["Stack", "Stack"]:
        """The first n sequences and the rest, both at this stack's width."""
        at = n * self.width
        return (Stack(self.ids[:at], self.lengths[:n]),
                Stack(self.ids[at:], self.lengths[n:]))


@dataclass
class EncodedSentence:
    """Final encoder states of stacked source sentences, one row per
    ``Stack`` row."""
    token_ids: Stack
    states: Tensor               # [B*L, d]


@dataclass
class DecodeOut:
    """States of one (possibly context-integrated) decoder pass."""
    h_tilde: Tensor              # integrated rows (the stack's on the skip path)
    d_rows: Tensor | None        # context summary rows, None on skip path
    trace: AttentionTrace | None


@dataclass
class Forced:
    """One teacher-forced pass over stacked (source, target) pairs.

    ``pushed`` holds the evaluation-mode rows of the pairs the pass was
    asked for (``teacher_force``'s ``pushes``, in that order) as [E, L, d]
    arrays of their padded rows: the final encoder rows, and the integrated
    decoder rows h~ of BOS + target (None for a variant that caches no
    targets).  None when no pair was asked for."""
    pairs: list[tuple[list[int], list[int]]]
    tgt: Stack                   # BOS + targets
    memory: DecoderMemory        # its ``encoded`` holds the source Stack
    out: DecodeOut
    pushed: tuple[np.ndarray, np.ndarray | None] | None = None


@dataclass(frozen=True)
class DecoderState:
    """One hypothesis's decoder rows, one per prefix token consumed so far:
    each layer's self-attention key and value rows [L, d] and the integrated
    rows h~ [L, d].  A step hands each child hypothesis a longer state; a
    state never changes.  Its arrays are read-only: a child's K/V rows are
    its row of the step's [k, L, d] arrays, which its siblings share."""
    keys: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    h_tilde: np.ndarray

    def __len__(self) -> int:
        return self.h_tilde.shape[0]

    @classmethod
    def empty(cls, n_layers: int, d: int) -> "DecoderState":
        rows = _read_only(np.empty((0, d)))
        return cls(keys=(rows,) * n_layers, values=(rows,) * n_layers,
                   h_tilde=rows)

    def grow(self, kv: list[tuple[np.ndarray, np.ndarray]],
             h_tilde: np.ndarray, row: int) -> "DecoderState":
        """Hypothesis ``row``'s state after a step: its rows of the step's
        per-layer K/V arrays [k, L+1, d] and this state's h~ plus row
        ``row`` of the step's h~."""
        return DecoderState(
            keys=tuple(k[row] for k, _ in kv),
            values=tuple(v[row] for _, v in kv),
            h_tilde=_read_only(np.concatenate([self.h_tilde,
                                               h_tilde[row:row + 1]])))


def _padded_masks(stack: Stack, masks: list[np.ndarray]) -> np.ndarray:
    """The keep masks [sites, len_i, d] of ``stack``'s first len(masks)
    sequences as one [sites, len(masks)*L, d] array laid out as their
    rows, pads False."""
    sites, _, d = masks[0].shape
    out = np.zeros((sites, len(masks), stack.width, d), dtype=bool)
    for row, part in enumerate(masks):
        out[:, row, :part.shape[1]] = part
    return out.reshape(sites, len(masks) * stack.width, d)


def _split_rows(rows: Tensor, at: int) -> tuple[Tensor, Tensor]:
    """Rows off the tape cut into the first ``at`` and the rest.  The first
    part is a copy, so a tape that reads it holds none of the rest."""
    if rows.requires_grad:
        raise ContractError("only rows off the tape are split")
    return Tensor._wrap(rows.data[:at].copy()), Tensor._wrap(rows.data[at:])


def _pushed_rows(encoded: EncodedSentence, out: DecodeOut | None,
                 variant: str, pick) -> tuple[np.ndarray, np.ndarray | None]:
    """``Forced.pushed`` of the pairs ``pick`` of a pass's encoder rows and
    decoder output."""
    b, d = len(encoded.token_ids.lengths), encoded.states.data.shape[1]
    return (encoded.states.data.reshape(b, -1, d)[pick],
            None if variant not in DECODER_CTX
            else out.h_tilde.data.reshape(b, -1, d)[pick])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _grown(past: list[np.ndarray], new: Tensor) -> Tensor:
    """Each hypothesis's past rows [L, d] followed by its row of ``new``
    [k, d], as [k*(L+1), d] rows of a read-only [k, L+1, d] array."""
    rows = np.empty((len(past), past[0].shape[0] + 1, new.data.shape[1]))
    for grown, old in zip(rows, past):
        grown[:-1] = old
    rows[:, -1] = new.data
    return Tensor._wrap(_read_only(rows).reshape(-1, rows.shape[-1]))


@dataclass
class StepResult:
    """Output distribution for the last position of one prefix, with the
    pieces of P_w = (1 - p_copy) * P_vocab + p_copy * alpha.  The arrays
    are rows of the step's own arrays, not copies."""
    p_w: np.ndarray              # [V] final distribution
    state: DecoderState          # the prefix's rows, its last token included
    p_vocab: np.ndarray          # [V] vocabulary softmax; p_w's row unmixed
    p_copy: float | None         # None where the copy mixture did not run
    alpha_vocab: np.ndarray | None   # [V] copy weights; None with p_copy


class DecoderMemory:
    """Everything the decoder passes over one sentence share, built once per
    sentence: the target-side ``ContextMemory`` (None on the skip path),
    and, built on first use, each layer's cross-attention K/V of the source
    encoding (when the decoder stack first runs), the copy indicator of the
    cached target ids with whether it has a one, and the copy attention's
    K/V of the source encoding (both after the decoder stack, as the copy
    mixture needs them).  ``contexts`` holds one cache per sentence of the
    encoding.  The K/V are ``HeadKV``s, which keep their head blocks for
    repeated reads, and the ``ContextMemory`` builds its masks once per
    query count, so a search step over the sentence computes only what its
    new rows change.
    """

    def __init__(self, model: "DocModel", encoded: EncodedSentence,
                 contexts: list[ContextState] | None = None,
                 variant: str = "sentence"):
        check_variant(variant)
        p, m = model.params, model.cfg.m_heads
        self.encoded = encoded
        self.variant = variant
        self.context: ContextMemory | None = None
        entries = cached(contexts, "target")
        if variant in DECODER_CTX and entries:
            self.context = ContextMemory(entries, p, "ctx.dec.", m)
        self._model = model
        self._cross_kv: list[HeadKV] | None = None
        self._indicator: tuple[Tensor, bool] | None = None
        self._copy_kv: HeadKV | None = None

    @property
    def cross_kv(self) -> list[HeadKV]:
        """Each decoder layer's cross-attention K/V of the source encoding,
        built on first use."""
        if self._cross_kv is None:
            p, states = self._model.params, self.encoded.states
            self._cross_kv = [
                project_kv(states, states, p.view(f"dec.{i}.cross."),
                           self._model.cfg.m_heads,
                           len(self.encoded.token_ids.lengths))
                for i in range(self._model.cfg.n_layers)]
        return self._cross_kv

    def cache_indicator(self) -> tuple[Tensor, bool]:
        """The ``cache_indicator`` of the target caches and whether any of
        their tokens may be copied, built on the first call."""
        if self._indicator is None:
            ctx = self.context
            indicator = cache_indicator(
                ctx.token_ids, self._model.cfg.vocab_tgt, ctx.columns.shape[1])
            self._indicator = Tensor._wrap(indicator), bool(indicator.any())
        return self._indicator

    def copy_kv(self) -> HeadKV:
        """The copy attention's K/V of the source encoding, built on the
        first call."""
        if self._copy_kv is None:
            states = self.encoded.states
            self._copy_kv = project_kv(
                states, states, self._model.params.view("copy.att."),
                self._model.cfg.m_heads, len(self.encoded.token_ids.lengths))
        return self._copy_kv


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

    def _next_keep(self, keep: Iterator[np.ndarray] | None
                   ) -> tuple[float, np.ndarray | None]:
        """The dropout rate and the next of a pass's keep masks (the passes
        take them in the order they apply dropout); (0, None) in evaluation
        mode."""
        if keep is None or self.cfg.dropout == 0.0:
            return 0.0, None
        return self.cfg.dropout, next(keep)

    def _embed(self, table: str, ids: list[int], positions: np.ndarray,
               keep: Iterator[np.ndarray] | None) -> Tensor:
        length = int(positions.max()) + 1
        if length > self.cfg.max_len:
            raise ContractError(
                f"sequence length {length} exceeds max_len {self.cfg.max_len}")
        return ad.embed(self.params[table], ids, self._pos[positions],
                        *self._next_keep(keep))

    def _sublayer(self, x: Tensor, sub_out: Tensor, ln: dict[str, Tensor],
                  keep: Iterator[np.ndarray] | None) -> Tensor:
        """layer_norm(x + dropout(sub_out)), one tape node."""
        return ad.layer_norm(x, ln["g"], ln["b"], sub_out,
                             *self._next_keep(keep))

    def dropout_masks(self, lengths: list[tuple[int, int]],
                      rng: np.random.Generator
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The dropout keep masks of a batch's teacher-forced passes, given
        the (source, target) lengths of its pairs, drawn from ``rng`` in
        batch order and each pair's in the order its pass applies them.
        Per pair, (encoder masks [1 + 2n, source length, d], decoder masks
        [1 + 3n, target length + 1, d]) for n layers: the encoder applies
        dropout to the embedding, then to each layer's attention and FFN;
        the decoder to the embedding (BOS + target rows), then to each
        layer's self-attention, cross-attention and FFN.  At dropout 0 the
        masks have no sites and nothing is drawn.

        One ``keep_mask`` call draws all of them: the generator yields the
        same uniforms, in the same order, as one call per mask would."""
        rate, n, d = self.cfg.dropout, self.cfg.n_layers, self.cfg.d_model
        if rate == 0.0:
            return [(np.zeros((0, s, d), dtype=bool),
                     np.zeros((0, t + 1, d), dtype=bool)) for s, t in lengths]
        n_src, n_tgt = 1 + 2 * n, 1 + 3 * n
        keep = ad.keep_mask(
            (sum(n_src * s + n_tgt * (t + 1) for s, t in lengths), d),
            rate, rng)
        masks, at = [], 0
        for s, t in lengths:
            src = keep[at:at + n_src * s].reshape(n_src, s, d)
            at += n_src * s
            tgt = keep[at:at + n_tgt * (t + 1)].reshape(n_tgt, t + 1, d)
            at += n_tgt * (t + 1)
            masks.append((src, tgt))
        return masks

    # -- encoder --------------------------------------------------------------

    def _layout(self, tokens: Stack, causal: bool
                ) -> tuple[list[int], np.ndarray, np.ndarray | None]:
        """Ids, positions and self-attention mask of a ``Stack``."""
        mask = tokens.key_mask(tokens.width)
        if causal:
            future = causal_mask(tokens.width)
            mask = future[None] if mask is None else mask | future
        return tokens.ids, tokens.positions(), mask

    def encode(self, token_ids: Stack,
               keep: Iterator[np.ndarray] | None = None) -> Tensor:
        """Base encoder stack -> final-layer rows [B*L, d], one per
        ``Stack`` row; dropout applies the ``keep`` masks."""
        ids, positions, mask = self._layout(token_ids, causal=False)
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
                          ) -> EncodedSentence:
        """``encode``, then source-side context integration under one cache
        per sentence; its attention weights are not kept."""
        check_variant(variant)
        return self._source_context(self.encode(token_ids, keep), token_ids,
                                    contexts, variant)

    def _source_context(self, h: Tensor, token_ids: Stack,
                        contexts: list[ContextState] | None, variant: str
                        ) -> EncodedSentence:
        """The encoder rows ``h`` of ``token_ids`` integrated with the source
        caches, where the variant reads them."""
        entries = cached(contexts, "source")
        if variant in ENCODER_CTX and entries:
            h, _, _ = hierarchical_context(h, ContextMemory(
                entries, self.params, "ctx.enc.", self.cfg.m_heads))
        return EncodedSentence(token_ids=token_ids, states=h)

    def _trains(self, *prefixes: str) -> bool:
        """Whether a parameter under one of ``prefixes`` takes gradients."""
        return any(t.requires_grad for prefix in prefixes
                   for t in self.params.view(prefix).values())

    # -- decoder --------------------------------------------------------------

    def decode_states(self, ids: Stack | list[int], memory: DecoderMemory,
                      past: list[DecoderState] | None = None,
                      keep: Iterator[np.ndarray] | None = None
                      ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """The decoder stack over new rows -> (final-layer rows, per layer
        the self-attention K and V rows that the new rows attended over).

        Without ``past``, ``ids`` is a ``Stack`` of prefixes from position
        0, one per sentence that ``memory`` encodes, under the causal mask
        (teacher forcing); the K and V are those of the stacked rows.  With
        ``past`` (search over one encoded sentence, which records no
        gradient), ``ids`` lists the next token of each of k = len(past)
        hypotheses whose states have equal lengths L.  The self-attention
        then runs k sequences of one query each: row i attends over
        hypothesis i's past rows and its own new row, and the K and V are
        those grown rows, [k*(L+1), d] in read-only arrays.
        """
        if not ids:
            raise ContractError("decode of an empty prefix")
        src = memory.encoded.token_ids
        if past is None:
            if len(ids.lengths) != len(src.lengths):
                raise ContractError("teacher forcing needs one prefix per "
                                    "encoded sentence")
            cross_mask = src.key_mask(ids.width)
            ids, positions, mask = self._layout(ids, causal=True)
            bs = mask.shape[0]
        else:
            if len(src.lengths) != 1:
                raise ContractError("search steps decode one sentence")
            bs, mask, cross_mask = len(past), None, None
            if len(ids) != bs or len({len(s) for s in past}) != 1:
                raise ContractError(
                    f"{len(ids)} new rows for hypotheses of lengths "
                    f"{[len(s) for s in past]}")
            positions = np.full(bs, len(past[0]))
        x = self._embed("emb.tgt", ids, positions, keep)
        p, m = self.params, self.cfg.m_heads
        kv_rows = []
        for i, cross_kv in enumerate(memory.cross_kv):
            self_p = p.view(f"dec.{i}.self.")
            q, keys, values = x @ self_p["wq"], x @ self_p["wk"], x @ self_p["wv"]
            if past is not None:
                if keys.requires_grad:
                    raise ContractError("search steps run without a tape")
                keys = _grown([s.keys[i] for s in past], keys)
                values = _grown([s.values[i] for s in past], values)
            kv_rows.append((keys, values))
            att, _ = attend(q, HeadKV(keys, values, m, bs), self_p, mask)
            x = self._sublayer(x, att, p.view(f"dec.{i}.ln1."), keep)
            cross_p = p.view(f"dec.{i}.cross.")
            cross, _ = attend(x @ cross_p["wq"], cross_kv, cross_p, cross_mask)
            x = self._sublayer(x, cross, p.view(f"dec.{i}.ln2."), keep)
            ffn = positionwise_ffn(x, p.view(f"dec.{i}.ffn."))
            x = self._sublayer(x, ffn, p.view(f"dec.{i}.ln3."), keep)
        return x, kv_rows

    def decode(self, ids: Stack, memory: DecoderMemory,
               keep: Iterator[np.ndarray] | None = None) -> DecodeOut:
        """``decode_states`` over whole prefixes, then ``integrate``."""
        return self.integrate(self.decode_states(ids, memory, None, keep)[0],
                              memory)

    def integrate(self, h: Tensor, memory: DecoderMemory) -> DecodeOut:
        """Target-side context integration of decoder rows ``h`` under the
        caches of ``memory`` (none on the skip path)."""
        if memory.context is None:
            return DecodeOut(h_tilde=h, d_rows=None, trace=None)
        h_tilde, d_rows, trace = hierarchical_context(h, memory.context)
        return DecodeOut(h_tilde=h_tilde, d_rows=d_rows, trace=trace)

    # -- output ---------------------------------------------------------------

    def output_distribution(self, rows: Tensor) -> Tensor:
        """Vocabulary softmax over output rows -> [T, V]."""
        return ad.softmax_lastdim(
            ad.linear(rows, self.params["out.w"], self.params["out.b"]))

    def copy_mixture(self, out: DecodeOut, memory: DecoderMemory,
                     p_vocab: Tensor
                     ) -> tuple[Tensor, Tensor | None, Tensor | None]:
        """P_w for the copy variant; falls back to P_vocab (p_copy forced 0)
        when nothing in the cache may be copied.

        Returns (p_w, p_copy or None, alpha_vocab or None).
        """
        if out.trace is None:
            return p_vocab, None, None
        weights = copy_attention_weights(out.trace, *memory.cache_indicator())
        if not weights.copyable:
            return p_vocab, None, None
        # c_t: the integrated rows attend over their own source encoding
        copy_kv, att_p = memory.copy_kv(), self.params.view("copy.att.")
        src = memory.encoded.token_ids
        mask = src.key_mask(out.h_tilde.data.shape[0] // len(src.lengths))
        c_rows, _ = attend(out.h_tilde @ att_p["wq"], copy_kv, att_p, mask)
        p_copy = copy_gate(out.h_tilde, c_rows, out.d_rows,
                           self.params.view("copy."))
        return mix_distributions(p_vocab, weights.alpha_vocab, p_copy), \
            p_copy, weights.alpha_vocab

    # -- teacher forcing -----------------------------------------------------

    def teacher_force(self, pairs: list[tuple[list[int], list[int]]],
                      keep: list[tuple[np.ndarray, np.ndarray]] | None = None,
                      contexts: list[ContextState] | None = None,
                      variant: str = "sentence",
                      pushes: Iterable[int] = ()) -> Forced:
        """One pass of encoder and decoder over (source, target) pairs, as
        their padded rows.

        ``keep`` holds each pair's ``dropout_masks`` and selects training
        mode; without it the pass runs in evaluation mode.  Each side's
        masks are padded for all sites at once, one [sites, B*L, d] array
        whose pad rows keep nothing, and the pass reads one site after
        another.  ``contexts`` holds the caches of each pair's document,
        every one with the same numbers of cached sentences.  No result
        depends on the ids in pad positions.

        ``pushes`` lists the pairs whose evaluation-mode rows a later
        sentence reads; they come back as ``Forced.pushed``.  In evaluation
        mode they are the pass's own rows.  In training with a frozen base,
        the pairs are stacked again behind the training pairs, and every
        layer before the first that reads a trainable parameter runs once
        over both (the keep masks cover the leading, training rows only);
        there the training rows go on to the tape and the evaluation rows
        run the rest of their pass under ``no_grad``.  A training base
        shares nothing: the evaluation rows take a pass of their own.
        """
        check_variant(variant)
        pushes = list(pushes)
        evals = [pairs[i] for i in pushes]
        eval_contexts = None if contexts is None \
            else [contexts[i] for i in pushes]
        shared = bool(keep is not None and pushes
                      and not self._trains("emb.", "enc.", "dec."))
        both = pairs + evals if shared else pairs
        src = Stack.of([s for s, _ in both])
        tgt = Stack.of([[BOS_ID] + t for _, t in both])
        src_feed = tgt_feed = None
        if keep is not None:
            src_feed = iter(_padded_masks(src, [s for s, _ in keep]))
            tgt_feed = iter(_padded_masks(tgt, [t for _, t in keep]))
        if shared:
            return self._shared_pass(len(pairs), both, contexts, eval_contexts,
                                     variant, (src, tgt), (src_feed, tgt_feed))
        encoded = self.contextual_encode(src, contexts, variant, src_feed)
        memory = DecoderMemory(self, encoded, contexts, variant)
        forced = Forced(pairs, tgt, memory, self.decode(tgt, memory, tgt_feed))
        if pushes and keep is None:
            forced.pushed = _pushed_rows(encoded, forced.out, variant, pushes)
        elif pushes:
            with ad.no_grad():
                forced.pushed = self.teacher_force(
                    evals, None, eval_contexts, variant, range(len(evals))
                ).pushed
        return forced

    def _shared_pass(self, n: int, pairs, contexts, eval_contexts, variant,
                     stacks: tuple[Stack, Stack], feeds) -> Forced:
        """``teacher_force``'s training pass over the first ``n`` of
        ``pairs`` with a frozen base, the rest being evaluation pairs to
        push; ``stacks`` and ``feeds`` are those of all of ``pairs``."""
        (src, tgt), (src_feed, tgt_feed) = stacks, feeds
        (src_t, src_e), (tgt_t, tgt_e) = src.split(n), tgt.split(n)
        h = self.encode(src, src_feed)
        targets = variant in DECODER_CTX      # the pushes need h~ rows
        eval_out = None
        if variant in ENCODER_CTX and cached(contexts, "source") \
                and self._trains("ctx.enc."):
            h_t, h_e = _split_rows(h, len(src_t))
            encoded = self._source_context(h_t, src_t, contexts, variant)
            with ad.no_grad():
                eval_enc = self._source_context(h_e, src_e, eval_contexts,
                                                variant)
                if targets:
                    eval_out = self.decode(tgt_e, DecoderMemory(
                        self, eval_enc, eval_contexts, variant))
            memory = DecoderMemory(self, encoded, contexts, variant)
            out = self.decode(tgt_t, memory, tgt_feed)
        else:
            both = self._source_context(
                h, src, None if contexts is None else contexts + eval_contexts,
                variant)
            states_t, states_e = _split_rows(both.states, len(src_t))
            encoded = EncodedSentence(src_t, states_t)
            eval_enc = EncodedSentence(src_e, states_e)
            memory = DecoderMemory(self, encoded, contexts, variant)
            if targets:             # the decoder stack once, K/V built once
                y, _ = self.decode_states(tgt, DecoderMemory(self, both),
                                          None, tgt_feed)
                y_t, y_e = _split_rows(y, len(tgt_t))
                out = self.integrate(y_t, memory)
                with ad.no_grad():
                    eval_out = self.integrate(y_e, DecoderMemory(
                        self, eval_enc, eval_contexts, variant))
            else:
                out = self.decode(tgt_t, memory, tgt_feed)
        return Forced(pairs[:n], tgt_t, memory, out,
                      _pushed_rows(eval_enc, eval_out, variant, slice(None)))

    def forced_loss(self, forced: Forced
                    ) -> tuple[Tensor, int, np.ndarray | None]:
        """Summed label-smoothed cross-entropy of a teacher-forced pass over
        the real rows: (loss, n_positions, each row's p_copy or None).

        The loss equals the sum over the pairs of ``sentence_loss`` times
        its n_positions, up to summation order.
        """
        p_rows, p_copy = self.forced_distributions(forced)
        gold = [g for _, t in forced.pairs for g in t + [EOS_ID]]
        loss = cross_entropy(p_rows, gold, self.cfg.label_smoothing)
        return loss * float(len(gold)), len(gold), \
            None if p_copy is None else p_copy.data[forced.tgt.rows(), 0]

    def forced_distributions(self, forced: Forced
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
        grown by that row, and its P_w, P_vocab, p_copy and alpha rows (see
        ``StepResult``).  The distributions and the new rows are checked
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
            h, kv = self.decode_states([p[-1] for p in prefixes], memory, past)
            out = self.integrate(h, memory)
            p_vocab = self.output_distribution(out.h_tilde)
            p_w, p_copy, alpha = p_vocab, None, None
            if memory.variant == "copy":
                p_w, p_copy, alpha = self.copy_mixture(out, memory, p_vocab)
        n, h_new = len(past), _read_only(out.h_tilde.data)
        kv = [(k.data.reshape(n, -1, h_new.shape[1]),
               v.data.reshape(n, -1, h_new.shape[1])) for k, v in kv]
        new_rows = [p_w.data, h_new] + [a[:, -1] for pair in kv for a in pair]
        if not all(np.isfinite(a).all() for a in new_rows):
            raise NumericalError("non-finite values in the distribution or "
                                 f"state rows of decode step {len(past[0])}")
        gates = [None] * n if p_copy is None else p_copy.data[:, 0].tolist()
        alphas = [None] * n if alpha is None else alpha.data
        return [StepResult(p_w=p_w.data[i], state=state.grow(kv, h_new, i),
                           p_vocab=p_vocab.data[i], p_copy=gates[i],
                           alpha_vocab=alphas[i])
                for i, state in enumerate(past)]

    # -- per-sentence references ---------------------------------------------

    def sentence_loss(self, src_ids: list[int], tgt_ids: list[int],
                      context: ContextState | None, variant: str,
                      train: bool = False,
                      rng: np.random.Generator | None = None
                      ) -> tuple[Tensor, int, float | None]:
        """Mean label-smoothed cross-entropy of one pair, from a one-pair
        ``teacher_force`` (dropout masks drawn from ``rng`` when ``train``):
        (loss, n_positions, mean p_copy over positions or None).

        No package code calls it: it is the tests' reference for the stacked
        losses, and the benchmark's layer trace hooks it by name."""
        keep = self.dropout_masks([(len(src_ids), len(tgt_ids))], rng) \
            if train else None
        forced = self.teacher_force([(src_ids, tgt_ids)], keep,
                                    None if context is None else [context],
                                    variant)
        p_rows, p_copy = self.forced_distributions(forced)
        gold = tgt_ids + [EOS_ID]
        loss = cross_entropy(p_rows, gold, self.cfg.label_smoothing)
        mean_pc = float(p_copy.data.mean()) if p_copy is not None else None
        return loss, len(gold), mean_pc

    def target_cache_entry(self, out_tokens: list[int], encoded: EncodedSentence,
                           context: ContextState | None,
                           variant: str) -> CacheEntry | None:
        """Teacher-forced eval pass over a finished translation (or gold
        sentence) of one encoded sentence; rows for the tokens themselves,
        BOS dropped, detached.  Returns None for an empty sentence (nothing
        to cache).

        No package code calls it: it is the tests' reference for the cached
        rows, and the benchmark's layer trace hooks it by name."""
        if not out_tokens:
            return None
        with ad.no_grad():
            memory = DecoderMemory(
                self, encoded, None if context is None else [context], variant)
            out = self.decode(Stack.of([[BOS_ID] + out_tokens]), memory)
            states = ad.narrow(out.h_tilde, 0, 1, len(out_tokens))
        return CacheEntry(token_ids=list(out_tokens), states=states.detach())
