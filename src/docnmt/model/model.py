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
gold cache rows, and the gradient check at B = 1): encoder, source HAN,
decoder stack, target HAN, output layer.  It returns values, a ``Forced``
(the P_w rows of the real target positions, their copy gates and gold
ids, and the pushed rows), and none of its memories.  Decoding is the
same layout at B = 1.  One training ``teacher_force`` also gives the
evaluation-mode rows of the pairs whose gold entries later sentences
read.  Stacked again behind the training pairs, they leave at one split,
the first layer that reads a trainable parameter (the embedding when the
base trains, the source HAN when it trains over filled caches, else the
target HAN), and add nothing to the tape.  The one-pair ``sentence_loss``
and ``target_cache_entry`` are only the tests' references.  An
out-of-range id is a ``ContractError`` where it is embedded
(``autodiff.embed``), before it is scored or cached.

There is one decoder stack, ``decode_states``.  What a sentence's passes
share is built once into a ``DecoderMemory``: the cross-attention, context
and copy memories, their keys and values split into heads once; the
context attention's masks, once per number of query rows; the copy
indicator.  It holds no parameters, every pass reads its parameter groups
through ``ParamStore.view``.  Teacher forcing runs the stack over whole
prefixes under the causal mask.  A search step runs it over one new row
per hypothesis of one source sentence, the k hypotheses being the batch
axis of the self-attention: row i attends over its own ``DecoderState``
(the key and value rows of the tokens before it) and its new row, with
no mask.
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
from functools import cached_property

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
from .transformer import (causal_mask, cross_entropy, multi_head_attention,
                          positionwise_ffn, project_kv, sinusoidal_positions)

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
    """What one teacher-forced pass over stacked (source, target) pairs
    computed, as values: none of its memories outlive it.

    ``p_w`` holds the P_w rows of the real (non-pad) target positions in
    pair order, each pair's BOS + target rows predicting target + EOS, and
    ``gold`` those ids.  ``p_copy`` holds the copy gate of each of those
    rows, None where the copy mixture did not run.  ``pushed`` holds the
    evaluation-mode rows of the pairs the pass was asked for
    (``teacher_force``'s ``pushes``, in that order) as [E, L, d] arrays of
    their padded rows: the final encoder rows, and the integrated decoder
    rows h~ of BOS + target (None for a variant that caches no targets).
    In training they leave the stacked rows at one split
    (``DocModel._split_layer``).  None when no pair was asked for."""
    p_w: Tensor                  # [N, V]
    p_copy: np.ndarray | None    # [N]
    gold: list[int]              # N ids
    pushed: tuple[np.ndarray, np.ndarray | None] | None


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
    """Rows off the tape cut into the first ``at`` and the rest.  Both parts
    are copies, so a tape that reads the first holds none of the rest, and
    rows kept from the rest (``Forced.pushed``) hold none of the first."""
    if rows.requires_grad:
        raise ContractError("only rows off the tape are split")
    return (Tensor._wrap(rows.data[:at].copy()),
            Tensor._wrap(rows.data[at:].copy()))


def _stacks(pairs: list[tuple[list[int], list[int]]]) -> tuple[Stack, Stack]:
    """The sources and the BOS + targets of ``pairs``, stacked."""
    return (Stack.of([s for s, _ in pairs]),
            Stack.of([[BOS_ID] + t for _, t in pairs]))


def _pushed_rows(src: Stack, h: Tensor, out: DecodeOut | None, variant: str,
                 pick) -> tuple[np.ndarray, np.ndarray | None]:
    """``Forced.pushed`` of the pairs ``pick`` of a pass's rows."""
    b, d = len(src.lengths), h.data.shape[1]
    return (h.data.reshape(b, -1, d)[pick],
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
    and, built on first use, each layer's cross-attention memory of the
    source encoding (when the decoder stack first runs), the copy indicator
    of the cached target ids with whether it has a one, and the copy
    attention's memory of the source encoding (both after the decoder
    stack, as the copy mixture needs them).  ``contexts`` holds one cache
    per sentence of the encoding.  Each memory splits its keys and values
    into heads once (``autodiff.head_kv``), and the ``ContextMemory``
    builds its masks once per query count, so a search step over the
    sentence computes only what its new rows change.
    """

    def __init__(self, model: "DocModel", encoded: EncodedSentence,
                 contexts: list[ContextState] | None = None,
                 variant: str = "sentence"):
        check_variant(variant)
        self.encoded, self.variant, self._model = encoded, variant, model
        self.context: ContextMemory | None = None
        entries = cached(contexts, "target")
        if variant in DECODER_CTX and entries:
            self.context = ContextMemory(entries, model.params, "ctx.dec.",
                                         model.cfg.m_heads)

    def _source_kv(self, prefix: str) -> ad.AttentionMemory:
        """The source encoding through the wk and wv under ``prefix``."""
        states = self.encoded.states
        return project_kv(states, states, self._model.params.view(prefix),
                          self._model.cfg.m_heads,
                          len(self.encoded.token_ids.lengths))

    @cached_property
    def cross_kv(self) -> list[ad.AttentionMemory]:
        """Each decoder layer's cross-attention memory of the source
        encoding."""
        return [self._source_kv(f"dec.{i}.cross.")
                for i in range(self._model.cfg.n_layers)]

    @cached_property
    def cache_indicator(self) -> tuple[Tensor, bool]:
        """The ``cache_indicator`` of the target caches and whether any of
        their tokens may be copied."""
        ctx = self.context
        indicator = cache_indicator(ctx.token_ids, self._model.cfg.vocab_tgt,
                                    ctx.columns.shape[1])
        return Tensor._wrap(indicator), bool(indicator.any())

    @cached_property
    def copy_kv(self) -> ad.AttentionMemory:
        """The copy attention's memory of the source encoding."""
        return self._source_kv("copy.att.")


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
                          variant: str = "sentence") -> EncodedSentence:
        """``encode``, then source-side context integration under one cache
        per sentence (layers 0 and 1 of ``_layers``) in evaluation mode."""
        check_variant(variant)
        return EncodedSentence(token_ids, self._layers(
            range(2), token_ids, None, contexts, variant, (None, None),
            None, None)[0])

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
            att, _ = ad.attention(q, ad.head_kv(keys, values, bs, m),
                                  self_p["wo"], mask)
            x = self._sublayer(x, att, p.view(f"dec.{i}.ln1."), keep)
            cross_p = p.view(f"dec.{i}.cross.")
            cross, _ = ad.attention(x @ cross_p["wq"], cross_kv,
                                    cross_p["wo"], cross_mask)
            x = self._sublayer(x, cross, p.view(f"dec.{i}.ln2."), keep)
            ffn = positionwise_ffn(x, p.view(f"dec.{i}.ffn."))
            x = self._sublayer(x, ffn, p.view(f"dec.{i}.ln3."), keep)
        return x, kv_rows

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
        weights = copy_attention_weights(out.trace, *memory.cache_indicator)
        if not weights.copyable:
            return p_vocab, None, None
        # c_t: the integrated rows attend over their own source encoding
        copy_kv, att_p = memory.copy_kv, self.params.view("copy.att.")
        src = memory.encoded.token_ids
        mask = src.key_mask(out.h_tilde.data.shape[0] // len(src.lengths))
        c_rows, _ = ad.attention(out.h_tilde @ att_p["wq"], copy_kv,
                                 att_p["wo"], mask)
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
        """One pass of encoder, decoder and output layer over (source,
        target) pairs, as their padded rows -> ``Forced``.

        ``keep`` holds each pair's ``dropout_masks`` and selects training
        mode; without it the pass runs in evaluation mode.  Each side's
        masks are padded for all sites at once, one [sites, B*L, d] array
        whose pad rows keep nothing, and the pass reads one site after
        another.  ``contexts`` holds the caches of each pair's document,
        every one with the same numbers of cached sentences.  No result
        depends on the ids in pad positions.

        ``pushes`` lists the pairs whose evaluation-mode rows a later
        sentence reads; they come back as ``Forced.pushed``.  In evaluation
        mode they are the pass's own rows.  In training the layers before
        ``_split_layer`` run once over the training pairs and the pushed
        pairs stacked again behind them (the keep masks cover the leading,
        training rows).  From the split on, the training rows run on the
        tape, and the evaluation rows the same layers under ``no_grad``,
        as far as ``pushed`` needs.  A split at the embedding shares
        nothing: the evaluation rows are stacked on their own.

        The output layer runs last, over the training rows: the real rows
        are gathered before the softmax, except in the copy variant, whose
        mixture reads every row.  The pass's ``DecoderMemory`` and decoder
        rows die when it returns.
        """
        check_variant(variant)
        pushes, n = list(pushes), len(pairs)
        at = 4 if keep is None or not pushes \
            else self._split_layer(contexts, variant)
        evals = [pairs[i] for i in pushes]
        eval_contexts = None if contexts is None \
            else [contexts[i] for i in pushes]
        joint = 0 < at < 4          # the pushed pairs ride behind
        src, tgt = _stacks(pairs + evals if joint else pairs)
        feeds = (None, None) if keep is None else tuple(
            iter(_padded_masks(stack, [masks[side] for masks in keep]))
            for side, stack in enumerate((src, tgt)))
        h, y, memory, out = self._layers(
            range(at), src, tgt, contexts + eval_contexts
            if joint and contexts else contexts, variant, feeds, None, None)
        if at == 4:
            pushed = _pushed_rows(src, h, out, variant, pushes) \
                if pushes else None
        else:
            if joint:
                (src, src_e), (tgt, tgt_e) = src.split(n), tgt.split(n)
                h, h_e = _split_rows(h, len(src))
                y, y_e = (None, None) if y is None \
                    else _split_rows(y, len(tgt))
            else:
                (src_e, tgt_e), h_e, y_e = _stacks(evals), None, None
            _, _, memory, out = self._layers(range(at, 4), src, tgt,
                                             contexts, variant, feeds, h, y)
            with ad.no_grad():
                h_e, _, _, out_e = self._layers(
                    range(at, 4 if variant in DECODER_CTX else 2), src_e,
                    tgt_e, eval_contexts, variant, (None, None), h_e, y_e)
            pushed = _pushed_rows(src_e, h_e, out_e, variant, slice(None))
        rows, p_copy = tgt.rows(), None
        if variant != "copy":
            # the real rows only; the embedding gather serves for any rows
            p_w = self.output_distribution(
                ad.embedding_lookup(out.h_tilde, rows))
        else:
            p_w, p_copy, _ = self.copy_mixture(
                out, memory, self.output_distribution(out.h_tilde))
            p_w = ad.embedding_lookup(p_w, rows)
        return Forced(p_w, None if p_copy is None else p_copy.data[rows, 0],
                      [g for _, t in pairs for g in t + [EOS_ID]], pushed)

    def _split_layer(self, contexts: list[ContextState] | None,
                     variant: str) -> int:
        """The layer of ``_layers`` where a training pass's pushed pairs leave
        its stacked rows: the first that reads a trainable parameter (the
        base from the embedding on) or that they do not need (with no target
        cache, none after the source HAN)."""
        if self._trains("emb.", "enc.", "dec."):
            return 0
        if variant in ENCODER_CTX and cached(contexts, "source") \
                and self._trains("ctx.enc."):
            return 1
        return 3 if variant in DECODER_CTX else 2

    def _layers(self, layers: range, src: Stack, tgt: Stack,
                contexts: list[ContextState] | None, variant: str, feeds,
                h: Tensor | None, y: Tensor | None):
        """``layers`` of a teacher-forced pass over stacked pairs, each
        taking the rows of the one before: 0 the encoder (-> h), 1 the
        source HAN (-> h), 2 the decoder stack (-> y), 3 the target HAN
        (-> the ``DecoderMemory`` the output layers read, and the output),
        under each side's keep masks ``feeds`` (Nones in evaluation mode).
        Returns (h, y, memory, out), None for what no layer made."""
        (src_feed, tgt_feed), memory, out = feeds, None, None
        for k in layers:
            encoded = EncodedSentence(src, h)
            if k == 0:
                h = self.encode(src, src_feed)
            elif k == 1:
                entries = cached(contexts, "source")
                if variant in ENCODER_CTX and entries:
                    h, _, _ = hierarchical_context(h, ContextMemory(
                        entries, self.params, "ctx.enc.", self.cfg.m_heads))
            elif k == 2:
                y, _ = self.decode_states(tgt, DecoderMemory(self, encoded),
                                          None, tgt_feed)
            else:
                memory = DecoderMemory(self, encoded, contexts, variant)
                out = self.integrate(y, memory)
        return h, y, memory, out

    def forced_loss(self, forced: Forced
                    ) -> tuple[Tensor, int, np.ndarray | None]:
        """Summed label-smoothed cross-entropy of a teacher-forced pass's
        P_w rows against its gold ids: (loss, n_positions, each row's
        p_copy or None).

        The loss equals the sum over the pairs of ``sentence_loss`` times
        its n_positions, up to summation order.
        """
        n = len(forced.gold)
        loss = cross_entropy(forced.p_w, forced.gold, self.cfg.label_smoothing)
        return loss * float(n), n, forced.p_copy

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
        if not np.isfinite(np.concatenate(new_rows, axis=1)).all():
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
        loss = cross_entropy(forced.p_w, forced.gold, self.cfg.label_smoothing)
        mean_pc = None if forced.p_copy is None \
            else float(forced.p_copy.mean())
        return loss, len(forced.gold), mean_pc

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
            h, _ = self.decode_states(Stack.of([[BOS_ID] + out_tokens]),
                                      memory)
            states = ad.narrow(self.integrate(h, memory).h_tilde, 0, 1,
                               len(out_tokens))
        return CacheEntry(token_ids=list(out_tokens), states=states.detach())
