"""Hierarchical document context: word-level and sentence-level attention
over cached previous-sentence states, merged into the current hidden state
through a sigmoid gate.

A pass reads B documents (one when decoding), each with T query rows and n
cached sentences of K_b tokens in all; the caches are padded to the longest
one's K.  Both levels are single multi-head attentions over blocks, one
block per document:

* word level: the query rows ``h f`` are projected through ``word.wq`` and
  repeated once per sentence, so row j*T+t of a document is its query t
  for sentence j; keys and values are the document's n cached state
  matrices stacked into [K, d], and a mask lets row j*T+t see only the
  columns of sentence j (never a pad).  Row j*T+t of the output is summary
  s_j[t].  The keys and values depend only on the caches, so a
  ``ContextMemory`` projects them once and every query of a sentence reuses
  them.
* sentence level: the T rows ``h g`` attend over the [n*T, d] summaries; a
  mask lets row t see only rows j*T+t, one per sentence.

So the weights are S [B, m, T, n*T] (sentence level) and W [B, m, n*T, K]
(word level), one [rows, cols] block per document and head, with exact
zeros where masked.

Cached states are computed in eval mode and detached, so gradients reach the
context parameters only through the queries and projections of the current
sentence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..errors import ContractError
from .params import ParamStore


@dataclass
class CacheEntry:
    """One previous sentence: its token ids and final-layer state rows."""
    token_ids: list[int]
    states: Tensor  # [len, d], detached

    def __post_init__(self):
        if len(self.token_ids) != self.states.data.shape[0]:
            raise ContractError(
                f"cache entry: {len(self.token_ids)} tokens vs "
                f"{self.states.data.shape[0]} state rows")


class ContextState:
    """Sliding caches of up to n previous source / target sentences.

    Entries are ordered oldest to newest; each document starts a new state.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ContractError("context size must be >= 1")
        self.n = n
        self.source: list[CacheEntry] = []
        self.target: list[CacheEntry] = []

    def push_source(self, entry: CacheEntry) -> None:
        self.source.append(entry)
        del self.source[:-self.n]

    def push_target(self, entry: CacheEntry) -> None:
        self.target.append(entry)
        del self.target[:-self.n]


def cached(contexts: list[ContextState] | None, side: str
           ) -> list[list[CacheEntry]]:
    """The ``side`` ("source" or "target") entries of each document's
    cache, one list per document; empty when nothing is cached."""
    docs = [getattr(c, side) for c in contexts or ()]
    return docs if any(docs) else []


@dataclass
class AttentionTrace:
    """Post-softmax context attention weights of B documents' T query
    positions, in the block layout of the module docstring.

    sent is [B, m, T, n*T] and word is [B, m, n*T, K]; token_ids[b][j]
    lists the cached token ids of document b's sentence j.  Every weight
    row sums to 1.
    """
    token_ids: list[list[list[int]]]
    sent: Tensor
    word: Tensor

    @property
    def m(self) -> int:
        return self.sent.data.shape[-3]

    @property
    def n_sents(self) -> int:
        return self.sent.data.shape[-1] // self.n_positions

    @property
    def n_positions(self) -> int:
        return self.sent.data.shape[-2]


class ContextMemory:
    """The cached sentences of one side, prepared once for many queries:
    their token ids, the side's parameter views (``params.view(prefix)``
    and its ``word.``, ``sent.`` and ``ffn.`` groups), the head count, the
    word-level memory (the stacked states through ``word.wk`` /
    ``word.wv``, split into heads once, an ``autodiff.AttentionMemory``),
    and, built once per number T of query rows per document, the
    attention layout of T queries (``layout``).

    It takes one entry list per document, every document with the same
    number of sentences.  Block b of the [B*K, d] keys and values holds
    document b's cached rows, zero-padded to the longest cache's K.
    ``columns`` [B, K] gives the cached sentence of each key column, -1 at
    pads.

    ``len()`` is the number of cached sentences.
    """

    def __init__(self, docs: list[list[CacheEntry]], params: ParamStore,
                 prefix: str, m: int):
        from .transformer import project_kv

        self.n = len(docs[0]) if docs else 0
        if not self.n or any(len(doc) != self.n for doc in docs):
            raise ContractError("context memory needs the same non-zero "
                                "number of cached sentences per document")
        self.token_ids = [[list(e.token_ids) for e in doc] for doc in docs]
        lens = [[len(ids) for ids in doc] for doc in self.token_ids]
        width = max(map(sum, lens))
        self.columns = columns = np.full((len(docs), width), -1)
        rows = np.zeros((len(docs), width, docs[0][0].states.data.shape[1]))
        for b, doc in enumerate(docs):
            k = sum(lens[b])
            columns[b, :k] = np.repeat(np.arange(self.n), lens[b])
            rows[b, :k] = np.concatenate([e.states.data for e in doc])
        self.p, self.m = params.view(prefix), m
        self.word_p = params.view(prefix + "word.")
        self.sent_p = params.view(prefix + "sent.")
        self.ffn_p = params.view(prefix + "ffn.")
        states = Tensor._wrap(rows.reshape(-1, rows.shape[-1]))
        self.word_kv = project_kv(states, states, self.word_p, m, len(docs))
        self._layouts: dict[int, tuple] = {}

    def __len__(self) -> int:
        return self.n

    @property
    def n_docs(self) -> int:
        return self.columns.shape[0]

    def layout(self, t: int) -> tuple[np.ndarray | None, np.ndarray,
                                      np.ndarray]:
        """For T = ``t`` query rows per document: the query row that each
        word-level row repeats (None for one cached sentence, where no row
        repeats), the word-level mask [B, n*T, K] and the sentence-level
        mask [B, T, n*T] (see the module docstring); built on first use."""
        if t not in self._layouts:
            n, b = self.n, self.n_docs
            repeat = None
            if n > 1:                # row (b, j, t) is query row b*T + t
                rows = np.arange(b)[:, None, None] * t + np.arange(t)
                repeat = rows.repeat(n, axis=1).ravel()
            word = np.repeat(np.arange(n), t)[:, None] \
                != self.columns[..., None, :]
            sent = (np.arange(t)[:, None] != np.arange(n * t) % t)[None]
            self._layouts[t] = (repeat, word, sent.repeat(b, axis=0))
        return self._layouts[t]


def word_level_context(h: Tensor, memory: ContextMemory
                       ) -> tuple[Tensor, Tensor]:
    """Attend the word-level query into every cached sentence at once.

    Returns the summaries [B*n*T, d] (row j*T+t of block b is document b's
    s_j[t]) and the weights [B, m, n*T, K].
    """
    repeat, mask, _ = memory.layout(h.data.shape[0] // memory.n_docs)
    queries = (h @ memory.p["f"]) @ memory.word_p["wq"]     # projected once
    if repeat is not None:
        queries = ad.embedding_lookup(queries, repeat)
    return ad.attention(queries, memory.word_kv, memory.word_p["wo"], mask)


def sentence_level_context(h: Tensor, summaries: Tensor, memory: ContextMemory
                           ) -> tuple[Tensor, Tensor]:
    """Attend the sentence-level query over the summaries, then FFN.

    Row t sees only its own document's summary rows j*T+t.  Returns d_t
    rows [B*T, d] and the sentence weights [B, m, T, n*T].
    """
    from .transformer import multi_head_attention, positionwise_ffn

    _, _, mask = memory.layout(h.data.shape[0] // memory.n_docs)
    attended, sent_weights = multi_head_attention(
        h @ memory.p["g"], summaries, summaries, memory.sent_p, memory.m,
        mask=mask)
    return positionwise_ffn(attended, memory.ffn_p), sent_weights


def gate_integrate(h: Tensor, d_rows: Tensor, p: dict[str, Tensor]
                   ) -> tuple[Tensor, Tensor]:
    """lam = sigmoid(h Wh + d Wd); returns (lam*h + (1-lam)*d, lam), one
    ``autodiff.gated_sum`` node (lam carries no gradient)."""
    return ad.gated_sum(h, d_rows, p["gate.wh"], p["gate.wd"])


def hierarchical_context(h: Tensor, memory: ContextMemory
                         ) -> tuple[Tensor, Tensor, AttentionTrace]:
    """Full context pass over a prepared, non-empty cache memory.

    h holds B documents' T rows each, as do the integrated rows h~ and the
    context rows d_t; returns (h~, d_t, trace).  Callers must take the skip
    path when the cache is empty.
    """
    summaries, word_w = word_level_context(h, memory)
    d_rows, sent_w = sentence_level_context(h, summaries, memory)
    mixed, _ = gate_integrate(h, d_rows, memory.p)
    trace = AttentionTrace(token_ids=memory.token_ids, sent=sent_w,
                           word=word_w)
    return mixed, d_rows, trace
