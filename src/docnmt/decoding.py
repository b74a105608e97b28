"""Greedy and beam search over documents with cross-sentence caches.

Decoding is incremental and beam-batched.  Per sentence the model builds
one ``DecoderMemory`` (the projections of the source encoding and of the
cached context); each hypothesis carries a ``DecoderState`` of its rows so
far, and one ``step_distribution`` call per search round computes one new
row for every live hypothesis at once.

Sentences are decoded in order; after each one the source encoding and the
decoder rows of the *model's own output* are pushed into the context
caches, so later sentences can attend to (and copy from) what the model
actually produced.  Those rows are the chosen hypothesis's h~ rows, kept by
the search; nothing is decoded a second time.  Caches reset at document
boundaries.  Beam search shares one cache per document: by the time a
cache entry exists its sentence is finished, so hypotheses never see
divergent context.

One translated sentence is the unit of numerical checking
(``autodiff.replayed``; training's unit is the epoch): its encoding under
the caches, its ``DecoderMemory`` and its whole search run without a tape
and with the per-op finite checks off.  Each search step checks instead
that its distributions and the state rows it adds are finite
(``DocModel.step_distribution``).  When that check, or any other, raises
``NumericalError``, the sentence runs once more from its encoding with the
per-op checks on.  The replay is exact: decoding is deterministic and the
caches change only after a sentence finishes.  So the error names the op
that first made a non-finite value, as a fully checked run would; should
the replay pass, the first error (which names the step) is raised.  A
document whose parameters are not all finite is decoded with the per-op
checks on throughout: a saturating op (a sigmoid of inf is 1) could hide
such a value from the step check.  With finite parameters an inf needs an
overflow, which the layer norms bound unless weights reach about 1e150.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError
from .model.han import CacheEntry, ContextState
from .model.model import (DECODER_CTX, ENCODER_CTX, DecoderMemory, DocModel,
                          Stack, check_variant)
from .tokens import BOS_ID, EOS_ID, PAD_ID

_LOG_FLOOR = 1e-300


@dataclass
class StepTrace:
    """Distribution snapshot for one decode step (for debug dumps)."""
    p_copy: float | None
    top_vocab: list[tuple[int, float]]
    top_alpha: list[tuple[int, float]] | None
    top_pw: list[tuple[int, float]]


@dataclass
class BeamHypothesis:
    tokens: list[int]                      # BOS-prefixed
    log_prob: float = 0.0
    traces: list[StepTrace] = field(default_factory=list)
    state: object = None                   # the step function's, opaque here

    @property
    def finished(self) -> bool:
        return len(self.tokens) > 1 and self.tokens[-1] == EOS_ID

    def n_generated(self) -> int:
        return len(self.tokens) - 1

    def score(self, length_penalty: float) -> float:
        norm = max(1, self.n_generated()) ** length_penalty
        return self.log_prob / norm


@dataclass
class SearchConfig:
    width: int = 1
    length_penalty: float = 0.0
    collect_traces: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ContractError(f"beam width must be >= 1, got {self.width}")
        if not 0.0 <= self.length_penalty < math.inf:   # nan fails too
            raise ContractError(f"length_penalty must be finite and >= 0, "
                                f"got {self.length_penalty}")


def _top5(vec: np.ndarray | None) -> list[tuple[int, float]] | None:
    if vec is None:
        return None
    order = np.argsort(-vec, kind="stable")[:5]
    return [(int(i), float(vec[i])) for i in order]


def _make_trace(result) -> StepTrace:
    return StepTrace(p_copy=result.p_copy, top_vocab=_top5(result.p_vocab),
                     top_alpha=_top5(result.alpha_vocab),
                     top_pw=_top5(result.p_w))


def _extend(hypo: BeamHypothesis, result, tokens: list[int],
            collect_traces: bool) -> list[BeamHypothesis]:
    """``hypo`` continued by each of ``tokens``, at the floored
    log-probabilities of ``result.p_w``, with ``result.state`` and (when
    collected) its step trace."""
    logs = np.log(np.maximum(result.p_w, _LOG_FLOOR))
    traces = hypo.traces + [_make_trace(result)] if collect_traces \
        else hypo.traces
    return [BeamHypothesis(tokens=hypo.tokens + [tid],
                           log_prob=hypo.log_prob + float(logs[tid]),
                           traces=traces, state=result.state)
            for tid in tokens]


def beam_step(hypotheses: list[BeamHypothesis], results, width: int,
              length_penalty: float = 0.0,
              collect_traces: bool = False) -> list[BeamHypothesis]:
    """One expansion round: top-``width`` continuations per live hypothesis,
    then the global top-``width`` by length-normalized score.  Finished
    hypotheses carry over unexpanded; ties break by (parent, token id), so
    the result is deterministic and width 1 reproduces greedy argmax.  No
    hypothesis takes PAD or BOS, which are not words (UNK is one), and a
    hypothesis that holds only BOS does not take EOS, so no translation is
    empty.

    ``results`` holds one step result (``p_w``, ``state``, and for traces
    ``p_vocab``, ``p_copy`` and ``alpha_vocab``) per live hypothesis, in
    order.
    """
    if width < 1:
        raise ContractError("beam width must be >= 1")
    results = iter(results)
    ranked: list[tuple[tuple, BeamHypothesis]] = []
    for pi, hypo in enumerate(hypotheses):
        if hypo.finished:
            ranked.append(((-hypo.score(length_penalty), pi, -1), hypo))
            continue
        result = next(results)
        order = np.argsort(-result.p_w, kind="stable")
        words = (order != PAD_ID) & (order != BOS_ID)
        if len(hypo.tokens) == 1:
            words &= order != EOS_ID
        top = order[words][:width].tolist()
        ranked += [((-new.score(length_penalty), pi, new.tokens[-1]), new)
                   for new in _extend(hypo, result, top, collect_traces)]
    ranked.sort(key=lambda kv: kv[0])
    return [h for _, h in ranked[:width]]


def _force_finish(hypotheses: list[BeamHypothesis], results,
                  collect_traces: bool) -> list[BeamHypothesis]:
    """Length cap reached: close every live hypothesis with EOS at its real
    probability, from its step result in ``results`` (one per live
    hypothesis, in order), keeping the score = sum of chosen log-probs
    invariant."""
    results = iter(results)
    out = []
    for hypo in hypotheses:
        out += [hypo] if hypo.finished else \
            _extend(hypo, next(results), [EOS_ID], collect_traces)
    return out


def search(step_fn, max_steps: int, config: SearchConfig
           ) -> list[BeamHypothesis]:
    """Run beam search from a bare BOS prefix; returns hypotheses sorted
    best-first by length-normalized score.

    Each round makes one ``step_fn`` call, which takes the list of live
    hypotheses and returns one step result per hypothesis, in order.
    Rounds stop when no hypothesis is live; round ``max_steps`` (the
    length cap) closes the live ones with EOS.
    """
    hypos = [BeamHypothesis(tokens=[BOS_ID])]
    for step in range(max_steps + 1):
        live = [h for h in hypos if not h.finished]
        if not live:
            break
        if step < max_steps:
            hypos = beam_step(hypos, step_fn(live), config.width,
                              config.length_penalty, config.collect_traces)
        else:
            hypos = _force_finish(hypos, step_fn(live), config.collect_traces)
    order = sorted(range(len(hypos)),
                   key=lambda i: (-hypos[i].score(config.length_penalty), i))
    return [hypos[i] for i in order]


def _strip(hypo: BeamHypothesis) -> list[int]:
    toks = hypo.tokens[1:]
    if toks and toks[-1] == EOS_ID:
        toks = toks[:-1]
    return toks


def translate_sentence(model: DocModel, encoded, context: ContextState,
                       variant: str, config: SearchConfig
                       ) -> tuple[list[int], list[StepTrace], np.ndarray]:
    """Search one encoded sentence under its document's caches; returns its
    tokens, its step traces and the h~ rows [len(tokens), d] the search
    computed for them.

    The length cap keeps the forced-EOS step's prefix within ``max_len``.
    """
    max_steps = min(2 * len(encoded.token_ids) + 10, model.cfg.max_len - 1)
    memory = DecoderMemory(model, encoded, [context], variant)

    def step_fn(hypos):
        return model.step_distribution([h.tokens for h in hypos], memory,
                                       [h.state for h in hypos])

    best = search(step_fn, max_steps, config)[0]
    tokens = _strip(best)
    return tokens, best.traces, best.state.h_tilde[1:1 + len(tokens)]


def update_context(context: ContextState, variant: str, src_ids: list[int],
                   src_rows: np.ndarray, out_tokens: list[int],
                   rows: np.ndarray | None) -> None:
    """Push a finished sentence into the caches the variant consumes: its
    source ids with a copy of their encoder rows [len(src_ids), d], and its
    output tokens with their decoder h~ rows [len(out_tokens), d] as given.
    Both are evaluation-mode rows computed under the context the sentence
    was decoded with: the search's for the model's own output, a stacked
    teacher-forced pass's for a gold sentence in training and validation.
    Variants without target caches do not read ``rows``."""
    if variant in ENCODER_CTX:
        context.push_source(CacheEntry(token_ids=list(src_ids),
                                       states=Tensor._wrap(src_rows.copy())))
    if variant in DECODER_CTX and out_tokens:
        context.push_target(CacheEntry(token_ids=list(out_tokens),
                                       states=Tensor._wrap(rows)))


def translate_document(model: DocModel, src_sentences: list[list[int]],
                       variant: str, config: SearchConfig | None = None
                       ) -> tuple[list[list[int]], list[list[StepTrace]]]:
    """Translate one document sentence-by-sentence with fresh caches."""
    check_variant(variant)
    config = config or SearchConfig()
    context = ContextState(model.cfg.n_context)
    params_finite = all(np.isfinite(t.data).all()
                        for _, t in model.params.items())
    outputs: list[list[int]] = []
    all_traces: list[list[StepTrace]] = []

    def sentence(src):
        encoded = model.contextual_encode(Stack.of([src]), [context], variant)
        return (encoded,) + translate_sentence(model, encoded, context,
                                               variant, config)

    for src in src_sentences:
        if not src:
            raise DataError("cannot translate an empty source sentence")
        with ad.no_grad():
            encoded, out_tokens, traces, rows = ad.replayed(
                lambda: sentence(src), params_finite, None)
        update_context(context, variant, src, encoded.states.data,
                       out_tokens, rows)
        outputs.append(out_tokens)
        all_traces.append(traces)
    return outputs, all_traces


def translate_corpus(model: DocModel, documents: list[list[list[int]]],
                     variant: str, config: SearchConfig | None = None):
    """Documents are independent; caches reset at every boundary."""
    outs = []
    traces = []
    for doc in documents:
        o, t = translate_document(model, doc, variant, config)
        outs.append(o)
        traces.append(t)
    return outs, traces
