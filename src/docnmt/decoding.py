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

One translated sentence is the unit of numerical checking: its encoding
under the caches, its ``DecoderMemory`` and its whole search run without a
tape and with the per-op finite checks off (``autodiff.unchecked``).  Each
search step checks instead that its distributions and the state rows it
adds are finite (``DocModel.step_distribution``).  When that check, or any
other, raises ``NumericalError``, the sentence runs once more from its
encoding with the per-op checks on.  The replay is exact: decoding is
deterministic and the caches change only after a sentence finishes.  So
the error names the op that first made a non-finite value, as a fully
checked run would; should the replay pass, the first error (which names
the step) is raised.  A document whose parameters are not all finite is
decoded with the per-op checks on throughout: a saturating op (a sigmoid
of inf is 1) could hide such a value from the step check.  With finite
parameters an inf needs an overflow, which the layer norms bound unless
weights reach about 1e150.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DataError, NumericalError
from .model.han import CacheEntry, ContextState
from .model.model import (DECODER_CTX, ENCODER_CTX, DecoderMemory, DocModel,
                          Stack, check_variant)
from .tokens import BOS_ID, EOS_ID

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
        if self.length_penalty < 0:
            raise ContractError(f"length_penalty must be >= 0, got "
                                f"{self.length_penalty}")


def _top5(vec: np.ndarray) -> list[tuple[int, float]]:
    order = np.argsort(-vec, kind="stable")[:5]
    return [(int(i), float(vec[i])) for i in order]


def _make_trace(result) -> StepTrace:
    if result.copy is not None:
        return StepTrace(p_copy=result.copy.p_copy,
                         top_vocab=_top5(result.copy.p_vocab),
                         top_alpha=_top5(result.copy.alpha_vocab),
                         top_pw=_top5(result.p_w))
    return StepTrace(p_copy=None, top_vocab=_top5(result.p_w),
                     top_alpha=None, top_pw=_top5(result.p_w))


def beam_step(hypotheses: list[BeamHypothesis], step_fn, width: int,
              length_penalty: float = 0.0,
              collect_traces: bool = False) -> list[BeamHypothesis]:
    """One expansion round: top-``width`` continuations per live hypothesis,
    then the global top-``width`` by length-normalized score.  Finished
    hypotheses carry over unexpanded; ties break by (parent, token id), so
    the result is deterministic and width 1 reproduces greedy argmax.

    ``step_fn`` takes the list of live hypotheses and returns one result
    (``p_w``, ``copy``, ``state``) per hypothesis, in order.
    """
    if width < 1:
        raise ContractError("beam width must be >= 1")
    live = [h for h in hypotheses if not h.finished]
    if not live:
        return list(hypotheses)
    results = iter(step_fn(live))
    ranked: list[tuple[tuple, BeamHypothesis]] = []
    for pi, hypo in enumerate(hypotheses):
        if hypo.finished:
            ranked.append(((-hypo.score(length_penalty), pi, -1), hypo))
            continue
        result = next(results)
        p_w = result.p_w
        logs = np.log(np.maximum(p_w, _LOG_FLOOR))
        traces = hypo.traces + [_make_trace(result)] if collect_traces \
            else hypo.traces
        for tid in np.argsort(-p_w, kind="stable")[:width]:
            tid = int(tid)
            new = BeamHypothesis(tokens=hypo.tokens + [tid],
                                 log_prob=hypo.log_prob + float(logs[tid]),
                                 traces=traces, state=result.state)
            ranked.append(((-new.score(length_penalty), pi, tid), new))
    ranked.sort(key=lambda kv: kv[0])
    return [h for _, h in ranked[:width]]


def _force_finish(hypotheses: list[BeamHypothesis], step_fn,
                  collect_traces: bool) -> list[BeamHypothesis]:
    """Length cap reached: close every live hypothesis with EOS at its real
    probability, keeping the score = sum of chosen log-probs invariant."""
    live = [h for h in hypotheses if not h.finished]
    results = iter(step_fn(live) if live else [])
    out = []
    for hypo in hypotheses:
        if hypo.finished:
            out.append(hypo)
            continue
        result = next(results)
        logs = np.log(np.maximum(result.p_w, _LOG_FLOOR))
        traces = hypo.traces + [_make_trace(result)] if collect_traces \
            else hypo.traces
        out.append(BeamHypothesis(tokens=hypo.tokens + [EOS_ID],
                                  log_prob=hypo.log_prob + float(logs[EOS_ID]),
                                  traces=traces, state=result.state))
    return out


def search(step_fn, max_steps: int, config: SearchConfig
           ) -> list[BeamHypothesis]:
    """Run beam search from a bare BOS prefix; returns hypotheses sorted
    best-first by length-normalized score."""
    hypos = [BeamHypothesis(tokens=[BOS_ID])]
    for _ in range(max_steps):
        if all(h.finished for h in hypos):
            break
        hypos = beam_step(hypos, step_fn, config.width,
                          config.length_penalty, config.collect_traces)
    hypos = _force_finish(hypos, step_fn, config.collect_traces)
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


def update_context(model: DocModel, context: ContextState, encoded,
                   out_tokens: list[int], variant: str,
                   rows: np.ndarray | None) -> None:
    """Push a finished sentence (``encoded`` holds its source alone) into
    the caches the variant consumes.

    ``rows`` are the evaluation-mode decoder rows [len(out_tokens), d] of
    ``out_tokens``, computed under the context the sentence was decoded
    with: the search's for the model's own output, a teacher-forced pass's
    for a gold sentence in training.  Variants without target caches do
    not read them."""
    if variant in ENCODER_CTX:
        context.push_source(model.source_cache_entry(encoded))
    if variant in DECODER_CTX and out_tokens:
        context.push_target(CacheEntry(token_ids=list(out_tokens),
                                       states=Tensor._wrap(rows)))


def _checked_unit(unit, unchecked: bool):
    """``unit()``, without the per-op finite checks if ``unchecked``; a
    ``NumericalError`` then replays it with them on (see the module
    docstring)."""
    if not unchecked:
        return unit()
    try:
        with ad.unchecked():
            return unit()
    except NumericalError as err:
        unit()      # raises the error of the op that made the value
        raise err


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
        encoded, _ = model.contextual_encode(Stack.of([src]), [context],
                                             variant)
        return (encoded,) + translate_sentence(model, encoded, context,
                                               variant, config)

    for src in src_sentences:
        if not src:
            raise DataError("cannot translate an empty source sentence")
        with ad.no_grad():
            encoded, out_tokens, traces, rows = _checked_unit(
                lambda: sentence(src), params_finite)
        update_context(model, context, encoded, out_tokens, variant, rows)
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
