"""Staged training: sentence-level base, then context fine-tuning stages.

The stages are the rows of ``STAGES``: the variant each trains, the
parameter groups it unfreezes and those its starting checkpoint must hold.
The base stage starts from initialization and trains on one-sentence
documents, the others start from a checkpoint and train on documents.
Everything outside the stage's groups stays frozen.  Each batch from
``make_batches`` is one Adam step on the gradient of its summed token loss,
divided by its token count.

Every stage runs a batch as a document wavefront.  Position s runs
sentence s of every document of the batch that has one, as stacked passes
grouped by the documents' numbers of cached sentences (the block layout of
the context attention needs one n per pass) and cut by ``stack_groups``
into groups of at most ``MAX_STACK_ROWS`` padded rows on each side.  Each
document keeps its own ``ContextState``; one that continues into the next
batch carries it there.  A group is one forward and backward.  Then the documents whose
sentence s a later sentence reads get its *gold* cache entries from one
stacked evaluation pass, pushed through the same ``decoding.update_context``
that pushes the model's own outputs at decode time.  A document's last
sentence is not pushed, as nothing reads it, so the base stage runs no such
pass.  The dropout keep masks of every sentence are drawn from the epoch's
generator before the batch runs, in batch order, so they are the masks a
per-sentence loop would draw; parameters change only between batches, so
the wavefront computes what a sentence-by-sentence loop over the documents
would, up to summation order.  Validation runs the same wavefront without
gradients, one evaluation pass per group serving both the loss and the
cache entries.

The model with the lowest validation loss across epochs is returned;
epoch 0 is the pre-training validation pass, so a zero-epoch run returns
the initialization unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BatchItem, DocumentCorpus, Vocabulary, make_batches
from .decoding import update_context
from .errors import ContractError, DataError, NumericalError, TrainingDiverged
from .model import DocModel, ModelConfig, ParamStore
from .model.copy import copyable
from .model.han import ContextState
from .model.model import DECODER_CTX, EncodedSentence, Stack


class Stage(NamedTuple):
    variant: str                 # the model variant the stage trains
    trains: frozenset[str]       # parameter groups it unfreezes
    requires: frozenset[str]     # groups its starting checkpoint holds


STAGES: dict[str, Stage] = {
    name: Stage(variant, frozenset(trains.split()),
                frozenset(requires.split()))
    for name, variant, trains, requires in (
        ("base", "sentence", "base", ""),
        ("han-encoder", "han-encoder", "ctx_enc", "base"),
        ("han-decoder", "han-decoder", "ctx_dec", "base"),
        ("han-joint", "han-joint", "ctx_dec", "base ctx_enc"),
        ("copy", "copy", "ctx_dec copy", "base ctx_enc"),
    )}


def checkpoint_variant(groups) -> str:
    """The variant of the stage whose checkpoints hold exactly ``groups``
    (its trained plus its required groups)."""
    for stage in STAGES.values():
        if stage.trains | stage.requires == set(groups):
            return stage.variant
    raise DataError(f"no training stage produces a checkpoint with trained "
                    f"groups {sorted(groups)}")


# Padded rows per side (sentences x the group's longest source, or BOS +
# target) of one stacked pass: enough to spread each op's interpreter cost
# over several sentences, few enough that a pass's tape stays small.  On
# the train-base benchmark (2-core x86-64 host), 64 rows ran 4.2 times as
# fast as the per-sentence loop at 7 % more peak memory; 96 rows reached
# the benchmark's 10 % memory bound, whole 320-token batches 41 %.
MAX_STACK_ROWS = 64


@dataclass
class TrainConfig:
    stage: str = "base"
    epochs: int = 15
    max_tokens: int = 320          # per-batch target-token budget
    max_len: int = 64
    lr: float = 3e-4               # constant rate for fine-tuning stages
    warmup_steps: int = 200        # base-stage inverse-sqrt schedule
    lr_scale: float = 1.0
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ContractError(
                f"unknown stage {self.stage!r} (expected {tuple(STAGES)})")
        if self.epochs < 0 or self.warmup_steps < 1:
            raise ContractError(f"need epochs >= 0 and warmup_steps >= 1, got "
                                f"{self.epochs} and {self.warmup_steps}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ContractError("val_fraction outside [0, 1)")


@dataclass
class EpochRecord:
    stage: str
    epoch: int
    train_loss: float | None     # None for the epoch-0 validation pass
    val_loss: float
    mean_p_copy: float | None

    def line(self) -> str:
        train = "-" if self.train_loss is None else f"{self.train_loss:.6f}"
        pc = "-" if self.mean_p_copy is None else f"{self.mean_p_copy:.6f}"
        return f"{self.stage}\t{self.epoch}\t{train}\t{self.val_loss:.6f}\t{pc}"


@dataclass
class TrainResult:
    store: ParamStore
    model_cfg: ModelConfig
    trained_groups: set[str]
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def best_val_loss(self) -> float:
        return min(r.val_loss for r in self.history)


class Adam:
    """Adam with bias correction, betas (0.9, 0.999) and eps 1e-8."""

    def __init__(self, store: ParamStore):
        self.store = store
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.store.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def inverse_sqrt_lr(step: int, d_model: int, warmup: int,
                    scale: float = 1.0) -> float:
    """Warmup then decay: scale * d^-0.5 * min(step^-0.5, step * warmup^-1.5)."""
    if step < 1:
        raise ContractError("schedule steps are 1-based")
    return scale * d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def split_corpus(corpus: DocumentCorpus, val_fraction: float, seed: int
                 ) -> tuple[DocumentCorpus, DocumentCorpus]:
    """Document-level split that keeps at least one training document; a
    1-document corpus validates on itself."""
    n = corpus.n_documents
    n_val = min(int(round(n * val_fraction)), n - 1)
    if n_val < 1:
        return corpus, corpus
    order = np.random.default_rng([seed, 7001]).permutation(n)
    val_idx = set(int(i) for i in order[:n_val])
    tr_docs, tr_ids, va_docs, va_ids = [], [], [], []
    for i in range(n):
        (va_docs if i in val_idx else tr_docs).append(corpus.documents[i])
        (va_ids if i in val_idx else tr_ids).append(corpus.doc_ids[i])
    return (DocumentCorpus(tr_docs, tr_ids), DocumentCorpus(va_docs, va_ids))


def _encode_corpus(corpus: DocumentCorpus, src_vocab: Vocabulary,
                   tgt_vocab: Vocabulary, max_len: int
                   ) -> list[list[tuple[list[int], list[int]]]]:
    """Id sequences truncated to ``max_len``, as ``make_batches`` does."""
    return [[(src_vocab.encode(s)[:max_len], tgt_vocab.encode(t)[:max_len])
             for s, t in doc] for doc in corpus.documents]


def stack_groups(pairs: list[tuple[list[int], list[int]]]) -> list[list[int]]:
    """Indices of ``pairs`` sorted by target then source length, cut into
    groups whose padded rows stay within ``MAX_STACK_ROWS`` on each side
    (sources, and BOS + targets, padded to the group's longest); a longer
    pair forms a group alone."""
    order = sorted(range(len(pairs)),
                   key=lambda i: (len(pairs[i][1]), len(pairs[i][0])))
    groups: list[list[int]] = []
    width = 0                          # the current group's widest side
    for i in order:
        pair_width = max(len(pairs[i][0]), len(pairs[i][1]) + 1)
        grown = max(width, pair_width)
        if groups and (len(groups[-1]) + 1) * grown <= MAX_STACK_ROWS:
            groups[-1].append(i)
            width = grown
        else:
            groups.append([i])
            width = pair_width
    return groups


@dataclass
class _Doc:
    """Consecutive sentences of one document and the caches they read."""
    context: ContextState
    pairs: list[tuple[list[int], list[int]]] = field(default_factory=list)
    ends: bool = True            # its last pair is the document's last

    def pushes(self, s: int) -> bool:
        """Whether a later sentence reads sentence s's cache entry."""
        return s + 1 < len(self.pairs) or not self.ends


def _batch_documents(batch: list[BatchItem], carried: _Doc | None,
                     n_context: int) -> list[_Doc]:
    """A document batch as its documents' runs of sentences, in batch
    order; a run that continues ``carried`` (the previous batch's last
    document) reads and extends its caches."""
    docs: list[_Doc] = []
    for item in batch:
        if item.doc_start or not docs:
            continues = carried is not None and not item.doc_start
            docs.append(_Doc(carried.context if continues
                             else ContextState(n_context)))
        docs[-1].pairs.append((item.src_ids, item.tgt_ids))
        docs[-1].ends = item.doc_end
    return docs


def _wavefront(docs: list[_Doc]):
    """Yield (s, indices of ``docs``) for each stacked pass over sentence
    s of the documents that have one: grouped by their numbers of cached
    sentences (and, for the copy mixture, whether anything cached may be
    copied), then cut by ``stack_groups``.  The caches are read when s
    starts, so the passes of s may push entries that s + 1 reads."""
    for s in range(max((len(d.pairs) for d in docs), default=0)):
        by_cache: dict[tuple, list[int]] = {}
        for i, d in enumerate(docs):
            if s < len(d.pairs):
                c = d.context
                key = (len(c.source), len(c.target), copyable(c.target))
                by_cache.setdefault(key, []).append(i)
        for group in by_cache.values():
            for part in stack_groups([docs[i].pairs[s] for i in group]):
                yield s, [group[k] for k in part]


def _push_gold(model: DocModel, docs: list[_Doc], s: int, variant: str,
               encoded: EncodedSentence, h_tilde: Tensor | None) -> None:
    """Cache gold sentence s of each document that a later sentence reads,
    the way decoding caches its own output: from the evaluation-mode rows
    of a stacked pass over ``docs`` (encoder rows and, when the variant
    caches targets, the decoder's h~ rows)."""
    src_width = encoded.token_ids.width
    for b, d in enumerate(docs):
        if not d.pushes(s):
            continue
        src_ids, tgt_ids = d.pairs[s]
        at, end = b * src_width, b * src_width + len(src_ids)
        source = EncodedSentence(Stack.of([encoded.token_ids.ids[at:end]]),
                                 Tensor._wrap(encoded.states.data[at:end]))
        rows = None
        if h_tilde is not None:     # rows of BOS + target; BOS dropped
            at = b * (h_tilde.data.shape[0] // len(docs)) + 1
            rows = h_tilde.data[at:at + len(tgt_ids)]
        update_context(model, d.context, source,
                       model.clip_ids(tgt_ids, "tgt"), variant, rows)


def _gold_pass(model: DocModel, docs: list[_Doc], s: int,
               variant: str) -> None:
    """One stacked evaluation pass over sentence s of ``docs``, whose
    entries a later sentence reads, then ``_push_gold``; variants without
    target caches run the encoder only."""
    pairs, contexts = [d.pairs[s] for d in docs], [d.context for d in docs]
    with ad.no_grad():
        if variant in DECODER_CTX:
            forced = model.teacher_force(pairs, None, contexts, variant)
            encoded, h_tilde = forced.memory.encoded, forced.out.h_tilde
        else:
            encoded, _ = model.contextual_encode(
                Stack.of([src for src, _ in pairs]), contexts, variant)
            h_tilde = None
    _push_gold(model, docs, s, variant, encoded, h_tilde)


def _evaluate(model: DocModel, docs, variant: str,
              n_context: int) -> tuple[float, float | None]:
    """Validation loss (and mean p_copy) under teacher-forced context."""
    wave = [_Doc(ContextState(n_context), list(doc)) for doc in docs]
    total = 0.0
    n_tokens = 0
    pc_sum = 0.0
    pc_tokens = 0
    for s, group in _wavefront(wave):
        group_docs = [wave[i] for i in group]
        with ad.no_grad():
            forced = model.teacher_force(
                [d.pairs[s] for d in group_docs], None,
                [d.context for d in group_docs], variant)
            loss, n, p_copy = model.forced_loss(forced)
        total += float(loss.data)
        n_tokens += n
        if p_copy is not None:
            pc_sum += float(p_copy.sum())
            pc_tokens += n
        _push_gold(model, group_docs, s, variant, forced.memory.encoded,
                   forced.out.h_tilde)
    mean_pc = pc_sum / pc_tokens if pc_tokens else None
    return total / max(n_tokens, 1), mean_pc


def _document_passes(model: DocModel, docs: list[_Doc], variant: str,
                     rng: np.random.Generator):
    """Yield (summed loss, n_positions) of each stacked pass of a document
    batch's wavefront, then push the group's gold entries; the dropout
    masks of all its sentences are drawn first, in batch order."""
    keep = [[model.dropout_masks(len(src), len(tgt), rng)
             for src, tgt in d.pairs] for d in docs]
    for s, group in _wavefront(docs):
        group_docs = [docs[i] for i in group]
        forced = model.teacher_force(
            [d.pairs[s] for d in group_docs], [keep[i][s] for i in group],
            [d.context for d in group_docs], variant)
        loss, n, _ = model.forced_loss(forced)
        yield loss, n
        pushing = [d for d in group_docs if d.pushes(s)]
        if pushing:
            _gold_pass(model, pushing, s, variant)


def _train_epoch(model: DocModel, optimizer: Adam, corpus: DocumentCorpus,
                 src_vocab: Vocabulary, tgt_vocab: Vocabulary, variant: str,
                 tcfg: TrainConfig, epoch: int, step: int, max_len: int
                 ) -> tuple[float, int]:
    """One epoch of Adam steps, one per batch; returns (mean train loss,
    the step count after it)."""
    store = model.params
    batches, _ = make_batches(corpus, src_vocab, tgt_vocab,
                              tcfg.max_tokens, max_len,
                              seed=int(np.random.default_rng(
                                  [tcfg.seed, epoch]).integers(2**31)))
    drop_rng = np.random.default_rng([tcfg.seed, 1_000_000 + epoch])
    docs: list[_Doc] = []
    epoch_loss = 0.0
    epoch_tokens = 0
    for batch in batches:
        store.zero_grad()
        batch_tokens = 0
        docs = _batch_documents(batch, docs[-1] if docs else None,
                                model.cfg.n_context)
        for loss, n in _document_passes(model, docs, variant, drop_rng):
            value = float(loss.data)
            if not math.isfinite(value):
                raise NumericalError(f"non-finite loss at epoch {epoch}")
            ad.backward(loss)
            epoch_loss += value
            epoch_tokens += n
            batch_tokens += n
        inv = 1.0 / max(batch_tokens, 1)
        for _, p in store.trainable():
            if p.grad is not None:
                p.grad *= inv
        step += 1
        lr = tcfg.lr if tcfg.stage != "base" else inverse_sqrt_lr(
            step, model.cfg.d_model, tcfg.warmup_steps, tcfg.lr_scale)
        optimizer.step(lr)
    return epoch_loss / max(epoch_tokens, 1), step


def _run_stage(start: tuple[ParamStore, ModelConfig, set[str]],
               corpus: DocumentCorpus, src_vocab: Vocabulary,
               tgt_vocab: Vocabulary, tcfg: TrainConfig,
               log_path=None) -> TrainResult:
    """Train ``tcfg.stage`` from ``start``: parameters, their config and
    the groups they hold trained."""
    store, model_cfg, inherited_groups = start
    stage, (variant, groups, required) = tcfg.stage, STAGES[tcfg.stage]
    missing = required - set(inherited_groups)
    if missing:
        raise DataError(
            f"stage '{stage}' needs a checkpoint with trained groups "
            f"{sorted(missing)}; got {sorted(inherited_groups)}")

    store.set_trainable(groups)
    model = DocModel(model_cfg, store)
    optimizer = Adam(store)
    # the decoder reads BOS + target, one position more than the target
    max_len = min(tcfg.max_len, model_cfg.max_len - 1)

    parts = split_corpus(corpus, tcfg.val_fraction, tcfg.seed)
    if variant == "sentence":
        parts = tuple(part.one_sentence_documents() for part in parts)
    train_corpus, val_corpus = parts
    val_docs = _encode_corpus(val_corpus, src_vocab, tgt_vocab, max_len)

    history: list[EpochRecord] = []
    best = (math.inf, 0, store.snapshot())
    step = 0
    for epoch in range(tcfg.epochs + 1):
        train_loss = None       # epoch 0 validates the starting parameters
        try:
            if epoch:
                train_loss, step = _train_epoch(
                    model, optimizer, train_corpus, src_vocab, tgt_vocab,
                    variant, tcfg, epoch, step, max_len)
            val_loss, mean_pc = _evaluate(model, val_docs, variant,
                                          model_cfg.n_context)
            if not math.isfinite(val_loss):
                raise NumericalError(f"non-finite val loss at epoch {epoch}")
        except NumericalError as e:
            store.load_snapshot(best[2])
            raise TrainingDiverged(
                f"{stage} diverged in epoch {epoch}: {e}",
                snapshot=best[2]) from e
        history.append(EpochRecord(stage, epoch, train_loss, val_loss,
                                   mean_pc))
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(history[-1].line() + "\n")
        if val_loss < best[0]:
            best = (val_loss, epoch, store.snapshot())

    store.load_snapshot(best[2])
    return TrainResult(store=store, model_cfg=model_cfg,
                       trained_groups=set(inherited_groups) | groups,
                       history=history, best_epoch=best[1])


def train_base(corpus: DocumentCorpus, model_cfg: ModelConfig,
               src_vocab: Vocabulary, tgt_vocab: Vocabulary,
               tcfg: TrainConfig, init_store: ParamStore | None = None,
               log_path=None) -> TrainResult:
    """Sentence-level training of the base transformer from scratch."""
    if tcfg.stage != "base":
        raise ContractError(f"train_base got stage {tcfg.stage!r}")
    if init_store is None:
        from .model import build_params
        init_store = build_params(model_cfg,
                                  np.random.default_rng([tcfg.seed, 11]))
    return _run_stage((init_store, model_cfg, set()), corpus, src_vocab,
                      tgt_vocab, tcfg, log_path)


def finetune_han(checkpoint: tuple[ParamStore, ModelConfig, set[str]],
                 corpus: DocumentCorpus, src_vocab: Vocabulary,
                 tgt_vocab: Vocabulary, tcfg: TrainConfig,
                 log_path=None) -> TrainResult:
    """Context fine-tuning of a stage that trains a han-* variant."""
    if not STAGES[tcfg.stage].variant.startswith("han-"):
        raise ContractError(f"finetune_han got stage {tcfg.stage!r}")
    return _run_stage(checkpoint, corpus, src_vocab, tgt_vocab, tcfg,
                      log_path)


def finetune_copy(checkpoint: tuple[ParamStore, ModelConfig, set[str]],
                  corpus: DocumentCorpus, src_vocab: Vocabulary,
                  tgt_vocab: Vocabulary, tcfg: TrainConfig,
                  log_path=None) -> TrainResult:
    """Fine-tuning of a stage that trains the copy variant."""
    if STAGES[tcfg.stage].variant != "copy":
        raise ContractError(f"finetune_copy got stage {tcfg.stage!r}")
    return _run_stage(checkpoint, corpus, src_vocab, tgt_vocab, tcfg,
                      log_path)
