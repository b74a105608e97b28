"""Staged training: sentence-level base, then context fine-tuning stages.

The stages are the rows of ``STAGES``: the variant each trains, the
parameter groups it unfreezes and those its starting checkpoint must hold.
The base stage starts from initialization and trains on one-sentence
documents, the others start from a checkpoint and train on documents.
Everything outside the stage's groups stays frozen.  A stage encodes its
documents once (``encode_documents``) and batches them anew each epoch
(``make_batches``) into runs of consecutive sentences of one document; a
batch is one Adam step on the gradient of its summed token loss, divided
by its token count.

Every stage runs a batch as a document wavefront, through the one runner
``_wavefront_passes`` that validation runs too.  Position s runs sentence s
of every document of the batch that has one, as stacked ``teacher_force``
passes grouped by the documents' numbers of cached sentences (the block
layout of the context attention needs one n per pass) and cut by
``stack_groups`` into groups of at most ``MAX_STACK_ROWS`` padded rows on
each side, one cap for every stage.  Each run is one document of the
wavefront with its own ``ContextState``; a run that starts inside its
document opens its batch and takes over the caches of the previous batch's
last run, which it continues.  After each pass, the documents whose
sentence s a later sentence reads get its *gold* ids and rows pushed
through ``decoding.update_context``, the push decoding makes of its own
outputs (so the base stage, whose documents are one sentence long, pushes
nothing).  Each group is one ``teacher_force`` call, which returns both
its loss and the evaluation-mode rows of the pushing documents.  In
training it is one forward and backward; the pushing documents ride along
as extra rows up to one split, the first layer that reads a trainable
parameter (the source HAN in han-encoder, the target HAN in the other
context stages), and run the rest under ``no_grad`` (see
``DocModel.teacher_force``).
The dropout keep masks of the whole batch are drawn in one call before it
runs, in batch order, the same bits a per-sentence loop of draws would
give; parameters change only between batches, so the wavefront computes
what a sentence-by-sentence loop would, up to summation order.
Validation runs without gradients, its passes serving both the loss and
the pushed rows.

``Adam.state`` holds what an epoch changes (the trained groups and Adam's
t, m and v).  One is saved before epoch 0 and after each epoch: the next
epoch starts from it, and the run returns the one saved after the epoch
with the lowest validation loss.  Epoch 0 is the pre-training validation
pass, so a zero-epoch run returns the initialization unchanged.

One epoch, its batches and its validation, is the unit of numerical
checking (``autodiff.replayed``; the search's unit is the sentence).  From
finite parameters it runs with the per-op finite checks off and checks
instead each pass's loss, every trainable gradient before each Adam step
(naming the parameter), the rows it caches and the validation loss.  A
``NumericalError`` replays the epoch with the per-op checks on, from the
state saved at its start: batches and dropout streams are seeded from
(seed, epoch) and caches start fresh each epoch, so the replay is exact and
the error names the op that made the value.  An epoch that starts from
non-finite parameters runs checked throughout.  As in the search, an
overflow to inf that an op saturates to a finite value (a sigmoid of inf
is 1, a relu of -inf is 0) passes unseen; the per-op checks would raise.
A divergence raises ``TrainingDiverged`` and leaves the parameters of the
best epoch so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .corpus import (DocumentCorpus, IdPair, Vocabulary, encode_documents,
                     make_batches)
from .decoding import update_context
from .errors import ContractError, DataError, NumericalError, TrainingDiverged
from .model import DocModel, ModelConfig, ParamStore
from .model.copy import copyable
from .model.han import ContextState


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


def check_start(stage: str, groups) -> None:
    """Raise ``DataError`` unless a checkpoint holding the trained
    ``groups`` can start ``stage``."""
    missing = STAGES[stage].requires - set(groups)
    if missing:
        raise DataError(
            f"stage '{stage}' needs a checkpoint with trained groups "
            f"{sorted(missing)}; got {sorted(groups)}")


# Padded rows per side (sentences x the group's longest source, or BOS +
# target) of one stacked pass, the one cap of every stage: enough to spread
# each op's interpreter cost over many sentences, few enough that a pass's
# tape stays small.  An autodiff node keeps only what its backward cannot
# rebuild, so a full base pass holds about 16.4 kB per padded row besides
# the parameters; nodes that stored their intermediates held 28.2 kB, so a
# 256-row pass holds about what a 128-row one held.  On the benchmark
# (2-core x86-64 host, ten alternating pairs), 256 rows ran 1.17 times the
# train-base tokens per second of 128 rows on the storing ops (26 training
# and 6 validation passes per op instead of 49 and 10), at 0.7 % less peak
# memory.  Above 128, train-copy's passes are cut by their cache groups,
# not by the cap.  The cap counts training rows: the evaluation rows of a
# group's pushing documents ride along in its frozen layers, which keep no
# tape, so groups, batches and dropout draws do not depend on them.
MAX_STACK_ROWS = 256


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
        for name in ("lr", "lr_scale"):
            if not 0.0 < getattr(self, name) < math.inf:   # nan fails too
                raise ContractError(f"{name} must be positive and finite, "
                                    f"got {getattr(self, name)}")
        if not 1 <= self.max_len <= self.max_tokens:
            raise ContractError(f"need 1 <= max_len <= max_tokens, got "
                                f"{self.max_len} and {self.max_tokens}")


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

    def state(self) -> tuple:
        """What ``step`` changes: t, and copies of the trainable
        parameters and of the moments m and v."""
        return (self.t,
                {n: p.data.copy() for n, p in self.store.trainable()},
                {n: a.copy() for n, a in self._m.items()},
                {n: a.copy() for n, a in self._v.items()})

    def rewind(self, state: tuple) -> None:
        """Set what ``step`` changes back to a ``state()``, which stays
        valid for another rewind."""
        self.t, params, m, v = state
        for n, p in self.store.trainable():
            np.copyto(p.data, params[n])
        self._m = {n: a.copy() for n, a in m.items()}
        self._v = {n: a.copy() for n, a in v.items()}


def inverse_sqrt_lr(step: int, d_model: int, warmup: int,
                    scale: float = 1.0) -> float:
    """Warmup then decay: scale * d^-0.5 * min(step^-0.5, step * warmup^-1.5)."""
    if step < 1:
        raise ContractError("schedule steps are 1-based")
    return scale * d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def split_corpus(corpus: DocumentCorpus, val_fraction: float, seed: int
                 ) -> tuple[DocumentCorpus, DocumentCorpus]:
    """Document-level split that keeps at least one training document.
    When round(n * val_fraction) < 1 (a 1-document corpus, val_fraction 0,
    or up to 5 documents at 0.1) the corpus validates on its training
    documents."""
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


def stack_groups(pairs: list[IdPair]) -> list[list[int]]:
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
    pairs: list[IdPair]
    ends: bool                   # its last pair is the document's last

    def pushes(self, s: int) -> bool:
        """Whether a later sentence reads sentence s's cache entry."""
        return s + 1 < len(self.pairs) or not self.ends


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


def _push_gold(docs: list[_Doc], s: int, variant: str, src_rows: np.ndarray,
               tgt_rows: np.ndarray | None) -> None:
    """Cache gold sentence s of each of ``docs``, the way decoding caches
    its own output: its ids and its evaluation-mode rows (``Forced.pushed``:
    [len(docs), L, d] encoder rows and, when the variant caches targets,
    the decoder's h~ rows of BOS + target)."""
    if not (np.isfinite(src_rows).all()
            and (tgt_rows is None or np.isfinite(tgt_rows).all())):
        raise NumericalError(f"non-finite rows to cache for sentence {s}")
    for b, d in enumerate(docs):
        src, tgt = d.pairs[s]
        update_context(d.context, variant, src, src_rows[b, :len(src)], tgt,
                       None if tgt_rows is None
                       else tgt_rows[b, 1:len(tgt) + 1])   # BOS dropped


def _wavefront_passes(model: DocModel, docs: list[_Doc], variant: str,
                      rng: np.random.Generator | None):
    """Yield ``forced_loss`` of each stacked pass of the wavefront over
    ``docs``, then push its group's gold entries, the evaluation-mode rows
    that the same ``teacher_force`` call returns (``Forced.pushed``).
    While the caller runs a pass's backward, the generator holds only that
    ``Forced``: its values, none of the pass's memories.  With ``rng`` the
    passes train, on dropout masks drawn first for every sentence in batch
    order; without it they run under the caller's ``no_grad``."""
    keep = None
    if rng is not None:
        masks = iter(model.dropout_masks(
            [(len(src), len(tgt)) for d in docs for src, tgt in d.pairs], rng))
        keep = [[next(masks) for _ in d.pairs] for d in docs]
    for s, group in _wavefront(docs):
        group_docs = [docs[i] for i in group]
        pushing = [b for b, d in enumerate(group_docs) if d.pushes(s)]
        forced = model.teacher_force(
            [d.pairs[s] for d in group_docs],
            None if keep is None else [keep[i][s] for i in group],
            [d.context for d in group_docs], variant, pushing)
        yield model.forced_loss(forced)
        if pushing:
            _push_gold([group_docs[b] for b in pushing], s, variant,
                       *forced.pushed)


def _evaluate(model: DocModel, docs, variant: str,
              n_context: int) -> tuple[float, float | None]:
    """Validation loss (and mean p_copy) under teacher-forced context."""
    wave = [_Doc(ContextState(n_context), doc, True) for doc in docs]
    total = 0.0
    n_tokens = 0
    pc_sum = 0.0
    pc_tokens = 0
    with ad.no_grad():
        for loss, n, p_copy in _wavefront_passes(model, wave, variant, None):
            total += float(loss.data)
            n_tokens += n
            if p_copy is not None:
                pc_sum += float(p_copy.sum())
                pc_tokens += n
    mean_pc = pc_sum / pc_tokens if pc_tokens else None
    return total / max(n_tokens, 1), mean_pc


def _train_epoch(model: DocModel, optimizer: Adam,
                 documents: list[list[IdPair]], variant: str,
                 tcfg: TrainConfig, epoch: int, step: int
                 ) -> tuple[float, int]:
    """One epoch of Adam steps, one per batch of the id ``documents``;
    returns (mean train loss, the step count after it)."""
    store = model.params
    batches = make_batches(documents, tcfg.max_tokens,
                           seed=int(np.random.default_rng(
                               [tcfg.seed, epoch]).integers(2**31)))
    drop_rng = np.random.default_rng([tcfg.seed, 1_000_000 + epoch])
    docs: list[_Doc] = []
    epoch_loss = 0.0
    epoch_tokens = 0
    for batch in batches:
        store.zero_grad()
        batch_tokens = 0
        # a run from a document's middle opens its batch and continues
        # the previous batch's last run, with its caches
        docs = [_Doc(docs[-1].context if start
                     else ContextState(model.cfg.n_context),
                     documents[d][start:stop], stop == len(documents[d]))
                for d, start, stop in batch]
        for loss, n, _ in _wavefront_passes(model, docs, variant, drop_rng):
            value = float(loss.data)
            if not math.isfinite(value):
                raise NumericalError(f"non-finite loss at epoch {epoch}")
            ad.backward(loss)
            epoch_loss += value
            epoch_tokens += n
            batch_tokens += n
        inv = 1.0 / max(batch_tokens, 1)
        for name, p in store.trainable():
            if p.grad is not None:
                p.grad *= inv
                if not np.isfinite(p.grad).all():
                    raise NumericalError(f"non-finite gradient of '{name}' "
                                         f"at epoch {epoch}")
        step += 1
        lr = tcfg.lr if tcfg.stage != "base" else inverse_sqrt_lr(
            step, model.cfg.d_model, tcfg.warmup_steps, tcfg.lr_scale)
        optimizer.step(lr)
    return epoch_loss / max(epoch_tokens, 1), step


def run_stage(start: tuple[ParamStore, ModelConfig, set[str]],
              corpus: DocumentCorpus, src_vocab: Vocabulary,
              tgt_vocab: Vocabulary, tcfg: TrainConfig,
              log_path=None) -> TrainResult:
    """Train ``tcfg.stage`` from ``start``: parameters, their config and
    the groups they hold trained.  Every stage runs here; ``train_base``
    and ``finetune_copy`` only check the stage name around it."""
    store, model_cfg, inherited_groups = start
    stage, (variant, groups, _) = tcfg.stage, STAGES[tcfg.stage]
    check_start(stage, inherited_groups)

    store.set_trainable(groups)
    model = DocModel(model_cfg, store)
    optimizer = Adam(store)
    # the decoder reads BOS + target, one position more than the target
    max_len = min(tcfg.max_len, model_cfg.max_len - 1)
    train_docs, val_docs = (
        encode_documents(part, src_vocab, tgt_vocab, max_len)[0]
        for part in split_corpus(corpus, tcfg.val_fraction, tcfg.seed))
    if variant == "sentence":       # independent sentences
        train_docs, val_docs = ([[pair] for doc in docs for pair in doc]
                                for docs in (train_docs, val_docs))

    def run_epoch(epoch: int, step: int):
        """(training loss, step count, validation loss, mean p_copy) after
        ``epoch``; epoch 0 validates the starting parameters."""
        ad.clear_tape()             # a failed run leaves its pass's nodes
        train_loss = None
        if epoch:
            train_loss, step = _train_epoch(model, optimizer, train_docs,
                                            variant, tcfg, epoch, step)
        val_loss, mean_pc = _evaluate(model, val_docs, variant,
                                      model_cfg.n_context)
        if not math.isfinite(val_loss):
            raise NumericalError(f"non-finite val loss at epoch {epoch}")
        return train_loss, step, val_loss, mean_pc

    history: list[EpochRecord] = []
    saved = optimizer.state()       # where the next epoch starts
    best = (math.inf, 0, saved)     # (val loss, epoch, state after it)
    step = 0
    for epoch in range(tcfg.epochs + 1):
        # the epoch is the unit of numerical checking: unchecked from
        # finite parameters, replayed from its start on an error
        try:
            train_loss, step, val_loss, mean_pc = ad.replayed(
                lambda: run_epoch(epoch, step), store.finite(),
                lambda: optimizer.rewind(saved))
        except NumericalError as e:
            optimizer.rewind(best[2])
            raise TrainingDiverged(
                f"{stage} diverged in epoch {epoch}: {e}",
                snapshot=store.snapshot()) from e
        history.append(EpochRecord(stage, epoch, train_loss, val_loss,
                                   mean_pc))
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(history[-1].line() + "\n")
        saved = optimizer.state()
        if val_loss < best[0]:
            best = (val_loss, epoch, saved)

    optimizer.rewind(best[2])
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
    return run_stage((init_store, model_cfg, set()), corpus, src_vocab,
                     tgt_vocab, tcfg, log_path)


def finetune_copy(checkpoint: tuple[ParamStore, ModelConfig, set[str]],
                  corpus: DocumentCorpus, src_vocab: Vocabulary,
                  tgt_vocab: Vocabulary, tcfg: TrainConfig,
                  log_path=None) -> TrainResult:
    """Fine-tuning of a stage that trains the copy variant."""
    if STAGES[tcfg.stage].variant != "copy":
        raise ContractError(f"finetune_copy got stage {tcfg.stage!r}")
    return run_stage(checkpoint, corpus, src_vocab, tgt_vocab, tcfg,
                     log_path)
