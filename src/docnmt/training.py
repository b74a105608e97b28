"""Staged training: sentence-level base, then context fine-tuning stages.

Stages and the parameter groups they unfreeze:

===========  =================  ==============  ========  ================
stage        starts from        trains          batches   a batch runs as
===========  =================  ==============  ========  ================
base         initialization     base            sentence  stacked passes
han-encoder  base checkpoint    ctx_enc         document  one per sentence
han-decoder  base checkpoint    ctx_dec         document  one per sentence
han-joint    han-encoder ckpt   ctx_dec         document  one per sentence
copy         han-encoder ckpt   ctx_dec + copy  document  one per sentence
===========  =================  ==============  ========  ================

Everything outside the stage's groups stays frozen.  Each batch from
``make_batches`` is one Adam step on the gradient of its summed token loss,
divided by its token count.

The base stage runs a batch as stacked passes (``DocModel.stacked_loss``):
its pairs are sorted by length and cut into groups of at most
``MAX_STACK_ROWS`` padded rows on each side, and each group is one forward
and one backward over its padded rows.  The dropout keep masks of every pair are
drawn from the epoch's generator before the batch runs, pair by pair in
batch order, so they are the masks a per-pair loop would draw.  Validation
of the sentence variant runs the same stacked passes without gradients.

Fine-tuning stages run one pass per sentence, documents in order, and
teacher-force *gold* previous sentences into the context caches, through
the same ``decoding.update_context`` that pushes the model's own outputs at
decode time.  A document's last sentence is not pushed: the next document
clears the caches before anything reads it.

The model with the lowest validation loss across epochs is returned;
epoch 0 is the pre-training validation pass, so a zero-epoch run returns
the initialization unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .corpus import DocumentCorpus, Vocabulary, make_batches
from .decoding import update_context
from .errors import ContractError, DataError, NumericalError, TrainingDiverged
from .model import DocModel, ModelConfig, ParamStore
from .model.han import ContextState

STAGES = ("base", "han-encoder", "han-decoder", "han-joint", "copy")

_STAGE_GROUPS = {
    "base": {"base"},
    "han-encoder": {"ctx_enc"},
    "han-decoder": {"ctx_dec"},
    "han-joint": {"ctx_dec"},
    "copy": {"ctx_dec", "copy"},
}

_STAGE_VARIANT = {
    "base": "sentence",
    "han-encoder": "han-encoder",
    "han-decoder": "han-decoder",
    "han-joint": "han-joint",
    "copy": "copy",
}

_STAGE_REQUIRES = {
    "base": set(),
    "han-encoder": {"base"},
    "han-decoder": {"base"},
    "han-joint": {"base", "ctx_enc"},
    "copy": {"base", "ctx_enc"},
}

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
            raise ContractError(f"unknown stage {self.stage!r} (expected {STAGES})")
        if self.epochs < 0 or not 0.0 <= self.val_fraction < 1.0:
            raise ContractError("bad epochs or val_fraction")


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


def _push_gold(model: DocModel, context: ContextState, src_ids: list[int],
               tgt_ids: list[int], variant: str) -> None:
    """Cache a finished gold pair the way decoding caches its own output."""
    with ad.no_grad():
        encoded, _ = model.contextual_encode(src_ids, context, variant,
                                             train=False)
    update_context(model, context, encoded, tgt_ids, variant)


def _evaluate(model: DocModel, docs, variant: str,
              n_context: int) -> tuple[float, float | None]:
    """Validation loss (and mean p_copy) under teacher-forced context."""
    total = 0.0
    n_tokens = 0
    if variant == "sentence":
        pairs = [pair for doc in docs for pair in doc]
        with ad.no_grad():
            for group in stack_groups(pairs):
                loss, n = model.stacked_loss([pairs[i] for i in group])
                total += float(loss.data)
                n_tokens += n
        return total / max(n_tokens, 1), None
    context = ContextState(n_context)
    pc_sum = 0.0
    pc_tokens = 0
    with ad.no_grad():
        for doc in docs:
            context.clear()
            for s, (src_ids, tgt_ids) in enumerate(doc):
                loss, n, mean_pc = model.sentence_loss(
                    src_ids, tgt_ids, context, variant)
                total += float(loss.data) * n
                n_tokens += n
                if mean_pc is not None:
                    pc_sum += mean_pc * n
                    pc_tokens += n
                if s + 1 < len(doc):
                    _push_gold(model, context, src_ids, tgt_ids, variant)
    mean_pc = pc_sum / pc_tokens if pc_tokens else None
    return total / max(n_tokens, 1), mean_pc


def _stacked_passes(model: DocModel, batch, rng: np.random.Generator):
    """Yield (summed loss, n_positions) of each stacked pass over a
    sentence batch, the dropout masks of all its pairs drawn first."""
    pairs = [(item.src_ids, item.tgt_ids) for item in batch]
    keep = [model.dropout_masks(len(s), len(t), rng) for s, t in pairs]
    for group in stack_groups(pairs):
        yield model.stacked_loss([pairs[i] for i in group],
                                 [keep[i] for i in group])


def _document_passes(model: DocModel, batch, context: ContextState,
                     variant: str, rng: np.random.Generator):
    """Yield (summed loss, n_positions) of each sentence of a document
    batch, pushing each gold pair into the caches after its pass."""
    for item in batch:
        if item.doc_start:
            context.clear()
        loss, n, _ = model.sentence_loss(item.src_ids, item.tgt_ids, context,
                                         variant, train=True, rng=rng)
        yield loss * float(n), n
        if not item.doc_end:
            _push_gold(model, context, item.src_ids, item.tgt_ids, variant)


def _run_stage(init_store: ParamStore, model_cfg: ModelConfig,
               corpus: DocumentCorpus, src_vocab: Vocabulary,
               tgt_vocab: Vocabulary, tcfg: TrainConfig,
               inherited_groups: set[str], log_path=None) -> TrainResult:
    stage = tcfg.stage
    variant = _STAGE_VARIANT[stage]
    groups = set(_STAGE_GROUPS[stage])
    missing = _STAGE_REQUIRES[stage] - inherited_groups
    if missing:
        raise DataError(
            f"stage '{stage}' needs a checkpoint with trained groups "
            f"{sorted(missing)}; got {sorted(inherited_groups)}")

    store = init_store
    store.set_trainable(groups)
    model = DocModel(model_cfg, store)
    optimizer = Adam(store)
    batch_mode = "sentence" if stage == "base" else "document"
    n_context = model_cfg.n_context
    # the decoder reads BOS + target, one position more than the target
    max_len = min(tcfg.max_len, model_cfg.max_len - 1)

    train_corpus, val_corpus = split_corpus(corpus, tcfg.val_fraction,
                                            tcfg.seed)
    val_docs = _encode_corpus(val_corpus, src_vocab, tgt_vocab, max_len)

    history: list[EpochRecord] = []

    def log(rec: EpochRecord):
        history.append(rec)
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(rec.line() + "\n")

    val0, pc0 = _evaluate(model, val_docs, variant, n_context)
    log(EpochRecord(stage, 0, None, val0, pc0))
    best = (val0, 0, store.snapshot())

    step = 0
    for epoch in range(1, tcfg.epochs + 1):
        batches, _ = make_batches(train_corpus, src_vocab, tgt_vocab,
                                  batch_mode, tcfg.max_tokens, max_len,
                                  seed=int(np.random.default_rng(
                                      [tcfg.seed, epoch]).integers(2**31)))
        drop_rng = np.random.default_rng([tcfg.seed, 1_000_000 + epoch])
        context = ContextState(n_context)
        epoch_loss = 0.0
        epoch_tokens = 0
        try:
            for batch in batches:
                store.zero_grad()
                batch_tokens = 0
                passes = _stacked_passes(model, batch, drop_rng) \
                    if batch_mode == "sentence" else _document_passes(
                        model, batch, context, variant, drop_rng)
                for loss, n in passes:
                    value = float(loss.data)
                    if not math.isfinite(value):
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch}")
                    ad.backward(loss)
                    epoch_loss += value
                    epoch_tokens += n
                    batch_tokens += n
                inv = 1.0 / max(batch_tokens, 1)
                for _, p in store.trainable():
                    if p.grad is not None:
                        p.grad *= inv
                step += 1
                lr = tcfg.lr if stage != "base" else inverse_sqrt_lr(
                    step, model_cfg.d_model, tcfg.warmup_steps, tcfg.lr_scale)
                optimizer.step(lr)

            train_loss = epoch_loss / max(epoch_tokens, 1)
            val_loss, mean_pc = _evaluate(model, val_docs, variant,
                                          n_context)
            if not math.isfinite(val_loss):
                raise NumericalError(f"non-finite val loss at epoch {epoch}")
        except NumericalError as e:
            store.load_snapshot(best[2])
            raise TrainingDiverged(
                f"{stage} diverged in epoch {epoch}: {e}",
                snapshot=best[2]) from e
        log(EpochRecord(stage, epoch, train_loss, val_loss, mean_pc))
        if val_loss < best[0]:
            best = (val_loss, epoch, store.snapshot())

    store.load_snapshot(best[2])
    return TrainResult(store=store, model_cfg=model_cfg,
                       trained_groups=inherited_groups | groups,
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
    return _run_stage(init_store, model_cfg, corpus, src_vocab, tgt_vocab,
                      tcfg, inherited_groups=set(), log_path=log_path)


def finetune_han(checkpoint: tuple[ParamStore, ModelConfig, set[str]],
                 corpus: DocumentCorpus, src_vocab: Vocabulary,
                 tgt_vocab: Vocabulary, tcfg: TrainConfig,
                 log_path=None) -> TrainResult:
    """Context fine-tuning; ``tcfg.stage`` picks encoder/decoder/joint."""
    if tcfg.stage not in ("han-encoder", "han-decoder", "han-joint"):
        raise ContractError(f"finetune_han got stage {tcfg.stage!r}")
    store, model_cfg, groups = checkpoint
    return _run_stage(store, model_cfg, corpus, src_vocab, tgt_vocab, tcfg,
                      inherited_groups=set(groups), log_path=log_path)


def finetune_copy(checkpoint: tuple[ParamStore, ModelConfig, set[str]],
                  corpus: DocumentCorpus, src_vocab: Vocabulary,
                  tgt_vocab: Vocabulary, tcfg: TrainConfig,
                  log_path=None) -> TrainResult:
    """Copy-gate fine-tuning on top of a han-encoder checkpoint."""
    if tcfg.stage != "copy":
        raise ContractError(f"finetune_copy got stage {tcfg.stage!r}")
    store, model_cfg, groups = checkpoint
    return _run_stage(store, model_cfg, corpus, src_vocab, tgt_vocab, tcfg,
                      inherited_groups=set(groups), log_path=log_path)
