"""Span tracer that measures docnmt's layers from outside the program.

It replaces the public functions of each layer with timing wrappers while a
traced run is active and restores the originals afterwards; nothing under
``src/`` knows it exists.  A function is replaced at every place that holds
it: its defining module, every ``docnmt`` module that bound it by name at
import time (``model.model`` imports ``hierarchical_context``,
``multi_head_attention``, ``positionwise_ffn`` and the ``copy_*`` functions
that way), and the class for methods.  ``han`` and ``copy`` import
``multi_head_attention`` lazily inside their functions and ``Tensor``
operators look up ``autodiff`` module globals at call time, so both see the
replaced module attribute.

Spans (name, start, end, parent span, item id) are kept in memory and
written out at the end.  A span's self time is its duration minus the time
its direct child spans cover.  The autodiff op and matmul hooks only count:
a span per op would cost more than the op.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

_PACKAGE = "docnmt"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, item]
        self.counts: Counter = Counter()
        self.item = None                 # id of the document / epoch running
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers ----------------------------------------------

    def _replace_everywhere(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        sites = [owner]
        if not isinstance(owner, type):
            sites += [m for name, m in sorted(sys.modules.items())
                      if m is not None and m is not owner
                      and (name == _PACKAGE or name.startswith(_PACKAGE + "."))]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, name, original))
                    setattr(site, name, wrapper)

    def span(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span around ``owner.attr``.

        ``before(args, kwargs)`` runs before the call and ``after(args,
        kwargs, result)`` after it returns; both update ``counts``.
        """
        fn = owner.__dict__[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.item])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._replace_everywhere(owner, attr, wrapper)

    def count(self, owner, attr: str, hook):
        """Call ``hook(args)`` on every call of ``owner.attr``; no span."""
        fn = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            hook(args)
            return fn(*args, **kwargs)

        self._replace_everywhere(owner, attr, wrapper)

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's spans and counts to this one."""
        offset = len(self.spans)
        self.spans += [[name, start, end,
                        parent + offset if parent >= 0 else -1, item]
                       for name, start, end, parent, item in other.spans]
        self.counts.update(other.counts)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self time, inclusive time) per span name, in seconds.

        Inclusive time counts only outermost spans of a name, so a function
        that re-enters itself is not counted twice.
        """
        self_t: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_t[name] += end - start - child[i]
            if not self.has_ancestor(i, name):
                incl[name] += end - start
        return self_t, incl

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def inclusive_outside(self, name: str, outside: str) -> float:
        """Inclusive time of ``name`` spans that do not run inside ``outside``."""
        return sum(end - start
                   for i, (n, start, end, _, _) in enumerate(self.spans)
                   if n == name and not self.has_ancestor(i, outside)
                   and not self.has_ancestor(i, name))

    def write(self, path) -> None:
        """One JSON line per span: id, name, start/end (s), parent, item."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - t0, 9),
                                     round(end - t0, 9), parent, item]))
                fh.write("\n")


def instrument(tr: Tracer) -> list[str]:
    """Wrap the layers of docnmt; returns the hooks whose target is absent.

    A missing target (renamed or deleted by a later change) is skipped, so
    its metrics read 0 instead of breaking the benchmark.
    """
    from docnmt import autodiff, checkpoint, corpus, decoding, training
    from docnmt.model import copy, han, model, params, transformer

    c = tr.counts
    missing: list[str] = []

    def span(owner, attr, name, before=None, after=None):
        if attr in vars(owner):
            tr.span(owner, attr, name, before, after)
        else:
            missing.append(f"{owner.__name__}.{attr}")

    def count(owner, attr, hook):
        if attr in vars(owner):
            tr.count(owner, attr, hook)
        else:
            missing.append(f"{owner.__name__}.{attr}")

    # autodiff: every op funnels through _out; matmul flops are 2*m*k*n
    def on_op(args):
        c["autodiff.ops"] += 1

    def on_matmul(args):
        a, b = args[0].data, args[1].data
        c["autodiff.matmul_calls"] += 1
        c["autodiff.matmul_flops"] += 2 * a.size * b.shape[-1]

    def on_backward(args, kwargs):
        c["autodiff.backward_calls"] += 1
        c["autodiff.tape_nodes"] += tape_size()

    tape_size = getattr(autodiff, "tape_size", None)
    if tape_size is None:
        missing.append("autodiff.tape_size")
    count(autodiff, "_out", on_op)
    count(autodiff, "matmul", on_matmul)
    span(autodiff, "backward", "autodiff.backward",
         before=on_backward if tape_size else None)

    span(params.ParamStore, "view", "params.view")
    span(transformer, "multi_head_attention", "transformer.mha")
    span(transformer, "positionwise_ffn", "transformer.ffn")

    def on_decode_states(args, kwargs, result):
        prefix = args[1] if len(args) > 1 else kwargs["prefix_ids"]
        c["model.decode_rows"] += len(prefix)

    doc_model = model.DocModel
    span(doc_model, "encode", "model.encode")
    span(doc_model, "decode_states", "model.decode_states",
         after=on_decode_states)
    span(doc_model, "output_distribution", "model.output_distribution")
    span(doc_model, "target_cache_entry", "model.target_cache_entry")
    span(doc_model, "sentence_loss", "model.sentence_loss")
    span(doc_model, "copy_mixture", "copy.mixture")
    span(doc_model, "step_distribution", "decoding.step")

    def on_context(args, kwargs):
        entries = args[1] if len(args) > 1 else kwargs["entries"]
        c["han.cached_sentences"] += len(entries)

    span(han, "hierarchical_context", "han.hierarchical_context",
         before=on_context)
    span(han, "word_level_context", "han.word_level")
    span(han, "sentence_level_context", "han.sentence_level")
    span(han, "gate_integrate", "han.gate")

    def on_copy_weights(args, kwargs, result):
        c["copy.attempts"] += 1
        c["copy.copyable"] += int(bool(result.copyable))

    span(copy, "copy_attention_weights", "copy.attention_weights",
         after=on_copy_weights)

    span(training, "train_base", "training.entry")
    span(training, "finetune_copy", "training.entry")
    span(training, "_evaluate", "training.val")
    span(training.Adam, "step", "training.adam")
    span(corpus, "make_batches", "corpus.make_batches")

    def on_force_finish(args, kwargs):
        if any(not h.finished for h in args[0]):
            c["decoding.length_cap_hits"] += 1

    span(decoding, "translate_document", "decoding.document")
    span(decoding, "translate_sentence", "decoding.sentence")
    span(decoding, "search", "decoding.search")
    span(decoding, "beam_step", "decoding.beam_step")
    span(decoding, "_force_finish", "decoding.force_finish",
         before=on_force_finish)
    span(decoding, "update_context", "decoding.update_context")

    span(checkpoint, "load_checkpoint", "checkpoint.load")
    return missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, sentences: int) -> dict[str, float]:
    """Per-layer numbers of one traced run.

    ``sentences`` is the number of sentences the work trained on (train
    workloads) or translated (decode workloads).  Times are self times
    except training.forward_s, training.val_s, decoding.step_s,
    decoding.update_context_s, model.target_cache_entry_s and
    checkpoint.load_s, which are inclusive.
    """
    self_t, incl = tr.times()
    calls = Counter(s[0] for s in tr.spans)
    c = tr.counts
    return {
        "autodiff.ops": c["autodiff.ops"],
        "autodiff.ops_per_sentence": _ratio(c["autodiff.ops"], sentences),
        "autodiff.tape_nodes_per_backward": _ratio(
            c["autodiff.tape_nodes"], c["autodiff.backward_calls"]),
        "autodiff.backward_s": self_t["autodiff.backward"],
        "autodiff.matmul_calls": c["autodiff.matmul_calls"],
        "autodiff.matmul_flops": c["autodiff.matmul_flops"],
        "params.view_calls": calls["params.view"],
        "params.view_s": self_t["params.view"],
        "transformer.mha_calls": calls["transformer.mha"],
        "transformer.mha_s": self_t["transformer.mha"],
        "transformer.ffn_s": self_t["transformer.ffn"],
        "model.encode_s": self_t["model.encode"],
        "model.decode_states_s": self_t["model.decode_states"],
        "model.decode_rows": c["model.decode_rows"],
        "model.output_distribution_s": self_t["model.output_distribution"],
        "model.target_cache_entry_calls": calls["model.target_cache_entry"],
        "model.target_cache_entry_s": incl["model.target_cache_entry"],
        "han.calls": calls["han.hierarchical_context"],
        "han.hierarchical_context_s": self_t["han.hierarchical_context"],
        "han.word_level_s": self_t["han.word_level"],
        "han.sentence_level_s": self_t["han.sentence_level"],
        "han.gate_s": self_t["han.gate"],
        "han.cached_sentences_per_call": _ratio(
            c["han.cached_sentences"], calls["han.hierarchical_context"]),
        "copy.mixture_s": self_t["copy.mixture"],
        "copy.attention_weights_s": self_t["copy.attention_weights"],
        "copy.copyable_ratio": _ratio(c["copy.copyable"], c["copy.attempts"]),
        "training.forward_s": tr.inclusive_outside("model.sentence_loss",
                                                   "training.val"),
        "training.val_s": incl["training.val"],
        "training.adam_s": self_t["training.adam"],
        "training.optimizer_steps": calls["training.adam"],
        "corpus.make_batches_s": self_t["corpus.make_batches"],
        "decoding.step_calls": calls["decoding.step"],
        "decoding.step_s": incl["decoding.step"],
        "decoding.update_context_s": incl["decoding.update_context"],
        "decoding.length_cap_hits": c["decoding.length_cap_hits"],
        "checkpoint.load_s": incl["checkpoint.load"],
    }


def search_metrics(tr: Tracer, mode: str, emitted_tokens: int
                   ) -> dict[str, float]:
    """Search numbers of one decode pass (``mode`` is greedy or beam4).

    ``emitted_tokens`` counts the tokens the pass produced, EOS included.
    rows_per_token counts every decoder row computed, the cache-entry
    re-decode of each finished sentence included.
    """
    self_t, _ = tr.times()
    steps = sum(1 for s in tr.spans if s[0] == "decoding.step")
    return {
        f"decoding.{mode}_steps_per_token": _ratio(steps, emitted_tokens),
        f"decoding.{mode}_rows_per_token": _ratio(
            tr.counts["model.decode_rows"], emitted_tokens),
        f"decoding.{mode}_search_self_s": sum(
            self_t[n] for n in ("decoding.sentence", "decoding.search",
                                "decoding.beam_step", "decoding.force_finish")),
    }
