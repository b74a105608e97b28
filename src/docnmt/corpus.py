"""Document corpora: parallel text IO, vocabularies, batching, synthetic data.

Corpus file format: one pre-tokenized sentence per line (space separated),
a blank line between documents; source and target files must align line by
line.  CRLF input is accepted; output is always LF with single spaces, so a
file written by this module round-trips bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError
from .tokens import RESERVED, UNK_ID

Sentence = list[str]
SentencePair = tuple[Sentence, Sentence]


@dataclass
class DocumentCorpus:
    documents: list[list[SentencePair]]
    doc_ids: list[str]

    def __post_init__(self):
        if len(self.documents) != len(self.doc_ids):
            raise ContractError("documents and doc_ids length mismatch")

    @property
    def n_documents(self) -> int:
        return len(self.documents)

    @property
    def n_sentences(self) -> int:
        return sum(len(d) for d in self.documents)

    def pairs(self):
        for doc in self.documents:
            yield from doc

    def side(self, which: str) -> list[list[Sentence]]:
        idx = 0 if which == "src" else 1
        return [[pair[idx] for pair in doc] for doc in self.documents]

    def one_sentence_documents(self) -> "DocumentCorpus":
        """Each sentence pair as a document of its own, in corpus order,
        keeping the id of the document it came from."""
        return DocumentCorpus(
            [[pair] for doc in self.documents for pair in doc],
            [i for i, doc in zip(self.doc_ids, self.documents) for _ in doc])


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as e:
        raise DataError(f"cannot read corpus file {path}: {e}") from e
    text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


def _split_documents(rows, path) -> list[list[tuple[Sentence, ...]]]:
    """Split aligned rows (one line per side) into documents at blank rows;
    errors name 1-based lines."""
    documents: list[list[tuple[Sentence, ...]]] = []
    current: list[tuple[Sentence, ...]] = []
    for i, row in enumerate(rows, start=1):
        blank = [not line.strip() for line in row]
        if any(blank) != all(blank):
            raise DataError(
                f"line {i}: document boundary mismatch (one side blank)")
        if blank[0]:
            if not current:
                raise DataError(f"line {i}: empty document (consecutive blank lines)")
            documents.append(current)
            current = []
        else:
            current.append(tuple(line.split() for line in row))
    if current:
        documents.append(current)
    if not documents:
        raise DataError(f"{path}: corpus is empty")
    return documents


def load_corpus(src_path, tgt_path) -> DocumentCorpus:
    """Parse an aligned pair of document files; errors name 1-based lines."""
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"{src_path} has {len(src_lines)} lines but {tgt_path} has "
            f"{len(tgt_lines)}; first difference at line "
            f"{min(len(src_lines), len(tgt_lines)) + 1}")
    documents = _split_documents(zip(src_lines, tgt_lines), src_path)
    ids = [f"doc{d:05d}" for d in range(len(documents))]
    return DocumentCorpus(documents=documents, doc_ids=ids)


def save_corpus(corpus: DocumentCorpus, src_path, tgt_path) -> None:
    save_documents(corpus.side("src"), src_path)
    save_documents(corpus.side("tgt"), tgt_path)


def load_documents(path) -> list[list[Sentence]]:
    """Parse a single-sided document file (same format, one side only)."""
    return [[s for (s,) in doc]
            for doc in _split_documents(zip(_read_lines(path)), path)]


def save_documents(documents: list[list[Sentence]], path) -> None:
    blocks = ["\n".join(" ".join(s) for s in doc) for doc in documents]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n\n".join(blocks) + "\n")


def write_manifest(corpus: DocumentCorpus, path) -> None:
    """doc_id TAB start_line TAB end_line (1-based, matching saved files)."""
    lines = []
    line = 1
    for doc_id, doc in zip(corpus.doc_ids, corpus.documents):
        end = line + len(doc) - 1
        lines.append(f"{doc_id}\t{line}\t{end}")
        line = end + 2  # the blank separator
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# vocabulary


@dataclass
class Vocabulary:
    id_to_token: list[str]
    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.id_to_token[:4] != list(RESERVED):
            raise ContractError("vocabulary must start with the reserved tokens")
        if not self.token_to_id:
            self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sentence) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def decode(self, ids) -> Sentence:
        return [self.id_to_token[i] for i in ids]


def build_vocab(corpus: DocumentCorpus, side: str, max_size: int = 50000,
                min_freq: int = 1) -> Vocabulary:
    """Frequency-ordered vocabulary, ties broken lexicographically, after
    the reserved ids 0..3 (pad, unk, bos, eos)."""
    if side not in ("src", "tgt"):
        raise ContractError(f"side must be src or tgt, got {side!r}")
    if max_size < 5:
        raise DataError(f"max_size {max_size} leaves no room beyond reserved ids")
    counts: dict[str, int] = {}
    for doc in corpus.side(side):
        for sent in doc:
            for tok in sent:
                counts[tok] = counts.get(tok, 0) + 1
    for tok in counts:
        if tok in RESERVED:
            raise DataError(f"corpus contains reserved token {tok!r}")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = list(RESERVED)
    for tok, cnt in ordered:
        if cnt < min_freq or len(tokens) >= max_size:
            break
        tokens.append(tok)
    return Vocabulary(id_to_token=tokens)


def save_vocab_pair(path, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> None:
    payload = {"src": src_vocab.id_to_token, "tgt": tgt_vocab.id_to_token}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")


def load_vocab_pair(path) -> tuple[Vocabulary, Vocabulary]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return (Vocabulary(id_to_token=list(payload["src"])),
                Vocabulary(id_to_token=list(payload["tgt"])))
    except (OSError, KeyError, json.JSONDecodeError, ContractError) as e:
        raise DataError(f"cannot load vocabulary {path}: {e}") from e


# ---------------------------------------------------------------------------
# batching


@dataclass
class BatchItem:
    src_ids: list[int]
    tgt_ids: list[int]
    doc_start: bool
    doc_end: bool                # last sentence of its document


def make_batches(corpus: DocumentCorpus, src_vocab: Vocabulary,
                 tgt_vocab: Vocabulary, max_tokens: int, max_len: int,
                 seed: int = 0) -> tuple[list[list[BatchItem]], int]:
    """Token-budgeted batches; returns (batches, truncated sentence count).

    The documents are shuffled and their sentences kept in order, with
    ``doc_start`` / ``doc_end`` marking boundaries; a batch may end inside
    a document, which the next batch continues.  To batch independent
    sentences, pass ``corpus.one_sentence_documents()``: every item is then
    a document of its own.

    No batch exceeds ``max_tokens`` target tokens; sentences longer than
    ``max_len`` are truncated (counted in the second return value).
    """
    if max_len < 1 or max_tokens < max_len:
        raise DataError(
            f"need max_tokens >= max_len >= 1, got {max_tokens}/{max_len}")

    items: list[BatchItem] = []
    truncated = 0
    for d in np.random.default_rng(seed).permutation(corpus.n_documents):
        doc = corpus.documents[d]
        for s, (src, tgt) in enumerate(doc):
            src_ids, tgt_ids = src_vocab.encode(src), tgt_vocab.encode(tgt)
            truncated += (len(src_ids) > max_len) + (len(tgt_ids) > max_len)
            items.append(BatchItem(src_ids[:max_len], tgt_ids[:max_len],
                                   doc_start=(s == 0),
                                   doc_end=(s == len(doc) - 1)))

    batches: list[list[BatchItem]] = []
    cur: list[BatchItem] = []
    budget = 0
    for item in items:
        cost = len(item.tgt_ids)
        if cur and budget + cost > max_tokens:
            batches.append(cur)
            cur, budget = [], 0
        cur.append(item)
        budget += cost
    if cur:
        batches.append(cur)
    return batches, truncated


# ---------------------------------------------------------------------------
# synthetic cohesion corpus


@dataclass
class ConceptLexicon:
    """Concepts with two interchangeable target realizations each."""
    entries: list[tuple[str, str, str]]  # (source token, variant a, variant b)

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return [(a, b) for _, a, b in self.entries]

    def to_json(self) -> str:
        payload = [{"source": s, "a": a, "b": b} for s, a, b in self.entries]
        return json.dumps({"concepts": payload}, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ConceptLexicon":
        try:
            payload = json.loads(text)
            entries = [(c["source"], c["a"], c["b"])
                       for c in payload["concepts"]]
        except (KeyError, TypeError, json.JSONDecodeError) as e:
            raise DataError(f"bad lexicon file: {e}") from e
        return cls(entries=entries)


_CONCEPTS = [
    ("tokei", "watch", "clock"),
    ("nagaisu", "sofa", "couch"),
    ("kuruma", "car", "auto"),
    ("eiga", "movie", "film"),
    ("mise", "shop", "store"),
    ("kodomo", "kid", "child"),
    ("michi", "road", "street"),
    ("shashin", "photo", "picture"),
    ("enzetsu", "talk", "speech"),
    ("ie", "home", "house"),
]

# Sentence 1 introduces the entity with a register marker whose translation
# pins which synonym the document uses; later sentences carry no such signal,
# so only document context can keep them consistent.
_MARKERS = {"a": ("sensei", "sir"), "b": ("aibou", "buddy")}

_INTRO = ("{m} , kore wa {c} desu .", "{m} , this is a {v} .")

_FRAMES = [
    ("sono {c} wa ii desu .", "that {v} is good ."),
    ("watashi wa {c} ga suki desu .", "i like the {v} ."),
    ("kono {c} wa takai desu .", "this {v} is expensive ."),
    ("ano {c} o mimashita .", "i saw that {v} ."),
    ("sore wa subarashii {c} desu .", "it is a wonderful {v} ."),
    ("{c} wa koko ni arimasu .", "the {v} is here ."),
    ("sono {c} wa furui desu .", "that {v} is old ."),
]


def _concept_list(n_concepts: int) -> list[tuple[str, str, str]]:
    out = list(_CONCEPTS[:n_concepts])
    for k in range(len(out), n_concepts):
        out.append((f"mono{k}", f"thing{k}x", f"thing{k}y"))
    return out


def generate_synthetic_cohesion_corpus(n_docs: int, doc_len: int,
                                       n_concepts: int, seed: int
                                       ) -> tuple[DocumentCorpus, ConceptLexicon]:
    """Documents about one concept each, realized by one of two synonyms.

    Concept and synonym assignments are balanced before shuffling, so the
    marginal variant frequency is 50/50 and (for corpora of 200+ documents)
    every concept's variant ratio lands in [0.4, 0.6] — asserted below.
    Frame fillers translate deterministically; the only translation ambiguity
    is the synonym choice, which sentence 1 reveals through its marker.
    """
    if n_docs < 1 or doc_len < 1 or n_concepts < 1:
        raise DataError("n_docs, doc_len and n_concepts must be positive")
    rng = np.random.default_rng(seed)
    concepts = _concept_list(n_concepts)

    concept_of_doc = [d % n_concepts for d in range(n_docs)]
    rng.shuffle(concept_of_doc)
    variant_of_doc: list[str] = [""] * n_docs
    for k in range(n_concepts):
        members = [d for d, c in enumerate(concept_of_doc) if c == k]
        labels = ["a", "b"] * (len(members) // 2 + 1)
        labels = labels[:len(members)]
        rng.shuffle(labels)
        for d, lab in zip(members, labels):
            variant_of_doc[d] = lab

    documents = []
    for d in range(n_docs):
        src_c, var_a, var_b = concepts[concept_of_doc[d]]
        variant = var_a if variant_of_doc[d] == "a" else var_b
        m_src, m_tgt = _MARKERS[variant_of_doc[d]]
        doc = [(_INTRO[0].format(m=m_src, c=src_c).split(),
                _INTRO[1].format(m=m_tgt, v=variant).split())]
        n_follow = doc_len - 1
        if n_follow:
            replace = n_follow > len(_FRAMES)
            frame_idx = rng.choice(len(_FRAMES), size=n_follow, replace=replace)
            for fi in frame_idx:
                s, t = _FRAMES[int(fi)]
                doc.append((s.format(c=src_c).split(),
                            t.format(v=variant).split()))
        documents.append(doc)

    if n_docs >= 200:
        for k, (src_c, _, _) in enumerate(concepts):
            members = [d for d, c in enumerate(concept_of_doc) if c == k]
            if not members:
                continue
            ratio = sum(variant_of_doc[d] == "a" for d in members) / len(members)
            if not 0.4 <= ratio <= 0.6:
                raise DataError(
                    f"variant balance for concept '{src_c}' is {ratio:.2f}, "
                    f"outside [0.4, 0.6]")

    corpus = DocumentCorpus(documents=documents,
                            doc_ids=[f"synth{d:05d}" for d in range(n_docs)])
    return corpus, ConceptLexicon(entries=concepts)
