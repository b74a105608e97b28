"""Document corpora: text IO, vocabularies, encoding, batching, synthetic data.

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
from .util import read_text

Sentence = list[str]
SentencePair = tuple[Sentence, Sentence]
IdPair = tuple[list[int], list[int]]        # a sentence pair's token ids
Run = tuple[int, int, int]                  # (d, start, stop): make_batches


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


def _read_lines(path) -> list[str]:
    text = read_text(path, "corpus file").replace("\r\n", "\n")
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
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.id_to_token[:4] != list(RESERVED):
            raise ContractError("vocabulary must start with the reserved tokens")
        ids: dict[str, int] = {}
        for i, tok in enumerate(self.id_to_token):
            if not isinstance(tok, str):
                raise ContractError(f"token id {i} is {tok!r}, not a string")
            if ids.setdefault(tok, i) != i:
                raise ContractError(f"token {tok!r} has ids {ids[tok]} and {i}")
        self.token_to_id = ids

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
    text = read_text(path, "vocabulary")
    try:
        payload = json.loads(text)
        return (Vocabulary(id_to_token=list(payload["src"])),
                Vocabulary(id_to_token=list(payload["tgt"])))
    except (KeyError, TypeError, json.JSONDecodeError, ContractError) as e:
        raise DataError(f"cannot load vocabulary {path}: {e}") from e


# ---------------------------------------------------------------------------
# batching


def encode_documents(corpus: DocumentCorpus, src_vocab: Vocabulary,
                     tgt_vocab: Vocabulary, max_len: int
                     ) -> tuple[list[list[IdPair]], int]:
    """Each document as its sentence pairs' id sequences, cut to
    ``max_len`` tokens; returns (documents, truncated sentence count, each
    side counted)."""
    if max_len < 1:
        raise DataError(f"need max_len >= 1, got {max_len}")
    documents = [[(src_vocab.encode(src)[:max_len],
                   tgt_vocab.encode(tgt)[:max_len]) for src, tgt in doc]
                 for doc in corpus.documents]
    truncated = sum((len(src) > max_len) + (len(tgt) > max_len)
                    for src, tgt in corpus.pairs())
    return documents, truncated


def make_batches(documents: list[list[IdPair]], max_tokens: int,
                 seed: int = 0) -> list[list[Run]]:
    """Token-budgeted batches of id documents (``encode_documents``), each
    a list of runs ``(d, start, stop)``: sentences ``start..stop-1`` of
    ``documents[d]``.

    The documents are shuffled and their sentences kept in order.  A batch
    may end inside a document; the next batch then opens with a run whose
    ``start`` is above 0, and only a batch's first run can have one.  To
    batch independent sentences, pass each pair as a document of its own.

    No batch exceeds ``max_tokens`` target tokens, so a longer target is a
    ``DataError``.
    """
    batches: list[list[Run]] = []
    cur: list[Run] = []
    budget = 0
    for d in np.random.default_rng(seed).permutation(len(documents)):
        d, start = int(d), 0
        for s, (_, tgt_ids) in enumerate(documents[d]):
            cost = len(tgt_ids)
            if cost > max_tokens:
                raise DataError(f"a target of {cost} tokens does not fit "
                                f"max_tokens {max_tokens}")
            if budget + cost > max_tokens:
                if s > start:
                    cur.append((d, start, s))
                batches.append(cur)
                cur, budget, start = [], 0, s
            budget += cost
        cur.append((d, start, len(documents[d])))
    if cur:
        batches.append(cur)
    return batches


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
        if not all(isinstance(w, str) for entry in entries for w in entry):
            raise DataError("bad lexicon file: concept fields must be strings")
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

    Concepts go to documents in turn, and each concept's documents take
    its two variants in turn, both before shuffling: each concept's two
    variant counts differ by at most one (asserted below), so its variant
    ratio is exactly 1/2 only for an even number of documents.
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

    for k, (src_c, _, _) in enumerate(concepts):
        labels = [variant_of_doc[d] for d, c in enumerate(concept_of_doc)
                  if c == k]
        if abs(labels.count("a") - labels.count("b")) > 1:
            raise DataError(
                f"concept '{src_c}' has {labels.count('a')} documents of "
                f"variant a and {labels.count('b')} of variant b")

    corpus = DocumentCorpus(documents=documents,
                            doc_ids=[f"synth{d:05d}" for d in range(n_docs)])
    return corpus, ConceptLexicon(entries=concepts)
