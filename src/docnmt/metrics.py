"""Translation quality and lexical-cohesion metrics.

The cohesion score here is "LC-stem": a content word counts as a cohesion
device iff its stem repeats the stem of an earlier content word in the same
document.  This deliberately narrows cohesion to stem-match repetition (no
thesaurus relations), so absolute values are not comparable to other LC
implementations — comparisons against a reference scored the same way are.

Stemming is a small ordered suffix-stripper (see ``stem``); the stopword
list ships as a data file whose sha256 is embedded in every report.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

from .errors import ContractError, DataError
from .util import sha256_bytes

Sentence = list[str]
Document = list[Sentence]

_STOPWORDS: set[str] | None = None
_STOPWORD_HASH: str | None = None


def _load_stopwords() -> tuple[set[str], str]:
    global _STOPWORDS, _STOPWORD_HASH
    if _STOPWORDS is None:
        data = resources.files("docnmt").joinpath("data/stopwords.txt").read_bytes()
        words = {line.strip() for line in data.decode("utf-8").splitlines()
                 if line.strip() and not line.startswith("#")}
        _STOPWORDS = words
        _STOPWORD_HASH = sha256_bytes(data)
    return _STOPWORDS, _STOPWORD_HASH


def stopword_hash() -> str:
    return _load_stopwords()[1]


def stem(token: str) -> str:
    """Suffix-stripping stemmer.  Ordered rules, one pass:

    1. ``sses``→``ss``; ``ies``→``i`` (len>4); keep ``ss``; drop ``s`` (len>3)
    2. drop ``ing`` (len>5), else ``ed`` (len>4), else ``ly`` (len>4)
    3. drop trailing ``e`` (len>3)
    """
    t = token
    if t.endswith("sses"):
        t = t[:-2]
    elif t.endswith("ies") and len(t) > 4:
        t = t[:-3] + "i"
    elif t.endswith("ss"):
        pass
    elif t.endswith("s") and len(t) > 3:
        t = t[:-1]
    if t.endswith("ing") and len(t) > 5:
        t = t[:-3]
    elif t.endswith("ed") and len(t) > 4:
        t = t[:-2]
    elif t.endswith("ly") and len(t) > 4:
        t = t[:-2]
    if t.endswith("e") and len(t) > 3:
        t = t[:-1]
    return t


def content_words(tokens: Sentence) -> Sentence:
    """Drop stopwords plus tokens with no alphabetic character
    (punctuation, numerals).  Lowercases first; idempotent."""
    stops, _ = _load_stopwords()
    out = []
    for tok in tokens:
        low = tok.lower()
        if low in stops or not any(ch.isalpha() for ch in low):
            continue
        out.append(low)
    return out


# ---------------------------------------------------------------------------
# lexical cohesion


@dataclass
class LcReport:
    per_document: list[float | None]   # None where a document was excluded
    corpus_lc: float
    n_content: int
    n_devices: int
    delta_vs_reference: float | None = None
    excluded: list[int] = field(default_factory=list)
    stopwords_sha256: str = ""

    def __post_init__(self):
        if not 0.0 <= self.corpus_lc <= 100.0 or self.n_devices > self.n_content:
            raise ContractError("inconsistent LC report")


def _lc_counts(doc: Document) -> tuple[int, int]:
    seen: set[str] = set()
    content = 0
    devices = 0
    for sent in doc:
        for word in content_words(sent):
            content += 1
            s = stem(word)
            if s in seen:
                devices += 1
            seen.add(s)
    return content, devices


def lc_score(documents: list[Document],
             reference_documents: list[Document] | None = None) -> LcReport:
    """LC-stem: 100 × devices / content words, micro-averaged over the corpus.

    A device is a content word whose stem already occurred earlier in the
    same document.  Documents with zero content words are excluded (with a
    warning).  With ``reference_documents``, ``delta_vs_reference`` is
    LC(documents) − LC(reference_documents).
    """
    if not documents:
        raise DataError("lc_score needs at least one document")
    per_doc: list[float | None] = []
    excluded: list[int] = []
    total_content = 0
    total_devices = 0
    for i, doc in enumerate(documents):
        content, devices = _lc_counts(doc)
        if content == 0:
            warnings.warn(f"document {i} has no content words; excluded from LC")
            per_doc.append(None)
            excluded.append(i)
            continue
        per_doc.append(100.0 * devices / content)
        total_content += content
        total_devices += devices
    if total_content == 0:
        raise DataError("no content words in any document")
    corpus = 100.0 * total_devices / total_content
    delta = None
    if reference_documents is not None:
        ref = lc_score(reference_documents)
        delta = corpus - ref.corpus_lc
    return LcReport(per_document=per_doc, corpus_lc=corpus,
                    n_content=total_content, n_devices=total_devices,
                    delta_vs_reference=delta, excluded=excluded,
                    stopwords_sha256=stopword_hash())


# ---------------------------------------------------------------------------
# BLEU


def _ngrams(tokens: Sentence, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidate_documents: list[Document],
          reference_documents: list[Document]) -> float:
    """Corpus BLEU-4 on pre-tokenized text: geometric mean of modified
    1–4-gram precisions times the brevity penalty.

    No smoothing: any zero precision gives 0.
    """
    cand = [s for doc in candidate_documents for s in doc]
    ref = [s for doc in reference_documents for s in doc]
    if len(cand) != len(ref):
        raise DataError(
            f"candidate has {len(cand)} sentences, reference {len(ref)}")
    if not cand:
        raise DataError("bleu4 needs at least one sentence pair")

    matches = [0] * 4
    totals = [0] * 4
    c_len = 0
    r_len = 0
    for c, r in zip(cand, ref):
        c_len += len(c)
        r_len += len(r)
        for n in range(1, 5):
            cn = _ngrams(c, n)
            rn = _ngrams(r, n)
            totals[n - 1] += max(len(c) - n + 1, 0)
            matches[n - 1] += sum(min(cnt, rn[g]) for g, cnt in cn.items())

    if c_len == 0:
        warnings.warn("empty candidate corpus; BLEU = 0")
        return 0.0
    log_sum = 0.0
    for n in range(4):
        num, den = matches[n], totals[n]
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return 100.0 * bp * math.exp(log_sum / 4.0)


# ---------------------------------------------------------------------------
# synonym-choice consistency (synthetic benchmark diagnostic)


@dataclass
class ConsistencyReport:
    rate: float
    n_consistent: int
    n_eligible: int
    n_dropped: int

    def __float__(self) -> float:
        return self.rate


def consistency_report(candidate_documents: list[Document],
                       pairs) -> ConsistencyReport:
    """How often sentences 2..L reuse the synonym sentence 1 chose.

    ``pairs`` is a list of (variant_a, variant_b) or an object with a
    ``.pairs`` attribute.  For each document and pair, sentence 1 fixes the
    anchor variant; later sentences where either variant appears count as
    consistent iff they use the anchor and not the other.  Sentences with
    neither variant — or whole documents whose first sentence is ambiguous
    or silent about the pair — are counted as dropped.
    """
    pair_list = list(getattr(pairs, "pairs", pairs))
    consistent = 0
    eligible = 0
    dropped = 0
    for doc in candidate_documents:
        if not doc:
            continue
        first = set(doc[0])
        for s in (set(sent) for sent in doc[1:]):
            touching = [(a, b) for a, b in pair_list if a in s or b in s]
            if not touching:
                dropped += 1
                continue
            for a, b in touching:
                in_a, in_b = a in first, b in first
                if in_a == in_b:  # sentence 1 ambiguous or silent: no anchor
                    dropped += 1
                    continue
                anchor, other = (a, b) if in_a else (b, a)
                eligible += 1
                if anchor in s and other not in s:
                    consistent += 1
    rate = consistent / eligible if eligible else 0.0
    return ConsistencyReport(rate=rate, n_consistent=consistent,
                             n_eligible=eligible, n_dropped=dropped)


def consistency_rate(candidate_documents: list[Document], pairs) -> float:
    return consistency_report(candidate_documents, pairs).rate
