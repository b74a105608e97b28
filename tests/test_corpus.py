import numpy as np
import pytest

from docnmt.corpus import (
    ConceptLexicon,
    DocumentCorpus,
    build_vocab,
    encode_documents,
    generate_synthetic_cohesion_corpus,
    load_corpus,
    load_documents,
    load_vocab_pair,
    make_batches,
    save_corpus,
    save_vocab_pair,
    write_manifest,
)
from docnmt.errors import DataError
from docnmt.tokens import BOS_ID, EOS_ID, PAD_ID, UNK_ID


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def two_doc_files(tmp_path):
    src = write(tmp_path / "s.txt", "a b\nc\n\nd e f\n")
    tgt = write(tmp_path / "t.txt", "A B\nC\n\nD E F\n")
    return src, tgt


def test_load_corpus_splits_documents(tmp_path):
    src, tgt = two_doc_files(tmp_path)
    corpus = load_corpus(src, tgt)
    assert corpus.n_documents == 2
    assert corpus.n_sentences == 3
    assert corpus.documents[0][0] == (["a", "b"], ["A", "B"])
    assert corpus.documents[1][0] == (["d", "e", "f"], ["D", "E", "F"])


def test_load_corpus_accepts_crlf_and_missing_trailing_newline(tmp_path):
    src = write(tmp_path / "s.txt", "a b\r\n\r\nc")
    tgt = write(tmp_path / "t.txt", "A B\n\nC\n")
    corpus = load_corpus(src, tgt)
    assert corpus.n_documents == 2


def test_load_corpus_boundary_mismatch_names_line(tmp_path):
    src = write(tmp_path / "s.txt", "a\n\nb\n")
    tgt = write(tmp_path / "t.txt", "A\nB\n\n")
    with pytest.raises(DataError, match="line 2"):
        load_corpus(src, tgt)


def test_load_corpus_length_mismatch_reported(tmp_path):
    src = write(tmp_path / "s.txt", "a\nb\nc\n")
    tgt = write(tmp_path / "t.txt", "A\nB\n")
    with pytest.raises(DataError, match="line 3"):
        load_corpus(src, tgt)


def test_load_corpus_rejects_empty_document(tmp_path):
    src = write(tmp_path / "s.txt", "a\n\n\nb\n")
    tgt = write(tmp_path / "t.txt", "A\n\n\nB\n")
    with pytest.raises(DataError, match="line 3"):
        load_corpus(src, tgt)


def test_load_corpus_reports_the_first_error(tmp_path):
    # empty document at line 3, one side blank at line 6
    src = write(tmp_path / "s.txt", "a\n\n\nb\nc\n\nd\n")
    tgt = write(tmp_path / "t.txt", "A\n\n\nB\nC\nX\nD\n")
    with pytest.raises(DataError, match="line 3: empty document"):
        load_corpus(src, tgt)


def test_load_documents_rejects_consecutive_blank_lines(tmp_path):
    path = write(tmp_path / "d.txt", "a b\nc\n\n\nd\n")
    with pytest.raises(DataError, match="line 4: empty document"):
        load_documents(path)


def test_load_documents_rejects_an_empty_file(tmp_path):
    path = write(tmp_path / "d.txt", "")
    with pytest.raises(DataError, match="corpus is empty"):
        load_documents(path)


def test_save_load_round_trip_is_bitwise(tmp_path):
    corpus, _ = generate_synthetic_cohesion_corpus(
        n_docs=12, doc_len=4, n_concepts=3, seed=7)
    s1, t1 = tmp_path / "s1.txt", tmp_path / "t1.txt"
    save_corpus(corpus, s1, t1)
    again = load_corpus(s1, t1)
    s2, t2 = tmp_path / "s2.txt", tmp_path / "t2.txt"
    save_corpus(again, s2, t2)
    assert s1.read_bytes() == s2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()


def test_manifest_lines_match_saved_file(tmp_path):
    src, tgt = two_doc_files(tmp_path)
    corpus = load_corpus(src, tgt)
    man = tmp_path / "man.tsv"
    write_manifest(corpus, man)
    rows = [line.split("\t") for line in man.read_text().splitlines()]
    assert rows == [["doc00000", "1", "2"], ["doc00001", "4", "4"]]
    # the quoted line numbers really do index the saved file
    lines = src.read_text().splitlines()
    assert lines[0].split() == corpus.documents[0][0][0]
    assert lines[3].split() == corpus.documents[1][0][0]


# ---------------------------------------------------------------------------
# vocabulary


def corpus_from_tokens(sentences):
    doc = [(s.split(), s.split()) for s in sentences]
    return DocumentCorpus(documents=[doc], doc_ids=["d0"])


def test_vocab_frequency_order_with_reserved_prefix():
    corpus = corpus_from_tokens(["a b a", "a"])
    vocab = build_vocab(corpus, "src")
    assert vocab.id_to_token[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]
    assert vocab.token_to_id["a"] == 4  # freq 3
    assert vocab.token_to_id["b"] == 5  # freq 1
    assert PAD_ID == 0 and UNK_ID == 1 and BOS_ID == 2 and EOS_ID == 3


def test_vocab_ties_break_lexicographically():
    corpus = corpus_from_tokens(["zz aa mm"])
    vocab = build_vocab(corpus, "src")
    assert vocab.id_to_token[4:] == ["aa", "mm", "zz"]


def test_vocab_min_freq_and_max_size():
    corpus = corpus_from_tokens(["a a a b b c"])
    assert len(build_vocab(corpus, "src", min_freq=2)) == 6
    assert len(build_vocab(corpus, "src", max_size=5)) == 5


def test_vocab_rejects_reserved_tokens_in_corpus():
    corpus = corpus_from_tokens(["a <pad> b"])
    with pytest.raises(DataError, match="<pad>"):
        build_vocab(corpus, "src")


def test_vocab_takes_a_literal_sep_as_an_ordinary_token():
    corpus = corpus_from_tokens(["a <sep> b <sep>"])
    vocab = build_vocab(corpus, "src")
    assert vocab.id_to_token[4:] == ["<sep>", "a", "b"]
    assert vocab.encode(["b", "<sep>"]) == [6, 4]


def test_encode_maps_oov_to_unk_and_decode_inverts():
    corpus = corpus_from_tokens(["a b"])
    vocab = build_vocab(corpus, "src")
    ids = vocab.encode(["a", "zzz", "b"])
    assert ids == [4, UNK_ID, 5]
    assert vocab.decode([4, 5]) == ["a", "b"]


def test_vocab_pair_save_load(tmp_path):
    corpus = corpus_from_tokens(["a b c"])
    sv = build_vocab(corpus, "src")
    tv = build_vocab(corpus, "tgt")
    path = tmp_path / "vocab.json"
    save_vocab_pair(path, sv, tv)
    sv2, tv2 = load_vocab_pair(path)
    assert sv2.id_to_token == sv.id_to_token
    assert tv2.id_to_token == tv.id_to_token
    with pytest.raises(DataError):
        load_vocab_pair(tmp_path / "missing.json")


@pytest.mark.parametrize("content", [
    b"[1, 2]", b'{"src": 5, "tgt": []}', b'{"src": [{}], "tgt": []}',
    b'{"src": ["\xff"], "tgt": []}', b"{", b'{"tgt": []}',
    b'{"src": ["a"], "tgt": ["b"]}',
    pytest.param(b'{"src": ["<pad>", "<unk>", "<bos>", "<eos>"], '
                 b'"tgt": ["<pad>", "<unk>", "<bos>", "<eos>", "is", 7]}',
                 id="int-token"),
    pytest.param(b'{"src": ["<pad>", "<unk>", "<bos>", "<eos>"], '
                 b'"tgt": ["<pad>", "<unk>", "<bos>", "<eos>", ".", "."]}',
                 id="repeated-token"),
    pytest.param(b'{"src": ["<pad>", "<unk>", "<bos>", "<eos>", "<pad>"], '
                 b'"tgt": ["<pad>", "<unk>", "<bos>", "<eos>"]}',
                 id="repeated-reserved-token")])
def test_a_malformed_vocabulary_is_a_data_error_naming_the_file(tmp_path,
                                                                content):
    path = tmp_path / "vocab.json"
    path.write_bytes(content)
    with pytest.raises(DataError, match="vocab.json"):
        load_vocab_pair(path)


# ---------------------------------------------------------------------------
# batching


def synth(n_docs=10, doc_len=4, seed=3):
    return generate_synthetic_cohesion_corpus(
        n_docs=n_docs, doc_len=doc_len, n_concepts=3, seed=seed)[0]


def vocabs(corpus):
    return build_vocab(corpus, "src"), build_vocab(corpus, "tgt")


def one_pair_documents(docs):
    return [[pair] for doc in docs for pair in doc]


def encoded(corpus, max_len=30):
    return encode_documents(corpus, *vocabs(corpus), max_len)[0]


def sentence_items(documents, batches):
    """Runs expanded into the per-sentence items ``make_batches`` once
    returned: (src, tgt, doc_start, doc_end), batch by batch."""
    return [[(*documents[d][s], s == 0, s == len(documents[d]) - 1)
             for d, start, stop in batch for s in range(start, stop)]
            for batch in batches]


def reference_batches(documents, max_tokens, seed):
    """The per-sentence batching the runs replace: the documents in the
    seed's permutation, their sentences in order, each item opening a new
    batch when its target would overrun the budget."""
    batches, cur, budget = [], [], 0
    for d in np.random.default_rng(seed).permutation(len(documents)):
        doc = documents[d]
        for s, (src, tgt) in enumerate(doc):
            if cur and budget + len(tgt) > max_tokens:
                batches.append(cur)
                cur, budget = [], 0
            cur.append((src, tgt, s == 0, s == len(doc) - 1))
            budget += len(tgt)
    return batches + [cur]


def test_sentence_batches_respect_token_budget():
    corpus = synth()
    docs = one_pair_documents(encoded(corpus))
    batches = make_batches(docs, max_tokens=40, seed=0)
    # each pair is a one-sentence document, in a run of its own
    assert sorted(r for b in batches for r in b) == \
        [(d, 0, 1) for d in range(corpus.n_sentences)]
    for b in sentence_items(docs, batches):
        assert sum(len(tgt) for _, tgt, _, _ in b) <= 40


def test_sentence_batches_shuffle_depends_on_seed_only():
    docs = one_pair_documents(encoded(synth()))
    a = make_batches(docs, 64, seed=1)
    b = make_batches(docs, 64, seed=1)
    c = make_batches(docs, 64, seed=2)
    assert a == b
    assert a != c


def test_document_mode_preserves_order_and_marks_starts():
    corpus = synth(n_docs=5, doc_len=3)
    batches = make_batches(encoded(corpus), max_tokens=30, seed=4)
    runs = [r for b in batches for r in b]
    assert sum(start == 0 for _, start, _ in runs) == 5
    # each document's sentences appear contiguously and in order, the
    # documents in the order of the seed's permutation
    order = np.random.default_rng(4).permutation(corpus.n_documents)
    whole = []
    for d, start, stop in runs:
        if start:
            assert whole[-1][0] == d and whole[-1][2] == start
            whole[-1] = (d, whole[-1][1], stop)
        else:
            whole.append((d, start, stop))
    assert whole == [(d, 0, 3) for d in order]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("doc_len", [1, 4])
def test_batch_runs_expand_to_the_sentence_items(seed, doc_len):
    """Runs cover every sentence once, in document order, within the
    budget; only a batch's first run starts inside its document; and
    expanded per sentence they give the items, flags and batch cuts of the
    per-sentence batching.  The budget splits most documents."""
    corpus = synth(n_docs=12, doc_len=4, seed=seed)
    docs = encoded(corpus)
    if doc_len == 1:
        docs = one_pair_documents(docs)
    batches = make_batches(docs, max_tokens=15, seed=seed)
    runs = [r for b in batches for r in b]
    covered = sorted((d, s) for d, start, stop in runs
                     for s in range(start, stop))
    assert covered == [(d, s) for d, doc in enumerate(docs)
                       for s in range(len(doc))]
    assert all(start < stop for _, start, stop in runs)
    for b in batches:
        assert all(start == 0 for _, start, _ in b[1:])
        assert sum(len(docs[d][s][1]) for d, start, stop in b
                   for s in range(start, stop)) <= 15
    assert sentence_items(docs, batches) == reference_batches(docs, 15, seed)
    if doc_len > 1:
        assert len({d for d, start, _ in runs if start}) > len(docs) / 2


def test_truncation_is_counted_and_enforced():
    corpus = synth(n_docs=4, doc_len=2)
    sv, tv = vocabs(corpus)
    docs, n_trunc = encode_documents(corpus, sv, tv, max_len=4)
    assert n_trunc == sum((len(src) > 4) + (len(tgt) > 4)
                          for src, tgt in corpus.pairs()) > 0
    assert [len(doc) for doc in docs] == [2] * 4
    for doc, words in zip(docs, corpus.documents):
        for (src, tgt), (src_words, tgt_words) in zip(doc, words):
            assert src == sv.encode(src_words)[:4]
            assert tgt == tv.encode(tgt_words)[:4]
    assert encode_documents(corpus, sv, tv, max_len=30)[1] == 0


def test_batch_budget_validation():
    corpus = synth(n_docs=2, doc_len=2)
    with pytest.raises(DataError):
        make_batches(encoded(corpus, max_len=10), max_tokens=3)
    with pytest.raises(DataError):
        encode_documents(corpus, *vocabs(corpus), max_len=0)


def sentence_mode_batches(corpus, src_vocab, tgt_vocab, max_tokens, max_len,
                          seed):
    """The former ``sentence`` batching mode, written out: every pair an
    independent item marked as a one-sentence document, the items shuffled
    by one permutation from ``seed``, then cut by the token budget."""
    truncated = 0

    def clip(ids):
        nonlocal truncated
        truncated += len(ids) > max_len
        return ids[:max_len]

    items = [(clip(src_vocab.encode(src)), clip(tgt_vocab.encode(tgt)),
              True, True)
             for doc in corpus.documents for src, tgt in doc]
    order = np.random.default_rng(seed).permutation(len(items))
    batches, cur, budget = [], [], 0
    for item in (items[i] for i in order):
        if cur and budget + len(item[1]) > max_tokens:
            batches.append(cur)
            cur, budget = [], 0
        cur.append(item)
        budget += len(item[1])
    return batches + [cur], truncated


@pytest.mark.parametrize("seed", [0, 7])
def test_one_pair_documents_batch_as_the_sentence_mode(seed):
    """Encoding, then batching each pair as a document of its own, gives
    the items, order, flags, batch cuts and truncation count of the
    independent sentence batching it replaced."""
    corpus = synth(n_docs=9, doc_len=3, seed=seed)
    sv, tv = vocabs(corpus)
    for max_tokens, max_len in ((40, 30), (8, 4)):
        want = sentence_mode_batches(corpus, sv, tv, max_tokens, max_len,
                                     seed)
        docs, truncated = encode_documents(corpus, sv, tv, max_len)
        docs = one_pair_documents(docs)
        got = sentence_items(docs, make_batches(docs, max_tokens, seed=seed))
        assert (got, truncated) == want
    assert want[1] > 0 and len(want[0]) > 1


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_shapes_and_determinism():
    c1, lex1 = generate_synthetic_cohesion_corpus(20, 4, 5, seed=11)
    c2, lex2 = generate_synthetic_cohesion_corpus(20, 4, 5, seed=11)
    c3, _ = generate_synthetic_cohesion_corpus(20, 4, 5, seed=12)
    assert c1.n_documents == 20
    assert all(len(d) == 4 for d in c1.documents)
    assert c1.documents == c2.documents
    assert c1.documents != c3.documents
    assert lex1.entries == lex2.entries
    assert len(lex1.entries) == 5


def test_synth_documents_use_one_variant_consistently():
    corpus, lex = generate_synthetic_cohesion_corpus(50, 5, 4, seed=2)
    for doc in corpus.documents:
        hits = set()
        for _, tgt in doc:
            for a, b in lex.pairs:
                if a in tgt:
                    hits.add(a)
                if b in tgt:
                    hits.add(b)
        assert len(hits) == 1  # same synonym in every sentence of the doc


def test_synth_marker_reveals_variant_only_in_first_sentence():
    corpus, lex = generate_synthetic_cohesion_corpus(30, 4, 3, seed=9)
    markers = {"sir", "buddy"}
    for doc in corpus.documents:
        first_tgt = doc[0][1]
        assert markers & set(first_tgt)
        for _, tgt in doc[1:]:
            assert not markers & set(tgt)
    # marker agrees with the variant chosen for the document
    for doc in corpus.documents:
        a_vars = {a for a, _ in lex.pairs}
        uses_a = any(t in a_vars for _, tgt in doc for t in tgt)
        assert ("sir" in doc[0][1]) == uses_a


def test_synth_balance_holds_at_acceptance_scale():
    corpus, lex = generate_synthetic_cohesion_corpus(200, 4, 10, seed=0)
    a_vars = {a for a, _ in lex.pairs}
    per_concept: dict[str, list[bool]] = {}
    for doc in corpus.documents:
        toks = set(doc[0][1])
        for src_c, a, b in lex.entries:
            if a in toks or b in toks:
                per_concept.setdefault(src_c, []).append(a in toks)
    assert len(per_concept) == 10
    for src_c, flags in per_concept.items():
        ratio = sum(flags) / len(flags)
        assert 0.4 <= ratio <= 0.6


@pytest.mark.parametrize("n_docs, doc_len, n_concepts",
                         [(200, 4, 10), (200, 4, 150), (201, 4, 67)])
def test_synth_variant_counts_differ_by_at_most_one(n_docs, doc_len,
                                                    n_concepts):
    """Every corpus size generates, concepts with one or three documents
    included, and each concept's two variant counts differ by at most
    one."""
    corpus, lex = generate_synthetic_cohesion_corpus(n_docs, doc_len,
                                                     n_concepts, seed=0)
    counts = {a: 0 for a, b in lex.pairs} | {b: 0 for a, b in lex.pairs}
    for doc in corpus.documents:
        counts[next(t for t in doc[0][1] if t in counts)] += 1
    assert sum(counts.values()) == n_docs
    assert all(abs(counts[a] - counts[b]) <= 1 for a, b in lex.pairs)


def test_synth_extends_concept_list_beyond_builtins():
    _, lex = generate_synthetic_cohesion_corpus(24, 2, 12, seed=1)
    assert len(lex.entries) == 12
    assert lex.entries[10][0] == "mono10"


def test_lexicon_json_round_trip():
    _, lex = generate_synthetic_cohesion_corpus(8, 2, 4, seed=5)
    again = ConceptLexicon.from_json(lex.to_json())
    assert again.entries == lex.entries
    with pytest.raises(DataError):
        ConceptLexicon.from_json("{\"nope\": 1}")


def test_synth_source_sides_do_not_leak_variant():
    corpus, lex = generate_synthetic_cohesion_corpus(40, 3, 4, seed=6)
    tgt_words = {w for a, b in lex.pairs for w in (a, b)} | {"sir", "buddy"}
    for doc in corpus.documents:
        for src, _ in doc:
            assert not tgt_words & set(src)
