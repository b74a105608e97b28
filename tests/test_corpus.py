import numpy as np
import pytest

from docnmt.corpus import (
    BatchItem,
    ConceptLexicon,
    DocumentCorpus,
    build_vocab,
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


# ---------------------------------------------------------------------------
# batching


def synth(n_docs=10, doc_len=4, seed=3):
    return generate_synthetic_cohesion_corpus(
        n_docs=n_docs, doc_len=doc_len, n_concepts=3, seed=seed)[0]


def vocabs(corpus):
    return build_vocab(corpus, "src"), build_vocab(corpus, "tgt")


def test_sentence_batches_respect_token_budget():
    corpus = synth()
    sv, tv = vocabs(corpus)
    batches, n_trunc = make_batches(corpus.one_sentence_documents(), sv, tv,
                                    max_tokens=40, max_len=30, seed=0)
    assert n_trunc == 0
    assert sum(len(b) for b in batches) == corpus.n_sentences
    for b in batches:
        assert sum(len(it.tgt_ids) for it in b) <= 40
    # each pair is a one-sentence document
    assert all(it.doc_start and it.doc_end for b in batches for it in b)


def test_sentence_batches_shuffle_depends_on_seed_only():
    corpus = synth()
    sv, tv = vocabs(corpus)
    corpus = corpus.one_sentence_documents()
    a, _ = make_batches(corpus, sv, tv, 64, 30, seed=1)
    b, _ = make_batches(corpus, sv, tv, 64, 30, seed=1)
    c, _ = make_batches(corpus, sv, tv, 64, 30, seed=2)
    flat = lambda bs: [(it.src_ids, it.tgt_ids) for batch in bs for it in batch]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)


def test_document_mode_preserves_order_and_marks_starts():
    corpus = synth(n_docs=5, doc_len=3)
    sv, tv = vocabs(corpus)
    batches, _ = make_batches(corpus, sv, tv, max_tokens=30, max_len=30,
                              seed=4)
    items = [it for b in batches for it in b]
    starts = [it.doc_start for it in items]
    assert sum(starts) == 5
    # within one document, the sentences appear contiguously and in order
    by_doc: dict[str, list[BatchItem]] = {}
    for it in items:
        by_doc.setdefault(it.doc_id, []).append(it)
    for doc_id, doc_items in by_doc.items():
        assert doc_items[0].doc_start and not any(
            it.doc_start for it in doc_items[1:])
        d = corpus.doc_ids.index(doc_id)
        expect = [sv.encode(p[0]) for p in corpus.documents[d]]
        assert [it.src_ids for it in doc_items] == expect


def test_truncation_is_counted_and_enforced():
    corpus = synth(n_docs=4, doc_len=2)
    sv, tv = vocabs(corpus)
    batches, n_trunc = make_batches(corpus.one_sentence_documents(), sv, tv,
                                    max_tokens=8, max_len=4, seed=0)
    assert n_trunc > 0
    for b in batches:
        for it in b:
            assert len(it.src_ids) <= 4 and len(it.tgt_ids) <= 4


def test_batch_budget_validation():
    corpus = synth(n_docs=2, doc_len=2)
    sv, tv = vocabs(corpus)
    with pytest.raises(DataError):
        make_batches(corpus, sv, tv, max_tokens=3, max_len=10)
    with pytest.raises(DataError):
        make_batches(corpus, sv, tv, max_tokens=10, max_len=0)


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

    items = [BatchItem(clip(src_vocab.encode(src)), clip(tgt_vocab.encode(tgt)),
                       True, True, doc_id)
             for doc_id, doc in zip(corpus.doc_ids, corpus.documents)
             for src, tgt in doc]
    order = np.random.default_rng(seed).permutation(len(items))
    batches, cur, budget = [], [], 0
    for item in (items[i] for i in order):
        if cur and budget + len(item.tgt_ids) > max_tokens:
            batches.append(cur)
            cur, budget = [], 0
        cur.append(item)
        budget += len(item.tgt_ids)
    return batches + [cur], truncated


@pytest.mark.parametrize("seed", [0, 7])
def test_one_sentence_documents_batch_as_the_sentence_mode(seed):
    """Batching ``one_sentence_documents()`` gives the items, order, flags,
    document ids, batch cuts and truncation count of the independent
    sentence batching it replaced."""
    corpus = synth(n_docs=9, doc_len=3, seed=seed)
    sv, tv = vocabs(corpus)
    for max_tokens, max_len in ((40, 30), (8, 4)):
        want = sentence_mode_batches(corpus, sv, tv, max_tokens, max_len,
                                     seed)
        got = make_batches(corpus.one_sentence_documents(), sv, tv,
                           max_tokens, max_len, seed=seed)
        assert got == want
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
