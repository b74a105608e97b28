import math

import numpy as np
import pytest

from docnmt.cli import _evaluate_files
from docnmt.errors import DataError
from docnmt.metrics import (
    bleu4,
    consistency_rate,
    consistency_report,
    content_words,
    lc_score,
    stem,
    stopword_hash,
)


def doc(*sentences):
    return [s.split() for s in sentences]


# ---------------------------------------------------------------------------
# content words and stemming


def test_content_words_drops_function_words():
    assert content_words(["the", "watch", "is", "good"]) == ["watch", "good"]


def test_content_words_drops_punctuation_and_numerals():
    assert content_words([".", ",", "42", "3.5", "watch"]) == ["watch"]


def test_content_words_all_stopwords_gives_empty():
    assert content_words(["the", "of", "and", "."]) == []


def test_content_words_idempotent_and_lowercasing():
    once = content_words(["The", "Watch", "IS", "Good"])
    assert once == ["watch", "good"]
    assert content_words(once) == once


@pytest.mark.parametrize("word,expected", [
    ("watch", "watch"),
    ("watches", "watch"),
    ("watching", "watch"),
    ("watched", "watch"),
    ("shine", "shin"),
    ("shines", "shin"),
    ("shining", "shin"),
    ("ticks", "tick"),
    ("glasses", "glass"),
    ("glass", "glass"),
    ("stories", "stori"),
    ("quickly", "quick"),
    ("gas", "gas"),       # too short for the s rule
    ("red", "red"),       # too short for the ed rule
    ("sing", "sing"),     # too short for the ing rule
])
def test_stem_rule_table(word, expected):
    assert stem(word) == expected


def test_stopword_hash_is_stable_64_hex():
    h = stopword_hash()
    assert h == stopword_hash()
    assert len(h) == 64 and int(h, 16) >= 0


# ---------------------------------------------------------------------------
# LC-stem


def test_lc_hand_case_single_repetition():
    report = lc_score([doc("the watch shines . the watch ticks .")])
    assert report.corpus_lc == 25.0
    assert report.n_content == 4 and report.n_devices == 1
    assert report.per_document == [25.0]


def test_lc_all_distinct_stems_is_zero():
    report = lc_score([doc("red car .", "blue sky .")])
    assert report.corpus_lc == 0.0


def test_lc_counts_stem_variants_as_devices():
    # watch / watches / watching share a stem: devices 2 of 6 content words
    report = lc_score([doc("one watch .", "two watches .", "keep watching .")])
    assert report.n_devices == 2 and report.n_content == 6
    assert report.corpus_lc == pytest.approx(100.0 * 2 / 6)


def test_lc_device_within_single_sentence():
    # repetition inside one sentence still counts: earlier content word
    report = lc_score([doc("watch watch .")])
    assert report.corpus_lc == 50.0


def test_lc_half_devices_hand_case():
    # content: [sir, watch][watch, good][watch, old] -> devices watch,watch
    report = lc_score([doc("sir , this is a watch .",
                           "that watch is good .",
                           "that watch is old .")])
    assert report.n_content == 6 and report.n_devices == 2
    assert report.corpus_lc == pytest.approx(100.0 / 3)


def test_lc_zero_content_document_excluded_with_warning():
    with pytest.warns(UserWarning, match="no content words"):
        report = lc_score([doc("the watch . the watch ."), doc("the of .")])
    assert report.excluded == [1]
    assert report.per_document[1] is None
    assert report.corpus_lc == 50.0  # content [watch, watch], one device


def test_lc_requires_nonempty_input():
    with pytest.raises(DataError):
        lc_score([])
    with pytest.raises(DataError):
        lc_score([doc("the .")])


def test_lc_delta_vs_reference():
    cand = [doc("watch . watch .")]
    ref = [doc("watch . clock .")]
    scores = _evaluate_files(cand, ref, None)
    assert scores["lc_stem"] == 50.0
    assert scores["lc_delta"] == pytest.approx(50.0)


def test_lc_invariant_under_document_permutation():
    docs = [doc("watch . watch good ."), doc("car road . car ."),
            doc("home house . home .")]
    a = lc_score(docs).corpus_lc
    b = lc_score(docs[::-1]).corpus_lc
    assert a == b


def test_lc_duplicating_document_keeps_micro_average():
    docs = [doc("watch . watch good ."), doc("car road . car .")]
    a = lc_score(docs).corpus_lc
    b = lc_score(docs + [docs[0]] + [docs[1]]).corpus_lc
    assert a == pytest.approx(b)


def test_lc_self_concatenation_never_decreases():
    rng = np.random.default_rng(7)
    words = ["watch", "clock", "car", "road", "good", "old", "home",
             "shine", "tick", "story"]
    for _ in range(25):
        n_sents = int(rng.integers(1, 4))
        d = [[words[int(i)] for i in rng.integers(0, len(words), size=4)]
             for _ in range(n_sents)]
        single = lc_score([d]).corpus_lc
        double = lc_score([d + d]).corpus_lc
        assert double >= single - 1e-12


# ---------------------------------------------------------------------------
# BLEU-4


def test_bleu_identical_is_exactly_100():
    docs = [doc("the watch is on the table .", "he bought a watch .")]
    assert bleu4(docs, docs) == 100.0


def test_bleu_hand_worked_20_pair_fixture():
    # 10 exact copies of a 7-token sentence plus 10 pairs with one
    # substitution (watch -> clock).  Hand counts: p1 = 130/140,
    # p2 = 100/120, p3 = 70/100, p4 = 50/80, BP = 1 (equal lengths), so
    # BLEU = 100 * exp(mean(log p_n)) = 76.27865...
    exact_ref = "the watch is on the table ."
    sub_ref = "he bought a new watch yesterday ."
    sub_cand = "he bought a new clock yesterday ."
    cand = [doc(*[exact_ref] * 10 + [sub_cand] * 10)]
    ref = [doc(*[exact_ref] * 10 + [sub_ref] * 10)]
    assert bleu4(cand, ref) == pytest.approx(76.27865593709942, abs=0.1)


def test_bleu_zero_fourgram_overlap_is_zero_without_smoothing():
    cand = [doc("a b c d e")]
    ref = [doc("a x b y c z d")]
    assert bleu4(cand, ref) == 0.0


def test_bleu_brevity_penalty_applied():
    # candidate is a strict prefix: precisions all 1, BP = exp(1 - 8/4)
    cand = [doc("a b c d")]
    ref = [doc("a b c d e f g h")]
    assert bleu4(cand, ref) == pytest.approx(100.0 * math.exp(1.0 - 2.0))


def test_bleu_no_penalty_for_long_candidate():
    cand = [doc("a b c d e f g h")]
    ref = [doc("a b c d")]
    score = bleu4(cand, ref)
    # precisions < 1 but BP == 1
    assert 0.0 < score < 100.0
    p = [4 / 8, 3 / 7, 2 / 6, 1 / 5]
    assert score == pytest.approx(100.0 * math.exp(sum(map(math.log, p)) / 4))


def test_bleu_empty_candidate_warns_and_scores_zero():
    with pytest.warns(UserWarning, match="empty candidate"):
        assert bleu4([[[]]], [doc("a b c")]) == 0.0


def test_bleu_alignment_errors():
    with pytest.raises(DataError):
        bleu4([doc("a b")], [doc("a b", "c d")])
    with pytest.raises(DataError):
        bleu4([], [])


def test_bleu_symmetric_under_pair_permutation():
    cand = [doc("the watch is good .", "he saw a clock .",
                "this road is long .")]
    ref = [doc("the watch is good .", "he saw a watch .",
               "that road is long .")]
    a = bleu4(cand, ref)
    order = [2, 0, 1]
    b = bleu4([[cand[0][i] for i in order]], [[ref[0][i] for i in order]])
    assert a == pytest.approx(b)


def test_bleu_clips_repeated_ngrams():
    # "the the the" vs "the cat": unigram matches clip at ref count 1
    cand = [doc("the the the")]
    ref = [doc("the cat sat")]
    assert bleu4(cand, ref) == 0.0  # no bigram overlap anyway
    # with every order overlapping, the clipped p1 = 5/7 shows (the ref has
    # one "the"; unclipped it would be 7/7): p2 = 3/6, p3 = 2/5, p4 = 1/4,
    # and the 7-token candidate is longer than the 6-token ref (BP = 1)
    s = bleu4([doc("the the the a b c d")], [doc("the x a b c d")])
    expect = [5 / 7, 3 / 6, 2 / 5, 1 / 4]
    assert s == pytest.approx(100.0 * math.exp(
        sum(map(math.log, expect)) / 4))


# ---------------------------------------------------------------------------
# consistency


PAIRS = [("watch", "clock"), ("sofa", "couch")]


def test_consistency_perfect_is_one():
    docs = [doc("a watch .", "the watch .", "my watch ."),
            doc("a couch .", "the couch .")]
    assert consistency_rate(docs, PAIRS) == 1.0


def test_consistency_alternating_is_zero():
    docs = [doc("a watch .", "a clock .", "a clock .")]
    assert consistency_rate(docs, PAIRS) == 0.0


def test_consistency_hand_case_three_quarters():
    # two documents, four anchored follow-ups, one breaks consistency
    docs = [doc("a watch .", "the watch .", "a clock ."),
            doc("a sofa .", "the sofa .", "my sofa .")]
    report = consistency_report(docs, PAIRS)
    assert report.n_eligible == 4 and report.n_consistent == 3
    assert report.rate == 0.75


def test_consistency_sentences_without_variants_are_dropped():
    docs = [doc("a watch .", "nothing here .", "the watch .")]
    report = consistency_report(docs, PAIRS)
    assert report.n_eligible == 1 and report.n_dropped == 1
    assert report.rate == 1.0


def test_consistency_ambiguous_first_sentence_drops_document():
    docs = [doc("watch clock .", "the watch .")]
    report = consistency_report(docs, PAIRS)
    assert report.n_eligible == 0 and report.n_dropped == 1
    assert report.rate == 0.0


def test_consistency_mixed_sentence_counts_inconsistent():
    docs = [doc("a watch .", "watch clock .")]
    report = consistency_report(docs, PAIRS)
    assert report.n_eligible == 1 and report.n_consistent == 0


def test_consistency_accepts_lexicon_object():
    class Lex:
        pairs = PAIRS
    docs = [doc("a watch .", "the watch .")]
    assert consistency_rate(docs, Lex()) == 1.0


def test_consistency_synthetic_reference_is_perfect():
    from docnmt.corpus import generate_synthetic_cohesion_corpus
    corpus, lex = generate_synthetic_cohesion_corpus(30, 4, 5, seed=3)
    refs = corpus.side("tgt")
    report = consistency_report(refs, lex)
    assert report.rate == 1.0
    assert report.n_eligible == 30 * 3  # every follow-up names the concept
