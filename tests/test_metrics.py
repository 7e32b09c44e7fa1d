"""Metric kernel tests: tokenizer, overlap precision, ROUGE, aggregation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from qasum.metrics import (
    EmptyAnswer,
    EmptyInput,
    Reference,
    RougeScore,
    ScoreRow,
    aggregate,
    has_tokens,
    lcs_length,
    overlap_precision,
    rouge_l,
    rouge_n,
    rouge_scores,
    tokenize,
)

WORDS = ["the", "cat", "sat", "dog", "ran", "on", "a", "mat", "fast", "now"]


def lcs_brute(a, b):
    """Textbook recursive LCS, the independent oracle for the DP kernels."""
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + lcs_brute(a[:-1], b[:-1])
    return max(lcs_brute(a[:-1], b), lcs_brute(a, b[:-1]))


def random_tokens(rng, max_len=8, alphabet=("a", "b", "c", "d")):
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


# --- tokenize ---------------------------------------------------------------


def test_tokenize_splits_on_punctuation():
    assert tokenize("The cat, sat.") == ["the", "cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("...!?") == []


def test_tokenize_keeps_digits():
    assert tokenize("2023-04 report") == ["2023", "04", "report"]


def test_tokenize_underscore_is_a_separator():
    assert tokenize("snake_case") == ["snake", "case"]


@given(st.text())
def test_has_tokens_agrees_with_tokenize(text):
    assert has_tokens(text) == bool(tokenize(text))


def test_has_tokens_on_separators_only():
    assert not has_tokens(" _-_ ,. \n")
    assert has_tokens("__x__")


# --- overlap precision -------------------------------------------------------


def test_overlap_identity_is_one():
    assert overlap_precision("The cat sat.", "the cat sat") == 1.0


def test_overlap_disjoint_is_zero():
    assert overlap_precision("purple monkey", "the cat sat") == 0.0


def test_overlap_hand_computed_two_thirds():
    got = overlap_precision("the cat ran", "the dog sat on the cat")
    assert got == pytest.approx(2 / 3, abs=1e-9)


def test_overlap_empty_answer_raises():
    with pytest.raises(EmptyAnswer):
        overlap_precision("?!", "the cat sat")


def test_overlap_multiset_clips_repetition():
    # answer repeats "the" but the reference has it once
    assert overlap_precision("the the cat", "the cat") == pytest.approx(2 / 3)


def test_overlap_set_mode_counts_distinct_words_once():
    # multiset credits the repeated "the" twice (reference has two), set does not
    assert overlap_precision("the the cat", "the dog the", mode="multiset") == pytest.approx(2 / 3)
    assert overlap_precision("the the cat", "the dog the", mode="set") == pytest.approx(1 / 3)


def test_overlap_unknown_mode():
    with pytest.raises(ValueError):
        overlap_precision("a", "a", mode="bag")


@given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12), st.randoms())
def test_overlap_is_one_when_answer_words_subset_of_reference(ref_tokens, rng):
    answer_tokens = [rng.choice(ref_tokens) for _ in range(rng.randint(1, len(ref_tokens)))]
    # keep within the reference's multiset so clipping cannot bite
    from collections import Counter

    answer = []
    budget = Counter(ref_tokens)
    for t in answer_tokens:
        if budget[t] > 0:
            budget[t] -= 1
            answer.append(t)
    if not answer:
        answer = [ref_tokens[0]]
    assert overlap_precision(" ".join(answer), " ".join(ref_tokens)) == 1.0


# --- rouge_n -----------------------------------------------------------------


def test_rouge_n_identity():
    score = rouge_n("The cat sat on the mat", "the cat sat on the mat", 1)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_1_hand_enumerated():
    score = rouge_n("the cat", "the cat sat", 1)
    assert score.precision == pytest.approx(1.0, abs=1e-9)
    assert score.recall == pytest.approx(2 / 3, abs=1e-9)
    assert score.f1 == pytest.approx(0.8, abs=1e-9)


def test_rouge_2_hand_enumerated():
    score = rouge_n("the cat", "the cat sat", 2)
    assert score.precision == pytest.approx(1.0, abs=1e-9)
    assert score.recall == pytest.approx(0.5, abs=1e-9)
    assert score.f1 == pytest.approx(2 / 3, abs=1e-9)


def test_rouge_n_empty_candidate_scores_zero():
    score = rouge_n("", "the cat", 1)
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_n_too_short_for_ngrams():
    score = rouge_n("cat", "cat", 2)
    assert score == RougeScore.zero()


def test_rouge_n_rejects_bad_n():
    with pytest.raises(ValueError):
        rouge_n("a", "a", 0)


# --- rouge_l -----------------------------------------------------------------


def test_rouge_l_identity():
    score = rouge_l("The cat sat", "the cat sat")
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_l_hand_lcs():
    score = rouge_l("the cat sat", "the sat cat")
    assert score.precision == pytest.approx(2 / 3, abs=1e-9)
    assert score.recall == pytest.approx(2 / 3, abs=1e-9)
    assert score.f1 == pytest.approx(2 / 3, abs=1e-9)


def test_rouge_l_empty_inputs():
    assert rouge_l("", "the cat") == RougeScore.zero()
    assert rouge_l("the cat", "") == RougeScore.zero()


def test_lcs_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a, b = random_tokens(rng), random_tokens(rng)
        assert lcs_length(a, b) == lcs_brute(a, b)


# Words, repeats and punctuation-only fragments, so texts can be empty,
# tokenless or full of repeated n-grams.
scorer_texts = st.lists(
    st.sampled_from(["the", "cat", "sat", "the cat", "Cat!", "...", " - ", "_", "", "2023-04"]),
    max_size=12,
).map(" ".join)


@settings(deadline=None)
@given(scorer_texts, scorer_texts)
def test_row_scorer_equals_public_rouge(candidate, reference):
    expected = (rouge_n(candidate, reference, 1), rouge_n(candidate, reference, 2),
                rouge_l(candidate, reference))
    assert rouge_scores(tokenize(candidate), Reference.from_text(reference)) == expected


def test_row_scorer_edge_cases():
    for candidate, reference in [("", ""), ("", "the cat"), ("the cat", ""), ("?!", "..."),
                                 ("the the the", "the the"), ("cat", "cat")]:
        expected = (rouge_n(candidate, reference, 1), rouge_n(candidate, reference, 2),
                    rouge_l(candidate, reference))
        assert rouge_scores(tokenize(candidate), Reference.from_text(reference)) == expected


def test_reference_counts_are_reusable():
    reference = Reference.from_text("the cat sat on the mat")
    first = rouge_scores(tokenize("the cat"), reference)
    rouge_scores(tokenize("a dog ran"), reference)
    assert rouge_scores(tokenize("the cat"), reference) == first


# --- cross-metric properties -------------------------------------------------

token_lists = st.lists(st.sampled_from(WORDS), max_size=10)


@settings(deadline=None)
@given(token_lists, token_lists)
def test_precision_recall_symmetry(a_tokens, b_tokens):
    a, b = " ".join(a_tokens), " ".join(b_tokens)
    for n in (1, 2):
        assert rouge_n(a, b, n).precision == rouge_n(b, a, n).recall
    assert rouge_l(a, b).precision == rouge_l(b, a).recall


@settings(deadline=None)
@given(token_lists, token_lists)
def test_matched_ngrams_bounded(a_tokens, b_tokens):
    a, b = " ".join(a_tokens), " ".join(b_tokens)
    for n in (1, 2, 3):
        score = rouge_n(a, b, n)
        n_cand = max(len(a_tokens) - n + 1, 0)
        n_ref = max(len(b_tokens) - n + 1, 0)
        matched = round(score.precision * n_cand)
        assert 0 <= matched <= min(n_cand, n_ref)
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0


@given(
    st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
)
def test_f1_is_monotone_in_precision_and_recall(p1, r1, dp, dr):
    p2 = min(1.0, p1 + dp)
    r2 = min(1.0, r1 + dr)
    assert RougeScore.from_pr(p2, r2).f1 >= RougeScore.from_pr(p1, r1).f1 - 1e-12


# --- aggregation -------------------------------------------------------------


def make_row(id_, domain="News", k=0, f1=0.5, method="icl"):
    s = RougeScore(f1, f1, f1)
    return ScoreRow(
        id=id_, method=method, model="m", domain=domain, k=k,
        rouge1=s, rouge2=s, rougeL=s, parse_status="ok",
    )


def test_aggregate_mean():
    rows = [make_row("a", f1=0.2), make_row("b", f1=0.4)]
    (out,) = aggregate(rows, ("method",))
    assert out.n == 2
    assert out.rougeL.f1 == pytest.approx(0.3)


def test_aggregate_partitions_by_domain():
    rows = [make_row("a", domain="News"), make_row("b", domain="Reviews")]
    out = aggregate(rows, ("domain",))
    assert len(out) == 2
    assert [dict(g.group)["domain"] for g in out] == ["News", "Reviews"]


def test_aggregate_single_row_identity():
    row = make_row("a", f1=0.7)
    (out,) = aggregate([row], ("method", "k"))
    assert out.rouge1 == row.rouge1
    assert out.rougeL == row.rougeL
    assert out.n == 1


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInput):
        aggregate([], ("method",))


def test_aggregate_unknown_field():
    with pytest.raises(ValueError):
        aggregate([make_row("a")], ("flavor",))


def test_aggregate_sorts_k_numerically():
    rows = [make_row("a", k=10), make_row("b", k=2), make_row("c", k=0)]
    out = aggregate(rows, ("k",))
    assert [dict(g.group)["k"] for g in out] == [0, 2, 10]
