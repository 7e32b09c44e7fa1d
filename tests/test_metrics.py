"""Metric kernel tests: tokenizer, overlap precision, ROUGE, aggregation."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import table_of
from qasum.metrics import (
    Reference,
    RougeScore,
    ScoreRow,
    aggregate,
    has_tokens,
    lcs_length,
    left_sum,
    lcs_masks,
    overlap_precision,
    rouge_scores,
    tokenize,
    _prf,
)

WORDS = ["the", "cat", "sat", "dog", "ran", "on", "a", "mat", "fast", "now"]


def lcs_brute(a, b):
    """Textbook recursive LCS, the independent oracle for the DP kernels."""
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + lcs_brute(a[:-1], b[:-1])
    return max(lcs_brute(a[:-1], b), lcs_brute(a, b[:-1]))


def lcs_dp(a, b):
    """O(len(a) * len(b)) row-by-row DP, the oracle for long inputs."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_n_oracle(cand_tokens, ref_tokens, n):
    """Textbook clipped n-gram counting (Lin 2004), the independent oracle
    for ROUGE-N: tuple slicing and one ``min`` per candidate n-gram."""

    def counts(tokens):
        grams = {}
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i : i + n])
            grams[gram] = grams.get(gram, 0) + 1
        return grams

    cand, ref = counts(cand_tokens), counts(ref_tokens)
    matched = 0
    for gram, count in cand.items():
        matched += min(count, ref.get(gram, 0))
    cand_total, ref_total = sum(cand.values()), sum(ref.values())
    precision = matched / cand_total if cand_total else 0.0
    recall = matched / ref_total if ref_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def rouge_l_oracle(cand_tokens, ref_tokens):
    """ROUGE-L from the DP oracle's LCS; an empty side scores all zeros."""
    if not cand_tokens or not ref_tokens:
        return 0.0, 0.0, 0.0
    lcs = lcs_dp(cand_tokens, ref_tokens)
    precision, recall = lcs / len(cand_tokens), lcs / len(ref_tokens)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def scores(candidate, reference):
    """ROUGE-1, -2 and -L of two texts through the row scorer."""
    return rouge_scores(tokenize(candidate), Reference.from_text(reference))


def overlap(answer, reference):
    return overlap_precision(tokenize(answer), lcs_masks(tokenize(reference)))


def as_tuple(score):
    return score.precision, score.recall, score.f1


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


def tokenize_oracle(text):
    """The tokenizer's definition: maximal runs of [^\\W_] in the lowercased text."""
    return re.findall(r"[^\W_]+", text.lower())


def test_tokenize_is_the_regex_on_every_ascii_character():
    ascii_chars = [chr(cp) for cp in range(128)]
    texts = ascii_chars + [f"a{c}B" for c in ascii_chars]
    assert [t for t in texts if tokenize(t) != tokenize_oracle(t)] == []


@given(st.text(st.characters(max_codepoint=127)))
def test_tokenize_is_the_regex_on_ascii_text(text):
    assert tokenize(text) == tokenize_oracle(text)


@given(st.text())
def test_tokenize_is_the_regex_on_any_text(text):
    assert tokenize(text) == tokenize_oracle(text)


# "_" is a word character but no token character; \x1c-\x1f are separators
# that str.split treats as whitespace; İ lowercases to two code points; ² is
# alphanumeric but no decimal digit; ’ and NBSP are the non-ASCII separators
# of typographic text.
@pytest.mark.parametrize("text", [
    "_", "a_b", "\x1c", "a\x1cb\x1dc\x1ed\x1ff", "İstanbul", "x² + y²", "don’t stop", "a\xa0b",
    "Café’s \x1cİ_x²",
])
def test_tokenize_is_the_regex_on_named_cases(text):
    assert tokenize(text) == tokenize_oracle(text)


@given(st.text())
def test_has_tokens_agrees_with_tokenize(text):
    assert has_tokens(text) == bool(tokenize(text))


def test_has_tokens_agrees_with_tokenize_on_every_cased_code_point():
    # has_tokens searches the text as is and tokenize its lowercase copy, so
    # they agree only while no code point changes word-ness when lowered.
    # Every such code point is checked, so a Unicode table change shows up.
    cased = [chr(cp) for cp in range(0x110000) if chr(cp).lower() != chr(cp)]
    assert len(cased) > 1000
    assert [c for c in cased if has_tokens(c) != bool(tokenize(c))] == []


def test_has_tokens_on_separators_only():
    assert not has_tokens(" _-_ ,. \n")
    assert has_tokens("__x__")


# --- overlap precision -------------------------------------------------------


def test_overlap_identity_is_one():
    assert overlap("The cat sat.", "the cat sat") == 1.0


def test_overlap_disjoint_is_zero():
    assert overlap("purple monkey", "the cat sat") == 0.0


def test_overlap_hand_computed_two_thirds():
    got = overlap("the cat ran", "the dog sat on the cat")
    assert got == pytest.approx(2 / 3, abs=1e-9)


def test_overlap_empty_answer_is_zero():
    assert overlap("?!", "the cat sat") == 0.0


def test_overlap_multiset_clips_repetition():
    # answer repeats "the" but the reference has it once
    assert overlap("the the cat", "the cat") == pytest.approx(2 / 3)
    # the reference has "the" twice, so both of the answer's are credited
    assert overlap("the the cat", "the dog the") == pytest.approx(2 / 3)


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
    assert overlap(" ".join(answer), " ".join(ref_tokens)) == 1.0


# --- ROUGE-1/2/L -------------------------------------------------------------


def test_rouge_n_identity():
    r1, r2, _ = scores("The cat sat on the mat", "the cat sat on the mat")
    assert as_tuple(r1) == as_tuple(r2) == (1.0, 1.0, 1.0)


def test_rouge_1_hand_enumerated():
    score = scores("the cat", "the cat sat")[0]
    assert score.precision == pytest.approx(1.0, abs=1e-9)
    assert score.recall == pytest.approx(2 / 3, abs=1e-9)
    assert score.f1 == pytest.approx(0.8, abs=1e-9)


def test_rouge_2_hand_enumerated():
    score = scores("the cat", "the cat sat")[1]
    assert score.precision == pytest.approx(1.0, abs=1e-9)
    assert score.recall == pytest.approx(0.5, abs=1e-9)
    assert score.f1 == pytest.approx(2 / 3, abs=1e-9)


def test_rouge_n_empty_candidate_scores_zero():
    r1, r2, _ = scores("", "the cat")
    assert as_tuple(r1) == as_tuple(r2) == (0.0, 0.0, 0.0)


def test_rouge_n_too_short_for_ngrams():
    assert scores("cat", "cat")[1] == RougeScore(0.0, 0.0, 0.0)


def test_rouge_l_identity():
    score = scores("The cat sat", "the cat sat")[2]
    assert as_tuple(score) == (1.0, 1.0, 1.0)


def test_rouge_l_hand_lcs():
    score = scores("the cat sat", "the sat cat")[2]
    assert score.precision == pytest.approx(2 / 3, abs=1e-9)
    assert score.recall == pytest.approx(2 / 3, abs=1e-9)
    assert score.f1 == pytest.approx(2 / 3, abs=1e-9)


def test_rouge_l_empty_inputs():
    assert scores("", "the cat")[2] == RougeScore(0.0, 0.0, 0.0)
    assert scores("the cat", "")[2] == RougeScore(0.0, 0.0, 0.0)


# --- LCS ---------------------------------------------------------------------


def test_lcs_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a, b = random_tokens(rng), random_tokens(rng)
        assert lcs_length(a, b) == lcs_brute(a, b)


def test_lcs_known_cases():
    assert lcs_length(["x", "y", "z"], ["x", "z", "y"]) == 2
    assert lcs_length(["x", "y", "z"], ["x", "y", "z"]) == 3
    assert lcs_length(["x", "x", "x"], ["x", "x"]) == 2
    assert lcs_length(["x", "y"], ["z", "w"]) == 0
    assert lcs_length([], ["x"]) == 0
    assert lcs_length(["x"], []) == 0
    assert lcs_length([], []) == 0


# Small alphabets make tokens repeat, so matches are dense and the
# bit-vector carries run long.
lcs_alphabets = st.sampled_from([("a",), ("a", "b"), ("a", "b", "c", "d"), tuple(WORDS)])


@st.composite
def lcs_pairs(draw):
    alphabet = draw(lcs_alphabets)
    tokens = st.lists(st.sampled_from(alphabet), max_size=200)
    return draw(tokens), draw(tokens)


@settings(deadline=None, max_examples=300)
@given(lcs_pairs())
def test_lcs_matches_dp_oracle(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_dp(a, b)
    assert lcs_length(a, b, lcs_masks(b)) == lcs_length(a, b)


@st.composite
def lcs_pairs_with_foreign_tokens(draw):
    """Pairs where ``a`` also holds tokens that ``b`` never has, so the
    kernel meets tokens without a mask."""
    alphabet = draw(lcs_alphabets)
    foreign = ("x", "y", "zz")
    a = draw(st.lists(st.sampled_from(alphabet + foreign), max_size=200))
    b = draw(st.lists(st.sampled_from(alphabet), max_size=200))
    return a, b


@settings(deadline=None, max_examples=300)
@given(lcs_pairs_with_foreign_tokens())
def test_lcs_skips_tokens_the_reference_lacks(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_dp(a, b)
    assert lcs_length(a, b, lcs_masks(b)) == lcs_dp(a, b)
    in_b = set(b)
    assert lcs_length(a, b) == lcs_length([t for t in a if t in in_b], b)


# CPython stores ints in 30-bit digits; 64 and 128 are machine-word sizes.
@pytest.mark.parametrize("n", [29, 30, 31, 59, 60, 61, 63, 64, 65, 127, 128, 129])
def test_lcs_at_word_boundaries(n):
    rng = random.Random(n)
    a = [rng.choice("ab") for _ in range(n)]
    b = [rng.choice("ab") for _ in range(n + 1)]
    assert lcs_length(a, b) == lcs_dp(a, b)
    assert lcs_length(a, a) == n


@pytest.mark.parametrize("seed,len_a,len_b,alphabet", [
    (1, 1100, 1500, 6), (2, 1500, 1100, 40), (3, 1200, 1200, 500),
])
def test_lcs_long_inputs_match_dp_oracle(seed, len_a, len_b, alphabet):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(alphabet)]
    a = [rng.choice(vocab) for _ in range(len_a)]
    b = [rng.choice(vocab) for _ in range(len_b)]
    assert lcs_length(a, b) == lcs_dp(a, b)


# Words, repeats and punctuation-only fragments, so texts can be empty,
# tokenless or full of repeated n-grams.
scorer_texts = st.lists(
    st.sampled_from(["the", "cat", "sat", "the cat", "Cat!", "...", " - ", "_", "", "2023-04"]),
    max_size=12,
).map(" ".join)


def oracle_scores(candidate, reference):
    """ROUGE-1, -2 and -L of two texts from the independent oracles."""
    cand, ref = tokenize(candidate), tokenize(reference)
    return rouge_n_oracle(cand, ref, 1), rouge_n_oracle(cand, ref, 2), rouge_l_oracle(cand, ref)


@settings(deadline=None)
@given(scorer_texts, scorer_texts)
def test_row_scorer_equals_public_rouge(candidate, reference):
    got = scores(candidate, reference)
    assert tuple(map(as_tuple, got)) == oracle_scores(candidate, reference)


@settings(deadline=None, max_examples=300)
@given(st.one_of(scorer_texts, st.text()), st.one_of(scorer_texts, st.text()))
def test_rouge_n_equals_textbook_oracle(candidate, reference):
    cand, ref = tokenize(candidate), tokenize(reference)
    r1, r2, _ = rouge_scores(cand, Reference.from_text(reference))
    assert as_tuple(r1) == rouge_n_oracle(cand, ref, 1)
    assert as_tuple(r2) == rouge_n_oracle(cand, ref, 2)


@settings(deadline=None, max_examples=300)
@given(st.one_of(scorer_texts, st.text()), st.one_of(scorer_texts, st.text()))
def test_overlap_is_rouge_1_precision(answer, reference):
    assert overlap(answer, reference) == rouge_n_oracle(tokenize(answer), tokenize(reference), 1)[0]


@pytest.mark.parametrize("seed,len_cand,len_ref,alphabet", [
    (1, 200, 1000, 3), (2, 1000, 200, 8), (3, 600, 700, 50),
])
def test_rouge_n_long_inputs_match_oracle(seed, len_cand, len_ref, alphabet):
    # Hundreds of tokens over few words: masks are wide and n-grams repeat.
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(alphabet)]
    ref = [rng.choice(vocab) for _ in range(len_ref)]
    reference = Reference.from_text(" ".join(ref))
    assert reference.tokens == ref
    bigram = tuple(ref[:2])
    in_ref = sum(pair == bigram for pair in zip(ref, ref[1:]))
    candidates = {
        "random": [rng.choice(vocab) for _ in range(len_cand)],
        # Holds one reference bigram more often than the reference does.
        "clipped": list(bigram) * (in_ref + 3),
        "disjoint": [f"x{i % alphabet}" for i in range(len_cand)],
    }
    for name, cand in candidates.items():
        r1, r2, _ = rouge_scores(cand, reference)
        assert as_tuple(r1) == rouge_n_oracle(cand, ref, 1), name
        assert as_tuple(r2) == rouge_n_oracle(cand, ref, 2), name
        assert overlap_precision(cand, reference.masks) == rouge_n_oracle(cand, ref, 1)[0], name
    assert rouge_scores(candidates["clipped"], reference)[1].precision < 1.0
    assert rouge_scores(candidates["disjoint"], reference)[0] == RougeScore(0.0, 0.0, 0.0)


long_texts = st.lists(st.sampled_from(WORDS), max_size=200).map(" ".join)


@given(st.one_of(scorer_texts, st.text(), long_texts))
def test_reference_mask_bits_count_each_token(text):
    reference = Reference.from_text(text)
    tokens = reference.tokens
    bits = {t: mask.bit_count() for t, mask in reference.masks.items()}
    assert bits == {t: tokens.count(t) for t in tokens}


def test_row_scorer_edge_cases():
    for candidate, reference in [("", ""), ("", "the cat"), ("the cat", ""), ("?!", "..."),
                                 ("the the the", "the the"), ("cat", "cat")]:
        got = scores(candidate, reference)
        assert tuple(map(as_tuple, got)) == oracle_scores(candidate, reference)


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
    for forward, backward in zip(scores(a, b), scores(b, a)):
        assert forward.precision == backward.recall


@settings(deadline=None)
@given(token_lists, token_lists)
def test_matched_ngrams_bounded(a_tokens, b_tokens):
    a, b = " ".join(a_tokens), " ".join(b_tokens)
    for n, score in zip((1, 2), scores(a, b)):
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
    assert _prf(p2, r2)[2] >= _prf(p1, r1)[2] - 1e-12


# --- aggregation -------------------------------------------------------------


def make_row(id_, domain="News", k=0, f1=0.5, method="icl"):
    s = RougeScore(f1, f1, f1)
    return ScoreRow(
        id=id_, method=method, domain=domain, k=k,
        rouge1=s, rouge2=s, rougeL=s, parse_status="ok",
    )


def test_aggregate_mean():
    rows = [make_row("a", f1=0.2), make_row("b", f1=0.4)]
    (out,) = aggregate(table_of(rows), ("method",))
    assert out.n == 2
    assert out.rougeL.f1 == pytest.approx(0.3)


def test_means_add_left_to_right_on_every_python():
    # Added left to right, ten 0.1s make 0.9999999999999999; the compensated
    # sum of Python 3.12 and later makes 1.0, and so a mean of 0.1.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    rows = [make_row(f"r{n}", f1=0.1) for n in range(10)]
    (out,) = aggregate(table_of(rows), ())
    assert out.rouge1.precision == out.rouge2.recall == out.rougeL.f1 == 0.09999999999999999


def test_aggregate_partitions_by_domain():
    rows = [make_row("a", domain="News"), make_row("b", domain="Reviews")]
    out = aggregate(table_of(rows), ("domain",))
    assert len(out) == 2
    assert [dict(g.group)["domain"] for g in out] == ["News", "Reviews"]


def test_aggregate_single_row_identity():
    row = make_row("a", f1=0.7)
    (out,) = aggregate(table_of([row]), ("method", "k"))
    assert out.rouge1 == row.rouge1
    assert out.rougeL == row.rougeL
    assert out.n == 1


def test_aggregate_empty_raises():
    with pytest.raises(ValueError, match="^no rows to aggregate$"):
        aggregate(table_of([]), ("method",))


def test_aggregate_unknown_field():
    with pytest.raises(ValueError):
        aggregate(table_of([make_row("a")]), ("flavor",))


def test_aggregate_sorts_k_numerically():
    rows = [make_row("a", k=10), make_row("b", k=2), make_row("c", k=0)]
    out = aggregate(table_of(rows), ("k",))
    assert [dict(g.group)["k"] for g in out] == [0, 2, 10]
