"""Text-overlap metrics: tokenizer, answer overlap precision, ROUGE-1/2/L, aggregation.

All functions are pure. The public ROUGE functions take plain strings,
except ``rouge_scores``, which takes a candidate's tokens and a Reference
prepared once, so a run tokenizes each text once. Scores are stored as
fractions in [0, 1] and rendered x100 only at the reporting layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import re

import numpy as np

from . import _kernels

_TOKEN_RE = re.compile(r"[^\W_]+")

GROUP_FIELDS = ("method", "model", "domain", "k")


class MetricError(Exception):
    pass


class EmptyAnswer(MetricError):
    """Answer text tokenizes to nothing; callers map this to score 0."""


class EmptyInput(MetricError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split on maximal runs of non-alphanumerics.

    Digit tokens are kept, empties dropped: ``"2023-04 report"`` becomes
    ``["2023", "04", "report"]``.
    """
    return _TOKEN_RE.findall(text.lower())


def has_tokens(text: str) -> bool:
    """``bool(tokenize(text))``, without building the token list."""
    return _TOKEN_RE.search(text.lower()) is not None


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_pr(precision: float, recall: float) -> "RougeScore":
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return RougeScore(precision, recall, f1)

    @staticmethod
    def zero() -> "RougeScore":
        return RougeScore(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ScoreRow:
    """Per-instance scores for one (method, model, k) evaluation cell."""

    id: str
    method: str
    model: str
    domain: str
    k: int
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    parse_status: str  # ok | fallback | failed


def overlap_precision(answer: str, reference: str, *, mode: str = "multiset") -> float:
    """Fraction of the answer's words that also occur in the reference.

    ``mode="multiset"`` clips per-word counts at the reference's counts
    (repetition is not rewarded); ``mode="set"`` counts each distinct
    shared word once. Both divide by the total answer word count. The two
    agree whenever the answer has no repeated reference words.
    """
    answer_tokens = tokenize(answer)
    if not answer_tokens:
        raise EmptyAnswer("answer has no tokens")
    ref_counts = Counter(tokenize(reference))
    if mode == "multiset":
        ans_counts = Counter(answer_tokens)
        matched = sum(min(c, ref_counts[w]) for w, c in ans_counts.items())
    elif mode == "set":
        matched = sum(1 for w in set(answer_tokens) if ref_counts[w] > 0)
    else:
        raise ValueError(f"unknown overlap mode: {mode!r}")
    return matched / len(answer_tokens)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _ngram_score(cand: Counter, ref: Counter) -> RougeScore:
    matched = sum(min(c, ref[g]) for g, c in cand.items())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    precision = matched / cand_total if cand_total else 0.0
    recall = matched / ref_total if ref_total else 0.0
    return RougeScore.from_pr(precision, recall)


def rouge_n(candidate: str, reference: str, n: int = 1) -> RougeScore:
    """Clipped n-gram overlap; zero-denominator components score 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _ngram_score(_ngrams(tokenize(candidate), n), _ngrams(tokenize(reference), n))


def _token_ids(a: list[str], b: list[str]) -> tuple[np.ndarray, np.ndarray]:
    vocab: dict[str, int] = {}
    ids_a = np.fromiter((vocab.setdefault(t, len(vocab)) for t in a), dtype=np.int64, count=len(a))
    ids_b = np.fromiter((vocab.setdefault(t, len(vocab)) for t in b), dtype=np.int64, count=len(b))
    return ids_a, ids_b


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of two token lists."""
    if not a or not b:
        return 0
    ids_a, ids_b = _token_ids(a, b)
    return _kernels.lcs_length(ids_a, ids_b)


def _lcs_score(cand: list[str], ref: list[str]) -> RougeScore:
    if not cand or not ref:
        return RougeScore.zero()
    lcs = lcs_length(cand, ref)
    return RougeScore.from_pr(lcs / len(cand), lcs / len(ref))


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Whole-text LCS overlap; empty inputs yield all-zero scores."""
    return _lcs_score(tokenize(candidate), tokenize(reference))


@dataclass(frozen=True)
class Reference:
    """A reference summary tokenized once, with the 1- and 2-gram counts
    that ROUGE-1/2 clip against, for scoring several candidates."""

    tokens: list[str]
    unigrams: Counter
    bigrams: Counter

    @staticmethod
    def from_text(text: str) -> "Reference":
        tokens = tokenize(text)
        return Reference(tokens, _ngrams(tokens, 1), _ngrams(tokens, 2))


def rouge_scores(
    candidate: list[str], reference: Reference
) -> tuple[RougeScore, RougeScore, RougeScore]:
    """ROUGE-1, ROUGE-2 and ROUGE-L of candidate tokens against a reference;
    equal to ``rouge_n(c, r, 1), rouge_n(c, r, 2), rouge_l(c, r)`` on the texts."""
    return (
        _ngram_score(_ngrams(candidate, 1), reference.unigrams),
        _ngram_score(_ngrams(candidate, 2), reference.bigrams),
        _lcs_score(candidate, reference.tokens),
    )


@dataclass(frozen=True)
class AggregateRow:
    """Mean P/R/F1 per metric over one group of ScoreRows."""

    group: tuple[tuple[str, object], ...]
    n: int
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore


def _mean_score(scores: list[RougeScore]) -> RougeScore:
    n = len(scores)
    return RougeScore(
        sum(s.precision for s in scores) / n,
        sum(s.recall for s in scores) / n,
        sum(s.f1 for s in scores) / n,
    )


def aggregate(rows: list[ScoreRow], group_by: tuple[str, ...]) -> list[AggregateRow]:
    """Arithmetic mean of every metric component per group.

    ``group_by`` is any subset of ``GROUP_FIELDS``; groups come out in
    deterministic sorted order. Raises EmptyInput on an empty row list.
    """
    if not rows:
        raise EmptyInput("no rows to aggregate")
    fields = tuple(f for f in GROUP_FIELDS if f in group_by)
    unknown = set(group_by) - set(GROUP_FIELDS)
    if unknown:
        raise ValueError(f"unknown group fields: {sorted(unknown)}")

    groups: dict[tuple, list[ScoreRow]] = {}
    for row in rows:
        key = tuple(getattr(row, f) for f in fields)
        groups.setdefault(key, []).append(row)

    out = []
    # Per-position types are homogeneous (k is int, the rest str), so the
    # tuples sort directly and k orders numerically.
    for key in sorted(groups):
        members = groups[key]
        out.append(
            AggregateRow(
                group=tuple(zip(fields, key)),
                n=len(members),
                rouge1=_mean_score([r.rouge1 for r in members]),
                rouge2=_mean_score([r.rouge2 for r in members]),
                rougeL=_mean_score([r.rougeL for r in members]),
            )
        )
    return out
