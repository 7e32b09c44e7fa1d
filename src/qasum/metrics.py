"""Text-overlap metrics: tokenizer, ROUGE-1/2/L, answer overlap precision, aggregation.

All functions are pure. Every score is taken on a candidate's tokens
against a ``Reference``: a reference summary tokenized once, with the
counts and LCS masks that scoring reads. So ``eval`` and ``rank`` each
tokenize a reference once per instance and each candidate once. Scores
are stored as fractions in [0, 1] and rendered x100 only at the
reporting layer.

ROUGE-N clips n-gram counts (Lin 2004), and answer overlap precision is
ROUGE-1 precision. Counters key unigrams by the token itself and bigrams
by a 2-tuple of tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import re

_TOKEN_RE = re.compile(r"[^\W_]+")
# Every ASCII character that [^\W_] does not match, mapped to a space.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})

GROUP_FIELDS = ("method", "domain", "k")


def tokenize(text: str) -> list[str]:
    r"""Lowercase ``text`` and split on maximal runs of non-alphanumerics.

    Digit tokens are kept, empties dropped: ``"2023-04 report"`` becomes
    ``["2023", "04", "report"]``. A token is a maximal run of ``[^\W_]``.

    ASCII text, the common case, is split without the regex: on ASCII,
    ``[^\W_]`` is exactly ``str.isalnum()``, so turning every other
    character into a space and splitting on spaces yields the same list
    at a fraction of the regex's cost. Any other text goes through the
    regex, which splits it faster than a translate table would.
    """
    if text.isascii():
        return text.lower().translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text.lower())


def has_tokens(text: str) -> bool:
    """``bool(tokenize(text))``, without building the token list."""
    # [^\W_] matches a character exactly when it matches its lowercase
    # form, so searching the text as is agrees with tokenize's lowered copy.
    return _TOKEN_RE.search(text) is not None


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
    """One instance's scores in one (method, k) evaluation cell; the model
    is the run's, recorded once in its config."""

    id: str
    method: str
    domain: str
    k: int
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    parse_status: str  # ok | fallback | failed


def _bigrams(tokens: list[str]) -> Counter:
    """Counts of the 2-tuples of adjacent tokens."""
    return Counter(zip(tokens, tokens[1:]))


def _clipped_matches(cand: Counter, ref: Counter) -> int:
    """Sum over shared keys of the smaller of the two counts."""
    common = cand.keys() & ref.keys()
    return sum(map(min, map(cand.__getitem__, common), map(ref.__getitem__, common)))


def _ngram_score(cand: Counter, ref: Counter) -> RougeScore:
    matched = _clipped_matches(cand, ref)
    cand_total = cand.total()
    ref_total = ref.total()
    precision = matched / cand_total if cand_total else 0.0
    recall = matched / ref_total if ref_total else 0.0
    return RougeScore.from_pr(precision, recall)


def lcs_masks(b: list[str]) -> dict[str, int]:
    """Each token of ``b`` mapped to an int whose bit j is set where ``b[j]``
    is that token: the match rows ``lcs_length`` reads."""
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    return masks


def lcs_length(a: list[str], b: list[str], masks: dict[str, int] | None = None) -> int:
    """Length of the longest common subsequence of two token lists.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): one Python int ``v``
    holds a whole row of the DP over ``b``, bit j being 0 exactly where
    the row steps up by one at column j. Each token of ``a`` updates the
    row in a few big-int operations, and the LCS is the count of 0 bits.
    A token of ``a`` that ``b`` lacks has no mask and is skipped: with a
    zero mask the update gives back ``v`` itself, so the result is exact.
    ``masks`` is ``lcs_masks(b)``, passed in when ``b`` is scored against
    several candidates, and built here when omitted.
    """
    if masks is None:
        masks = lcs_masks(b)
    get = masks.get
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        mask = get(token)
        if mask is None:
            continue
        u = v & mask
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _lcs_score(cand: list[str], ref: list[str], masks: dict[str, int]) -> RougeScore:
    if not cand or not ref:
        return RougeScore.zero()
    lcs = lcs_length(cand, ref, masks)
    return RougeScore.from_pr(lcs / len(cand), lcs / len(ref))


@dataclass(frozen=True)
class Reference:
    """A reference summary tokenized once, with the 1- and 2-gram counts
    that ROUGE-1/2 clip against and the ``lcs_masks`` ROUGE-L reads, for
    scoring several candidates. ``unigrams`` is keyed by token,
    ``bigrams`` by 2-tuples of tokens."""

    tokens: list[str]
    unigrams: Counter
    bigrams: Counter
    masks: dict[str, int]

    @staticmethod
    def from_text(text: str) -> "Reference":
        tokens = tokenize(text)
        return Reference(tokens, Counter(tokens), _bigrams(tokens), lcs_masks(tokens))


def rouge_scores(
    candidate: list[str], reference: Reference
) -> tuple[RougeScore, RougeScore, RougeScore]:
    """ROUGE-1, ROUGE-2 and ROUGE-L of candidate tokens against a reference.
    A component whose denominator is zero scores 0, so an empty candidate
    or reference scores all zeros, and a one-token one scores 0 on ROUGE-2."""
    return (
        _ngram_score(Counter(candidate), reference.unigrams),
        _ngram_score(_bigrams(candidate), reference.bigrams),
        _lcs_score(candidate, reference.tokens, reference.masks),
    )


def overlap_precision(answer: list[str], reference: Reference) -> float:
    """Fraction of the answer's tokens that also occur in the reference:
    ROUGE-1 precision.

    Each token's count is clipped at its count in the reference, so
    repeating a reference word is not rewarded, and the matched count is
    divided by the answer's token count. An answer with no tokens scores 0.
    """
    return _ngram_score(Counter(answer), reference.unigrams).precision


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
    deterministic sorted order. Raises ValueError on an empty row list.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
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
