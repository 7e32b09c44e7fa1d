"""Text-overlap metrics: tokenizer, ROUGE-1/2/L, answer overlap precision, aggregation.

All functions are pure. Every ROUGE score is taken on a candidate's
tokens against a ``Reference``: a reference summary tokenized once, with
the bigram counts and LCS masks that scoring reads. Overlap precision
reads the LCS masks alone. So ``eval`` and ``rank`` each tokenize a
reference once per instance and each candidate once. Scores are stored as fractions in [0, 1] and rendered x100 only
at the reporting layer.

ROUGE-N clips n-gram counts (Lin 2004), and answer overlap precision is
ROUGE-1 precision. A reference's token counts are read from its LCS
masks, one set bit per occurrence, and its bigram counts from a Counter.

A run's rows are held as columns in a ``ScoreTable``: five label columns
and nine ``array('d')`` score columns, one per component of ROUGE-1/2/L.
``rouge_values`` scores a candidate into those nine floats without
building a ``RougeScore``, ``aggregate`` means the columns, and a
``ScoreRow`` is built only when a table is iterated. A table is a frozen
dataclass of its columns.

``SCORER_VERSION`` names the scorer: ``tokenize`` and ``rouge_values``
as they are. A response store memoizes each row's nine values under a key
that digests ``scorer_fields``, which are it and the Unicode version
``tokenize`` reads, and the scored pair, so a change that can move any
score must bump it, or a store would serve the old scorer's values.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add
import re
import unicodedata

_TOKEN_RE = re.compile(r"[^\W_]+")
# Every ASCII character that [^\W_] does not match, mapped to a space.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})

GROUP_FIELDS = ("method", "domain", "k")

# Bump on any change that can move a score; see the module docstring.
SCORER_VERSION = 1


def scorer_fields() -> tuple[str, str]:
    """What a score depends on besides the scored pair: ``SCORER_VERSION``
    and the Unicode version that ``tokenize`` reads for non-ASCII text."""
    return str(SCORER_VERSION), unicodedata.unidata_version


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


def _prf(precision: float, recall: float) -> tuple[float, float, float]:
    """``precision``, ``recall`` and their F1, which is 0 when both are."""
    if precision + recall > 0:
        return precision, recall, 2 * precision * recall / (precision + recall)
    return precision, recall, 0.0


@dataclass(frozen=True, slots=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, slots=True)
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


LABEL_FIELDS = ("id", "method", "domain", "k", "parse_status")


@dataclass(frozen=True, slots=True)
class ScoreTable:
    """A run's rows as columns, in the order given: what ``RunManifest.rows``
    is and ``aggregate`` reads. Each label column is a list named after the
    ``ScoreRow`` field it holds. ``scores`` is nine ``array('d')`` columns,
    ROUGE-1's precision, recall and F1, then ROUGE-2's and ROUGE-L's, so
    ``table.scores[4][i]`` is row i's ``rouge2.recall`` and an int score
    comes back as a float. Iterating builds the ``ScoreRow``s one at a
    time; a table is not indexed."""

    id: list[str]
    method: list[str]
    domain: list[str]
    k: list[int]
    parse_status: list[str]
    scores: tuple[array, ...]

    def __post_init__(self):
        for name in LABEL_FIELDS:
            object.__setattr__(self, name, list(getattr(self, name)))
        object.__setattr__(self, "scores", tuple(array("d", column) for column in self.scores))
        lengths = {len(getattr(self, name)) for name in LABEL_FIELDS} | set(map(len, self.scores))
        if len(self.scores) != 9 or len(lengths) > 1:
            raise ValueError("a ScoreTable takes five label columns and nine score columns,"
                             " all of one length")

    def __len__(self) -> int:
        return len(self.id)

    def __iter__(self):
        s = self.scores
        return map(ScoreRow, self.id, self.method, self.domain, self.k,
                   map(RougeScore, s[0], s[1], s[2]), map(RougeScore, s[3], s[4], s[5]),
                   map(RougeScore, s[6], s[7], s[8]), self.parse_status)


def _clipped_score(grams: Iterable, ref: dict, count: Callable[[int], int],
                   cand_total: int, ref_total: int) -> tuple[float, float, float]:
    """ROUGE-N precision, recall and F1 of a candidate's n-grams ``grams``
    against ``ref``, which maps each n-gram of the reference to a value that
    ``count`` turns into its count there. Only the n-grams ``ref`` holds are
    counted: any other would add ``min(c, 0) = 0`` to the clipped match. The
    totals are each side's n-gram count; a zero total scores 0."""
    shared = Counter(filter(ref.__contains__, grams))
    matched = sum(map(min, shared.values(), map(count, map(ref.__getitem__, shared))))
    precision = matched / cand_total if cand_total else 0.0
    recall = matched / ref_total if ref_total else 0.0
    return _prf(precision, recall)


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
    the row steps up by one at column j. Each token of ``a`` with match
    mask ``m`` updates the row as ``u = v & m; v = (v + u) | (v - u)``,
    and the LCS is the count of 0 bits among the low ``len(b)``. Those
    bits are masked off only at the end: carries move only upward, so
    the low bits come out the same with or without a mask at every step,
    and the bits above them grow by at most one per step. A token of
    ``a`` that ``b`` lacks has no mask and is skipped: with a zero mask
    the update gives back ``v`` itself, so the result is exact.
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
        v = (v + u) | (v - u)
    return len(b) - (v & full).bit_count()


def _lcs_score(cand: list[str], ref: list[str],
               masks: dict[str, int]) -> tuple[float, float, float]:
    if not cand or not ref:
        return 0.0, 0.0, 0.0
    lcs = lcs_length(cand, ref, masks)
    return _prf(lcs / len(cand), lcs / len(ref))


@dataclass(frozen=True, slots=True)
class Reference:
    """A reference summary tokenized once, for scoring several candidates:
    its ``tokens``, its ``bigrams`` (a Counter keyed by 2-tuples of tokens)
    that ROUGE-2 clips against, and its ``masks`` (``lcs_masks``) that
    ROUGE-L reads. A token's count here is ``masks[t].bit_count()``, the
    set bits of its mask, so ROUGE-1 needs no Counter of its own."""

    tokens: list[str]
    bigrams: Counter
    masks: dict[str, int]

    @staticmethod
    def from_text(text: str) -> "Reference":
        tokens = tokenize(text)
        return Reference(tokens, Counter(zip(tokens, tokens[1:])), lcs_masks(tokens))


def rouge_values(candidate: list[str], reference: Reference) -> tuple[float, ...]:
    """ROUGE-1, ROUGE-2 and ROUGE-L of candidate tokens against a reference,
    as nine floats in ``ScoreTable`` column order: each metric's precision,
    recall and F1. A token's reference count is its mask's set bits, a
    bigram's its ``bigrams`` count.
    A component whose denominator is zero scores 0, so an empty candidate
    or reference scores all zeros, and a one-token one scores 0 on ROUGE-2."""
    n, m = len(candidate), len(reference.tokens)
    return (
        *_clipped_score(candidate, reference.masks, int.bit_count, n, m),
        *_clipped_score(zip(candidate, candidate[1:]), reference.bigrams, int,
                        max(n - 1, 0), max(m - 1, 0)),
        *_lcs_score(candidate, reference.tokens, reference.masks),
    )


def rouge_scores(
    candidate: list[str], reference: Reference
) -> tuple[RougeScore, RougeScore, RougeScore]:
    """``rouge_values`` as ROUGE-1, ROUGE-2 and ROUGE-L ``RougeScore``s."""
    values = rouge_values(candidate, reference)
    return RougeScore(*values[:3]), RougeScore(*values[3:6]), RougeScore(*values[6:])


def overlap_precision(answer: list[str], masks: dict[str, int]) -> float:
    """Fraction of the answer's tokens that also occur in the reference:
    ROUGE-1 precision, read from the reference's ``lcs_masks``.

    Each token's count is clipped at its count in the reference, so
    repeating a reference word is not rewarded, and the matched count is
    divided by the answer's token count. An answer with no tokens scores 0.
    The reference's length enters recall alone, so none is passed.
    """
    return _clipped_score(answer, masks, int.bit_count, len(answer), 0)[0]


@dataclass(frozen=True, slots=True)
class AggregateRow:
    """Mean P/R/F1 per metric over one group of ScoreRows."""

    group: tuple[tuple[str, object], ...]
    n: int
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore


def left_sum(values: Iterable[float]) -> float:
    """The float total of ``values``, added one by one from the left.

    Python 3.12 made ``sum`` add floats with compensation, so its totals
    can differ in the last bit by version, and with them a mean, a CSV
    cell rounded from it and a question order decided by a tie. This is
    what ``sum`` does on 3.10 and 3.11, so every output reads the same on
    every version."""
    return reduce(add, values, 0.0)


def aggregate(rows: ScoreTable, group_by: tuple[str, ...]) -> list[AggregateRow]:
    """Arithmetic mean of every metric component per group of ``rows``.

    ``group_by`` is any subset of ``GROUP_FIELDS``; groups come out in
    deterministic sorted order, and each mean is over its group's rows in
    the order given, its total taken left to right by ``left_sum``, so a
    mean is the same on every Python version. The table's columns are read
    as they are. Raises ValueError on a table with no rows.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
    fields = tuple(f for f in GROUP_FIELDS if f in group_by)
    unknown = set(group_by) - set(GROUP_FIELDS)
    if unknown:
        raise ValueError(f"unknown group fields: {sorted(unknown)}")

    # Each group's row indices, in row order.
    groups: dict[tuple, Sequence[int]] = {(): range(len(rows))}
    if fields:
        groups = {}
        for i, key in enumerate(zip(*(getattr(rows, f) for f in fields))):
            groups.setdefault(key, []).append(i)

    out = []
    # Per-position types are homogeneous (k is int, the rest str), so the
    # tuples sort directly and k orders numerically.
    for key in sorted(groups):
        members = groups[key]
        n = len(members)
        means = [left_sum(map(column.__getitem__, members)) / n for column in rows.scores]
        out.append(AggregateRow(group=tuple(zip(fields, key)), n=n,
                                rouge1=RougeScore(*means[:3]), rouge2=RougeScore(*means[3:6]),
                                rougeL=RougeScore(*means[6:])))
    return out
