"""Candidate question bank and the question-ranking phase.

Ten built-in candidate questions are scored per (model, domain) by asking
the model each question about each article and measuring how much of the
answer's wording also appears in the reference summary. The result is one
ordering per domain, best first; ``global_ranking`` collapses those into
one cross-domain ordering. Either way a summarization prompt carries the
first k questions of an ordering (``top_k``). A ranking only needs to be
computed once per model and corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
import datetime
import json
import os
import time

from .corpus import subsample_per_domain
from .lm import CompletionClient
from .metrics import Reference, overlap_precision, tokenize
from .prompting import single_qa_frame


class RankingError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class QuestionSpec:
    key: str
    text: str


_BANK: tuple[QuestionSpec, ...] = (
    QuestionSpec("topic", "What is the main topic or focus of the content?"),
    QuestionSpec("key_pts", "What are the key points or arguments presented?"),
    QuestionSpec(
        "entities",
        "Who are the 3 main entities or individuals involved, and what roles do they play?",
    ),
    QuestionSpec("timeline", "Which timeline, if any, is being discussed here?"),
    QuestionSpec("details", "What are the supporting details, examples, or evidence provided?"),
    QuestionSpec("conclude", "What conclusions, impacts, or implications are mentioned, if any?"),
    QuestionSpec(
        "tone",
        "What is the overall tone or sentiment (e.g., objective, critical, positive, etc.)?",
    ),
    QuestionSpec("challenges", "What questions or challenges does the content raise?"),
    QuestionSpec("insights", "What unique insights or perspectives are offered?"),
    QuestionSpec(
        "audience",
        "What audience is the content aimed at, and how does this affect its presentation?",
    ),
)


# Each key's bank position, which breaks ties in every ordering, and question.
_BANK_ORDER = {q.key: i for i, q in enumerate(_BANK)}
_BY_KEY = {q.key: q for q in _BANK}


def builtin_bank() -> list[QuestionSpec]:
    """The ten built-in candidate questions, in bank order."""
    return list(_BANK)


@dataclass(frozen=True, slots=True)
class RankedQuestion:
    key: str
    mean_precision: float
    n: int


@dataclass(frozen=True, slots=True)
class RankingTable:
    """Per-domain question orderings for one model, best first."""

    model: str
    seed: int
    subsample: int | None
    created_at: str
    domains: dict[str, tuple[RankedQuestion, ...]]


def _utc_timestamp() -> str:
    # SOURCE_DATE_EPOCH pins the timestamp so reruns can be byte-identical.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        ts = int(epoch) if epoch else int(time.time())
        moment = datetime.datetime.fromtimestamp(ts, tz=datetime.timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SOURCE_DATE_EPOCH: expected integer seconds in the supported"
                         f" date range, got {epoch!r}") from None
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def answer_question(client: CompletionClient, article: str, question: QuestionSpec) -> str:
    """The model's answer to one question about one article. Ranking scores
    these answers and qa prompts show them for their examples; sharing this
    one request means eval reuses the cache entries ranking wrote."""
    return client.generate(single_qa_frame(question), article).completion.strip()


def rank_questions(
    client: CompletionClient,
    instances: list,
    *,
    subsample: int | None = None,
    seed: int = 0,
) -> RankingTable:
    """Score every (bank question, instance) pair and order questions per domain.

    Each question is asked about each article with a single-question
    prompt; the answer's overlap precision (ROUGE-1 precision) against
    the reference is averaged per (domain, question). Each reference is
    tokenized once, and each answer once. Empty answers score 0; transient
    per-call failures are excluded from the mean (a cell with no
    successes at all raises RankingError), while an unreachable or
    rate-limiting backend and replay gaps (``FATAL_LM_ERRORS``) abort the
    ranking. Sorting is by descending mean with ties broken by bank order.
    """
    if not instances:
        raise ValueError("instances must be non-empty")
    selected = subsample_per_domain(instances, subsample, seed, "rank")
    # Read before any call is spent, so a bad SOURCE_DATE_EPOCH costs none.
    created_at = _utc_timestamp()

    def ask(job) -> str:
        inst, question = job
        return answer_question(client, inst.article, question)

    answers = client.map(ask, [(inst, q) for inst in selected for q in _BANK])

    # Score instance by instance, so each reference is tokenized once.
    cells: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for n, inst in enumerate(selected):
        reference = Reference.from_text(inst.reference)
        for question, answer in zip(_BANK, answers[n * len(_BANK) : (n + 1) * len(_BANK)]):
            if answer is None:
                continue  # the call failed; excluded from the mean
            score = overlap_precision(tokenize(answer), reference)
            cells.setdefault((inst.domain, question.key), []).append((inst.id, score))

    domains: dict[str, tuple[RankedQuestion, ...]] = {}
    # Domains come from the input, not the sample, so an empty sample still
    # raises RankingError.
    for domain in sorted({inst.domain for inst in instances}):
        ranked = []
        for question in _BANK:
            samples = cells.get((domain, question.key), [])
            if not samples:
                raise RankingError(f"no successful answers for question {question.key!r}"
                                   f" in domain {domain!r}")
            # Sum in id order so the float total is reproducible.
            total = sum(score for _, score in sorted(samples))
            ranked.append(RankedQuestion(question.key, total / len(samples), len(samples)))
        ranked.sort(key=lambda r: (-r.mean_precision, _BANK_ORDER[r.key]))
        domains[domain] = tuple(ranked)

    return RankingTable(
        model=client.config.model,
        seed=seed,
        subsample=subsample,
        created_at=created_at,
        domains=domains,
    )


def global_ranking(table: RankingTable) -> tuple[RankedQuestion, ...]:
    """Collapse a per-domain table into one cross-domain ordering, best first.

    Each question scores the unweighted mean of its per-domain mean
    precisions, over the domains that ranked it; higher is better and
    ties break by bank order. This is the "global question set" that
    domain-specific selection is compared against.
    """
    if not table.domains:
        raise RankingError("ranking table covers no domains")
    per_domain: dict[str, list[float]] = {}
    for ranked in table.domains.values():
        for r in ranked:
            per_domain.setdefault(r.key, []).append(r.mean_precision)
    entries = [
        RankedQuestion(q.key, sum(scores) / len(scores), len(scores))
        for q in _BANK
        if (scores := per_domain.get(q.key))
    ]
    entries.sort(key=lambda r: (-r.mean_precision, _BANK_ORDER[r.key]))
    return tuple(entries)


def top_k(ordering: tuple[RankedQuestion, ...], k: int) -> list[QuestionSpec]:
    """The first k questions of ``ordering`` (best first), as bank
    questions; k = 0 is []. The ordering is one domain's entry of a
    ``RankingTable`` or the ``global_ranking`` of one."""
    limit = min(10, len(ordering))
    if not 0 <= k <= limit:
        raise RankingError(f"k={k} outside [0, {limit}]")
    return [_BY_KEY[r.key] for r in ordering[:k]]


def ensure_model(table: RankingTable, model: str, *, allow_mismatch: bool = False) -> None:
    """Rankings are model-specific; refuse cross-model use unless overridden."""
    if table.model != model and not allow_mismatch:
        raise RankingError(
            f"ranking was computed for model {table.model!r}, run uses {model!r} "
            '(set "allow_model_mismatch": true in the config file to proceed anyway)'
        )


def save_ranking(table: RankingTable, path) -> None:
    doc = {
        "model": table.model,
        "created_at": table.created_at,
        "seed": table.seed,
        "subsample": table.subsample,
        "domains": {
            domain: [
                {"key": r.key, "mean_precision": r.mean_precision, "n": r.n} for r in ranked
            ]
            for domain, ranked in table.domains.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _ranked_question(doc: dict) -> RankedQuestion:
    question = RankedQuestion(doc["key"], doc["mean_precision"], doc["n"])
    if not (isinstance(question.key, str) and type(question.mean_precision) in (int, float)
            and type(question.n) is int):
        raise TypeError(f"entry {doc!r} needs a string key, a number mean_precision and an int n")
    return question


def load_ranking(path) -> RankingTable:
    """Read a ``save_ranking`` file; RankingError names a file of another
    shape, and a domain that ranks a key outside the bank or one key twice,
    or gives one a ``mean_precision`` that is not a number in [0, 1] (NaN
    and infinities too) or an ``n`` below 1."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        domains = {
            domain: tuple(_ranked_question(e) for e in entries)
            for domain, entries in doc["domains"].items()
        }
        table = RankingTable(
            model=doc["model"],
            seed=doc["seed"],
            subsample=doc.get("subsample"),
            created_at=doc["created_at"],
            domains=domains,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RankingError(f"{path}: not a ranking file ({type(exc).__name__}: {exc})") from exc
    for domain, ranked in domains.items():
        seen: set[str] = set()
        for r in ranked:
            if r.key not in _BY_KEY:
                raise RankingError(
                    f"{path}: domain {domain!r} ranks {r.key!r}, not a bank question")
            if r.key in seen:
                raise RankingError(f"{path}: domain {domain!r} ranks {r.key!r} twice")
            if not 0 <= r.mean_precision <= 1:  # false for NaN too
                raise RankingError(f"{path}: domain {domain!r} gives {r.key!r} mean_precision"
                                   f" {r.mean_precision!r}, not a number in [0, 1]")
            if r.n < 1:
                raise RankingError(f"{path}: domain {domain!r} gives {r.key!r} n {r.n},"
                                   " not a count of at least 1")
            seen.add(r.key)
    return table


def format_rank_matrix(table: RankingTable) -> str:
    """Domains x questions matrix of rank positions (1 = best)."""
    keys = [q.key for q in _BANK]
    header = ["domain"] + keys
    lines = ["\t".join(header)]
    for domain, ranked in table.domains.items():
        position = {r.key: i for i, r in enumerate(ranked, start=1)}
        lines.append("\t".join([domain] + [str(position.get(k, "-")) for k in keys]))
    return "\n".join(lines)
