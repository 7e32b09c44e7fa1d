"""Candidate question bank and the question-ranking phase.

Ten built-in candidate questions are scored per (model, domain) by asking
the model each question about each article and measuring how much of the
answer's wording also appears in the reference summary. The resulting
per-domain orderings drive which questions go into summarization prompts;
a ranking only needs to be computed once per model and corpus.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import datetime
import json
import os
import random
import time

from .lm import FATAL_LM_ERRORS, CompletionClient, LmError
from .metrics import EmptyAnswer, overlap_precision


class RankingError(Exception):
    pass


class KOutOfRange(RankingError):
    pass


class UnknownRankingDomain(RankingError):
    pass


class ModelMismatch(RankingError):
    pass


class EmptyRankingCell(RankingError):
    def __init__(self, domain: str, key: str):
        super().__init__(f"no successful answers for question {key!r} in domain {domain!r}")
        self.domain = domain
        self.key = key


@dataclass(frozen=True)
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


def builtin_bank() -> list[QuestionSpec]:
    """The ten built-in candidate questions, in bank order."""
    return list(_BANK)


@dataclass(frozen=True)
class RankedQuestion:
    key: str
    mean_precision: float
    n: int


@dataclass(frozen=True)
class RankingTable:
    """Per-domain question orderings for one model, best first."""

    model: str
    seed: int
    subsample: int | None
    created_at: str
    domains: dict[str, tuple[RankedQuestion, ...]]


@dataclass(frozen=True)
class GlobalRanking:
    """One cross-domain ordering: per question, the unweighted mean of its
    per-domain mean precisions (or of its per-domain ranks)."""

    model: str
    method: str  # precision | rank
    entries: tuple[RankedQuestion, ...]


def _utc_timestamp() -> str:
    # SOURCE_DATE_EPOCH pins the timestamp so reruns can be byte-identical.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    ts = int(epoch) if epoch else int(time.time())
    return datetime.datetime.fromtimestamp(ts, tz=datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _bank_order(bank: list[QuestionSpec]) -> dict[str, int]:
    return {q.key: i for i, q in enumerate(bank)}


def _seeded_sample(ids: list[str], count: int, seed_label: str) -> list[str]:
    rng = random.Random(seed_label)
    return sorted(rng.sample(ids, count))


def rank_questions(
    client: CompletionClient,
    instances: list,
    bank: list[QuestionSpec] | None = None,
    *,
    subsample: int | None = None,
    seed: int = 0,
    templates=None,
    overlap_mode: str = "multiset",
) -> RankingTable:
    """Score every (question, instance) pair and order questions per domain.

    Each question is asked about each article with a single-question
    prompt; the answer's overlap precision against the reference is
    averaged per (domain, question). Empty answers score 0; transient
    per-call failures are excluded from the mean (a cell with no
    successes at all raises EmptyRankingCell), while an unreachable or
    rate-limiting backend and replay gaps (``FATAL_LM_ERRORS``) abort the
    ranking. Sorting is by descending mean with ties broken by bank order.
    """
    from .prompting import DEFAULT_TEMPLATES, build_single_qa

    if not instances:
        raise ValueError("instances must be non-empty")
    bank = bank if bank is not None else builtin_bank()
    templates = templates or DEFAULT_TEMPLATES

    by_domain: dict[str, list] = {}
    for inst in instances:
        by_domain.setdefault(inst.domain, []).append(inst)

    selected: list = []
    for domain in sorted(by_domain):
        members = sorted(by_domain[domain], key=lambda i: i.id)
        if subsample is not None and subsample < len(members):
            keep = set(_seeded_sample([m.id for m in members], subsample, f"{seed}|rank|{domain}"))
            members = [m for m in members if m.id in keep]
        selected.extend(members)

    def score_one(inst, question: QuestionSpec) -> float | None:
        bundle = build_single_qa(inst.article, question, templates)
        try:
            gen = client.generate(bundle.text, stop_sequences=bundle.stop_sequences)
        except FATAL_LM_ERRORS:
            raise
        except LmError:
            return None  # transient per-call failure; excluded from the mean
        answer = gen.completion.strip()
        try:
            return overlap_precision(answer, inst.reference, mode=overlap_mode)
        except EmptyAnswer:
            return 0.0

    jobs = [(inst, q) for inst in selected for q in bank]
    with ThreadPoolExecutor(max_workers=client.config.max_in_flight) as pool:
        results = list(pool.map(lambda job: score_one(*job), jobs))

    cells: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for (inst, question), score in zip(jobs, results):
        if score is None:
            continue
        cells.setdefault((inst.domain, question.key), []).append((inst.id, score))

    order = _bank_order(bank)
    domains: dict[str, tuple[RankedQuestion, ...]] = {}
    for domain in sorted(by_domain):
        ranked = []
        for question in bank:
            samples = cells.get((domain, question.key), [])
            if not samples:
                raise EmptyRankingCell(domain, question.key)
            # Sum in id order so the float total is reproducible.
            total = sum(score for _, score in sorted(samples))
            ranked.append(RankedQuestion(question.key, total / len(samples), len(samples)))
        ranked.sort(key=lambda r: (-r.mean_precision, order[r.key]))
        domains[domain] = tuple(ranked)

    return RankingTable(
        model=client.config.model,
        seed=seed,
        subsample=subsample,
        created_at=_utc_timestamp(),
        domains=domains,
    )


def global_ranking(
    table: RankingTable,
    bank: list[QuestionSpec] | None = None,
    *,
    method: str = "precision",
) -> GlobalRanking:
    """Collapse a per-domain table into one cross-domain ordering.

    ``method="precision"`` averages per-domain mean precisions (higher is
    better); ``method="rank"`` averages per-domain rank positions (lower
    is better). Ties break by bank order either way.
    """
    if not table.domains:
        raise RankingError("ranking table covers no domains")
    bank = bank if bank is not None else builtin_bank()
    order = _bank_order(bank)
    keys = [q.key for q in bank if any(q.key in {r.key for r in rs} for rs in table.domains.values())]

    entries = []
    for key in keys:
        per_domain = []
        for ranked in table.domains.values():
            for position, r in enumerate(ranked, start=1):
                if r.key == key:
                    per_domain.append(r.mean_precision if method == "precision" else float(position))
                    break
        score = sum(per_domain) / len(per_domain)
        entries.append(RankedQuestion(key, score, len(per_domain)))
    if method == "precision":
        entries.sort(key=lambda r: (-r.mean_precision, order[r.key]))
    elif method == "rank":
        entries.sort(key=lambda r: (r.mean_precision, order[r.key]))
    else:
        raise ValueError(f"unknown global ranking method: {method!r}")
    return GlobalRanking(model=table.model, method=method, entries=tuple(entries))


def top_k(
    ranking: RankingTable | GlobalRanking,
    k: int,
    *,
    domain: str | None = None,
    bank: list[QuestionSpec] | None = None,
) -> list[QuestionSpec]:
    """First k questions of the relevant ordering, best first; k = 0 is []."""
    bank = bank if bank is not None else builtin_bank()
    if isinstance(ranking, GlobalRanking):
        ordered = ranking.entries
    else:
        if domain is None:
            raise UnknownRankingDomain("domain is required with a per-domain ranking table")
        if domain not in ranking.domains:
            raise UnknownRankingDomain(f"domain {domain!r} not present in ranking table")
        ordered = ranking.domains[domain]
    limit = min(10, len(ordered))
    if not 0 <= k <= limit:
        raise KOutOfRange(f"k={k} outside [0, {limit}]")
    by_key = {q.key: q for q in bank}
    try:
        return [by_key[r.key] for r in ordered[:k]]
    except KeyError as exc:
        raise RankingError(f"ranked key {exc} missing from question bank") from exc


def ensure_model(table: RankingTable, model: str, *, allow_mismatch: bool = False) -> None:
    """Rankings are model-specific; refuse cross-model use unless overridden."""
    if table.model != model and not allow_mismatch:
        raise ModelMismatch(
            f"ranking was computed for model {table.model!r}, run uses {model!r} "
            "(pass the override flag to proceed anyway)"
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


def load_ranking(path) -> RankingTable:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    domains = {
        domain: tuple(RankedQuestion(e["key"], e["mean_precision"], e["n"]) for e in entries)
        for domain, entries in doc["domains"].items()
    }
    return RankingTable(
        model=doc["model"],
        seed=doc["seed"],
        subsample=doc.get("subsample"),
        created_at=doc["created_at"],
        domains=domains,
    )


def format_rank_matrix(table: RankingTable, bank: list[QuestionSpec] | None = None) -> str:
    """Domains x questions matrix of rank positions (1 = best)."""
    bank = bank if bank is not None else builtin_bank()
    keys = [q.key for q in bank]
    header = ["domain"] + keys
    lines = ["\t".join(header)]
    for domain, ranked in table.domains.items():
        position = {r.key: i for i, r in enumerate(ranked, start=1)}
        lines.append("\t".join([domain] + [str(position.get(k, "-")) for k in keys]))
    return "\n".join(lines)
