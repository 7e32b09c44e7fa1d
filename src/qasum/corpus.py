"""Corpus loading, validation, and ICL-pool / evaluation-set splitting.

Corpus files are newline-delimited JSON, one record per line with fields
exactly ``id``, ``domain``, ``task``, ``article``, ``reference`` (UTF-8).
A sidecar manifest uses the same shape minus article/reference plus a
``count`` field, so per-domain totals can be checked without the data.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
import json
import math
import random
from types import MappingProxyType

from .metrics import has_tokens

DEFAULT_DOMAINS = ("Commonsense", "Dialogue", "News", "Public Places", "Reviews", "Research")

RECORD_FIELDS = ("id", "domain", "task", "article", "reference")
MANIFEST_FIELDS = ("domain", "task", "count")


class CorpusError(Exception):
    pass


class MalformedRecord(CorpusError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateId(CorpusError):
    def __init__(self, instance_id: str, line_no: int):
        super().__init__(f"line {line_no}: duplicate id {instance_id!r}")
        self.instance_id = instance_id


class UnknownDomain(CorpusError):
    def __init__(self, name: str, line_no: int | None = None):
        at = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{at}unknown domain {name!r}")
        self.name = name


class GroupTooSmall(CorpusError):
    def __init__(self, domain: str, task: str, size: int):
        super().__init__(f"group ({domain!r}, {task!r}) has {size} instance(s); need >= 2")
        self.domain = domain
        self.task = task


class InsufficientPool(CorpusError):
    def __init__(self, domain: str, task: str, available: int, requested: int):
        super().__init__(
            f"ICL pool for ({domain!r}, {task!r}) has {available} instance(s); requested {requested}"
        )
        self.available = available
        self.requested = requested


@dataclass(frozen=True)
class TaskInstance:
    """One summarization task: an article and its reference summary."""

    id: str
    domain: str
    task: str
    article: str
    reference: str


@dataclass(frozen=True)
class DomainRegistry:
    """Ordered, case-sensitive domain names; extensible beyond the defaults."""

    names: tuple[str, ...] = DEFAULT_DOMAINS

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("domain names must be unique")

    def __contains__(self, name: str) -> bool:
        return name in self.names


@dataclass(frozen=True)
class Corpus:
    instances: tuple[TaskInstance, ...]
    registry: DomainRegistry = field(default_factory=DomainRegistry)
    _index: Mapping[str, TaskInstance] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {inst.id: inst for inst in self.instances}
        object.__setattr__(self, "_index", MappingProxyType(index))

    def __len__(self) -> int:
        return len(self.instances)

    def __getitem__(self, instance_id: str) -> TaskInstance:
        return self.by_id()[instance_id]

    def by_id(self) -> Mapping[str, TaskInstance]:
        """Read-only id index, built once per corpus."""
        return self._index

    def domain_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in self.registry.names}
        for inst in self.instances:
            counts[inst.domain] += 1
        return {name: n for name, n in counts.items() if n}

    def groups(self) -> dict[tuple[str, str], list[TaskInstance]]:
        """Instances keyed by (domain, task), in file order."""
        out: dict[tuple[str, str], list[TaskInstance]] = {}
        for inst in self.instances:
            out.setdefault((inst.domain, inst.task), []).append(inst)
        return out


def _validate_record(obj: object, line_no: int) -> dict:
    if not isinstance(obj, dict):
        raise MalformedRecord(line_no, "record is not a JSON object")
    missing = [f for f in RECORD_FIELDS if f not in obj]
    if missing:
        raise MalformedRecord(line_no, f"missing field(s): {', '.join(missing)}")
    extra = sorted(set(obj) - set(RECORD_FIELDS))
    if extra:
        raise MalformedRecord(line_no, f"unexpected field(s): {', '.join(extra)}")
    for f in RECORD_FIELDS:
        if not isinstance(obj[f], str):
            raise MalformedRecord(line_no, f"field {f!r} is not a string")
    return obj


def load_corpus(path, registry: DomainRegistry | None = None) -> Corpus:
    """Load and validate a JSONL corpus; aborts at the first bad record."""
    registry = registry or DomainRegistry()
    instances: list[TaskInstance] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
            rec = _validate_record(obj, line_no)
            if rec["id"] in seen:
                raise DuplicateId(rec["id"], line_no)
            if rec["domain"] not in registry:
                raise UnknownDomain(rec["domain"], line_no)
            if not has_tokens(rec["article"]):
                raise MalformedRecord(line_no, "article is empty after tokenization")
            if not has_tokens(rec["reference"]):
                raise MalformedRecord(line_no, "reference is empty after tokenization")
            seen.add(rec["id"])
            instances.append(TaskInstance(**rec))
    return Corpus(instances=tuple(instances), registry=registry)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in corpus.instances:
            rec = {f: getattr(inst, f) for f in RECORD_FIELDS}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_manifest(path, registry: DomainRegistry | None = None) -> dict[str, int]:
    """Per-domain instance totals from a sidecar manifest (JSONL of
    ``{domain, task, count}`` rows)."""
    registry = registry or DomainRegistry()
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise MalformedRecord(line_no, "record is not a JSON object")
            missing = [f for f in MANIFEST_FIELDS if f not in obj]
            if missing:
                raise MalformedRecord(line_no, f"missing field(s): {', '.join(missing)}")
            if not isinstance(obj["count"], int) or obj["count"] < 0:
                raise MalformedRecord(line_no, "count is not a non-negative integer")
            if obj["domain"] not in registry:
                raise UnknownDomain(obj["domain"], line_no)
            counts[obj["domain"]] = counts.get(obj["domain"], 0) + obj["count"]
    return counts


@dataclass(frozen=True)
class CorpusSplit:
    """Disjoint ICL example pool and evaluation set covering the corpus."""

    icl_pool: tuple[str, ...]
    eval_set: tuple[str, ...]
    seed: int

    def pool_ids(self) -> frozenset[str]:
        return frozenset(self.icl_pool)

    def eval_ids(self) -> frozenset[str]:
        return frozenset(self.eval_set)


def _group_rng(seed: int, *parts: str) -> random.Random:
    # String seeding is stable across runs and platforms (seed version 2),
    # and keying on the group makes the split independent of file order.
    return random.Random("|".join((str(seed),) + parts))


def split_corpus(corpus: Corpus, pool_fraction: float, seed: int) -> CorpusSplit:
    """Stratified split: each (domain, task) group sends ceil(fraction*size)
    instances (at least 1) to the ICL pool, the rest to the eval set."""
    if not 0 < pool_fraction < 1:
        raise ValueError("pool_fraction must be in (0, 1)")
    pool: list[str] = []
    eval_set: list[str] = []
    for (domain, task), members in sorted(corpus.groups().items()):
        if len(members) < 2:
            raise GroupTooSmall(domain, task, len(members))
        ids = sorted(inst.id for inst in members)
        rng = _group_rng(seed, domain, task)
        shuffled = rng.sample(ids, len(ids))
        n_pool = max(1, math.ceil(pool_fraction * len(ids)))
        pool.extend(shuffled[:n_pool])
        eval_set.extend(shuffled[n_pool:])
    return CorpusSplit(icl_pool=tuple(sorted(pool)), eval_set=tuple(sorted(eval_set)), seed=seed)


def sample_icl_examples(
    split: CorpusSplit,
    corpus: Corpus,
    domain: str,
    task: str,
    count: int,
    seed: int,
) -> list[TaskInstance]:
    """Pick ``count`` distinct pool instances from one (domain, task) group.

    Deterministic in ``seed``; never returns an eval-set instance.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    by_id = corpus.by_id()
    pool = sorted(
        i for i in split.icl_pool if by_id[i].domain == domain and by_id[i].task == task
    )
    if len(pool) < count:
        raise InsufficientPool(domain, task, len(pool), count)
    rng = _group_rng(seed, "icl", domain, task)
    chosen = rng.sample(pool, count)
    return [by_id[i] for i in chosen]
