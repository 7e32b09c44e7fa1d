"""Corpus loading, validation, and ICL-pool / evaluation-set splitting.

Corpus files are newline-delimited JSON, one record per line with fields
exactly ``id``, ``domain``, ``task``, ``article``, ``reference`` (UTF-8).
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math
from operator import attrgetter, itemgetter
import random
import re

from .metrics import has_tokens

DEFAULT_DOMAINS = ("Commonsense", "Dialogue", "News", "Public Places", "Reviews", "Research")

RECORD_FIELDS = ("id", "domain", "task", "article", "reference")
_RECORD_KEYS = dict.fromkeys(RECORD_FIELDS).keys()
_record_values = itemgetter(*RECORD_FIELDS)
_by_id = attrgetter("id")

# The C0 controls and DEL: no id, task or domain name may hold one. These
# labels go into CSVs, where Python's csv writer before 3.13 leaves a bare
# carriage return unquoted, and a reader then splits the row in two.
CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f]")


class CorpusError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class TaskInstance:
    """One summarization task: an article and its reference summary."""

    id: str
    domain: str
    task: str
    article: str
    reference: str


@dataclass(frozen=True, slots=True)
class Corpus:
    instances: tuple[TaskInstance, ...]

    def __len__(self) -> int:
        return len(self.instances)

    def groups(self) -> dict[tuple[str, str], list[TaskInstance]]:
        """Instances keyed by (domain, task), in file order."""
        out: dict[tuple[str, str], list[TaskInstance]] = {}
        for inst in self.instances:
            out.setdefault((inst.domain, inst.task), []).append(inst)
        return out


def _validate_record(obj: object, line_no: int) -> None:
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: record is not a JSON object")
    missing = [f for f in RECORD_FIELDS if f not in obj]
    if missing:
        raise CorpusError(f"line {line_no}: missing field(s): {', '.join(missing)}")
    extra = sorted(set(obj) - set(RECORD_FIELDS))
    if extra:
        raise CorpusError(f"line {line_no}: unexpected field(s): {', '.join(extra)}")
    for f in RECORD_FIELDS:
        if not isinstance(obj[f], str):
            raise CorpusError(f"line {line_no}: field {f!r} is not a string")


def _reject_surrogates(rec: dict, line_no: int) -> None:
    """A ``\\u`` escape can decode to a lone surrogate, which no UTF-8
    prompt or cache key can carry; reject its record here."""
    for f in RECORD_FIELDS:
        try:
            rec[f].encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"line {line_no}: field {f!r} holds a lone surrogate") from None


def _reject_control_characters(rec: dict, line_no: int) -> None:
    for f in ("id", "task"):
        found = CONTROL_CHARACTER.search(rec[f])
        if found:
            raise CorpusError(
                f"line {line_no}: field {f!r} holds control character {found.group()!r}")


def load_corpus(path, domains: tuple[str, ...] = DEFAULT_DOMAINS) -> Corpus:
    """Load and validate a JSONL corpus; aborts at the first bad record,
    among them one whose domain is not one of ``domains`` (case-sensitive).

    Each line is decoded by ``json.loads``. A record's five fields are
    read out once, in ``RECORD_FIELDS`` order, and a well-formed record
    passes two checks: a JSON object with exactly those keys, and five
    strings. A
    record that fails either goes to ``_validate_record``, which names
    what is wrong. Only a record with a non-ASCII field is searched for a
    lone surrogate, since one is never ASCII and ``isascii`` is O(1).
    Only an id or task that ``isprintable`` refuses is searched for a
    control character (U+0000 to U+001F, U+007F); for ASCII text the two
    tests agree. Then come the id, domain and token checks, and the
    instance is built from the five values positionally.
    """
    instances: list[TaskInstance] = []
    seen: set[str] = set()
    allowed = frozenset(domains)
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if line.isspace():  # the reader never yields an empty line
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"line {line_no}: invalid JSON: {exc.msg}") from exc
                if not (type(rec) is dict and rec.keys() == _RECORD_KEYS):
                    _validate_record(rec, line_no)
                values = id_, domain, task, article, reference = _record_values(rec)
                if not (type(id_) is type(domain) is type(task) is type(article)
                        is type(reference) is str):
                    _validate_record(rec, line_no)
                if not (id_.isascii() and domain.isascii() and task.isascii()
                        and article.isascii() and reference.isascii()):
                    _reject_surrogates(rec, line_no)
                if not (id_.isprintable() and task.isprintable()):
                    _reject_control_characters(rec, line_no)
                if id_ in seen:
                    raise CorpusError(f"line {line_no}: duplicate id {id_!r}")
                if domain not in allowed:
                    raise CorpusError(f"line {line_no}: unknown domain {domain!r}")
                if not has_tokens(article):
                    raise CorpusError(f"line {line_no}: article is empty after tokenization")
                if not has_tokens(reference):
                    raise CorpusError(f"line {line_no}: reference is empty after tokenization")
                seen.add(id_)
                instances.append(TaskInstance(*values))
    except UnicodeDecodeError:
        # The text reader decodes a buffer at a time, so it cannot name the
        # line (and may fail before reaching a bad record ahead of it in the
        # buffer); find the first bad byte in the file's bytes.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]  # lines end at \r\n, \r or \n, as the reader counts
            line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise CorpusError(
                f"line {line_no}: invalid UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
            ) from None
        raise  # the file changed between the two reads
    return Corpus(instances=tuple(instances))


@dataclass(frozen=True, slots=True)
class CorpusSplit:
    """Disjoint ICL example pool and evaluation set covering the corpus,
    each a tuple of instances sorted by id."""

    icl_pool: tuple[TaskInstance, ...]
    eval_set: tuple[TaskInstance, ...]


def _group_rng(seed: int, *parts: str) -> random.Random:
    # String seeding is stable across runs and platforms (seed version 2),
    # and keying on the group makes the split independent of file order.
    return random.Random("|".join((str(seed),) + parts))


def split_corpus(corpus: Corpus, pool_fraction: float, seed: int) -> CorpusSplit:
    """Stratified split: each (domain, task) group sends ceil(fraction*size)
    instances (at least 1) to the ICL pool, the rest to the eval set."""
    if not 0 < pool_fraction < 1:
        raise ValueError("pool_fraction must be in (0, 1)")
    pool: list[TaskInstance] = []
    eval_set: list[TaskInstance] = []
    for (domain, task), members in sorted(corpus.groups().items()):
        if len(members) < 2:
            raise CorpusError(
                f"group ({domain!r}, {task!r}) has {len(members)} instance(s); need >= 2")
        members = sorted(members, key=_by_id)
        rng = _group_rng(seed, domain, task)
        shuffled = rng.sample(members, len(members))
        n_pool = max(1, math.ceil(pool_fraction * len(members)))
        pool.extend(shuffled[:n_pool])
        eval_set.extend(shuffled[n_pool:])
    return CorpusSplit(icl_pool=tuple(sorted(pool, key=_by_id)),
                       eval_set=tuple(sorted(eval_set, key=_by_id)))


def subsample_per_domain(
    instances, count: int | None, seed: int, label: str
) -> list[TaskInstance]:
    """``instances`` sorted by id, keeping ``count`` from each domain that
    has more: a sample of the domain's instances in id order, seeded by
    (seed, label, domain) alone, so reruns pick the same ids."""
    by_domain: dict[str, list[TaskInstance]] = {}
    for inst in instances:
        by_domain.setdefault(inst.domain, []).append(inst)
    selected: list[TaskInstance] = []
    for domain, members in by_domain.items():
        if count is not None and count < len(members):
            members = _group_rng(seed, label, domain).sample(sorted(members, key=_by_id), count)
        selected += members
    return sorted(selected, key=_by_id)


def sample_icl_examples(
    split: CorpusSplit, domain: str, task: str, count: int, seed: int
) -> list[TaskInstance]:
    """Pick ``count`` distinct instances of one (domain, task) group from
    ``split.icl_pool``.

    Deterministic in ``seed``; never returns an eval-set instance.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pool = [i for i in split.icl_pool if i.domain == domain and i.task == task]
    if len(pool) < count:
        raise CorpusError(
            f"ICL pool for ({domain!r}, {task!r}) has {len(pool)} instance(s); requested {count}")
    return _group_rng(seed, "icl", domain, task).sample(pool, count)
