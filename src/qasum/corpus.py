"""Corpus loading, validation, and ICL-pool / evaluation-set splitting.

Corpus files are newline-delimited JSON, one record per line with fields
exactly ``id``, ``domain``, ``task``, ``article``, ``reference`` (UTF-8).
``load_corpus`` returns a ``Corpus``, the tuple of the file's instances.
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

# Bytes read and decoded at a time; see load_corpus for why 64 KiB.
_BLOCK_BYTES = 1 << 16
# Decodes each record where it sits in its block; configured as the decoder
# json.loads uses, so the two read any line alike.
_DECODER = json.JSONDecoder()


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


class Corpus(tuple):
    """A validated corpus: the tuple of its ``TaskInstance``s in file order."""

    __slots__ = ()


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
    """Load and validate a JSONL corpus; aborts at the first bad line,
    among them one whose domain is not one of ``domains`` (case-sensitive)
    and one holding a byte that is not UTF-8.

    The file is read as bytes, ``_BLOCK_BYTES`` (64 KiB) at a time, and
    each block is decoded once (``_numbered_records``). 64 KiB holds about
    twenty records of a paper-shape corpus and five of 12 KB. Blocks of
    256 KiB or 1 MiB read a corpus of 12 KB lines more slowly, and a block
    is held about three times over while it is decoded (read, joined to
    the line carried into it, and decoded), so a 1 MiB block adds about
    3 MB to peak memory. Each record is decoded where it sits in its
    block; only a line that is not one JSON value up to its line break
    goes through ``json.loads``.

    A record's five fields are read out once, in ``RECORD_FIELDS`` order,
    and a well-formed record passes two checks: a JSON object with exactly
    those keys, and five strings. A record that fails either goes to
    ``_validate_record``, which names what is wrong. Only a record with a
    non-ASCII field is searched for a lone surrogate, since one is never
    ASCII and ``isascii`` is O(1). Only an id or task that ``isprintable``
    refuses is searched for a control character (U+0000 to U+001F,
    U+007F); for ASCII text the two tests agree. Then come the id, domain
    and token checks, and the instance is built from the five values
    positionally.
    """
    instances: list[TaskInstance] = []
    seen: set[str] = set()
    allowed = frozenset(domains)
    for line_no, rec in _numbered_records(path):
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
    return Corpus(instances)


def _numbered_records(path):
    """Yield each line of the file at ``path`` that is not blank as its
    1-based line number and its decoded JSON value, as a text-mode
    reader would count and split the lines (at ``\\n``, ``\\r\\n`` or
    ``\\r``). Raises ``CorpusError`` at the first line that is not JSON,
    or at the first byte that is not UTF-8, once every line before it has
    been yielded.

    The file is read in blocks of ``_BLOCK_BYTES``. A block is cut after
    its last line break, and the part line after it is carried into the
    next block, so no record or UTF-8 character is split. A ``\\r`` that
    ends a block is carried too, as it may start a ``\\r\\n``. A line
    longer than a block is gathered in a list and joined once.
    """
    with open(path, "rb") as fh:
        line_no = 0
        parts: list[bytes] = []  # the line the blocks read so far end inside
        while True:
            block = fh.read(_BLOCK_BYTES)
            if block:
                cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
                if not cut:
                    parts.append(block)
                    continue
                parts.append(block[:cut])
                data = b"".join(parts)
                parts = [block[cut:]]
            else:
                data = b"".join(parts)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # Check the lines before the bad byte's line first.
                start = exc.start
                good = max(data.rfind(b"\n", 0, start), data.rfind(b"\r", 0, start)) + 1
                line_no = yield from _decode_lines(data[:good].decode("utf-8"), line_no)
                raise CorpusError(f"line {line_no + 1}: invalid UTF-8: "
                                  f"byte 0x{data[start]:02x} ({exc.reason})") from None
            line_no = yield from _decode_lines(text, line_no)
            if not block:
                return


def _decode_lines(text: str, line_no: int):
    """Yield the number and JSON value of each line of ``text`` that is not
    blank, numbering on from ``line_no``; return the last line's number.

    A line that is one JSON value ending at its line break is decoded in
    place by ``_DECODER``. Any other line (blank, or with whitespace
    around its value, a BOM, extra data or invalid JSON) goes through
    ``json.loads`` alone, which decodes it or names its fault: invalid JSON,
    an integer too long to convert, or nesting too deep to decode.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    decode = _DECODER.raw_decode
    pos = 0
    end = len(text)
    while pos < end:
        line_no += 1
        stop = text.find("\n", pos)
        if stop < 0:
            stop = end
        try:
            rec, at = decode(text, pos)
        except (ValueError, RecursionError):
            at = -1
        if at != stop:
            line = text[pos:stop + 1]
            if line.isspace():
                pos = stop + 1
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # Besides malformed JSON, the decoder refuses an integer of
                # more than 4,300 digits and nesting past its recursion limit.
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise CorpusError(f"line {line_no}: invalid JSON: {msg}") from exc
        yield line_no, rec
        pos = stop + 1
    return line_no


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
    instances (at least 1) to the ICL pool, the rest to the eval set.

    The instances are sorted by id once, so each group is in id order as
    it is built, and one pass over the sorted instances then deals them to
    the pool and the eval set. Ids are unique, as ``load_corpus`` checks.
    """
    if not 0 < pool_fraction < 1:
        raise ValueError("pool_fraction must be in (0, 1)")
    ordered = sorted(corpus, key=_by_id)
    groups: dict[tuple[str, str], list[TaskInstance]] = {}
    for inst in ordered:
        groups.setdefault((inst.domain, inst.task), []).append(inst)
    pool_ids: set[str] = set()
    for (domain, task), members in sorted(groups.items()):
        if len(members) < 2:
            raise CorpusError(
                f"group ({domain!r}, {task!r}) has {len(members)} instance(s); need >= 2")
        rng = _group_rng(seed, domain, task)
        shuffled = rng.sample(members, len(members))
        n_pool = max(1, math.ceil(pool_fraction * len(members)))
        pool_ids.update(map(_by_id, shuffled[:n_pool]))
    pool: list[TaskInstance] = []
    eval_set: list[TaskInstance] = []
    for inst in ordered:
        (pool if inst.id in pool_ids else eval_set).append(inst)
    return CorpusSplit(icl_pool=tuple(pool), eval_set=tuple(eval_set))


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
