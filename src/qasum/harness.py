"""Experiment orchestration: the ranking phase, evaluation sweeps, and reports.

Ranking and evaluation are separate steps joined by the ranking file, so
the one-time-per-domain ranking cost is paid once and reused. Evaluation
runs its completion requests through ``CompletionClient.map``, records
per-instance ROUGE rows, and emits plot-ready CSV aggregates;
compare/report render cross-run tables from saved run manifests.

A run's rows stay in columns, a ``metrics.ScoreTable``, from scorer to
file to reader: the scorers write each row's nine floats into one array in
(id, k) order, the order ``subsample_per_domain`` gives the instances in,
``load_manifest`` fills the columns from the parsed document, and the
writers and ``aggregate`` read them. No ``ScoreRow`` is built unless a
caller reads one.

A run with a cache directory scores each (reference, summary) pair once
per store: the response store's score memo keeps each row's nine values
under a digest of ``metrics.SCORER_VERSION``, the Unicode version, the
reference and the summary, so a warm rerun reads its scores and scores
only the rows the memo lacks. A run with no cache directory has no memo
and scores every row.
"""

from __future__ import annotations

from array import array
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
import csv
import json
from json.encoder import encode_basestring
import math
import mmap
from operator import itemgetter
import os
import signal
import threading
import time
import types
import typing

from .corpus import (
    CONTROL_CHARACTER,
    DEFAULT_DOMAINS,
    load_corpus,
    sample_icl_examples,
    split_corpus,
    subsample_per_domain,
)
from .lm import CacheStats, CompletionClient, LmConfig, score_keys
from .metrics import (Reference, RougeScore, ScoreTable, aggregate, rouge_values, scorer_fields,
                      tokenize)
from .prompting import (IclExample, PARSE_FAILED, PARSE_STATUSES, ParsedOutput, PromptFrame,
                        parse_output, qa_frame)
from .questions import (
    RankingError,
    RankingTable,
    answer_question,
    ensure_model,
    global_ranking,
    load_ranking,
    rank_questions,
    save_ranking,
    top_k,
)

METHODS = ("vanilla", "icl", "qa")
SCOPES = ("domain_specific", "global")
_LM_FIELDS = frozenset(f.name for f in fields(LmConfig))

METRIC_COLUMNS = ("r1_p", "r1_r", "r1_f", "r2_p", "r2_r", "r2_f", "rl_p", "rl_r", "rl_f")


class MismatchedEvalSets(Exception):
    pass


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    corpus: str
    lm: LmConfig
    method: str = "qa"
    k_values: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    ranking: str | None = None
    scope: str = "domain_specific"
    icl_examples: int = 1
    pool_fraction: float = 0.2
    seed: int = 0
    eval_subsample: int | None = None
    rank_subsample: int | None = None
    cache_dir: str | None = None
    replay_dir: str | None = None
    domains: tuple[str, ...] | None = None
    allow_model_mismatch: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        if not self.k_values:
            raise ValueError("k_values: must list at least one k")
        if self.icl_examples < 1:
            raise ValueError("icl_examples: must be >= 1")
        if self.replay_dir is not None and self.lm.backend != "replay":
            raise ValueError(f"replay_dir: set, but lm.backend is {self.lm.backend!r};"
                             ' replay_dir needs lm.backend "replay"')
        bad = [k for k in self.k_values if not 0 <= k <= 10]
        if bad:
            raise ValueError(f"k values outside [0, 10]: {bad}")
        for key in ("eval_subsample", "rank_subsample"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ValueError(f"{key}: must be >= 1 (null means every instance)")
        if self.domains is not None:
            if not self.domains:
                raise ValueError("domains: must list at least one domain")
            if len(set(self.domains)) != len(self.domains):
                raise ValueError("domains: names must be unique")
            for name in self.domains:
                if CONTROL_CHARACTER.search(name):
                    raise ValueError(f"domains: {name!r} holds a control character")

    def snapshot(self) -> dict:
        """The config as a manifest stores it: JSON values, tuples as lists,
        so a saved and reloaded manifest equals the one ``run_eval`` returns."""
        return json.loads(json.dumps(asdict(self)))


_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def config_from_file(path, **overrides) -> ExperimentConfig:
    """Build a config from a JSON file, then apply non-None overrides. A
    file that cannot be decoded, including one nested too deeply or holding
    an integer too long to convert, raises ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not a JSON document ({type(exc).__name__}: {exc})") from exc
    return config_from_dict(doc, **overrides)


def config_from_dict(doc: dict, **overrides) -> ExperimentConfig:
    """Build a config from a parsed config document, then apply non-None
    overrides. Raises ValueError naming every key that is not a config
    field, at the top level or under ``lm``: ignoring a key would run a
    different experiment than the file describes. Raises ValueError too
    naming each required key that is missing, each value of the wrong
    type, such as ``k_values: expected list of int, got str``, and each
    string that holds a lone surrogate."""
    if not isinstance(doc, dict):
        raise ValueError(f"config: expected object, got {_type_name(type(doc))}")
    if not isinstance(doc.get("lm", {}), dict):
        raise ValueError(f"lm: expected object, got {_type_name(type(doc['lm']))}")
    doc = dict(doc)
    lm_doc = dict(doc.pop("lm", {}))
    for key, value in overrides.items():
        if value is None:
            continue
        if key in _LM_FIELDS:
            lm_doc[key] = value
        else:
            doc[key] = value
    unknown = sorted(set(doc) - _CONFIG_FIELDS) + sorted(f"lm.{key}" for key in set(lm_doc) - _LM_FIELDS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    errors = _field_errors(ExperimentConfig, {**doc, "lm": lm_doc})
    if errors:
        raise ValueError("; ".join(errors))
    for key in ("k_values", "domains"):
        if doc.get(key) is not None:
            doc[key] = tuple(doc[key])
    return ExperimentConfig(lm=LmConfig(**lm_doc), **doc)


def _field_errors(cls, values: dict, prefix: str = "") -> list[str]:
    """Each required field of dataclass ``cls`` missing from ``values``, and
    each value of the wrong type, as ``key: problem``. A field whose type
    is itself a dataclass is checked the same way, one level down."""
    hints = typing.get_type_hints(cls)
    errors = []
    for f in fields(cls):
        key, hint = prefix + f.name, hints[f.name]
        if is_dataclass(hint):
            errors += _field_errors(hint, values[f.name], key + ".")
        elif f.name not in values:
            if f.default is MISSING and f.default_factory is MISSING:
                errors.append(f"{key}: missing")
        elif not _fits(values[f.name], hint):
            errors.append(
                f"{key}: expected {_type_name(hint)}, got {_type_name(type(values[f.name]))}"
            )
        elif _holds_lone_surrogate(values[f.name]):
            errors.append(f"{key}: holds a lone surrogate")
    return errors


def _holds_lone_surrogate(value) -> bool:
    """Whether a config string, or one in a config list, holds a lone
    surrogate, which no UTF-8 file, path or cache key can carry."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_lone_surrogate, value))
    return isinstance(value, str) and any("\ud800" <= c <= "\udfff" for c in value)


def _fits(value, hint) -> bool:
    """Whether a config value has the field type ``hint``: a JSON array
    (or a tuple, from a CLI flag) for a tuple, any number for a float, and
    never a bool for a number."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    """A field type, or a value's type, as a config document spells it."""
    if isinstance(hint, types.UnionType):
        return " or ".join(_type_name(arm) for arm in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return f"list of {_type_name(typing.get_args(hint)[0])}"
    return {dict: "object", float: "number", type(None): "null"}.get(hint, hint.__name__)


@dataclass(frozen=True, slots=True)
class RunManifest:
    """Everything needed to reproduce or re-render one evaluation run. Every
    count and mean it reports, its eval ids and parse counts too, is derived
    from ``rows``, a ``ScoreTable``."""

    config: dict
    rows: ScoreTable
    cache: CacheStats
    wall_clock_s: float

    @property
    def eval_ids(self) -> tuple[str, ...]:
        """Each row's instance id once, sorted by id as the rows are."""
        return tuple(sorted(set(self.rows.id)))

    @property
    def parse_counts(self) -> dict[str, int]:
        """Rows per parse status, in ``PARSE_STATUSES`` order."""
        statuses = self.rows.parse_status
        return {status: statuses.count(status) for status in PARSE_STATUSES}


def _checked_row(doc: dict) -> tuple:
    """A manifest row's values in ``ScoreTable`` column order: its five
    labels, then its nine scores. Raises naming what is wrong with the row."""
    def score(name):
        s = doc[name]
        if not all(type(s[v]) in (int, float) for v in ("p", "r", "f1")):
            raise TypeError(f"row {doc['id']!r}: {name} scores are not all numbers")
        if not all(0 <= s[v] <= 1 for v in ("p", "r", "f1")):  # false for NaN too
            raise ValueError(f"row {doc['id']!r}: {name} scores are not all in [0, 1]")
        return _score_values(s)

    labels = ("id", "method", "domain", "parse_status")
    if not all(isinstance(doc[key], str) for key in labels) or type(doc["k"]) is not int:
        raise TypeError(f"row {doc['id']!r}: {', '.join(labels)} must be strings and k an int")
    if doc["parse_status"] not in PARSE_STATUSES:
        raise ValueError(f"row {doc['id']!r}: unknown parse_status {doc['parse_status']!r}")
    for key in ("id", "method", "domain"):
        found = CONTROL_CHARACTER.search(doc[key])
        if found:
            raise ValueError(f"row {doc['id']!r}: {key} holds control character {found.group()!r}")
    if not 0 <= doc["k"] <= 10:
        raise ValueError(f"row {doc['id']!r}: k={doc['k']} outside [0, 10]")
    return (*_row_values(doc)[:5], *score("rouge1"), *score("rouge2"), *score("rougeL"))


# One manifest row as ``json.dumps(row, ensure_ascii=False,
# separators=(",", ":"))`` writes it: the labels, each through the function
# that encoder quotes strings with, and the numbers through ``repr``, which
# is what it writes for an int and a finite float.
_ROW_TEMPLATE = (
    '{"id":%s,"method":%s,"domain":%s,"k":%r,"parse_status":%s,'
    '"rouge1":{"p":%r,"r":%r,"f1":%r},"rouge2":{"p":%r,"r":%r,"f1":%r},'
    '"rougeL":{"p":%r,"r":%r,"f1":%r}}'
)


def save_manifest(manifest: RunManifest, path) -> None:
    """Write ``manifest`` as one compact JSON document: the run's fields on
    the first line, then ``rows`` with one row per line.

    The first line is encoded by ``json``. Each row is rendered from the
    table's columns by one ``%`` template, exactly as the compact ``json``
    encoder would write it: its labels quoted by
    ``json.encoder.encode_basestring``, the function that encoder quotes
    strings with, and its k and scores through ``repr``. Rows are written
    one at a time, so the whole document is never one string in memory.
    """
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    head = encode({
        "config": manifest.config,
        "cache": asdict(manifest.cache),
        "wall_clock_s": manifest.wall_clock_s,
    })
    table, quote = manifest.rows, encode_basestring
    rows = map(_ROW_TEMPLATE.__mod__, zip(
        map(quote, table.id), map(quote, table.method), map(quote, table.domain), table.k,
        map(quote, table.parse_status), *table.scores))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ',"rows":[')
        separator = "\n"
        for row in rows:
            fh.write(separator + row)
            separator = ",\n"
        fh.write("\n]}\n")


_row_values = itemgetter("id", "method", "domain", "k", "parse_status",
                         "rouge1", "rouge2", "rougeL")
_score_values = itemgetter("p", "r", "f1")


def _table_from_dicts(docs) -> ScoreTable:
    """A manifest's parsed ``rows`` as a table, filled in one pass.

    Each row's values are read out once and pass one chained check: four
    strings, a k in [0, 10], a known parse status, nine floats in [0, 1]
    and an id, method and domain that ``isprintable`` accepts, which no
    text holding a control character is. A row that fails it goes to
    ``_checked_row``, which names its problem, or gives its values when
    the check is stricter than the format (a score written as an int, or a
    label holding U+2029, say). So rows are checked once, in file order,
    and a refusal names the first faulty row."""
    ids, methods, domains, ks, statuses, scores = [], [], [], [], [], []
    for doc in docs:
        try:
            id_, method, domain, k, status, rouge1, rouge2, rougeL = _row_values(doc)
            a, b, c = _score_values(rouge1)
            d, e, f = _score_values(rouge2)
            g, h, i = _score_values(rougeL)
            read = True
        except (KeyError, TypeError):
            read = False
        if not (read and type(id_) is type(method) is type(domain) is type(status) is str
                and type(k) is int and 0 <= k <= 10 and status in PARSE_STATUSES
                and type(a) is type(b) is type(c) is type(d) is type(e) is type(f)
                is type(g) is type(h) is type(i) is float
                and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= c <= 1.0
                and 0.0 <= d <= 1.0 and 0.0 <= e <= 1.0 and 0.0 <= f <= 1.0
                and 0.0 <= g <= 1.0 and 0.0 <= h <= 1.0 and 0.0 <= i <= 1.0
                and id_.isprintable() and method.isprintable() and domain.isprintable()):
            id_, method, domain, k, status, a, b, c, d, e, f, g, h, i = _checked_row(doc)
        ids.append(id_)
        methods.append(method)
        domains.append(domain)
        ks.append(k)
        statuses.append(status)
        scores += a, b, c, d, e, f, g, h, i
    return ScoreTable(ids, methods, domains, ks, statuses, (scores[n::9] for n in range(9)))


def load_manifest(path) -> RunManifest:
    """Read a ``save_manifest`` file; ValueError names a file of another shape,
    or a row whose k is outside [0, 10], whose scores are not all numbers in
    [0, 1], or whose id, method or domain holds a control character, which
    would split its line in a CSV written from it, or cache counts that are
    not non-negative ints, or a wall-clock time that is not a finite
    non-negative number. Rows are checked once each, in file order, so a
    refusal names the first faulty row. The ``parse_counts``, ``eval_ids``
    and row ``model`` of older files are ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not (isinstance(doc["config"], dict) and isinstance(doc["config"].get("lm", {}), dict)
                and doc["rows"]):
            raise TypeError("config and config.lm must be objects, rows non-empty")
        rows = _table_from_dicts(doc["rows"])
        if len(set(zip(rows.id, rows.k))) < len(rows):
            raise ValueError("two rows score the same (id, k)")
        cache = CacheStats(**doc["cache"])
        if not all(type(n) is int and n >= 0 for n in (cache.hits, cache.misses, cache.entries)):
            raise ValueError(f"cache counts are not all non-negative ints: {doc['cache']!r}")
        wall_clock_s = doc["wall_clock_s"]
        if not (type(wall_clock_s) in (int, float) and 0 <= wall_clock_s < math.inf):
            raise ValueError(f"wall_clock_s is not a non-negative number: {wall_clock_s!r}")
        return RunManifest(config=doc["config"], rows=rows, cache=cache,
                           wall_clock_s=wall_clock_s)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not a run manifest ({type(exc).__name__}: {exc})") from exc


def _make_client(cfg: ExperimentConfig, backend=None) -> CompletionClient:
    return CompletionClient(
        cfg.lm, cache_dir=cfg.cache_dir, replay_dir=cfg.replay_dir, backend=backend
    )


def run_rank(cfg: ExperimentConfig, out_path, *, backend=None) -> RankingTable:
    """Rank candidate questions on the ICL pool and write the ranking file."""
    corpus = load_corpus(cfg.corpus, cfg.domains or DEFAULT_DOMAINS)
    split = split_corpus(corpus, cfg.pool_fraction, cfg.seed)
    client = _make_client(cfg, backend)
    table = rank_questions(client, split.icl_pool, subsample=cfg.rank_subsample, seed=cfg.seed)
    save_ranking(table, out_path)
    return table


_FAILED = ParsedOutput(answers=(), summary="", parse_status=PARSE_FAILED)

# The bytes of one row's nine scores in an ``array('d')``.
_ROW_BYTES = 9 * array("d").itemsize


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _score(groups) -> array:
    """ROUGE-1/2/L of each ``(reference, summaries)`` group's summaries
    against its reference text, in order: each row's nine ``rouge_values``,
    row after row, in one ``array('d')``. Group by group, so only one
    reference's token table is alive at a time."""
    scores = array("d")
    for reference, summaries in groups:
        reference = Reference.from_text(reference)
        for summary in summaries:
            scores.extend(rouge_values(tokenize(summary), reference))
    return scores


def _score_rows(groups) -> array:
    """``_score`` over every group, on every usable core.

    The groups are split into contiguous shares, one per usable CPU and at
    most one per group. The caller scores the first share, and a forked
    helper scores each other one. With no ``os.fork`` (Windows), or while
    another thread is alive, since a fork copies no other thread and can
    leave the child waiting on a lock one of them held, the caller scores
    every share itself.

    The helpers hand back their scores through one anonymous shared
    mapping of every row's doubles, which each inherits: a helper writes
    its share's ``array('d')`` bytes into the share's slice, touches
    nothing else it inherited (no store connection, no socket) and leaves
    through ``os._exit``, so no cleanup of the caller's runs twice. A slice
    of any other length is refused, and the helper exits 1. The caller
    reaps the helpers in share order and takes a share's slice only from a
    helper that exited 0; a share whose helper failed, or could not be
    forked, it scores itself. Each helper is killed if still running and
    reaped before this returns or raises.
    """
    shares = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        shares = max(1, min(_usable_cpus(), len(groups)))
    if shares == 1:
        return _score(groups)
    bounds = [len(groups) * i // shares for i in range(shares + 1)]
    spans = list(zip(bounds, bounds[1:]))
    starts = [0]  # each group's first row, then the row count
    for _, summaries in groups:
        starts.append(starts[-1] + len(summaries))

    def place(lo, hi):
        return slice(starts[lo] * _ROW_BYTES, starts[hi] * _ROW_BYTES)

    shared = mmap.mmap(-1, starts[-1] * _ROW_BYTES)
    helpers: list[int] = []  # in share order, each until it is reaped
    try:
        for lo, hi in spans[1:]:
            try:
                pid = os.fork()
            except OSError:  # no more processes: the caller scores the rest
                break
            if pid == 0:
                status = 1
                try:
                    shared[place(lo, hi)] = _score(groups[lo:hi]).tobytes()
                    status = 0
                finally:
                    os._exit(status)
            helpers.append(pid)
        lo, hi = spans[0]
        scores = _score(groups[lo:hi])
        for lo, hi in spans[1:]:
            status = 1
            if helpers:
                status = os.waitpid(helpers[0], 0)[1]
                del helpers[0]
            if status == 0:
                scores.frombytes(shared[place(lo, hi)])
            else:
                scores += _score(groups[lo:hi])
        return scores
    finally:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        shared.close()


def _memoized_scores(store, instances, summaries: list[str], per_instance: int) -> array:
    """What ``_score_rows`` gives for every row, each row's values read
    from ``store``'s score memo where it holds them. The rows it misses
    are scored, grouped by instance, so each reference is still tokenized
    once, and then memoized in one transaction. A store with no directory
    holds and keeps nothing, so there every row is scored."""
    scorer = scorer_fields()
    keys = []
    for n, inst in enumerate(instances):
        keys += score_keys(scorer, inst.reference,
                           summaries[n * per_instance : (n + 1) * per_instance])
    found = store.scores(keys)
    missed = [i for i, key in enumerate(keys) if key not in found]
    if missed:
        groups: dict[int, list[str]] = {}  # by instance, in row order
        for i in missed:
            groups.setdefault(i // per_instance, []).append(summaries[i])
        fresh = _score_rows([(instances[n].reference, group) for n, group in groups.items()])
        rows = [(keys[i], fresh[9 * j : 9 * j + 9]) for j, i in enumerate(missed)]
        store.put_scores(rows)
        found.update(rows)
    scores = array("d")
    for key in keys:
        scores.extend(found[key])
    return scores


def run_eval(cfg: ExperimentConfig, out_dir, *, backend=None) -> RunManifest:
    """Evaluate the configured method over the eval set and k sweep.

    Each domain maps to one question ordering: its own, under the global
    scope the cross-domain one, and for vanilla and icl the empty one, so
    they run at k = 0. The prompt inputs of each (domain, task, k) cell,
    the ordering's first k questions and the group's ICL examples with
    their answers to them, are resolved once per run, and the cell's
    prompt frame is rendered once from them; then the run issues one
    completion per (instance, k), its prompt the instance's article in
    its cell's frame. With a cache directory, each row whose pair the
    store's score memo holds takes its scores from there, and the rest are
    scored and memoized (``_memoized_scores``). It scores the rows on every
    usable core: the caller and forked helpers each take a contiguous share
    of the instances and score it instance by instance (``_score_rows``).
    The rows come out in the same order, with the same scores, whatever the
    number of helpers and whatever the memo held, and no helper outlives
    the call. A per-request LM error degrades to failed rows;
    configuration and I/O problems, an unreachable or rate-limiting
    backend and replay fixture gaps abort the run.
    """
    started = time.monotonic()
    corpus = load_corpus(cfg.corpus, cfg.domains or DEFAULT_DOMAINS)
    split = split_corpus(corpus, cfg.pool_fraction, cfg.seed)
    if not split.eval_set:
        raise ValueError(
            f"the eval set is empty: pool_fraction {cfg.pool_fraction} sends every instance"
            " to the ICL pool, so eval_subsample has nothing to pick from"
        )
    instances = subsample_per_domain(split.eval_set, cfg.eval_subsample, cfg.seed, "eval")
    domains = sorted({inst.domain for inst in instances})

    orderings: dict[str, tuple] = dict.fromkeys(domains, ())
    if cfg.method == "qa":
        if not cfg.ranking:
            raise RankingError("method qa requires a ranking file")
        table = load_ranking(cfg.ranking)
        ensure_model(table, cfg.lm.model, allow_mismatch=cfg.allow_model_mismatch)
        orderings = (dict.fromkeys(domains, global_ranking(table)) if cfg.scope == "global"
                     else table.domains)

    client = _make_client(cfg, backend)

    k_values = tuple(sorted(set(cfg.k_values))) if cfg.method == "qa" else (0,)

    # Stage 1: ICL examples per (domain, task) and questions per (domain, k).
    examples = {
        group: sample_icl_examples(split, *group, cfg.icl_examples, cfg.seed)
        if cfg.method != "vanilla" else []
        for group in dict.fromkeys((inst.domain, inst.task) for inst in instances)
    }
    questions: dict[tuple[str, int], list] = {}
    for domain in domains:
        if domain not in orderings:
            raise RankingError(f"domain {domain!r} not present in ranking table")
        for k in k_values:
            questions[domain, k] = top_k(orderings[domain], k)

    # Stage 2: each example's answer to each question it is shown with,
    # requested once. Every k's questions are a prefix of the largest k's.
    answer_jobs: dict[tuple[str, str], tuple] = {}
    for (domain, _), group in examples.items():
        for example in group:
            for q in questions[domain, k_values[-1]]:
                answer_jobs[example.id, q.key] = (example, q)

    def answer(job) -> str:
        example, question = job
        return answer_question(client, example.article, question)

    answers = dict(zip(answer_jobs, client.map(answer, answer_jobs.values())))

    # One prompt cell per (domain, task, k): the frame rendered from its
    # questions and completed examples, or None when one of those answers
    # failed, which fails only the rows whose prompts need it.
    cells: dict[tuple[str, str, int], PromptFrame | None] = {}
    for (domain, task), group in examples.items():
        for k in k_values:
            qs = questions[domain, k]
            icl = [IclExample(e.article, e.reference, tuple(answers[e.id, q.key] for q in qs))
                   for e in group]
            cells[domain, task, k] = (None if any(None in e.answers for e in icl)
                                      else qa_frame(qs, icl))

    # Stage 3: one completion per (instance, k), parsed. ``generate`` glues
    # the prompt, so only the prompts in flight are alive.
    def summarize(job) -> ParsedOutput:
        article, frame = job
        if frame is None:
            return _FAILED
        completion, _ = client.generate(frame, article)
        return parse_output(completion, frame.k)

    jobs = [(inst.article, cells[inst.domain, inst.task, k])
            for inst in instances for k in k_values]
    outputs = [_FAILED if parsed is None else parsed for parsed in client.map(summarize, jobs)]

    # Stage 4: score every (instance, k) row that the store's score memo
    # lacks, every row with no store, on every usable core. Each process
    # scores its share instance by instance, so only one reference's token
    # table is alive at a time in each.
    scores = _memoized_scores(client.store, instances, [parsed.summary for parsed in outputs],
                              len(k_values))

    # The instances are in id order and each one's rows in ascending k, so
    # the rows are in (id, k) order.
    rows = ScoreTable(
        id=[inst.id for inst in instances for _ in k_values],
        method=[cfg.method] * len(outputs),
        domain=[inst.domain for inst in instances for _ in k_values],
        k=list(k_values) * len(instances),
        parse_status=[parsed.parse_status for parsed in outputs],
        scores=(scores[c::9] for c in range(9)),
    )

    manifest = RunManifest(
        config=cfg.snapshot(),
        rows=rows,
        cache=client.cache_stats(),
        wall_clock_s=time.monotonic() - started,
    )

    os.makedirs(out_dir, exist_ok=True)
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    write_per_instance_csv(manifest, os.path.join(out_dir, "per_instance.csv"))
    write_aggregate_csv(manifest, ("method", "k"), os.path.join(out_dir, "aggregate_method_k.csv"))
    write_aggregate_csv(manifest, ("domain", "k"), os.path.join(out_dir, "aggregate_domain_k.csv"))
    return manifest


def _fmt(value: float) -> str:
    """Scores are fractions internally, rendered 0-100 with 2 decimals."""
    return f"{value * 100:.2f}"


def _metric_cells(r1: RougeScore, r2: RougeScore, rl: RougeScore) -> list[str]:
    return [
        _fmt(r1.precision), _fmt(r1.recall), _fmt(r1.f1),
        _fmt(r2.precision), _fmt(r2.recall), _fmt(r2.f1),
        _fmt(rl.precision), _fmt(rl.recall), _fmt(rl.f1),
    ]


def _write_csv(path, header: list, rows) -> None:
    """Write ``header`` and then ``rows`` in the format of every CSV qasum
    writes: UTF-8, ``\\n`` line ends, the csv module's minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_per_instance_csv(manifest: RunManifest, path) -> None:
    table = manifest.rows
    _write_csv(
        path,
        ["id", "domain", "method", "k", "parse_status", *METRIC_COLUMNS],
        zip(table.id, table.domain, table.method, table.k, table.parse_status,
            *(map(_fmt, column) for column in table.scores)),
    )


def write_aggregate_csv(manifest: RunManifest, group_by: tuple[str, ...], path) -> None:
    groups = aggregate(manifest.rows, group_by)
    fields = [name for name, _ in groups[0].group]
    _write_csv(
        path,
        [*fields, "n", *METRIC_COLUMNS],
        ([value for _, value in g.group] + [g.n] + _metric_cells(g.rouge1, g.rouge2, g.rougeL)
         for g in groups),
    )


def _manifest_label(manifest: RunManifest) -> str:
    method = manifest.config.get("method", "?")
    if method == "qa":
        scope = manifest.config.get("scope", "domain_specific")
        return "qa-ds" if scope == "domain_specific" else "qa-global"
    return method


def run_compare(manifest_paths, out_path) -> list[dict]:
    """Side-by-side mean ROUGE-L with per-domain breakdown and % deltas
    against the first manifest. Each mean is over all of a manifest's rows
    in its scope, pooling every k. Manifests whose rows cover different
    (id, domain) pairs raise MismatchedEvalSets."""
    if len(manifest_paths) < 2:
        raise ValueError("compare needs at least two manifests")
    manifests = [load_manifest(p) for p in manifest_paths]
    base_pairs = set(zip(manifests[0].rows.id, manifests[0].rows.domain))
    for m in manifests[1:]:
        if set(zip(m.rows.id, m.rows.domain)) != base_pairs:
            raise MismatchedEvalSets("manifests evaluate different instance sets")

    raw = [_manifest_label(m) for m in manifests]
    labels = []
    for i, label in enumerate(raw):
        if raw.count(label) > 1:
            label = f"{label}#{raw[: i + 1].count(label)}"
        labels.append(label)

    # Every manifest has rows in every scope, so its groups line up with ``scopes``.
    scopes = ["overall", *sorted({domain for _, domain in base_pairs})]
    groups = [aggregate(m.rows, ()) + aggregate(m.rows, ("domain",)) for m in manifests]

    table = []
    cells = []
    for scope, *scope_groups in zip(scopes, *groups):
        means = [g.rougeL.f1 for g in scope_groups]
        base = means[0]
        deltas = [(mean - base) / base * 100 if base > 0 else None for mean in means[1:]]
        table.append({"scope": scope, **dict(zip(labels, means)),
                      **{f"delta_{label}": d for label, d in zip(labels[1:], deltas)}})
        cells.append([scope, *map(_fmt, means),
                      *("n/a" if d is None else f"{d:+.1f}%" for d in deltas)])

    _write_csv(out_path, ["scope", *labels] + [f"delta_{label}" for label in labels[1:]], cells)
    return table


def run_report(manifest_path, out_dir) -> None:
    """Render a manifest as (a) an overall per-k table, (b) a plot-ready
    per-domain x k CSV, and (c) a parse-status summary."""
    manifest = load_manifest(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    rows = manifest.rows
    model = manifest.config.get("lm", {}).get("model", "?")

    by_method_k = aggregate(rows, ("method", "k"))
    best = max(by_method_k, key=lambda g: g.rougeL.f1)
    lines = [
        "| Method | Model | k | n | ROUGE-1 | ROUGE-2 | ROUGE-L |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for g in by_method_k:
        cells = dict(g.group)
        lines.append(
            f"| {cells['method']} | {model} | {cells['k']} | {g.n} "
            f"| {_fmt(g.rouge1.f1)} | {_fmt(g.rouge2.f1)} | {_fmt(g.rougeL.f1)} |"
        )
    lines.append("")
    lines.append(f"Best k by ROUGE-L: {dict(best.group)['k']} ({_fmt(best.rougeL.f1)})")
    lines.append("")
    with open(os.path.join(out_dir, "overall.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))

    _write_csv(
        os.path.join(out_dir, "by_domain_k.csv"),
        ["domain", "k", "n", "r1_f", "r2_f", "rl_f"],
        ([*(value for _, value in g.group), g.n,
          _fmt(g.rouge1.f1), _fmt(g.rouge2.f1), _fmt(g.rougeL.f1)]
         for g in aggregate(rows, ("domain", "k"))),
    )
    _write_csv(
        os.path.join(out_dir, "parse_summary.csv"),
        ["parse_status", "count"],
        manifest.parse_counts.items(),
    )


__all__ = [
    "ExperimentConfig",
    "MismatchedEvalSets",
    "RunManifest",
    "config_from_dict",
    "config_from_file",
    "load_manifest",
    "run_compare",
    "run_eval",
    "run_rank",
    "run_report",
    "save_manifest",
]
