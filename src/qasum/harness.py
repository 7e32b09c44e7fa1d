"""Experiment orchestration: the ranking phase, evaluation sweeps, and reports.

Ranking and evaluation are separate steps joined by the ranking file, so
the one-time-per-domain ranking cost is paid once and reused. Evaluation
runs its completion requests through ``CompletionClient.map``, records
per-instance ROUGE rows, and emits plot-ready CSV aggregates;
compare/report render cross-run tables from saved run manifests.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
import csv
import json
import marshal
import os
import signal
import threading
import time
import types
import typing

from .corpus import DEFAULT_DOMAINS, load_corpus, sample_icl_examples, split_corpus, subsample_per_domain
from .lm import CacheStats, CompletionClient, LmConfig
from .metrics import Reference, RougeScore, ScoreRow, aggregate, rouge_scores, tokenize
from .prompting import (IclExample, PARSE_FAILED, ParsedOutput, PromptFrame, parse_output,
                        qa_frame)
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
PARSE_STATUSES = ("ok", "fallback", "failed")
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

    def snapshot(self) -> dict:
        """The config as a manifest stores it: JSON values, tuples as lists,
        so a saved and reloaded manifest equals the one ``run_eval`` returns."""
        return json.loads(json.dumps(asdict(self)))


_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def config_from_file(path, **overrides) -> ExperimentConfig:
    """Build a config from a JSON file, then apply non-None overrides."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
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
    from ``rows``."""

    config: dict
    rows: tuple[ScoreRow, ...]
    cache: CacheStats
    wall_clock_s: float

    @property
    def eval_ids(self) -> tuple[str, ...]:
        """Each row's instance id once, sorted by id as the rows are."""
        return tuple(sorted({row.id for row in self.rows}))

    @property
    def parse_counts(self) -> dict[str, int]:
        """Rows per parse status, in ``PARSE_STATUSES`` order."""
        statuses = [row.parse_status for row in self.rows]
        return {status: statuses.count(status) for status in PARSE_STATUSES}


def _row_to_dict(row: ScoreRow) -> dict:
    out = {
        "id": row.id,
        "method": row.method,
        "domain": row.domain,
        "k": row.k,
        "parse_status": row.parse_status,
    }
    for name, score in (("rouge1", row.rouge1), ("rouge2", row.rouge2), ("rougeL", row.rougeL)):
        out[name] = {"p": score.precision, "r": score.recall, "f1": score.f1}
    return out


def _row_from_dict(doc: dict) -> ScoreRow:
    def score(name):
        s = doc[name]
        if not all(type(s[v]) in (int, float) for v in ("p", "r", "f1")):
            raise TypeError(f"row {doc['id']!r}: {name} scores are not all numbers")
        if not all(0 <= s[v] <= 1 for v in ("p", "r", "f1")):  # false for NaN too
            raise ValueError(f"row {doc['id']!r}: {name} scores are not all in [0, 1]")
        return RougeScore(s["p"], s["r"], s["f1"])

    labels = ("id", "method", "domain", "parse_status")
    if not all(isinstance(doc[key], str) for key in labels) or type(doc["k"]) is not int:
        raise TypeError(f"row {doc['id']!r}: {', '.join(labels)} must be strings and k an int")
    if doc["parse_status"] not in PARSE_STATUSES:
        raise ValueError(f"row {doc['id']!r}: unknown parse_status {doc['parse_status']!r}")
    if not 0 <= doc["k"] <= 10:
        raise ValueError(f"row {doc['id']!r}: k={doc['k']} outside [0, 10]")
    return ScoreRow(
        id=doc["id"],
        method=doc["method"],
        domain=doc["domain"],
        k=doc["k"],
        rouge1=score("rouge1"),
        rouge2=score("rouge2"),
        rougeL=score("rougeL"),
        parse_status=doc["parse_status"],
    )


def save_manifest(manifest: RunManifest, path) -> None:
    """Write ``manifest`` as one compact JSON document: the run's fields on
    the first line, then ``rows`` with one row per line.

    Each row is encoded on its own (``json.dump`` never uses the C
    encoder), so the whole document is never one string in memory.
    """
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    head = encode({
        "config": manifest.config,
        "cache": asdict(manifest.cache),
        "wall_clock_s": manifest.wall_clock_s,
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ',"rows":[')
        separator = "\n"
        for row in manifest.rows:
            fh.write(separator + encode(_row_to_dict(row)))
            separator = ",\n"
        fh.write("\n]}\n")


def load_manifest(path) -> RunManifest:
    """Read a ``save_manifest`` file; ValueError names a file of another shape,
    or a row whose k is outside [0, 10] or whose scores are not all numbers in
    [0, 1]. The ``parse_counts``, ``eval_ids`` and row ``model`` of older files
    are ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not (isinstance(doc["config"], dict) and isinstance(doc["config"].get("lm", {}), dict)
                and doc["rows"]):
            raise TypeError("config and config.lm must be objects, rows non-empty")
        rows = tuple(_row_from_dict(r) for r in doc["rows"])
        if len({(row.id, row.k) for row in rows}) < len(rows):
            raise ValueError("two rows score the same (id, k)")
        return RunManifest(
            config=doc["config"],
            rows=rows,
            cache=CacheStats(**doc["cache"]),
            wall_clock_s=doc["wall_clock_s"],
        )
    except (KeyError, TypeError, ValueError) as exc:
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

Scores = tuple[RougeScore, RougeScore, RougeScore]


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _score(instances, summaries: list[str], per_instance: int) -> list[Scores]:
    """ROUGE-1/2/L of each instance's ``per_instance`` summaries against
    its reference, in order. Instance by instance, so only one reference's
    token table is alive at a time."""
    scores = []
    for n, inst in enumerate(instances):
        reference = Reference.from_text(inst.reference)
        for summary in summaries[n * per_instance : (n + 1) * per_instance]:
            scores.append(rouge_scores(tokenize(summary), reference))
    return scores


def _fork_scorer(instances, summaries: list[str], per_instance: int,
                 other_pipes: list[int]) -> tuple[int, int]:
    """Fork a helper that ``_score``s one share and writes the nine floats
    of each row, as one ``marshal``ed list, to a pipe; returns its pid and
    the pipe's read end. The helper closes every other pipe end, touches
    nothing else it inherited (no store connection, no socket) and leaves
    through ``os._exit``, so no cleanup of the caller's runs twice."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in (read_end, *other_pipes):
                os.close(fd)
            floats = [x for row in _score(instances, summaries, per_instance)
                      for score in row for x in (score.precision, score.recall, score.f1)]
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(floats))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _received(read_end: int, rows: int) -> list[Scores] | None:
    """The ``rows`` scores a helper wrote to ``read_end``, or None when it
    wrote fewer bytes or floats than that."""
    with open(read_end, "rb", closefd=False) as pipe:
        payload = pipe.read()
    try:
        floats = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    if type(floats) is not list or len(floats) != 9 * rows:
        return None
    # Three floats to a score, three scores to a row.
    scores = map(RougeScore, *[iter(floats)] * 3)
    return list(zip(scores, scores, scores))


def _score_rows(instances, summaries: list[str], per_instance: int) -> list[Scores]:
    """``_score`` over every instance, on every usable core.

    The instances are split into contiguous shares, one per usable CPU and
    at most one per instance. The caller scores the first share, and a
    forked helper scores each other one. With no ``os.fork`` (Windows), or
    while another thread is alive, since a fork copies no other thread and
    can leave the child waiting on a lock one of them held, the caller
    scores every share itself. A share whose helper fails, or cannot be
    forked, is scored by the caller too. Each helper is killed if still
    running and reaped before this returns or raises.
    """
    shares = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        shares = max(1, min(_usable_cpus(), len(instances)))
    bounds = [len(instances) * i // shares for i in range(shares + 1)]
    spans = list(zip(bounds, bounds[1:]))

    def share(lo, hi):
        return instances[lo:hi], summaries[lo * per_instance : hi * per_instance], per_instance

    helpers: list[tuple[int, int]] = []
    try:
        for lo, hi in spans[1:]:
            try:
                helpers.append(_fork_scorer(*share(lo, hi), [fd for _, fd in helpers]))
            except OSError:  # no more processes: the caller scores the rest
                break
        scores = _score(*share(*spans[0]))
        for n, (lo, hi) in enumerate(spans[1:]):
            received = None
            if n < len(helpers):
                received = _received(helpers[n][1], (hi - lo) * per_instance)
            scores += _score(*share(lo, hi)) if received is None else received
        return scores
    finally:
        for pid, read_end in helpers:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_eval(cfg: ExperimentConfig, out_dir, *, backend=None) -> RunManifest:
    """Evaluate the configured method over the eval set and k sweep.

    Each domain maps to one question ordering: its own, under the global
    scope the cross-domain one, and for vanilla and icl the empty one, so
    they run at k = 0. The prompt inputs of each (domain, task, k) cell,
    the ordering's first k questions and the group's ICL examples with
    their answers to them, are resolved once per run, and the cell's
    prompt frame is rendered once from them; then the run issues one
    completion per (instance, k), its prompt the instance's article in
    its cell's frame. It scores the rows on every usable core: the caller
    and forked helpers each take a contiguous share of the instances and
    score it instance by instance (``_score_rows``). The rows come out in
    the same order, with the same scores, whatever the number of helpers,
    and no helper outlives the call. A per-request LM error degrades to
    failed rows; configuration and I/O problems, an unreachable or
    rate-limiting backend and replay fixture gaps abort the run.
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
    # requested once.
    answer_jobs: dict[tuple[str, str], tuple] = {}
    for (domain, _), group in examples.items():
        for k in k_values:
            for example in group:
                for q in questions[domain, k]:
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
        return parse_output(client.generate(frame, article).completion, frame.k)

    jobs = [(inst.article, cells[inst.domain, inst.task, k])
            for inst in instances for k in k_values]
    outputs = [_FAILED if parsed is None else parsed for parsed in client.map(summarize, jobs)]

    # Stage 4: score every (instance, k) row on every usable core. Each
    # process scores its share instance by instance, so only one reference's
    # token table is alive at a time in each.
    scores = _score_rows(instances, [parsed.summary for parsed in outputs], len(k_values))
    rows = [
        ScoreRow(
            id=inst.id,
            method=cfg.method,
            domain=inst.domain,
            k=k,
            rouge1=rouge1,
            rouge2=rouge2,
            rougeL=rougeL,
            parse_status=parsed.parse_status,
        )
        for (inst, k), parsed, (rouge1, rouge2, rougeL)
        in zip(((inst, k) for inst in instances for k in k_values), outputs, scores)
    ]
    rows.sort(key=lambda r: (r.id, r.k))

    manifest = RunManifest(
        config=cfg.snapshot(),
        rows=tuple(rows),
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
    _write_csv(
        path,
        ["id", "domain", "method", "k", "parse_status", *METRIC_COLUMNS],
        ([row.id, row.domain, row.method, row.k, row.parse_status]
         + _metric_cells(row.rouge1, row.rouge2, row.rougeL) for row in manifest.rows),
    )


def write_aggregate_csv(manifest: RunManifest, group_by: tuple[str, ...], path) -> None:
    groups = aggregate(list(manifest.rows), group_by)
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
    base_pairs = {(r.id, r.domain) for r in manifests[0].rows}
    for m in manifests[1:]:
        if {(r.id, r.domain) for r in m.rows} != base_pairs:
            raise MismatchedEvalSets("manifests evaluate different instance sets")

    raw = [_manifest_label(m) for m in manifests]
    labels = []
    for i, label in enumerate(raw):
        if raw.count(label) > 1:
            label = f"{label}#{raw[: i + 1].count(label)}"
        labels.append(label)

    # Every manifest has rows in every scope, so its groups line up with ``scopes``.
    scopes = ["overall", *sorted({domain for _, domain in base_pairs})]
    groups = [aggregate(list(m.rows), ()) + aggregate(list(m.rows), ("domain",)) for m in manifests]

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
    rows = list(manifest.rows)
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
